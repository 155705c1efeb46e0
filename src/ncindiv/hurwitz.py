"""Hurwitz action on reduced factorizations of the long cycle.

A reduced factorization of c_N is a tuple (t_1, ..., t_n) of
(k+1)-cycles with t_1 * t_2 * ... * t_n = c_N (right factor first).
All factors of such a factorization are increasing cycles, so a factor
is determined by its support; the fast breadth-first search below
exploits this by encoding factors as support bitmasks.

The braid group acts by Hurwitz moves
    sigma_i:      (t_i, t_{i+1}) -> (t_{i+1}, t_{i+1}^{-1} t_i t_{i+1})
    sigma_i^{-1}: (t_i, t_{i+1}) -> (t_i t_{i+1} t_i^{-1}, t_i)
and the symmetric group by the variant that sorts the factor minima.
Commutation classes are the orbits of the swaps of adjacent factors
with disjoint supports.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .counting import chain_count
from .perm import KParams, Permutation, from_cycles, long_cycle
from .poset import build_poset

Factorization = tuple[Permutation, ...]


def factorization_product(factors: Factorization) -> Permutation:
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def is_reduced_factorization(factors: Factorization, params: KParams) -> bool:
    """n factors, each a (k+1)-cycle, multiplying to the long cycle."""
    if len(factors) != params.n:
        return False
    for f in factors:
        if sum(1 for cyc in f.cycles() if len(cyc) > 1) != 1:
            return False
        if max(len(cyc) for cyc in f.cycles()) != params.k + 1:
            return False
    return factorization_product(factors) == long_cycle(params.N)


def hurwitz_move(factors: Factorization, i: int, inverse: bool = False) -> Factorization:
    """Apply sigma_{i+1} (0-based position i) or its inverse."""
    if not 0 <= i < len(factors) - 1:
        raise ValueError("move position out of range")
    a, b = factors[i], factors[i + 1]
    if inverse:
        pair = (a * b * a.inverse(), a)
    else:
        pair = (b, b.inverse() * a * b)
    return factors[:i] + pair + factors[i + 2 :]


def sym_action(factors: Factorization, i: int) -> Factorization:
    """The symmetric-group variant s_{i+1}: acts as sigma if the factor
    minima are increasing at position i, as its inverse if decreasing,
    and trivially if equal.  Swaps the two minima."""
    a, b = factors[i], factors[i + 1]
    amin = min(x for cyc in a.cycles() if len(cyc) > 1 for x in cyc)
    bmin = min(x for cyc in b.cycles() if len(cyc) > 1 for x in cyc)
    if amin < bmin:
        return hurwitz_move(factors, i)
    if amin > bmin:
        return hurwitz_move(factors, i, inverse=True)
    return factors


def commute(a: Permutation, b: Permutation) -> bool:
    """True iff the moved points of a and b are disjoint."""
    sa = {x for cyc in a.cycles() if len(cyc) > 1 for x in cyc}
    sb = {x for cyc in b.cycles() if len(cyc) > 1 for x in cyc}
    return not (sa & sb)


def enumerate_factorizations(params: KParams) -> list[Factorization]:
    """All reduced factorizations, read off the maximal chains of the
    noncrossing partition poset (t_i is the i-th cover quotient)."""
    poset = build_poset(params)
    out = []
    for chain in poset.maximal_chains():
        perms = [poset.elements[i].perm for i in chain]
        out.append(
            tuple(a.inverse() * b for a, b in zip(perms, perms[1:]))
        )
    return out


def hurwitz_orbit(start: Factorization, max_states: int | None = None) -> set[Factorization]:
    """Breadth-first orbit of a factorization under all Hurwitz moves."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            for i in range(len(f) - 1):
                for inv in (False, True):
                    g = hurwitz_move(f, i, inverse=inv)
                    if g not in seen:
                        if max_states is not None and len(seen) >= max_states:
                            raise RuntimeError(
                                f"orbit exceeded max_states = {max_states}"
                            )
                        seen.add(g)
                        nxt.append(g)
        frontier = nxt
    return seen


def commutation_class(start: Factorization) -> set[Factorization]:
    """Orbit of a factorization under swaps of adjacent commuting factors."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            for i in range(len(f) - 1):
                if commute(f[i], f[i + 1]):
                    g = f[:i] + (f[i + 1], f[i]) + f[i + 2 :]
                    if g not in seen:
                        seen.add(g)
                        nxt.append(g)
        frontier = nxt
    return seen


def commutation_classes(factorizations: list[Factorization]) -> list[set[Factorization]]:
    """Partition a set of factorizations into commutation classes."""
    remaining = set(factorizations)
    classes = []
    while remaining:
        cls = commutation_class(next(iter(remaining)))
        if not cls <= remaining:
            raise ValueError("input is not closed under commutation moves")
        remaining -= cls
        classes.append(cls)
    return classes


def class_representative(cls: set[Factorization]) -> Factorization:
    """Lexicographically least member, by factor image tuples."""
    return min(cls, key=lambda f: tuple(t.image for t in f))


def phi_parking(factors: Factorization) -> tuple[int, ...]:
    """The k-parking function of a factorization: the tuple of factor
    minima."""
    return tuple(
        min(x for cyc in t.cycles() if len(cyc) > 1 for x in cyc) for t in factors
    )


def is_parking_function(p: tuple[int, ...], params: KParams) -> bool:
    """True iff sorted entries satisfy p_(i) <= k(i-1) + 1."""
    if len(p) != params.n:
        return False
    return all(
        1 <= v <= params.k * i + 1 for i, v in enumerate(sorted(p))
    )


def enumerate_parking_functions(params: KParams) -> list[tuple[int, ...]]:
    """All k-parking functions of length n, in lexicographic order."""
    n, k = params.n, params.k
    out: list[tuple[int, ...]] = []

    def extend(acc: list[int]) -> None:
        if len(acc) == n:
            if is_parking_function(tuple(acc), params):
                out.append(tuple(acc))
            return
        for v in range(1, k * (n - 1) + 2):
            extend(acc + [v])

    extend([])
    return out


def _peel_sorted(p: tuple[int, ...], labels: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Factorization (as support tuples in original labels) for a
    nondecreasing parking function, by repeatedly removing the last
    factor, which is the consecutive block starting at the largest
    entry."""
    if not p:
        return []
    a = p[-1]
    support = labels[a - 1 : a + k]
    rest_labels = labels[: a] + labels[a + k :]
    return _peel_sorted(p[:-1], rest_labels, k) + [support]


def phi_inverse(p: tuple[int, ...], params: KParams) -> Factorization:
    """The unique factorization with the given parking function.

    Sorting moves are recorded as adjacent swaps and replayed through
    the symmetric-group action, which permutes minima the same way.
    """
    if not is_parking_function(p, params):
        raise ValueError(f"{p} is not a {params.k}-parking function of length {params.n}")
    n, k, N = params.n, params.k, params.N
    # bubble sort p, recording swap positions
    work = list(p)
    swaps: list[int] = []
    for stop in range(n - 1, 0, -1):
        for i in range(stop):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                swaps.append(i)
    supports = _peel_sorted(tuple(work), tuple(range(1, N + 1)), k)
    factors: Factorization = tuple(from_cycles(N, (s,)) for s in supports)
    for i in reversed(swaps):
        factors = sym_action(factors, i)
    if phi_parking(factors) != tuple(p):
        raise AssertionError("parking inverse failed to reproduce the input")
    return factors


# ---------------------------------------------------------------------------
# Packed fast path for large orbits (N <= 14 or so; supports as bitmasks).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _factor_tables(N: int, k: int):
    """Support-indexed tables for all increasing (k+1)-cycles on [N]:
    support masks, an index lookup, and per-factor mask-image tables
    under the cycle and its inverse."""
    supports = list(combinations(range(N), k + 1))
    index = {}
    supp_mask = []
    for i, s in enumerate(supports):
        mask = 0
        for b in s:
            mask |= 1 << b
        supp_mask.append(mask)
        index[mask] = i
    size = 1 << N
    fwd_tables, inv_tables = [], []
    for s in supports:
        fwd_bit = list(range(N))
        for a, b in zip(s, s[1:] + s[:1]):
            fwd_bit[a] = b
        inv_bit = list(range(N))
        for a, b in enumerate(fwd_bit):
            inv_bit[b] = a
        fwd = [0] * size
        inv = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            b = low.bit_length() - 1
            rest = mask ^ low
            fwd[mask] = fwd[rest] | 1 << fwd_bit[b]
            inv[mask] = inv[rest] | 1 << inv_bit[b]
        fwd_tables.append(fwd)
        inv_tables.append(inv)
    return supp_mask, index, fwd_tables, inv_tables


def _canonical_start_packed(params: KParams):
    """The consecutive-blocks factorization as factor indices."""
    N, k, n = params.N, params.k, params.n
    supp_mask, index, _fwd, _inv = _factor_tables(N, k)
    start = []
    for i in range(n):
        mask = 0
        for x in range(i * k, i * k + k + 1):
            mask |= 1 << x
        start.append(index[mask])
    factors = tuple(
        from_cycles(N, (tuple(range(i * k + 1, i * k + k + 2)),)) for i in range(n)
    )
    assert factorization_product(factors) == long_cycle(N)
    return tuple(start)


@lru_cache(maxsize=32)
def orbit_and_class_report(params: KParams, max_states: int | None = None) -> dict:
    """One breadth-first pass over the Hurwitz orbit of the canonical
    factorization, reporting the orbit size and the number of
    commutation classes found inside it.

    The orbit size equaling the chain count N^(n-1) certifies
    transitivity: the orbit consists of valid factorizations and the
    chain count is the total number of them.
    """
    N, k, n = params.N, params.k, params.n
    supp_mask, index, fwd_tables, inv_tables = _factor_tables(N, k)
    start = _canonical_start_packed(params)
    cap = max_states if max_states is not None else 20_000_000
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for i in range(n - 1):
                a, b = state[i], state[i + 1]
                # sigma_i
                s1 = state[:i] + (b, index[inv_tables[b][supp_mask[a]]]) + state[i + 2 :]
                if s1 not in seen:
                    seen.add(s1)
                    nxt.append(s1)
                # sigma_i inverse
                s2 = state[:i] + (index[fwd_tables[a][supp_mask[b]]], a) + state[i + 2 :]
                if s2 not in seen:
                    seen.add(s2)
                    nxt.append(s2)
            if len(seen) > cap:
                raise RuntimeError(f"orbit exceeded max_states = {cap}")
        frontier = nxt
    orbit_size = len(seen)

    # flood-fill the commuting-swap components, consuming the orbit set
    class_count = 0
    class_sizes: dict[int, int] = {}
    while seen:
        state = seen.pop()
        stack = [state]
        size = 1
        while stack:
            f = stack.pop()
            for i in range(n - 1):
                a, b = f[i], f[i + 1]
                if supp_mask[a] & supp_mask[b]:
                    continue
                g = f[:i] + (b, a) + f[i + 2 :]
                if g in seen:
                    seen.remove(g)
                    stack.append(g)
                    size += 1
        class_count += 1
        class_sizes[size] = class_sizes.get(size, 0) + 1
    return {
        "orbit_size": orbit_size,
        "expected": chain_count(n, k),
        "transitive": orbit_size == chain_count(n, k),
        "class_count": class_count,
        "class_sizes": class_sizes,
    }
