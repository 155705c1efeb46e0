"""Hurwitz action on reduced factorizations of the long cycle.

A reduced factorization of c_N is a tuple (t_1, ..., t_n) of
(k+1)-cycles with t_1 * t_2 * ... * t_n = c_N (right factor first).
All factors of such a factorization are increasing cycles, so a factor
is determined by its support.

The braid group acts by Hurwitz moves
    sigma_i:      (t_i, t_{i+1}) -> (t_{i+1}, t_{i+1}^{-1} t_i t_{i+1})
    sigma_i^{-1}: (t_i, t_{i+1}) -> (t_i t_{i+1} t_i^{-1}, t_i)
and the symmetric group by the variant that sorts the factor minima.
Commutation classes are the orbits of the swaps of adjacent factors
with disjoint supports.

The functions on Permutation tuples (hurwitz_orbit, commutation_classes)
are the oracles.  orbit_and_class_report is the engine behind the
`hurwitz` and `verify` commands, a breadth-first frontier search:

* State encoding.  The F = C(N, k+1) possible factors are indexed in
  increasing order of their support bitmasks, and a factorization
  (a_0, ..., a_{n-1}) of indices is the int64 sum of a_i * F**i.  The
  support masks are the only table, an F-array.
* Frontier.  The moves come in inverse pairs, so the orbit graph is
  undirected and the neighbours of breadth-first layer d lie in layers
  d-1, d and d+1.  The search keeps just those three layers, as sorted
  arrays, and never the whole orbit (Korf et al., Frontier search,
  JACM 2005).
* Normal forms.  Each commutation class holds exactly one
  lexicographically least word (Anisimov-Knuth 1979; Cartier-Foata
  1969).  A word is that one iff there are no i < j with a_j < a_i and
  supp a_j disjoint from the supports of a_i, ..., a_{j-1}.  Counting
  the states that pass this test, layer by layer, counts the classes
  without visiting any class.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

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
# Frontier search over int64-packed states (see the module docstring).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def orbit_and_class_report(params: KParams, max_states: int | None = None) -> dict:
    """One breadth-first pass over the Hurwitz orbit of the canonical
    factorization, reporting the orbit size and the number of
    commutation classes found inside it.

    The orbit size equaling the chain count N^(n-1) certifies
    transitivity: the orbit consists of valid factorizations and the
    chain count is the total number of them.  A request whose orbit or
    factor table would exceed max_states, or whose states do not fit
    the int64 packing, is refused with ValueError before anything is
    allocated.
    """
    N, k, n = params.N, params.k, params.n
    cap = max_states if max_states is not None else 20_000_000
    expected = chain_count(n, k)
    if expected > cap:
        raise ValueError(f"the orbit has {expected} states, more than max_states = {cap}")
    F = comb(N, k + 1)
    if F > cap:
        raise ValueError(f"the factor table has {F} rows, more than max_states = {cap}")
    if F**n > 2**63 - 1:
        raise ValueError(
            f"{F}**{n} packed states exceed the int64 packing limit 2**63 - 1"
        )
    # for n = 1 the long cycle is its own only factorization
    orbit_size, class_count = _frontier_search(N, k, n, cap) if n > 1 else (1, 1)
    return {
        "orbit_size": orbit_size,
        "expected": expected,
        "transitive": orbit_size == expected,
        "class_count": class_count,
    }


def _frontier_search(N: int, k: int, n: int, cap: int) -> tuple[int, int]:
    """Orbit size and normal-form count of the canonical factorization's
    Hurwitz orbit (n >= 2)."""
    import numpy as np

    # The (k+1)-subsets of [0, N) as increasing bitmasks: those with top
    # point t are the j-subsets of [0, t), a prefix of the level below,
    # with bit t added.
    masks = np.zeros(1, dtype=np.int64)
    for j in range(1, k + 2):
        masks = np.concatenate(
            [masks[: comb(t, j - 1)] | 1 << t for t in range(j - 1, N)]
        )
    F = len(masks)

    def member(x, layer):
        if not layer.size:
            return np.zeros(x.shape, dtype=bool)
        return layer[np.minimum(np.searchsorted(layer, x), layer.size - 1)] == x

    def normal_forms(m):
        """How many rows of factor masks are least words of their class."""
        least = np.ones(len(m), dtype=bool)
        for j in range(1, n):
            union = np.zeros(len(m), dtype=np.int64)
            for i in range(j - 1, -1, -1):
                union |= m[:, i]
                least &= (m[:, j] >= m[:, i]) | (m[:, j] & union != 0)
        return int(least.sum())

    power = F ** np.arange(n, dtype=np.int64)
    block = (1 << k + 1) - 1  # the i-th factor of the start is on [ik, ik + k]
    start = int(np.searchsorted(masks, [block << i * k for i in range(n)]) @ power)
    previous = np.empty(0, dtype=np.int64)
    current = np.array([start], dtype=np.int64)
    orbit_size = class_count = 0
    while current.size:
        orbit_size += current.size
        if orbit_size > cap:
            raise RuntimeError(f"orbit exceeded max_states = {cap}")
        digits = current[:, None] // power % F
        m = masks[digits]
        class_count += normal_forms(m)
        moved = []
        for i in range(n - 1):
            a, b, ma, mb = digits[:, i], digits[:, i + 1], m[:, i], m[:, i + 1]
            rest = current - a * power[i] - b * power[i + 1]
            # Adjacent factors of a reduced factorization share at most
            # one point x: their product has reflection length 2k, so
            # their supports cover at least 2k + 1 points.  Without x,
            # both moves swap the pair.
            x = ma & mb
            meet = x != 0
            moved.append((rest + b * power[i] + a * power[i + 1])[~meet])
            rest, a, b, ma, mb, x = (v[meet] for v in (rest, a, b, ma, mb, x))
            # With one, the conjugate's support trades x for b^{-1}(x),
            # the cyclic predecessor of x in supp b, or for a(x), the
            # cyclic successor of x in supp a.
            below, above = mb & (x - 1), ma & ~((x << 1) - 1)
            below = np.where(below != 0, below, mb)
            above = np.where(above != 0, above, ma)
            # highest bit via the float exponent, exact as the packing
            # limit keeps N below 53; lowest bit as v & -v
            before = np.left_shift(1, np.frexp(below)[1] - 1, dtype=np.int64)
            after = above & -above
            c = np.searchsorted(masks, ma ^ x | before)
            d = np.searchsorted(masks, mb ^ x | after)
            moved.append(rest + b * power[i] + c * power[i + 1])
            moved.append(rest + d * power[i] + a * power[i + 1])
        nxt = np.concatenate(moved)
        nxt.sort()
        nxt = nxt[np.concatenate(([True], nxt[1:] != nxt[:-1]))]
        nxt = nxt[~(member(nxt, current) | member(nxt, previous))]
        previous, current = current, nxt
    return orbit_size, class_count
