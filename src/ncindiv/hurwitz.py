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
`hurwitz` and `verify` commands, a breadth-first frontier search over
rotation classes:

* Atoms.  Inverse moves carry any factor t to the front unchanged, and
  then the other factors multiply to t^{-1} c, whose k+1 cycles have the
  cyclic gaps of supp t as lengths.  Each of those cycles is itself a
  product of (k+1)-cycles, so each gap is 1 mod k: t is an atom of the
  k-indivisible poset.  There are A = nc_rank_count(n, k, 1) atoms,
  indexed in increasing order of their support bitmasks, and a
  factorization (a_0, ..., a_{n-1}) of atom indices is the int64 sum of
  a_i * A**i.  The masks are int64s, so N <= 62.
* Rotation quotient.  The full twist (sigma_1 ... sigma_{n-1})^n sends
  every factor t to c^{-1} t c, whose support is supp t rotated back
  by one point.  So every orbit is a union of rotation classes, the moves
  commute with rotation, and the search visits one state per class: the
  least packed value over its N rotations (symmetry reduction, Emerson
  and Sistla, Symmetry and model checking, 1996).  An A x N table gives
  each atom's rotations.  The least value has the least last digit, and
  an atom's stabiliser has an order dividing g = gcd(N, k + 1), so the
  rotations reaching it are among g candidates.
* Counting.  For n >= 2 every rotation class holds N states.  The n
  supports of k + 1 points each cover the kn + 1 points and are
  connected (their product is a single cycle), so they form a hypertree
  and two of them share at most one point.  A rotation of
  order s >= 2 fixing a state would fix every support, and two supports
  sharing a point would share its whole orbit of s points; so all
  supports would be disjoint, which a hypertree of n >= 2 edges is not.
  A class thus adds N to the orbit size and its normal forms among its N
  rotations to the class count.
* Frontier.  The moves come in inverse pairs, so the quotient graph is
  undirected and the neighbours of breadth-first layer d lie in layers
  d-1, d and d+1.  The search keeps just those three layers, as sorted
  arrays, and never the whole orbit (Korf et al., Frontier search,
  JACM 2005).
* Chunks and memory.  Layer d is expanded max(1, CHUNK // N)
  representatives at a time, so a chunk's N rotations fill about CHUNK
  rows.  Each chunk's 2(n-1) moves per representative are canonicalized,
  sorted, deduplicated and stripped of the classes in layers d-1 and d
  before the next chunk starts; one sort of the concatenated survivors
  gives layer d+1.  So the working set is layers d-1 and d and the
  survivors (layer d+1 with its repeats across chunks), all as int64s,
  about 1/N of the states; the A x N rotation table; and one chunk's
  rotated digits, masks and candidates, not a layer times the moves.
* Normal forms.  Each commutation class holds exactly one
  lexicographically least word (Anisimov-Knuth 1979; Cartier-Foata
  1969).  A word is that one iff there are no i < j with a_j < a_i and
  supp a_j disjoint from the supports of a_i, ..., a_{j-1}.  Counting
  the states that pass this test, layer by layer, counts the classes
  without visiting any class.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .counting import chain_count, nc_rank_count
from .perm import KParams, Permutation, breadth_first, from_cycles, long_cycle
from .poset import _quotient, build_poset

Factorization = tuple[Permutation, ...]

CHUNK = 1 << 13  # rotated states of a frontier layer expanded at a time
DEFAULT_MAX_STATES = 10_000_000  # orbit cap of `hurwitz` and `verify`


def factorization_product(factors: Factorization) -> Permutation:
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def support(t: Permutation) -> tuple[int, ...]:
    """The points that t moves, in increasing order."""
    return tuple(sorted(x for cyc in t.cycles() if len(cyc) > 1 for x in cyc))


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
    amin, bmin = min(support(a)), min(support(b))
    if amin < bmin:
        return hurwitz_move(factors, i)
    if amin > bmin:
        return hurwitz_move(factors, i, inverse=True)
    return factors


def commute(a: Permutation, b: Permutation) -> bool:
    """True iff the moved points of a and b are disjoint."""
    return set(support(a)).isdisjoint(support(b))


def enumerate_factorizations(params: KParams) -> list[Factorization]:
    """All reduced factorizations, read off the maximal chains of the
    noncrossing partition poset: t_i is the quotient x^{-1} y of the
    chain's i-th cover (x, y), a base element (x^{-1} y <= x^{-1} c <= c),
    looked up once per cover."""
    poset = build_poset(params)
    quotient = _quotient(poset)
    factor = {(i, j): poset.elements[quotient(i, j)].perm for i, j in poset.covers}
    chains = poset.maximal_chains()
    return [tuple(factor[step] for step in zip(c, c[1:])) for c in chains]


def hurwitz_orbit(start: Factorization, max_states: int | None = None) -> set[Factorization]:
    """Breadth-first orbit of a factorization under all Hurwitz moves."""

    def moves(f):
        for i in range(len(f) - 1):
            yield hurwitz_move(f, i)
            yield hurwitz_move(f, i, inverse=True)

    return set(breadth_first(start, moves, max_states))


def commutation_class(start: Factorization) -> set[Factorization]:
    """Orbit of a factorization under swaps of adjacent commuting factors."""

    def swaps(f):
        for i in range(len(f) - 1):
            if commute(f[i], f[i + 1]):
                yield f[:i] + (f[i + 1], f[i]) + f[i + 2 :]

    return set(breadth_first(start, swaps))


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


def phi_parking(factors: Factorization) -> tuple[int, ...]:
    """The k-parking function of a factorization: the tuple of factor
    minima."""
    return tuple(min(support(t)) for t in factors)


def is_parking_function(p: tuple[int, ...], params: KParams) -> bool:
    """True iff sorted entries satisfy p_(i) <= k(i-1) + 1."""
    if len(p) != params.n:
        return False
    return all(
        1 <= v <= params.k * i + 1 for i, v in enumerate(sorted(p))
    )


def enumerate_parking_functions(params: KParams) -> list[tuple[int, ...]]:
    """All k-parking functions of length n, in lexicographic order."""
    values = range(1, params.k * (params.n - 1) + 2)
    candidates = product(values, repeat=params.n)
    return [p for p in candidates if is_parking_function(p, params)]


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
# Frontier search over rotation classes (see the module docstring).
# ---------------------------------------------------------------------------


def check_orbit_size(params: KParams, max_states: int | None = None) -> int:
    """Refuse, with ValueError, an orbit of more than max_states states
    (DEFAULT_MAX_STATES when None) and, for n > 1, one whose support
    masks do not fit an int64 (N > 62) or whose states do not fit the
    int64 packing; return the cap in force."""
    N, k, n = params.N, params.k, params.n
    cap = max_states if max_states is not None else DEFAULT_MAX_STATES
    expected = chain_count(n, k)
    if expected > cap:
        raise ValueError(f"the orbit has {expected} states, more than max_states = {cap}")
    if n > 1:  # the long cycle alone needs no search
        if N > 62:
            raise ValueError(f"N = {N} points do not fit the int64 support masks (N <= 62)")
        # no cap on the A x N atom table is needed: every atom begins a
        # maximal chain, so A <= expected <= cap
        A = nc_rank_count(n, k, 1)
        if A**n > 2**63 - 1:
            raise ValueError(
                f"{A}**{n} packed states exceed the int64 packing limit 2**63 - 1"
            )
    return cap


def orbit_and_class_report(params: KParams, max_states: int | None = None) -> dict:
    """One breadth-first pass over the Hurwitz orbit of the canonical
    factorization, reporting the orbit size and the number of
    commutation classes found inside it.

    The orbit size equaling the chain count N^(n-1) certifies
    transitivity: the orbit consists of valid factorizations and the
    chain count is the total number of them.  A request that
    check_orbit_size refuses is refused before anything is allocated.
    """
    N, k, n = params.N, params.k, params.n
    cap = check_orbit_size(params, max_states)
    expected = chain_count(n, k)
    if n == 1:  # the long cycle is its own only factorization
        orbit_size = class_count = 1
    else:
        orbit_size, class_count = _frontier_search(N, k, n, cap)
    return {
        "orbit_size": orbit_size,
        "expected": expected,
        "transitive": orbit_size == expected,
        "class_count": class_count,
    }


def _atom_index(atoms, query):
    """Index of each query mask among the sorted atom masks; a query
    that is not an atom raises RuntimeError."""
    import numpy as np

    idx = np.minimum(atoms.searchsorted(query), atoms.size - 1)
    if (atoms[idx] != query).any():
        raise RuntimeError("a factor support is not an atom")
    return idx


def _atom_tables(N: int, k: int):
    """The atoms as increasing int64 support masks, and the A x N table
    whose entry [a, r] is the index of atom a rotated by r points
    (x -> x + r mod N)."""
    import numpy as np

    # j-point prefixes of atoms: their gaps are 1 mod k.  Those with top
    # point t extend the sorted (j-1)-point prefixes with top t' < t,
    # t - t' = 1 mod k, so the concatenation over t stays sorted.  The
    # closing gap N - (sum of the others) is then 1 mod k as well.
    atoms = np.left_shift(1, np.arange(N, dtype=np.int64))
    tops = np.arange(N)
    for _ in range(k):
        keep = [(tops < t) & ((t - tops) % k == 1 % k) for t in range(N)]
        atoms = np.concatenate([atoms[s] | 1 << t for t, s in enumerate(keep)])
        tops = np.concatenate([np.full(s.sum(), t) for t, s in enumerate(keep)])
    rot = np.empty((atoms.size, N), dtype=np.int64)
    for r in range(N):
        rot[:, r] = _atom_index(atoms, (atoms & (1 << N - r) - 1) << r | atoms >> N - r)
    return atoms, rot


def _frontier_search(N: int, k: int, n: int, cap: int) -> tuple[int, int]:
    """Orbit size and normal-form count of the canonical factorization's
    Hurwitz orbit (n >= 2, N <= 62)."""
    import numpy as np

    atoms, rot = _atom_tables(N, k)
    A = atoms.size
    power = A ** np.arange(n, dtype=np.int64)
    bits = np.left_shift(1, np.arange(63, dtype=np.int64))
    flat = rot.ravel()
    nearest = rot.argmin(axis=1)  # a rotation giving each atom its least index
    g = gcd(N, k + 1)  # every atom's stabiliser order divides g
    step = N // g

    def canonical(d):
        """Least packed value over the N rotations of each column of
        digits.  The least value has the least last digit, which the
        rotations nearest[a] + j * step (j < g) of the last digit a reach."""
        best = None
        for j in range(g):
            r = (nearest[d[-1]] + j * step) % N
            v = flat[d[0] * N + r] * power[0]
            for i in range(1, n):
                v += flat[d[i] * N + r] * power[i]
            best = v if best is None else np.minimum(best, v)
        return best

    def distinct(x):
        """Sort a fresh 1-d array in place and return its distinct values."""
        x.sort()
        keep = np.ones(x.size, dtype=bool)
        keep[1:] = x[1:] != x[:-1]
        return x[keep]

    def member(x, layer):
        if not layer.size:
            return np.zeros(x.shape, dtype=bool)
        return layer[np.minimum(np.searchsorted(layer, x), layer.size - 1)] == x

    def normal_forms(d, m):
        """How many of the N rotations of the columns are least words of
        their commutation class."""
        turned = rot[d]  # [i, column, r]: digit i of the column rotated by r
        least = np.ones(turned.shape[1:], dtype=bool)
        for j in range(1, n):
            union = np.zeros(d.shape[1], dtype=np.int64)
            for i in range(j - 1, -1, -1):
                union |= m[i]
                # supp a_j is disjoint from supp a_i..a_{j-1}; the union
                # only grows, so no column is free further left either
                free = m[j] & union == 0
                if not free.any():
                    break
                least &= (turned[j] > turned[i]) | ~free[:, None]
        return int(least.sum())

    def moves(d, m):
        """Digit columns of the 2(n-1) Hurwitz moves of each column, with
        repeats."""
        out = []
        for i in range(n - 1):
            ma, mb = m[i], m[i + 1]
            # Adjacent factors of a reduced factorization share at most
            # one point x: their product has reflection length 2k, so
            # their supports cover at least 2k + 1 points.  Without x,
            # both moves swap the pair.
            x = ma & mb
            meet = x != 0
            swap = d[:, ~meet]
            swap[[i, i + 1]] = swap[[i + 1, i]]
            out.append(swap)
            sigma, ma, mb, x = d[:, meet], ma[meet], mb[meet], x[meet]
            # With one, the conjugate's support trades x for b^{-1}(x),
            # the cyclic predecessor of x in supp b, or for a(x), the
            # cyclic successor of x in supp a.
            below, above = mb & (x - 1), ma & ~((x << 1) - 1)
            below = np.where(below != 0, below, mb)
            above = np.where(above != 0, above, ma)
            before = bits[np.searchsorted(bits, below, side="right") - 1]
            after = above & -above
            inverse = sigma.copy()
            sigma[i] = inverse[i + 1]
            sigma[i + 1] = _atom_index(atoms, ma ^ x | before)
            inverse[i + 1] = inverse[i]
            inverse[i] = _atom_index(atoms, mb ^ x | after)
            out += [sigma, inverse]
        return np.concatenate(out, axis=1)

    block = (1 << k + 1) - 1  # the i-th factor of the start is on [ik, ik + k]
    start = _atom_index(atoms, np.array([[block << i * k] for i in range(n)]))
    previous = np.empty(0, dtype=np.int64)
    current = canonical(start)
    per_chunk = max(1, CHUNK // N)  # a chunk's rotations fill CHUNK columns
    orbit_size = class_count = 0
    while current.size:
        survivors = []
        for lo in range(0, current.size, per_chunk):
            d = current[lo : lo + per_chunk] // power[:, None] % A
            m = atoms[d]
            orbit_size += N * d.shape[1]
            class_count += normal_forms(d, m)
            if orbit_size > cap:
                raise RuntimeError(f"orbit exceeded max_states = {cap}")
            candidates = distinct(canonical(moves(d, m)))
            fresh = ~(member(candidates, current) | member(candidates, previous))
            survivors.append(candidates[fresh])
        # drop layer d-1, then the survivors list, before the last sort
        previous = current
        survivors = np.concatenate(survivors)
        current = distinct(survivors)
    return orbit_size, class_count
