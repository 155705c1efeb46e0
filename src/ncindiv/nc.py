"""k-indivisible noncrossing partitions of [N], N = kn + 1.

A noncrossing partition is identified with the permutation whose cycles
are the blocks, each traversed in increasing order.  The element w lies
in the k-indivisible family when three equivalent conditions hold:

  (i)   w is below the long cycle in the order generated by
        (k+1)-cycles, witnessed by word lengths adding up;
  (ii)  w is noncrossing and both w and its Kreweras complement have
        all cycle lengths congruent to 1 mod k;
  (iii) w is noncrossing, has all cycle lengths 1 mod k, and every two
        consecutive entries i < j of a block satisfy j - i = 1 mod k.

The recursive generator below produces the family directly from (iii);
a brute-force filter over the full symmetric group doubles as an oracle
at small N.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _sym_group

from .perm import (
    KParams,
    Permutation,
    ell_k,
    ell_k_oracle,
    format_cycles,
    is_one_mod_k,
    long_cycle,
)

ENUMERATION_MAX_N = 13  # the one ground-set cap: larger requests are refused


def crossing_witness(w: Permutation) -> tuple[int, int, int, int] | None:
    """A quadruple a < c < b < d with a, b in one block and c, d in
    another, or None if the blocks of w are pairwise noncrossing."""
    supports = [cyc for cyc in w.cycles() if len(cyc) > 1]
    for idx1 in range(len(supports)):
        for idx2 in range(idx1 + 1, len(supports)):
            merged = sorted(
                [(x, 0) for x in supports[idx1]] + [(x, 1) for x in supports[idx2]]
            )
            # Crossing iff the origin sequence alternates through 4 runs.
            runs: list[tuple[int, int]] = []
            for x, origin in merged:
                if not runs or runs[-1][1] != origin:
                    runs.append((x, origin))
            if len(runs) >= 4:
                return (runs[0][0], runs[1][0], runs[2][0], runs[3][0])
    return None


def has_increasing_cycles(w: Permutation) -> bool:
    """True iff every cycle of w, started at its minimum, is increasing;
    this is what makes a permutation the avatar of a set partition."""
    return all(all(a < b for a, b in zip(cyc, cyc[1:])) for cyc in w.cycles())


def is_noncrossing(w: Permutation) -> bool:
    """True iff w is a noncrossing partition of [degree]: increasing
    cycles with pairwise noncrossing supports."""
    return has_increasing_cycles(w) and crossing_witness(w) is None


def kreweras(w: Permutation) -> Permutation:
    """Kreweras complement w^{-1} * (1 2 ... N)."""
    return w.inverse() * long_cycle(w.degree)


def is_k_indivisible_i(w: Permutation, params: KParams) -> bool:
    """Characterization (i): w is below the long cycle in the order
    generated by (k+1)-cycles, i.e. the word lengths of w and of the
    complement w^{-1} c add up to n."""
    k, n, N = params.k, params.n, params.N
    if w.degree != N:
        raise ValueError("degree mismatch")
    if k % 2 == 0 and not w.is_even():
        return False
    u = w.inverse() * long_cycle(N)
    a = ell_k(w, k)
    b = ell_k(u, k)
    if a is not None and b is not None:
        return a + b == n
    if N <= 8:
        try:
            return ell_k_oracle(w, k) + ell_k_oracle(u, k) == n
        except ValueError:
            return False
    # A permutation below a 1-mod-k element is itself 1 mod k, so a
    # factor with undefined closed form cannot participate.
    return False


def is_k_indivisible_ii(w: Permutation, params: KParams) -> bool:
    """Characterization (ii): noncrossing, and both w and its Kreweras
    complement have all cycle lengths 1 mod k."""
    if w.degree != params.N:
        raise ValueError("degree mismatch")
    return (
        is_noncrossing(w)
        and is_one_mod_k(w, params.k)
        and is_one_mod_k(kreweras(w), params.k)
    )


def is_k_indivisible_iii(w: Permutation, params: KParams) -> bool:
    """Characterization (iii): noncrossing, all cycle lengths 1 mod k,
    and consecutive entries i < j within a block satisfy j - i = 1 mod k
    (the wrap-around pair of a block is exempt)."""
    if w.degree != params.N:
        raise ValueError("degree mismatch")
    k = params.k
    if not (is_noncrossing(w) and is_one_mod_k(w, k)):
        return False
    for cyc in w.cycles():
        for a, b in zip(cyc, cyc[1:]):
            if (b - a) % k != 1 % k:
                return False
    return True


@dataclass(frozen=True)
class NoncrossingElement:
    """A k-indivisible noncrossing partition, validated on creation."""

    perm: Permutation
    params: KParams

    def __post_init__(self) -> None:
        if not is_k_indivisible_iii(self.perm, self.params):
            raise ValueError(
                f"{format_cycles(self.perm)} is not a k-indivisible "
                f"noncrossing partition for k={self.params.k}, n={self.params.n}"
            )

    @property
    def rank(self) -> int:
        r = ell_k(self.perm, self.params.k)
        assert r is not None
        return r

    def to_record(self) -> dict:
        """JSON-ready record with fixed points omitted."""
        return {
            "n": self.params.n,
            "k": self.params.k,
            "cycles": [list(c) for c in self.perm.cycles(with_fixed_points=False)],
        }

    def __str__(self) -> str:
        return format_cycles(self.perm)


def _region_partitions(lo: int, hi: int, k: int):
    """All noncrossing partitions of the interval [lo, hi] whose blocks
    have sizes 1 mod k and consecutive gaps 1 mod k, as block tuples."""
    if lo > hi:
        yield ()
        return
    for block, inner in _first_block(lo, hi, k):
        for tail in _region_partitions(block[-1] + 1, hi, k):
            yield (block,) + inner + tail


def _first_block(lo: int, hi: int, k: int):
    """The block containing lo together with the partitions of the gaps
    it encloses, for intervals [lo, hi]."""
    stack = [((lo,), ())]
    while stack:
        block, inner = stack.pop()
        if len(block) % k == 1 % k:
            yield block, inner
        e = block[-1]
        for f in range(e + 1, hi + 1, k):
            for gap in _region_partitions(e + 1, f - 1, k):
                stack.append((block + (f,), inner + gap))


def iter_nc(params: KParams):
    """Lazily generate the k-indivisible noncrossing partitions of [N]
    (order unspecified)."""
    from .perm import from_cycles

    N = params.N
    for blocks in _region_partitions(1, N, params.k):
        yield NoncrossingElement(from_cycles(N, blocks), params)


def check_ground_set(params: KParams) -> None:
    """Refuse, with ValueError, a full enumeration of [N] past
    ENUMERATION_MAX_N, before anything is built."""
    if params.N > ENUMERATION_MAX_N:
        raise ValueError(
            f"refusing full poset build at N = {params.N} > {ENUMERATION_MAX_N}"
        )


def enumerate_nc(params: KParams) -> list[NoncrossingElement]:
    """All k-indivisible noncrossing partitions of [N], sorted by the
    image tuple of the underlying permutation."""
    check_ground_set(params)
    out = list(iter_nc(params))
    out.sort(key=lambda e: e.perm.image)
    return out


def generated_count(params: KParams) -> int:
    """Number of k-indivisible noncrossing partitions obtained by
    running the recursive generator, without materializing elements."""
    return sum(1 for _ in _region_partitions(1, params.N, params.k))


def generated_rank_census(params: KParams) -> dict[int, int]:
    """Number of generated elements per rank; the rank of a partition
    with b blocks is (N - b) / k."""
    census: dict[int, int] = {}
    N, k = params.N, params.k
    for blocks in _region_partitions(1, N, k):
        r, rem = divmod(N - len(blocks), k)
        assert rem == 0
        census[r] = census.get(r, 0) + 1
    return census


def nc_filter_oracle(params: KParams) -> list[Permutation]:
    """Brute-force oracle: filter the full symmetric group on [N] by
    characterization (ii).  Only feasible for N <= 7."""
    N = params.N
    if N > 7:
        raise ValueError("symmetric-group filter limited to N <= 7")
    out = []
    for image in _sym_group(range(1, N + 1)):
        w = Permutation(tuple(image))
        if is_k_indivisible_ii(w, params):
            out.append(w)
    return out
