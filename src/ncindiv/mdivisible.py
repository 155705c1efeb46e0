"""m-divisible k-indivisible noncrossing partitions.

Elements are m-element multichains x_1 <= ... <= x_m in the poset of
k-indivisible noncrossing partitions of [N].  Writing x_0 = identity
and x_{m+1} = long cycle, the delta sequence of a multichain is
d_i = x_i^{-1} x_{i+1} for i = 0..m.  The order reverses the deltas
componentwise away from d_0: C <= C' iff d_i >= d'_i in the
(k+1)-cycle order for every i in 1..m.

Each of the deltas d_1..d_m is itself an element of the base poset:
x_i <= x_{i+1} <= c gives x_i^{-1} x_{i+1} <= x_i^{-1} c <= c.  So the
order is read off the base poset's down masks, with no pairwise test:
the chains below C' are those whose i-th delta lies above d'_i in the
base poset for every i.

The up-set of a chain C is the product of the lower intervals
[e, d_i(C)], i = 1..m (Armstrong, Generalized noncrossing partitions and
combinatorics of Coxeter groups, Mem. AMS 2009): every tuple of deltas
below those of C is the delta tuple of a chain.  So the size, zeta at
q = 2 and both Mobius invariants are sums over m-chains of products of
weights of their deltas, and mdiv_sums computes them by a transfer over
the comparable pairs of the base poset, with no m-chain listed.

The maximum is the constant chain at the long cycle; there are many
minimal elements, the chains with x_1 = e, so Mobius invariants are
studied on two completions: with an artificial bottom adjoined (hat)
and with all minimal elements identified (bar).

Both builders, build_mdiv_poset (the order, which the mdiv command
prints) and mdiv_sums, read the deltas through poset._quotient: the
base index of x^{-1} y, read off image tuples.  mdiv_sums takes the
base poset from its caller, so verify lists it once.  The oracles are
mchain_leq, the order's direct definition on Permutation products, and
mdiv_mobius_{hat,bar}_brute, the Mobius recursion on the completions of
the order; mdiv_sums is tested against build_mdiv_poset and those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .perm import KParams, Permutation, format_cycles, long_cycle
from .poset import HasseDiagram, _bits, _quotient, build_poset, leq_nc


@dataclass(frozen=True)
class MChain:
    """An m-multichain in the k-indivisible noncrossing poset."""

    chain: tuple[Permutation, ...]
    params: KParams

    def deltas(self) -> tuple[Permutation, ...]:
        """d_0 = x_1, d_i = x_i^{-1} x_{i+1}, d_m = x_m^{-1} c_N."""
        ext = self.chain + (long_cycle(self.params.N),)
        out = [self.chain[0]]
        for a, b in zip(ext, ext[1:]):
            out.append(a.inverse() * b)
        return tuple(out)

    def __str__(self) -> str:
        return " <= ".join(format_cycles(x) for x in self.chain)


def mchain_leq(c1: MChain, c2: MChain) -> bool:
    """c1 <= c2 iff every delta of c2 past the zeroth divides the
    corresponding delta of c1 in the (k+1)-cycle order."""
    k = c1.params.k
    d1, d2 = c1.deltas(), c2.deltas()
    return all(leq_nc(b, a, k) for a, b in zip(d1[1:], d2[1:]))


def build_mdiv_poset(params: KParams, m: int) -> HasseDiagram:
    """Poset of m-divisible k-indivisible noncrossing partitions."""
    if m < 1:
        raise ValueError("need m >= 1")
    base = build_poset(params)
    quotient, top = _quotient(base), base.top()
    indices = base.multichains(m)
    chains = tuple(MChain(tuple(base.elements[i].perm for i in c), params) for c in indices)
    rank = tuple(base.rank[c[0]] for c in indices)
    deltas = [list(map(quotient, c, c[1:] + (top,))) for c in indices]
    # with_delta[i][f]: chains whose delta d_{i+1} is base element f
    with_delta = [[0] * len(base) for _ in range(m)]
    for c, row in enumerate(deltas):
        for i, f in enumerate(row):
            with_delta[i][f] |= 1 << c
    # above[i][g]: chains whose delta d_{i+1} is >= g, the union of
    # with_delta[i][f] over the f with g in base.down[f]
    above = [[0] * len(base) for _ in range(m)]
    for masks, row in zip(with_delta, above):
        for f, mask in enumerate(masks):
            for g in _bits(base.down[f]):
                row[g] |= mask
    down = tuple(reduce(and_, (above[i][g] for i, g in enumerate(row))) for row in deltas)
    return HasseDiagram(chains, rank=rank, down=down)


def with_bottom(poset: HasseDiagram) -> HasseDiagram:
    """The same poset with one artificial bottom element, "0", adjoined
    as element 0: every mask shifts up one place and gains the bottom."""
    return HasseDiagram(
        ("0",) + tuple(poset.elements),
        down=(1,) + tuple(d << 1 | 1 for d in poset.down),
    )


def with_merged_minima(poset: HasseDiagram) -> HasseDiagram:
    """The quotient identifying all minimal elements with one, "min",
    as element 0.  Every other element lies above some minimal one, so
    its mask keeps the other elements below it, renumbered, and gains
    element 0."""
    keep = [i for i, d in enumerate(poset.down) if d != 1 << i]
    bit = {old: 1 << new for new, old in enumerate(keep, 1)}
    down = (1,) + tuple(
        1 | sum(bit[i] for i in _bits(poset.down[j]) if i in bit) for j in keep
    )
    return HasseDiagram(("min",) + tuple(poset.elements[i] for i in keep), down=down)


def mdiv_mobius_hat_brute(params: KParams, m: int) -> int:
    """Mobius invariant of the m-divisible poset with a bottom adjoined."""
    return with_bottom(build_mdiv_poset(params, m)).mobius_invariant()


def mdiv_mobius_bar_brute(params: KParams, m: int) -> int:
    """Mobius invariant of the m-divisible poset with minima merged."""
    return with_merged_minima(build_mdiv_poset(params, m)).mobius_invariant()


def mdiv_sums(base: HasseDiagram, m: int) -> list[tuple[int, int, int, int]]:
    """For every m' = 1..m, entry m' - 1: the size, zeta at q = 2, and
    the Mobius invariants with a bottom adjoined and with the minima
    merged, of the m'-divisible poset over base, a build_poset result,
    computed on base alone.

    Every comparable pair x <= y of the base poset carries its delta
    x^{-1} y as a base index.  For a weight w on the base elements, the
    transfer v_{m+1}(x) = [x = c], v_i(x) = sum over y >= x of
    w(x^{-1} y) v_{i+1}(y) gives sum_x v_1(x) = sum over m-chains C of
    prod_{i=1..m} w(d_i(C)); the minimal chains, those with x_1 = e,
    make up v_1(e).  The transfer does not depend on m, so its j-th
    step gives the sums for m' = j.  As up(C) is the product of the
    [e, d_i(C)], w = 1 counts the chains, w(d) = |[e, d]| the pairs
    C <= C', and w(d) = mu(e, d) gives mu(C, top), whose sums over all
    chains and over the non-minimal ones are minus the two Mobius
    invariants."""
    if m < 1:
        raise ValueError("need m >= 1")
    quotient = _quotient(base)
    # above[x]: (y, delta x^{-1} y) for every y >= x
    above = [[] for _ in base.elements]
    for y, mask in enumerate(base.down):
        for x in _bits(mask):
            above[x].append((y, quotient(x, y)))
    top, bottom = base.top(), base.bottom()
    weights = (
        [1] * len(base),
        [d.bit_count() for d in base.down],
        base.mobius_from_bottom(),
    )
    v = [[int(x == top) for x in range(len(base))] for _ in weights]
    sums = []
    for _ in range(m):
        v = [[sum(w[d] * u[y] for y, d in row) for row in above] for w, u in zip(weights, v)]
        size, pairs, mu = v
        sums.append((sum(size), sum(pairs), -sum(mu), mu[bottom] - sum(mu)))
    return sums
