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
base poset for every i.  mchain_leq keeps the direct definition as an oracle.

The maximum is the constant chain at the long cycle; there are many
minimal elements, so Mobius invariants are studied on two completions:
with an artificial bottom adjoined (hat) and with all minimal elements
identified (bar).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_

from .perm import KParams, Permutation, ell_k, format_cycles, long_cycle
from .poset import HasseDiagram, _bits, build_poset, leq_nc


@dataclass(frozen=True)
class MChain:
    """An m-multichain in the k-indivisible noncrossing poset."""

    chain: tuple[Permutation, ...]
    params: KParams

    @property
    def m(self) -> int:
        return len(self.chain)

    def deltas(self) -> tuple[Permutation, ...]:
        """d_0 = x_1, d_i = x_i^{-1} x_{i+1}, d_m = x_m^{-1} c_N."""
        ext = self.chain + (long_cycle(self.params.N),)
        out = [self.chain[0]]
        for a, b in zip(ext, ext[1:]):
            out.append(a.inverse() * b)
        return tuple(out)

    @property
    def rank(self) -> int:
        r = ell_k(self.chain[0], self.params.k)
        assert r is not None
        return r

    def __str__(self) -> str:
        return " <= ".join(format_cycles(x) for x in self.chain)


def mchain_leq(c1: MChain, c2: MChain) -> bool:
    """c1 <= c2 iff every delta of c2 past the zeroth divides the
    corresponding delta of c1 in the (k+1)-cycle order."""
    k = c1.params.k
    d1, d2 = c1.deltas(), c2.deltas()
    return all(leq_nc(b, a, k) for a, b in zip(d1[1:], d2[1:]))


@lru_cache(maxsize=None)
def build_mdiv_poset(params: KParams, m: int) -> HasseDiagram:
    """Poset of m-divisible k-indivisible noncrossing partitions."""
    if m < 1:
        raise ValueError("need m >= 1")
    base = build_poset(params)
    chains = [
        MChain(tuple(base.elements[i].perm for i in c), params)
        for c in base.multichains(m)
    ]
    rank = tuple(c.rank for c in chains)
    index = {e.perm.image: f for f, e in enumerate(base.elements)}
    deltas = [[index[d.image] for d in c.deltas()[1:]] for c in chains]
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
    down = [reduce(and_, (above[i][g] for i, g in enumerate(row))) for row in deltas]
    return HasseDiagram.from_order(chains, down, rank)


def with_bottom(poset: HasseDiagram) -> HasseDiagram:
    """The same poset with one artificial bottom element, "0", adjoined
    as element 0: every mask shifts up one place and gains the bottom."""
    return HasseDiagram.from_order(
        ("0",) + tuple(poset.elements),
        (1,) + tuple(d << 1 | 1 for d in poset.down),
    )


def with_merged_minima(poset: HasseDiagram) -> HasseDiagram:
    """The quotient identifying all minimal elements with one, "min",
    as element 0.  Every other element lies above some minimal one, so
    its mask keeps the other elements below it, renumbered, and gains
    element 0."""
    keep = [i for i, d in enumerate(poset.down) if d != 1 << i]
    bit = {old: 1 << new for new, old in enumerate(keep, 1)}
    down = [1] + [
        1 | sum(bit[i] for i in _bits(poset.down[j]) if i in bit) for j in keep
    ]
    return HasseDiagram.from_order(
        ("min",) + tuple(poset.elements[i] for i in keep), down
    )


def mdiv_mobius_hat_brute(params: KParams, m: int) -> int:
    """Mobius invariant of the m-divisible poset with a bottom adjoined."""
    return with_bottom(build_mdiv_poset(params, m)).mobius_invariant()


def mdiv_mobius_bar_brute(params: KParams, m: int) -> int:
    """Mobius invariant of the m-divisible poset with minima merged."""
    return with_merged_minima(build_mdiv_poset(params, m)).mobius_invariant()
