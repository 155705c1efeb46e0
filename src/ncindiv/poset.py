"""Finite poset machinery: Hasse diagrams, chain and multichain counts,
Mobius values, and the poset of k-indivisible noncrossing partitions.

Order relations are stored as per-element bitmasks over the element
indices, which keeps the desk-scale posets (a few thousand elements)
cheap to query.  Counts are exact Python integers.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from .nc import enumerate_nc
from .perm import KParams, Permutation, covers_below, ell_k


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Labels:
    """The labels field of HasseDiagram.  A tuple passed in is kept as
    it is; a function passed in is called on the first read, and with
    nothing passed the labels are str() of each element, built on the
    first read, since few callers read labels at all."""

    def __get__(self, poset, owner=None):
        if poset is None:
            return None  # the field's default
        labels = poset._labels
        if labels is None:
            poset._labels = tuple(str(e) for e in poset.elements)
        elif callable(labels):
            poset._labels = labels()
        return poset._labels

    def __set__(self, poset, labels) -> None:
        poset._labels = labels


@dataclass
class HasseDiagram:
    """A finite poset given by its elements and cover relation.

    covers holds index pairs (i, j) meaning element i is covered by
    element j.  rank is present only for graded posets.  down[i] and
    up[i] are bitmasks of the weakly-below and weakly-above elements.
    labels, one string per element, are built when first read.
    """

    elements: tuple
    covers: tuple[tuple[int, int], ...]
    rank: tuple[int, ...] | None = None
    labels: tuple[str, ...] | Callable[[], tuple[str, ...]] | None = _Labels()
    down: tuple[int, ...] = field(default_factory=tuple)
    up: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.down:
            self.down, self.up = _closure(len(self.elements), self.covers)

    def __len__(self) -> int:
        return len(self.elements)

    def is_leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    def topological_order(self) -> list[int]:
        return sorted(range(len(self)), key=lambda i: self.down[i].bit_count())

    def minimal_elements(self) -> list[int]:
        return [i for i in range(len(self)) if self.down[i] == 1 << i]

    def maximal_elements(self) -> list[int]:
        return [i for i in range(len(self)) if self.up[i] == 1 << i]

    def bottom(self) -> int:
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise ValueError("poset has no unique minimum")
        return mins[0]

    def top(self) -> int:
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise ValueError("poset has no unique maximum")
        return maxs[0]

    def rank_census(self) -> dict[int, int]:
        if self.rank is None:
            raise ValueError("poset is not graded")
        census: dict[int, int] = {}
        for r in self.rank:
            census[r] = census.get(r, 0) + 1
        return census

    def maximal_chain_count(self) -> int:
        """Number of maximal chains from the minimum to the maximum,
        counted by dynamic programming over the cover relation."""
        counts = [0] * len(self)
        counts[self.bottom()] = 1
        children: dict[int, list[int]] = {}
        for i, j in self.covers:
            children.setdefault(j, []).append(i)
        for j in self.topological_order():
            for i in children.get(j, []):
                counts[j] += counts[i]
        return counts[self.top()]

    def maximal_chains(self) -> list[tuple[int, ...]]:
        """All maximal chains as index tuples, bottom to top."""
        children: dict[int, list[int]] = {}
        for i, j in self.covers:
            children.setdefault(i, []).append(j)
        top, out = self.top(), []

        def walk(i: int, acc: list[int]) -> None:
            acc.append(i)
            if i == top:
                out.append(tuple(acc))
            else:
                for j in children.get(i, []):
                    walk(j, acc)
            acc.pop()

        walk(self.bottom(), [])
        return out

    def multichain_count(self, q: int) -> int:
        """Number of multichains x_1 <= ... <= x_q (q >= 0)."""
        if q < 0:
            raise ValueError("q must be nonnegative")
        if q == 0:
            return 1
        # counts[j]: multichains of the current length ending at j
        below = [list(_bits(d)) for d in self.down]
        counts = [1] * len(self)
        for _ in range(q - 1):
            counts = [sum(map(counts.__getitem__, b)) for b in below]
        return sum(counts)

    def multichain_jump_census(self, q: int) -> dict[tuple[int, ...], int]:
        """Census of q-element multichains by rank-jump profile
        (rank(x_1), rank(x_2)-rank(x_1), ..., top_rank - rank(x_q))."""
        if self.rank is None:
            raise ValueError("poset is not graded")
        top_rank = max(self.rank)
        census: dict[tuple[int, ...], int] = {}

        def walk(i: int, depth: int, profile: tuple[int, ...]) -> None:
            if depth == q:
                key = profile + (top_rank - self.rank[i],)
                census[key] = census.get(key, 0) + 1
                return
            for j in _bits(self.up[i]):
                walk(j, depth + 1, profile + (self.rank[j] - self.rank[i],))

        if q == 0:
            return {(top_rank,): 1}
        for i in range(len(self)):
            walk(i, 1, (self.rank[i],))
        return census

    def mobius_from_bottom(self) -> list[int]:
        """Mobius values mu(bottom, x) by the defining recursion."""
        bottom = self.bottom()
        mu = [0] * len(self)
        for i in self.topological_order():
            if i == bottom:
                mu[i] = 1
            elif self.is_leq(bottom, i):
                mu[i] = -sum(mu[z] for z in _bits(self.down[i]) if z != i)
        return mu

    def mobius_invariant(self) -> int:
        return self.mobius_from_bottom()[self.top()]

    def is_lattice(self) -> bool:
        """True iff every pair of elements has a meet and a join.

        The common lower set down[i] & down[j] is a down-set, and a
        finite down-set has exactly one maximal element z iff it equals
        down[z]; dually for the common upper set.  So a pair has a meet
        iff its common lower set is one of the down masks and a join iff
        its common upper set is one of the up masks, and every pair is
        decided by two set lookups."""
        down, up = self.down, self.up
        downs, ups = set(down), set(up)
        return all(
            down[i] & d in downs and up[i] & u in ups
            for i in range(len(self))
            for d, u in zip(down[i + 1 :], up[i + 1 :])
        )

    def to_dot(self, name: str = "poset") -> str:
        """Graphviz DOT text of the Hasse diagram, edges upward."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, label in enumerate(self.labels):
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in self.covers:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)

    def rank_census_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["rank", "count"])
        for r, c in sorted(self.rank_census().items()):
            writer.writerow([r, c])
        return buf.getvalue()


def _closure(size: int, covers: tuple[tuple[int, int], ...]):
    """Reflexive-transitive closure of a cover relation as bitmasks."""
    down = [1 << i for i in range(size)]
    children: dict[int, list[int]] = {}
    indeg = [0] * size
    out_edges: dict[int, list[int]] = {}
    for i, j in covers:
        children.setdefault(j, []).append(i)
        out_edges.setdefault(i, []).append(j)
        indeg[j] += 1
    # Kahn order so each down-mask is complete before use.
    order = [i for i in range(size) if indeg[i] == 0]
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        for j in out_edges.get(i, []):
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != size:
        raise ValueError("cover relation contains a cycle")
    for j in order:
        for i in children.get(j, []):
            down[j] |= down[i]
    return tuple(down), _up_from_down(down)


def _up_from_down(down) -> tuple[int, ...]:
    """The weakly-above masks of an order given by its weakly-below masks."""
    up = [1 << i for i in range(len(down))]
    for j, mask in enumerate(down):
        for i in _bits(mask & ~(1 << j)):
            up[i] |= 1 << j
    return tuple(up)


def _cover_pairs(down, up) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j) of an order given by its masks, j-major: i is
    covered by j iff nothing else lies in the interval [i, j]."""
    return tuple(
        (i, j)
        for j, mask in enumerate(down)
        for i in _bits(mask)
        if i != j and mask & up[i] == (1 << i | 1 << j)
    )


def transitive_reduction(size: int, edges: set[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Cover pairs, sorted, of the partial order generated by an acyclic edge set."""
    return _reduction(size, edges)[0]


def _reduction(size: int, edges: set[tuple[int, int]]):
    """Sorted cover pairs of the order generated by an acyclic edge set,
    with the down and up masks of its closure."""
    down, up = _closure(size, tuple(edges))
    return tuple(sorted(_cover_pairs(down, up))), down, up


def refines(u: Permutation, w: Permutation) -> bool:
    """True iff every block of u is contained in a block of w."""
    block_of = {}
    for cyc in w.cycles():
        mask = 0
        for x in cyc:
            mask |= 1 << x
        for x in cyc:
            block_of[x] = mask
    for cyc in u.cycles():
        if len(cyc) == 1:
            continue
        mask = 0
        for x in cyc:
            mask |= 1 << x
        if mask & ~block_of[cyc[0]]:
            return False
    return True


def leq_nc(u: Permutation, w: Permutation, k: int) -> bool:
    """The order generated by (k+1)-cycles, for w with all cycle lengths
    1 mod k: u <= w iff the word lengths of u and u^{-1} w add to that
    of w (all three must have the closed form defined)."""
    lw = ell_k(w, k)
    if lw is None:
        raise ValueError("leq_nc needs an upper element with cycle lengths 1 mod k")
    if k % 2 == 0 and not u.is_even():
        return False
    lu = ell_k(u, k)
    if lu is None:
        return False
    lq = ell_k(u.inverse() * w, k)
    return lq is not None and lu + lq == lw


@lru_cache(maxsize=None)
def build_poset(params: KParams) -> HasseDiagram:
    """The graded poset of k-indivisible noncrossing partitions,
    ordered by refinement (equivalently by the (k+1)-cycle order)."""
    elements = tuple(enumerate_nc(params))
    rank = tuple(e.rank for e in elements)
    index = {e.perm.image: i for i, e in enumerate(elements)}
    covers = []
    for j, e in enumerate(elements):
        for u in covers_below(e.perm, params.k):
            covers.append((index[u.image], j))
    return HasseDiagram(elements=elements, covers=tuple(covers), rank=rank)
