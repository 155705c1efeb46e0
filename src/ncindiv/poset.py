"""Finite poset machinery: Hasse diagrams, chain and multichain counts,
Mobius values, and the poset of k-indivisible noncrossing partitions.

Order relations are stored as per-element bitmasks over the element
indices, which keeps the desk-scale posets (a few thousand elements)
cheap to query.  Counts are exact Python integers.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

from .nc import enumerate_nc
from .perm import KParams, Permutation, covers_below, ell_k


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class HasseDiagram:
    """A finite poset given by its elements and its order.

    A diagram stores only the views its builder gave and derives the
    other the first time it is read; a builder gives at least one.
    covers holds index pairs (i, j) meaning element i is covered by
    element j, in the builder's order, which to_dot keeps.  down[i] is
    the bitmask of the elements weakly below i, the closure of the
    covers, and every order question is answered from it; covers read
    off down come in j-major order.  rank is present only for graded
    posets.
    """

    def __init__(self, elements, covers=None, rank=None, down=None) -> None:
        if covers is None and down is None:
            raise ValueError("a Hasse diagram needs its covers or its down masks")
        self.elements = elements
        self.rank = rank
        if covers is not None:
            self.covers = covers
        if down is not None:
            self.down = down

    @cached_property
    def down(self) -> tuple[int, ...]:
        return closure(len(self.elements), self.covers)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return _cover_pairs(self.down)

    def __len__(self) -> int:
        return len(self.elements)

    def is_leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    def topological_order(self) -> list[int]:
        return sorted(range(len(self)), key=lambda i: self.down[i].bit_count())

    def minimal_elements(self) -> list[int]:
        return [i for i in range(len(self)) if self.down[i] == 1 << i]

    def maximal_elements(self) -> list[int]:
        below = 0  # the union of the strict down-sets
        for j, mask in enumerate(self.down):
            below |= mask ^ 1 << j
        return [i for i in range(len(self)) if not below >> i & 1]

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
        return dict(Counter(self.rank))

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

    def multichains(self, q: int) -> list[tuple[int, ...]]:
        """All multichains x_1 <= ... <= x_q (q >= 0) as index tuples in
        lexicographic order, each grown downward from x_q."""
        if q < 0:
            raise ValueError("q must be nonnegative")
        below = [list(_bits(d)) for d in self.down]
        chains = [(j,) for j in range(len(self))] if q else [()]
        for _ in range(q - 1):
            chains = [(i,) + c for c in chains for i in below[c[0]]]
        return sorted(chains)

    def multichain_jump_census(self, q: int) -> dict[tuple[int, ...], int]:
        """Census of q-element multichains by rank-jump profile
        (rank(x_1), rank(x_2)-rank(x_1), ..., top_rank - rank(x_q))."""
        if self.rank is None:
            raise ValueError("poset is not graded")
        top_rank = max(self.rank)
        # a rank sequence and its jump profile determine each other
        by_ranks = Counter(
            tuple(map(self.rank.__getitem__, c)) for c in self.multichains(q)
        )
        return {
            tuple(b - a for a, b in zip((0, *r), (*r, top_rank))): count
            for r, count in by_ranks.items()
        }

    def mobius_from_bottom(self) -> list[int]:
        """Mobius values mu(bottom, x) by the defining recursion; the one
        minimal element lies below every element."""
        bottom = self.bottom()
        mu = [0] * len(self)
        for i in self.topological_order():
            if i == bottom:
                mu[i] = 1
            else:
                mu[i] = -sum(mu[z] for z in _bits(self.down[i]) if z != i)
        return mu

    def mobius_invariant(self) -> int:
        return self.mobius_from_bottom()[self.top()]

    def is_lattice(self) -> bool:
        """True iff every pair of elements has a meet and a join.

        A pair has a meet iff its common lower set down[i] & down[j], a
        down-set, is one of the down masks: it is then down[meet].  A
        finite poset with all meets and a top is a lattice (Stanley,
        Enumerative Combinatorics I, Prop. 3.3.1); a nonempty one has a
        top iff it has one maximal element, and the empty one is a
        lattice."""
        down = self.down
        downs = set(down)
        return len(self.maximal_elements()) <= 1 and all(
            down[i] & d in downs for i in range(len(self)) for d in down[i + 1 :]
        )

    def to_dot(self, name: str = "poset") -> str:
        """Graphviz DOT text of the Hasse diagram, edges upward."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, element in enumerate(self.elements):
            lines.append(f'  n{i} [label="{element}"];')
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


def closure(size: int, relation) -> tuple[int, ...]:
    """The weakly-below masks of the order on range(size) generated by
    an acyclic relation of pairs (i, j), i below j: its
    reflexive-transitive closure."""
    below: dict[int, list[int]] = {}
    for i, j in relation:
        below.setdefault(j, []).append(i)
    down = [1 << i for i in range(size)]
    try:
        order = list(TopologicalSorter(below).static_order())
    except CycleError:
        raise ValueError("cover relation contains a cycle") from None
    # each down-mask is complete before an element above reads it
    for j in order:
        for i in below.get(j, ()):
            down[j] |= down[i]
    return tuple(down)


def _cover_pairs(down) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j) of an order given by its weakly-below masks,
    j-major: the lower covers of j are the maximal elements of its
    strict down-set, those strictly below none of the others."""
    pairs = []
    for j, mask in enumerate(down):
        strict = mask ^ 1 << j
        shadow = 0
        for z in _bits(strict):
            shadow |= down[z] ^ 1 << z
        pairs.extend((i, j) for i in _bits(strict & ~shadow))
    return tuple(pairs)


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


def build_poset(params: KParams) -> HasseDiagram:
    """The graded poset of k-indivisible noncrossing partitions,
    ordered by refinement (equivalently by the (k+1)-cycle order).  The
    covers, and so DOT's edges, run by upper element in covers_below order."""
    elements = tuple(enumerate_nc(params))
    rank = tuple(e.rank for e in elements)
    index = {e.perm.image: i for i, e in enumerate(elements)}
    covers = []
    for j, e in enumerate(elements):
        for u in covers_below(e.perm, params.k):
            covers.append((index[u.image], j))
    return HasseDiagram(elements=elements, covers=tuple(covers), rank=rank)


def _quotient(base: HasseDiagram):
    """The function q(x, y) giving the base index of x^{-1} y for base
    indices x <= y of build_poset, read off image tuples."""
    images = [e.perm.image for e in base.elements]
    index = {image: f for f, image in enumerate(images)}
    # inverses[x][t] = x^{-1}(t), with an unused place 0
    inverses = [(0,) + e.perm.inverse().image for e in base.elements]
    return lambda x, y: index[tuple(map(inverses[x].__getitem__, images[y]))]
