"""Polygon dissections for commutation classes of reduced factorizations.

The 2N-gon has its vertices labeled clockwise 1, bar 1, 2, bar 2, ...,
N, bar N; label i sits at position 2i - 1 and bar i at position 2i.
A factorization is drawn by taking the convex hull of the (unbarred)
support of each factor.  At every vertex shared by consecutive hulls
one diagonal is drawn from that vertex to the unique barred vertex
visible between the two hulls.  The resulting n - 1 diagonals cut the
2N-gon into n cells with 2k + 2 sides each, and the assignment is a
bijection from commutation classes to such dissections.

Rotating a diagonal one step (sliding both endpoints along the
boundary of the union of its two cells) realizes the Hurwitz move on
the adjacent factors: clockwise for the inverse move, counterclockwise
for the direct one.  Orienting the clockwise rotations, except for one
blocked position per cell union, yields the bounded Cambrian poset on
dissections.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .hurwitz import (
    Factorization,
    commutation_classes,
    class_representative,
    enumerate_factorizations,
    factorization_product,
)
from .perm import KParams, format_cycles, from_cycles, long_cycle
from .poset import HasseDiagram, _reduction


@dataclass(frozen=True)
class Dissection:
    """A dissection of the labeled 2N-gon into (2k+2)-gons.

    Each diagonal is a pair (a, b): the chord from unbarred vertex a
    (position 2a - 1) to barred vertex b (position 2b).
    """

    params: KParams
    diagonals: frozenset[tuple[int, int]]

    def positions(self) -> frozenset[tuple[int, int]]:
        return frozenset((2 * a - 1, 2 * b) for a, b in self.diagonals)

    def faces(self) -> list[tuple[int, ...]]:
        """The cells of the dissection, as tuples of polygon positions
        in clockwise order."""
        all_positions = tuple(range(1, 2 * self.params.N + 1))
        return _split_faces(all_positions, set(self.positions()))

    def to_record(self) -> dict:
        return {
            "two_n": 2 * self.params.N,
            "diagonals": sorted([p, q] for p, q in self.positions()),
        }

    def is_valid(self) -> bool:
        """All cells are (2k+2)-gons with alternating vertex types."""
        k, n = self.params.k, self.params.n
        if len(self.diagonals) != n - 1:
            return False
        try:
            cells = self.faces()
        except ValueError:
            return False
        if len(cells) != n:
            return False
        for cell in cells:
            if len(cell) != 2 * k + 2:
                return False
            if sum(1 for p in cell if p % 2 == 1) != k + 1:
                return False
        return True


def _split_faces(
    polygon: tuple[int, ...], chords: set[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Recursively cut a convex polygon (vertex positions in clockwise
    order) along the given chords."""
    for p, q in chords:
        if p in polygon and q in polygon:
            i, j = polygon.index(p), polygon.index(q)
            if i > j:
                i, j = j, i
            if j - i < 2 and not (i == 0 and j == len(polygon) - 1):
                raise ValueError(f"chord ({p},{q}) joins adjacent vertices")
            part1 = polygon[i : j + 1]
            part2 = polygon[j:] + polygon[: i + 1]
            rest = chords - {(p, q)}
            sub1 = {c for c in rest if c[0] in part1 and c[1] in part1}
            sub2 = {c for c in rest if c[0] in part2 and c[1] in part2}
            if sub1 | sub2 != rest:
                raise ValueError("crossing chords")
            return _split_faces(part1, sub1) + _split_faces(part2, sub2)
    if chords:
        raise ValueError("leftover chords")
    return [polygon]


def _supports(factors: Factorization) -> list[tuple[int, ...]]:
    return [
        tuple(sorted(x for cyc in t.cycles() if len(cyc) > 1 for x in cyc))
        for t in factors
    ]


def theta(factors: Factorization, params: KParams) -> Dissection:
    """The dissection of the commutation class of a factorization."""
    N = params.N
    supports = _supports(factors)
    diagonals = set()
    for a in range(1, N + 1):
        at_a = [s for s in supports if a in s]
        if len(at_a) < 2:
            continue

        def key(x: int) -> int:
            return (x - a) % N

        info = sorted(
            (min(key(x) for x in s if x != a), max(key(x) for x in s if x != a), s)
            for s in at_a
        )
        spans = [
            (min(key(x) for x in s), max(key(x) for x in s))
            for s in supports
            if a not in s
        ]
        for (_s1, e1, _h1), (s2, _e2, _h2) in zip(info, info[1:]):
            visible = [
                bkey
                for bkey in range(e1, s2)
                if not any(lo <= bkey < hi for lo, hi in spans)
            ]
            if len(visible) != 1:
                raise ValueError("no unique visible barred vertex in a gap")
            b = (a - 1 + visible[0]) % N + 1
            diagonals.add((a, b))
    d = Dissection(params, frozenset(diagonals))
    if not d.is_valid():
        raise ValueError("factorization did not produce a valid dissection")
    return d


def theta_inverse(d: Dissection) -> Factorization:
    """A factorization in the commutation class mapped to d: the cell
    supports ordered by the per-vertex rule (at each shared vertex,
    factors appear in reverse clockwise order of their arcs)."""
    params = d.params
    N, n = params.N, params.n
    cells = d.faces()
    supports = [tuple(sorted((p + 1) // 2 for p in cell if p % 2 == 1)) for cell in cells]
    order_edges: set[tuple[int, int]] = set()
    for a in range(1, N + 1):
        at_a = [i for i, s in enumerate(supports) if a in s]
        if len(at_a) < 2:
            continue

        def key(x: int) -> int:
            return (x - a) % N

        at_a.sort(key=lambda i: min(key(x) for x in supports[i] if x != a), reverse=True)
        for i, j in zip(at_a, at_a[1:]):
            order_edges.add((i, j))
    # topological sort of the factor constraints
    order: list[int] = []
    pending = set(range(n))
    while pending:
        free = [i for i in pending if not any((j, i) in order_edges for j in pending)]
        if not free:
            raise ValueError("cyclic word constraints")
        i = min(free)
        order.append(i)
        pending.remove(i)
    factors = tuple(from_cycles(N, (supports[i],)) for i in order)
    if factorization_product(factors) != long_cycle(N):
        raise ValueError("dissection word does not multiply to the long cycle")
    return factors


def diagonal_for_pair(d: Dissection, factors: Factorization, i: int) -> tuple[int, int]:
    """The diagonal of d separating the cells of factors i and i+1,
    which must share a vertex."""
    supports = _supports(factors)
    shared = set(supports[i]) & set(supports[i + 1])
    if len(shared) != 1:
        raise ValueError("factors do not share a unique vertex")
    a = shared.pop()
    cells = {tuple(sorted((p + 1) // 2 for p in cell if p % 2 == 1)): cell for cell in d.faces()}
    for diag in d.diagonals:
        if diag[0] != a:
            continue
        p, q = 2 * diag[0] - 1, 2 * diag[1]
        adjacent = [s for s, cell in cells.items() if p in cell and q in cell]
        if set(adjacent) == {supports[i], supports[i + 1]}:
            return diag
    raise ValueError("no diagonal separates the two factors")


def rotate_diagonal(
    d: Dissection, diag: tuple[int, int], clockwise: bool = True
) -> Dissection:
    """Slide both endpoints of a diagonal one step along the boundary
    of the union of its two cells."""
    if diag not in d.diagonals:
        raise ValueError(f"{diag} is not a diagonal of the dissection")
    p, q = 2 * diag[0] - 1, 2 * diag[1]
    cells = [cell for cell in d.faces() if p in cell and q in cell]
    if len(cells) != 2:
        raise ValueError("diagonal is not adjacent to exactly two cells")
    union = sorted(set(cells[0]) | set(cells[1]))
    step = 1 if clockwise else -1
    new_p = union[(union.index(p) + step) % len(union)]
    new_q = union[(union.index(q) + step) % len(union)]
    if new_p % 2 == 0:
        new_p, new_q = new_q, new_p
    if new_p % 2 == 0 or new_q % 2 == 1:
        raise ValueError("rotated diagonal lost the unbarred/barred split")
    new_diag = ((new_p + 1) // 2, new_q // 2)
    out = Dissection(
        d.params, (d.diagonals - {diag}) | {new_diag}
    )
    if not out.is_valid():
        raise ValueError("rotation produced an invalid dissection")
    return out


def all_dissections(params: KParams) -> list[Dissection]:
    """Images of all commutation classes under the dissection map."""
    classes = commutation_classes(enumerate_factorizations(params))
    out = []
    seen = set()
    for cls in classes:
        d = theta(class_representative(cls), params)
        if d.diagonals in seen:
            raise ValueError("two commutation classes share a dissection")
        seen.add(d.diagonals)
        out.append(d)
    return out


def _blocked_position(union: Sequence[int], k: int, two_n: int) -> frozenset[int]:
    """The one position of a rotating diagonal inside its cell union whose
    clockwise rotation is not a cover.

    The union of the two cells adjacent to a diagonal is a (4k+2)-gon whose
    corners alternate between unbarred (odd) and barred (even) boundary
    vertices; the diagonal can occupy 2k+1 positions, each joining a corner
    to the opposite one.  Scanning clockwise from the unbarred corner that
    flanks the wrap-around gap of the union, advanced by 2k-2 vertices, the
    first barred corner met determines the blocked position: the one that
    contains it.
    """
    anchor_odd = union[-1] if union[-1] % 2 == 1 else union[0]
    anchor = anchor_odd + 2 * k - 2
    half = len(union) // 2
    best: tuple[int, frozenset[int]] | None = None
    for i in range(half):
        position = (union[i], union[(i + half) % len(union)])
        barred = position[0] if position[0] % 2 == 0 else position[1]
        key = (barred - anchor) % two_n
        if best is None or key < best[0]:
            best = (key, frozenset(position))
    return best[1]


@lru_cache(maxsize=None)
def build_cambrian(params: KParams) -> HasseDiagram:
    """The Cambrian poset on dissections, oriented by clockwise diagonal
    rotations.

    Within the union of the two cells adjacent to a diagonal, exactly one
    of the 2k+1 positions the diagonal can occupy is blocked (see
    ``_blocked_position``); every other clockwise rotation is a cover.
    The result is bounded: the minimum is the image of the
    consecutive-blocks factorization (1..k+1)(k+1..2k+1)...(N-k..N) and
    the maximum is the image of (k+1..2k+1)(2k+1..3k+1)...(1,..,k,N).
    Whether every pair has a meet and a join is reported by
    ``HasseDiagram.is_lattice``, not assumed."""
    dissections = all_dissections(params)
    index = {d.diagonals: i for i, d in enumerate(dissections)}
    two_n = 2 * params.N
    edges: set[tuple[int, int]] = set()
    for i, d in enumerate(dissections):
        for diag in d.diagonals:
            p, q = 2 * diag[0] - 1, 2 * diag[1]
            cells = [cell for cell in d.faces() if p in cell and q in cell]
            union = sorted(set(cells[0]) | set(cells[1]))
            if frozenset((p, q)) == _blocked_position(union, params.k, two_n):
                continue
            d2 = rotate_diagonal(d, diag, clockwise=True)
            edges.add((i, index[d2.diagonals]))
    covers, down, up = _reduction(len(dissections), edges)
    labels = tuple(
        " | ".join(format_cycles(t) for t in theta_inverse(d)) for d in dissections
    )
    return HasseDiagram(
        elements=tuple(dissections),
        covers=covers,
        rank=None,
        labels=labels,
        down=down,
        up=up,
    )
