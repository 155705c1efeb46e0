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

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .counting import commutation_class_count
from .hurwitz import Factorization, factorization_product, support
from .nc import check_ground_set
from .perm import KParams, format_cycles, from_cycles, long_cycle
from .poset import HasseDiagram, closure

CAMBRIAN_MAX_DISSECTIONS = 3_000  # build_cambrian lists every one


@dataclass(frozen=True)
class Dissection:
    """A dissection of the labeled 2N-gon into (2k+2)-gons.

    Each diagonal is a pair (a, b): the chord from unbarred vertex a
    (position 2a - 1) to barred vertex b (position 2b).  str() gives the
    least word of its commutation class (``theta_inverse``).
    """

    params: KParams
    diagonals: frozenset[tuple[int, int]]

    def positions(self) -> frozenset[tuple[int, int]]:
        return frozenset((2 * a - 1, 2 * b) for a, b in self.diagonals)

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The cells, as tuples of positions clockwise from the least,
        sorted by least position.  Computed once per instance and kept
        outside the dataclass fields, so equality and hashing ignore it."""
        faces = self.__dict__.get("_faces")
        if faces is None:
            faces = tuple(_split_faces(2 * self.params.N, self.positions()))
            object.__setattr__(self, "_faces", faces)
        return faces

    def __str__(self) -> str:
        return " | ".join(format_cycles(t) for t in theta_inverse(self))

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
        for cell in cells:
            if len(cell) != 2 * k + 2:
                return False
            if sum(1 for p in cell if p % 2 == 1) != k + 1:
                return False
        return True


def _split_faces(two_n: int, chords: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Cut the convex polygon on positions 1..two_n along the chords, in
    one clockwise pass over a stack of the positions passed: position q
    closes the cell of every chord (p, q), p < q, innermost first, which
    is the stack from p on; only p and q stay.  The cells come sorted by
    least position, each listed clockwise from it."""
    starts: dict[int, list[int]] = {}
    for chord in chords:
        p, q = sorted(chord)
        if p < 1 or q > two_n:
            raise ValueError(f"chord ({p},{q}) leaves positions 1..{two_n}")
        if q - p < 2 or (p, q) == (1, two_n):
            raise ValueError(f"chord ({p},{q}) joins adjacent vertices")
        starts.setdefault(q, []).append(p)
    cells, stack = [], []
    for q in range(1, two_n + 1):
        stack.append(q)
        for p in sorted(starts.get(q, ()), reverse=True):
            if p not in stack:
                raise ValueError("crossing chords")
            i = stack.index(p)
            cells.append(tuple(stack[i:]))
            del stack[i + 1 : -1]
    cells.append(tuple(stack))
    return sorted(cells)


def theta(factors: Factorization, params: KParams) -> Dissection:
    """The dissection of the commutation class of a factorization."""
    N = params.N
    supports = [support(t) for t in factors]
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
    """The least factorization, comparing support tuples, in the
    commutation class mapped to d: the cell supports ordered by the
    per-vertex rule (at each shared vertex, factors appear in reverse
    clockwise order of their arcs), the least free support first."""
    N, n = d.params.N, d.params.n
    supports = sorted(tuple((p + 1) // 2 for p in cell if p % 2) for cell in d.faces())
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
    supports = [support(t) for t in factors]
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
    new_diag = _rotated(_cell_union(d, diag), diag, clockwise)
    out = Dissection(
        d.params, (d.diagonals - {diag}) | {new_diag}
    )
    if not out.is_valid():
        raise ValueError("rotation produced an invalid dissection")
    return out


def _cell_union(d: Dissection, diag: tuple[int, int]) -> list[int]:
    """The sorted positions of the two cells adjacent to a diagonal."""
    p, q = 2 * diag[0] - 1, 2 * diag[1]
    cells = [cell for cell in d.faces() if p in cell and q in cell]
    if len(cells) != 2:
        raise ValueError("diagonal is not adjacent to exactly two cells")
    return sorted(set(cells[0]) | set(cells[1]))


def _rotated(
    union: list[int], diag: tuple[int, int], clockwise: bool
) -> tuple[int, int]:
    """The diagonal moved one step along the boundary of its cell union."""
    p, q = 2 * diag[0] - 1, 2 * diag[1]
    step = 1 if clockwise else -1
    new_p = union[(union.index(p) + step) % len(union)]
    new_q = union[(union.index(q) + step) % len(union)]
    if new_p % 2 == 0:
        new_p, new_q = new_q, new_p
    if new_p % 2 == 0 or new_q % 2 == 1:
        raise ValueError("rotated diagonal lost the unbarred/barred split")
    return ((new_p + 1) // 2, new_q // 2)


def _cell_steps(v: int, hi: int, steps: int, k: int):
    """The chord tuples that complete the cell on a side (lo, hi) from v
    to hi in the given number of steps of length 1 mod 2k, with the
    polygons they close dissected.  A step (v, w) longer than one is a
    chord, closing the polygon v..w, whose cell on (v, w) takes 2k + 1
    steps."""
    if steps == 0:
        if v == hi:
            yield ()
        return
    for w in range(v + 1, hi - steps + 2, 2 * k):
        closed = _cell_steps(v, w, 2 * k + 1, k) if w - v > 1 else [()]
        chord = ((v, w),) if w - v > 1 else ()
        for inner in closed:
            for rest in _cell_steps(w, hi, steps - 1, k):
                yield chord + inner + rest


def all_dissections(params: KParams) -> list[Dissection]:
    """All dissections of the 2N-gon into (2k+2)-gons, one per
    commutation class (``theta`` of the classes is the oracle), sorted
    by their sorted diagonal tuples.

    The cell on the side (2N, 1) is chosen first, then the cells on its
    chords, recursively (see ``_cell_steps``).  A chord (v, w), v < w,
    joins an unbarred and a barred vertex, since its length is odd."""
    out = []
    for chords in _cell_steps(1, 2 * params.N, 2 * params.k + 1, params.k):
        diagonals = frozenset(
            ((v + 1) // 2, w // 2) if v % 2 else ((w + 1) // 2, v // 2)
            for v, w in chords
        )
        out.append(Dissection(params, diagonals))
    out.sort(key=lambda d: sorted(d.diagonals))
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
    ``HasseDiagram.is_lattice``, not assumed.  The elements are
    ``all_dissections`` in its order, and each rotation is looked up among
    them, so a rotation that leaves them raises ValueError.  A ground set
    past ``nc.ENUMERATION_MAX_N`` or more than CAMBRIAN_MAX_DISSECTIONS
    dissections (the closed-form count) is refused before any is
    listed."""
    check_ground_set(params)
    count = commutation_class_count(params.n, params.k)
    if count > CAMBRIAN_MAX_DISSECTIONS:
        raise ValueError(
            f"refusing Cambrian build over {count} dissections"
            f" > {CAMBRIAN_MAX_DISSECTIONS}"
        )
    dissections = all_dissections(params)
    index = {d.diagonals: i for i, d in enumerate(dissections)}
    two_n = 2 * params.N
    edges: set[tuple[int, int]] = set()
    for i, d in enumerate(dissections):
        for diag in d.diagonals:
            p, q = 2 * diag[0] - 1, 2 * diag[1]
            union = _cell_union(d, diag)
            if frozenset((p, q)) == _blocked_position(union, params.k, two_n):
                continue
            rotated = (d.diagonals - {diag}) | {_rotated(union, diag, True)}
            if rotated not in index:
                raise ValueError("a rotation left the dissections")
            edges.add((i, index[rotated]))
    poset = HasseDiagram.from_order(dissections, closure(len(dissections), edges))
    poset.covers = tuple(sorted(poset.covers))
    return poset
