"""Bijections from k-indivisible noncrossing partitions to trees,
lattice paths, and nonnesting order ideals.

The pipeline follows the tree route: a partition w together with its
Kreweras complement K(w) = w^{-1} c forms a bicolored plane tree on N
edges, held as the rotation pair (w, K(w)) whose product is the long
cycle c (white vertices are the cycles of w, black vertices those of
K(w), edge i joins the two cycles holding i).  Deleting the root
edge 1 splits the tree into two k-divisible plane trees, which
contract to (k+1)-ary trees, which serialize to k-Dyck paths; the two
paths concatenate to a single lattice path weakly above the staircase
boundary, and such paths encode the order ideals of the nonnesting
arc poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from operator import gt, sub
from typing import Iterator

from .counting import nc_cardinality
from .nc import NoncrossingElement, check_ground_set, kreweras
from .perm import KParams, Permutation, long_cycle

PlaneTree = tuple  # nested tuples; a leaf is ()


# ---------------------------------------------------------------------------
# Bicolored plane trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BicoloredTree:
    """The plane tree of a noncrossing partition w as its two rotation
    permutations: white = w turns around the blocks of w, black = K(w)
    around the blocks of the Kreweras complement, edge i joins the white
    and the black cycle holding i, and white * black is the long cycle."""

    white: Permutation
    black: Permutation


def gj_tree(element: NoncrossingElement) -> BicoloredTree:
    """Build and validate the bicolored tree of a partition.

    A product white * black that is an N-cycle makes <white, black>
    transitive on the edges, so the graph is connected, and a connected
    graph with N + 1 vertices on N edges is a tree."""
    w = element.perm
    N, k = w.degree, element.params.k
    tree = BicoloredTree(white=w, black=kreweras(w))
    vertices = tree.white.cycles() + tree.black.cycles()
    if len(vertices) != N + 1:
        raise ValueError("edge/vertex count is not that of a tree")
    if any(len(cyc) % k != 1 % k for cyc in vertices):
        raise ValueError("vertex degree not 1 mod k")
    # the tour that keeps the tree to the right meets the edges in label
    # order when crossing white to black: white(black(i)) = i + 1 mod N
    if tree.white * tree.black != long_cycle(N):
        raise ValueError("tour does not read the labels in order")
    return tree


# ---------------------------------------------------------------------------
# Splitting at the root edge and contracting to (k+1)-ary trees
# ---------------------------------------------------------------------------


def _grow(turn: Permutation, other: Permutation, entry: int) -> PlaneTree:
    """Plane subtree hanging below the vertex of turn entered via edge
    entry; its children are turn(entry), turn^2(entry), ... up to entry,
    each grown with the two rotations swapped."""
    children = []
    label = turn(entry)
    while label != entry:
        children.append(_grow(other, turn, label))
        label = turn(label)
    return tuple(children)


def split_tree(tree: BicoloredTree) -> tuple[PlaneTree, PlaneTree]:
    """Delete the root edge 1 and return the plane trees rooted at its
    white and black endpoints."""
    return _grow(tree.white, tree.black, 1), _grow(tree.black, tree.white, 1)


def contract(tree: PlaneTree, k: int) -> PlaneTree:
    """Contract a k-divisible plane tree (all child counts 0 mod k) to
    a (k+1)-ary tree: every vertex keeps its first k children and gains
    a right-most child carrying the remainder."""

    def group(children: tuple) -> PlaneTree:
        if not children:
            return ()
        if len(children) % k != 0:
            raise ValueError("plane tree is not k-divisible")
        return tuple(group(c) for c in children[:k]) + (group(children[k:]),)

    return group(tree)


def expand(tree: PlaneTree, k: int) -> PlaneTree:
    """Inverse of contract: splice every right-most child back in."""

    def ungroup(node: PlaneTree) -> list:
        if node == ():
            return []
        if len(node) != k + 1:
            raise ValueError("tree is not (k+1)-ary")
        return [tuple(ungroup(c)) for c in node[:k]] + ungroup(node[k])

    return tuple(ungroup(tree))


def is_ary(tree: PlaneTree, k: int) -> bool:
    """True iff every internal vertex has exactly k + 1 children."""
    if tree == ():
        return True
    return len(tree) == k + 1 and all(is_ary(c, k) for c in tree)


# ---------------------------------------------------------------------------
# (k+1)-ary trees and k-Dyck paths
# ---------------------------------------------------------------------------


def ary_to_dyck(tree: PlaneTree) -> str:
    """Preorder reading: internal vertex -> U, leaf -> R, with the last
    leaf of the preorder omitted."""
    out: list[str] = []

    def visit(node: PlaneTree) -> None:
        if node == ():
            out.append("R")
        else:
            out.append("U")
            for c in node:
                visit(c)

    visit(tree)
    assert out[-1] == "R"
    return "".join(out[:-1])


def dyck_to_ary(word: str, k: int) -> PlaneTree:
    """Inverse preorder parse of a k-Dyck word."""
    if not is_k_dyck(word, k):
        raise ValueError(f"{word!r} is not a k-Dyck word for k = {k}")
    pos = 0

    def parse() -> PlaneTree:
        nonlocal pos
        if pos < len(word) and word[pos] == "U":
            pos += 1
            return tuple(parse() for _ in range(k + 1))
        if pos < len(word):
            if word[pos] != "R":
                raise ValueError(f"bad character {word[pos]!r}")
            pos += 1
        # at the end of the word the final leaf is implicit
        return ()

    tree = parse()
    if pos != len(word):
        raise ValueError("trailing characters in path word")
    return tree


def is_k_dyck(word: str, k: int) -> bool:
    """True iff the word has i U's and ik R's for some i and every
    prefix has #R <= k * #U."""
    ups = word.count("U")
    downs = word.count("R")
    if ups + downs != len(word) or downs != k * ups:
        return False
    height = 0
    for ch in word:
        height += k if ch == "U" else -1
        if height < 0:
            return False
    return height == 0


# ---------------------------------------------------------------------------
# Staircase lattice paths and nonnesting order ideals
# ---------------------------------------------------------------------------


def is_staircase_path(word: str, params: KParams) -> bool:
    """True iff the word is a path with n+1 U's and N R's that starts
    with U and stays weakly above the boundary U R (U R^k)^n."""
    n, k, N = params.n, params.k, params.N
    if word.count("U") != n + 1 or word.count("R") != N:
        return False
    if len(word) != n + 1 + N or not word.startswith("U"):
        return False
    # only U's and R's remain; the i-th U allows 1 + k(i-1) R's so far
    downs = 0
    limit = 1
    for run in word[1:].split("U"):
        downs += len(run)
        if downs > limit:
            return False
        limit += k
    return True


def boundary_path(params: KParams) -> str:
    return "UR" + ("U" + "R" * params.k) * params.n


def compose_path(p1: str, p2: str, params: KParams) -> str:
    """U + p1 + R + p2, the staircase path of a pair of k-Dyck paths."""
    word = "U" + p1 + "R" + p2
    if not is_staircase_path(word, params):
        raise ValueError("composed word is not a staircase path")
    return word


def path_decompose(word: str, params: KParams) -> tuple[str, str]:
    """Split a staircase path at its first return to the boundary:
    remove the leading U and the boundary-touching R and return the two
    k-Dyck pieces."""
    if not is_staircase_path(word, params):
        raise ValueError("not a staircase path")
    k = params.k
    ups = 0
    downs = 0
    for t, ch in enumerate(word):
        if ch == "U":
            ups += 1
        else:
            downs += 1
            if downs == 1 + k * (ups - 1):
                p1, p2 = word[1:t], word[t + 1 :]
                if not (is_k_dyck(p1, k) and is_k_dyck(p2, k)):
                    raise AssertionError("decomposition pieces are not k-Dyck")
                return p1, p2
    raise AssertionError("staircase path never touched the boundary")


@dataclass(frozen=True)
class OrderIdeal:
    """An order ideal of the nonnesting arc poset.

    The poset elements are arcs (a, b) with a = k(j-1)+1 for some row
    j in 1..n and a < b <= N - k + 1, ordered by reverse inclusion of
    endpoints: (a', b') <= (a, b) iff a' >= a and b' <= b.

    Construction checks down-closure through the lower covers
    (a, b - 1) and (a + k, b) of each arc, where those are elements.
    That suffices: below (a, b), an element (a', b') is reached by
    shortening b to b' and then moving a up by k to a', and every arc
    on the way is an element, since a <= a' < b'.
    """

    params: KParams
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        universe = _arc_universe(self.params)
        if not self.arcs <= universe:
            raise ValueError("ideal contains a non-element")
        k = self.params.k
        for a, b in self.arcs:
            for lower in ((a, b - 1), (a + k, b)):
                if lower in universe and lower not in self.arcs:
                    raise ValueError("set is not down-closed")

    def row_counts(self) -> tuple[int, ...]:
        counts = [0] * self.params.n
        for a, _b in self.arcs:
            counts[(a - 1) // self.params.k] += 1
        return tuple(counts)


def arc_poset_elements(params: KParams) -> list[tuple[int, int]]:
    n, k, N = params.n, params.k, params.N
    out = []
    for j in range(1, n + 1):
        a = k * (j - 1) + 1
        out.extend((a, b) for b in range(a + 1, N - k + 2))
    return out


@lru_cache(maxsize=None)
def _arc_universe(params: KParams) -> frozenset[tuple[int, int]]:
    return frozenset(arc_poset_elements(params))


def enumerate_ideals(params: KParams) -> list[OrderIdeal]:
    """All order ideals of the arc poset, by row-by-row extension.

    Within row j the arcs form a chain, so an ideal takes a prefix of
    c_j arcs; down-closure across rows forces c_{j+1} >= c_j - k.
    """
    n, k, N = params.n, params.k, params.N
    out: list[OrderIdeal] = []

    def extend(j: int, counts: list[int]) -> None:
        if j == n:
            out.append(OrderIdeal(params, frozenset(counts_to_arcs(counts, k))))
            return
        lo = max(0, (counts[-1] if counts else 0) - k)
        for c in range(lo, k * (n - 1 - j) + 2):
            extend(j + 1, counts + [c])

    extend(0, [])
    return out


def ideal_to_path(ideal: OrderIdeal) -> str:
    """The staircase path of an ideal, from its row counts."""
    return counts_to_path(ideal.row_counts(), ideal.params)


def counts_to_path(counts: tuple[int, ...], params: KParams) -> str:
    """Encode the ideal with row counts c_1..c_n by the offsets
    e_j = a_j - c_{n+1-j}, reading rows from the last to the first."""
    k, N = params.k, params.N
    word = ["U"]
    prev = 0
    a = 1
    for c in reversed(counts):
        e = a - c
        if e < prev:
            raise AssertionError("offsets must be nondecreasing")
        word.append("R" * (e - prev) + "U")
        prev = e
        a += k
    word.append("R" * (N - prev))
    out = "".join(word)
    if not is_staircase_path(out, params):
        raise AssertionError("ideal produced an invalid path")
    return out


def check_row_counts(counts: tuple[int, ...], params: KParams) -> None:
    """OrderIdeal's checks in count form: row r (from 0) holds a prefix
    of its k(n-1-r)+1 arcs, and the lower cover (a + k, b) of each arc
    forces c_{r+1} >= c_r - k."""
    n, k = params.n, params.k
    caps = range(k * (n - 1) + 1, 0, -k)  # k(n-1-r)+1 for r = 0..n-1
    if len(counts) != n or min(counts) < 0 or any(map(gt, counts, caps)):
        raise ValueError("ideal contains a non-element")
    if max(map(sub, counts, counts[1:]), default=0) > k:
        raise ValueError("set is not down-closed")


def counts_to_arcs(counts: tuple[int, ...], k: int) -> list[tuple[int, int]]:
    """The sorted arcs of the ideal with these row counts."""
    return [
        (k * r + 1, k * r + 1 + t)
        for r, c in enumerate(counts)
        for t in range(1, c + 1)
    ]


def nonnesting_rows(params: KParams) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(path, row counts) of every order ideal, in path order, with no
    arc set built.

    The counts are chosen from the last row up, each row in ascending
    order, under the rule of enumerate_ideals: c_r <= k(n-1-r)+1 and
    c_r <= c_{r+1} + k.  The path reads the rows from the last one up,
    and a smaller count gives a larger offset, that is an R where the
    other word has its U ('R' < 'U'), so the rows come in path order.
    Every vector passes check_row_counts and counts_to_path.  The paths
    must increase strictly, so no two ideals share one, and when the
    iteration ends there must be nc_cardinality(n, k) of them.  Two
    checks run at the call, before the first row: a ground set past
    ENUMERATION_MAX_N is refused, and the vectors are counted by
    _row_vector_count against nc_cardinality(n, k).
    """
    check_ground_set(params)
    if _row_vector_count(params) != nc_cardinality(params.n, params.k):
        raise AssertionError("ideal count differs from the closed form")
    return _nonnesting_rows(params)


def _row_vector_count(params: KParams) -> int:
    """The number of vectors _nonnesting_rows yields, by a DP over the
    rows from the last one up: ways[c] counts the suffixes whose first
    row holds c arcs.  Row r admits c <= k(n-1-r)+1 over a next row of
    at least c - k; that bound never passes the next row's cap, and a
    row below the last one holds 0."""
    n, k = params.n, params.k
    ways = [1]
    for r in range(n - 1, -1, -1):
        tail = list(accumulate(reversed(ways)))[::-1]  # tail[c] = sum(ways[c:])
        ways = [tail[max(c - k, 0)] for c in range(k * (n - 1 - r) + 2)]
    return sum(ways)


def _nonnesting_rows(params: KParams) -> Iterator[tuple[str, tuple[int, ...]]]:
    n, k = params.n, params.k
    caps = [k * (n - 1 - r) + 1 for r in range(n)]
    size = 0
    last = ""
    stack: list[tuple[int, ...]] = [()]  # suffixes c_r..c_{n-1}
    while stack:
        suffix = stack.pop()
        r = n - 1 - len(suffix)
        if r >= 0:
            hi = min(caps[r], suffix[0] + k) if suffix else caps[r]
            stack.extend((c,) + suffix for c in range(hi, -1, -1))
            continue
        check_row_counts(suffix, params)
        path = counts_to_path(suffix, params)
        if path <= last:
            raise AssertionError("paths out of order or shared by two ideals")
        last = path
        size += 1
        yield path, suffix
    if size != nc_cardinality(n, k):
        raise AssertionError("ideal count differs from the closed form")


def path_to_ideal(word: str, params: KParams) -> OrderIdeal:
    n, k, N = params.n, params.k, params.N
    if not is_staircase_path(word, params):
        raise ValueError("not a staircase path")
    offsets = []
    downs = 0
    for ch in word:
        if ch == "U":
            offsets.append(downs)
        else:
            downs += 1
    # offsets[0] is the start; e_j = offsets[j] for j = 1..n, and row
    # n + 1 - j holds a_j - e_j arcs
    counts = tuple(k * (j - 1) + 1 - offsets[j] for j in range(n, 0, -1))
    if min(counts) < 0:
        raise ValueError("path dips below the staircase")
    return OrderIdeal(params, frozenset(counts_to_arcs(counts, k)))


# ---------------------------------------------------------------------------
# The full chain: partitions to ideals and back
# ---------------------------------------------------------------------------


def nc_to_paths(element: NoncrossingElement) -> tuple[str, str]:
    """The pair of k-Dyck paths of a partition (white side, black side)."""
    k = element.params.k
    white, black = split_tree(gj_tree(element))
    return (
        ary_to_dyck(contract(white, k)),
        ary_to_dyck(contract(black, k)),
    )


def nc_to_nn(element: NoncrossingElement) -> OrderIdeal:
    """The nonnesting order ideal of a noncrossing partition."""
    p1, p2 = nc_to_paths(element)
    return path_to_ideal(compose_path(p1, p2, element.params), element.params)


def _relabel_tour(
    white: PlaneTree, black: PlaneTree, params: KParams
) -> NoncrossingElement:
    """Reassemble a bicolored tree from its two root components and
    recover the partition by labeling edges along the tour."""
    N = params.N
    # turn[c][e]: the edge after e around its endpoint of colour c
    # (0 white, 1 black); the root edge is 0
    turn: tuple[dict[int, int], dict[int, int]] = ({}, {})
    ids = count(1)

    def build(node: PlaneTree, colour: int, entry: int) -> None:
        rotation = [entry] + [next(ids) for _ in node]
        turn[colour].update(zip(rotation, rotation[1:] + rotation[:1]))
        for child, edge in zip(node, rotation[1:]):
            build(child, 1 - colour, edge)

    build(white, 0, 0)
    build(black, 1, 0)
    if next(ids) != N:
        raise ValueError("trees do not have N - 1 non-root edges")
    # tour: cross white to black, labeling the edges in visit order
    label: dict[int, int] = {}
    edge = 0
    for step in range(1, N + 1):
        if edge in label:
            raise ValueError("tour revisited an edge before closing")
        label[edge] = step
        edge = turn[0][turn[1][edge]]
    if edge != 0:
        raise ValueError("tour did not close after N steps")
    image = [0] * N
    for edge in label:
        image[label[edge] - 1] = label[turn[0][edge]]
    return NoncrossingElement(Permutation(tuple(image)), params)


def nn_to_nc(ideal: OrderIdeal) -> NoncrossingElement:
    """Inverse of nc_to_nn."""
    params = ideal.params
    k = params.k
    p1, p2 = path_decompose(ideal_to_path(ideal), params)
    white = expand(dyck_to_ary(p1, k), k)
    black = expand(dyck_to_ary(p2, k), k)
    return _relabel_tour(white, black, params)
