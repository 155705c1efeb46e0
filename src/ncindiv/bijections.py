"""Bijections from k-indivisible noncrossing partitions to trees,
lattice paths, and nonnesting order ideals.

The pipeline follows the tree route: a partition w together with its
Kreweras complement forms a bicolored plane tree on N edges (white
vertices are the blocks of w, black vertices the blocks of the
complement, edge i joins the blocks containing i).  Deleting the root
edge 1 splits the tree into two k-divisible plane trees, which
contract to (k+1)-ary trees, which serialize to k-Dyck paths; the two
paths concatenate to a single lattice path weakly above the staircase
boundary, and such paths encode the order ideals of the nonnesting
arc poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .nc import NoncrossingElement, kreweras
from .perm import KParams, from_cycles

PlaneTree = tuple  # nested tuples; a leaf is ()


# ---------------------------------------------------------------------------
# Bicolored plane trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BicoloredTree:
    """The plane tree of a noncrossing partition: white rotations are
    the blocks of w, black rotations the blocks of the Kreweras
    complement, and edge labels 1..N appear once on each side."""

    white: tuple[tuple[int, ...], ...]
    black: tuple[tuple[int, ...], ...]
    N: int

    def white_of(self, label: int) -> int:
        for i, cyc in enumerate(self.white):
            if label in cyc:
                return i
        raise KeyError(label)

    def black_of(self, label: int) -> int:
        for i, cyc in enumerate(self.black):
            if label in cyc:
                return i
        raise KeyError(label)


def gj_tree(element: NoncrossingElement) -> BicoloredTree:
    """Build and validate the bicolored tree of a partition."""
    w = element.perm
    comp = kreweras(w)
    tree = BicoloredTree(white=w.cycles(), black=comp.cycles(), N=w.degree)
    _validate_tree(tree, element.params.k)
    return tree


def _validate_tree(tree: BicoloredTree, k: int) -> None:
    N = tree.N
    # a tree on N edges has N + 1 vertices
    if len(tree.white) + len(tree.black) != N + 1:
        raise ValueError("edge/vertex count is not that of a tree")
    for cyc in tree.white + tree.black:
        if len(cyc) % k != 1 % k:
            raise ValueError("vertex degree not 1 mod k")
    # connectivity by union-find over edges
    parent = list(range(N + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for label in range(1, N + 1):
        a = find(tree.white_of(label))
        b = find(len(tree.white) + tree.black_of(label))
        if a == b:
            raise ValueError("cycle in the bicolored graph")
        parent[a] = b
    # the tour that keeps the tree to the right must meet the edges in
    # label order when crossing white to black
    white_next = {}
    for cyc in tree.white:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            white_next[a] = b
    black_next = {}
    for cyc in tree.black:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            black_next[a] = b
    label = 1
    for step in range(1, N + 1):
        if label != step:
            raise ValueError("tour does not read the labels in order")
        label = white_next[black_next[label]]
        if label > N:
            label -= N
    if label != 1:
        raise ValueError("tour did not close up")


# ---------------------------------------------------------------------------
# Splitting at the root edge and contracting to (k+1)-ary trees
# ---------------------------------------------------------------------------


def _grow(tree: BicoloredTree, color: str, vertex: int, entry: int) -> PlaneTree:
    """Plane subtree hanging below a vertex entered via edge label
    entry; children follow the rotation after the entry label."""
    cyc = tree.white[vertex] if color == "white" else tree.black[vertex]
    pos = cyc.index(entry)
    children = []
    for off in range(1, len(cyc)):
        label = cyc[(pos + off) % len(cyc)]
        if color == "white":
            children.append(_grow(tree, "black", tree.black_of(label), label))
        else:
            children.append(_grow(tree, "white", tree.white_of(label), label))
    return tuple(children)


def split_tree(tree: BicoloredTree) -> tuple[PlaneTree, PlaneTree]:
    """Delete the root edge 1 and return the plane trees rooted at its
    white and black endpoints."""
    white_side = _grow(tree, "white", tree.white_of(1), 1)
    black_side = _grow(tree, "black", tree.black_of(1), 1)
    return white_side, black_side


def contract(tree: PlaneTree, k: int) -> PlaneTree:
    """Contract a k-divisible plane tree (all child counts 0 mod k) to
    a (k+1)-ary tree: every vertex keeps its first k children and gains
    a right-most child carrying the remainder."""

    def group(children: tuple) -> PlaneTree:
        if not children:
            return ()
        if len(children) % k != 0:
            raise ValueError("plane tree is not k-divisible")
        return tuple(group(c) for c in children[:k]) + (group_rest(children[k:]),)

    def group_rest(children: tuple) -> PlaneTree:
        if not children:
            return ()
        return tuple(group(c) for c in children[:k]) + (group_rest(children[k:]),)

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


def tree_to_text(tree: PlaneTree) -> str:
    """Nested-parenthesis serialization; a leaf is '()'."""
    return "(" + "".join(tree_to_text(c) for c in tree) + ")"


def tree_from_text(text: str) -> PlaneTree:
    pos = 0

    def parse() -> PlaneTree:
        nonlocal pos
        if pos >= len(text) or text[pos] != "(":
            raise ValueError("malformed tree text")
        pos += 1
        children = []
        while pos < len(text) and text[pos] == "(":
            children.append(parse())
        if pos >= len(text) or text[pos] != ")":
            raise ValueError("malformed tree text")
        pos += 1
        return tuple(children)

    out = parse()
    if pos != len(text):
        raise ValueError("trailing characters in tree text")
    return out


# ---------------------------------------------------------------------------
# (k+1)-ary trees and k-Dyck paths
# ---------------------------------------------------------------------------


def ary_to_dyck(tree: PlaneTree, k: int) -> str:
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
    ups = 0
    downs = 0
    for ch in word:
        if ch == "U":
            ups += 1
        elif ch == "R":
            downs += 1
            if downs > 1 + k * (ups - 1):
                return False
        else:
            return False
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
            arcs = set()
            for row, c in enumerate(counts):
                a = k * row + 1
                arcs.update((a, a + t) for t in range(1, c + 1))
            out.append(OrderIdeal(params, frozenset(arcs)))
            return
        lo = max(0, (counts[-1] if counts else 0) - k)
        for c in range(lo, k * (n - 1 - j) + 2):
            extend(j + 1, counts + [c])

    extend(0, [])
    return out


def ideal_to_path(ideal: OrderIdeal) -> str:
    """Encode an ideal by the offsets e_j = a_j - c_{n+1-j} of its
    row counts, reading rows from the last to the first."""
    n, k, N = ideal.params.n, ideal.params.k, ideal.params.N
    counts = ideal.row_counts()
    word = ["U"]
    prev = 0
    for j in range(1, n + 1):
        a = k * (j - 1) + 1
        e = a - counts[n - j]
        if e < prev:
            raise AssertionError("offsets must be nondecreasing")
        word.append("R" * (e - prev) + "U")
        prev = e
    word.append("R" * (N - prev))
    out = "".join(word)
    if not is_staircase_path(out, ideal.params):
        raise AssertionError("ideal produced an invalid path")
    return out


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
    # offsets[0] is the start; e_j = offsets[j] for j = 1..n
    arcs = set()
    for j in range(1, n + 1):
        a = k * (j - 1) + 1
        c = a - offsets[j]
        if c < 0:
            raise ValueError("path dips below the staircase")
        row = n + 1 - j
        ra = k * (row - 1) + 1
        arcs.update((ra, ra + t) for t in range(1, c + 1))
    return OrderIdeal(params, frozenset(arcs))


# ---------------------------------------------------------------------------
# The full chain: partitions to ideals and back
# ---------------------------------------------------------------------------


def nc_to_paths(element: NoncrossingElement) -> tuple[str, str]:
    """The pair of k-Dyck paths of a partition (white side, black side)."""
    k = element.params.k
    white, black = split_tree(gj_tree(element))
    return (
        ary_to_dyck(contract(white, k), k),
        ary_to_dyck(contract(black, k), k),
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
    # vertices: (color, id); rotations as edge-id lists, entry edge first
    rotations: dict[tuple[str, int], list[int]] = {}
    endpoints: dict[int, dict[str, tuple[str, int]]] = {}
    counter = [0]
    edge_counter = [0]

    def build(node: PlaneTree, color: str, entry_edge: int) -> None:
        vid = (color, counter[0])
        counter[0] += 1
        rotations[vid] = [entry_edge]
        endpoints.setdefault(entry_edge, {})[color] = vid
        other = "black" if color == "white" else "white"
        for child in node:
            edge_counter[0] += 1
            eid = edge_counter[0]
            rotations[vid].append(eid)
            endpoints.setdefault(eid, {})[color] = vid
            build(child, other, eid)

    build(white, "white", 0)
    build(black, "black", 0)
    if edge_counter[0] != N - 1:
        raise ValueError("trees do not have N - 1 non-root edges")
    # tour: traverse white->black assigning labels in visit order
    labels: dict[int, int] = {}
    edge = 0
    for label in range(1, N + 1):
        if edge in labels:
            raise ValueError("tour revisited an edge before closing")
        labels[edge] = label
        bvid = endpoints[edge]["black"]
        rot = rotations[bvid]
        nxt = rot[(rot.index(edge) + 1) % len(rot)]
        wvid = endpoints[nxt]["white"]
        rot = rotations[wvid]
        edge = rot[(rot.index(nxt) + 1) % len(rot)]
    if edge != 0:
        raise ValueError("tour did not close after N steps")
    cycles = tuple(
        tuple(labels[e] for e in rot)
        for vid, rot in rotations.items()
        if vid[0] == "white"
    )
    return NoncrossingElement(from_cycles(N, cycles), params)


def nn_to_nc(ideal: OrderIdeal) -> NoncrossingElement:
    """Inverse of nc_to_nn."""
    params = ideal.params
    k = params.k
    p1, p2 = path_decompose(ideal_to_path(ideal), params)
    white = expand(dyck_to_ary(p1, k), k)
    black = expand(dyck_to_ary(p2, k), k)
    return _relabel_tour(white, black, params)
