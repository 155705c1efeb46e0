"""Permutations of [K] = {1, ..., K} with cycle-notation input/output.

Composition follows the function convention (u * v)(x) = u(v(x)): the
right factor acts first.  Cycle decompositions are canonical: every
cycle is rotated to start at its minimum and cycles are sorted by their
minima.  Fixed points are kept internally but omitted when printing.

The module also provides the (k+1)-cycle generated word length ell_k,
both in closed form (defined exactly on the permutations whose cycle
lengths are all congruent to 1 mod k) and as a breadth-first oracle
over the full generated subgroup for small K.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations


@dataclass(frozen=True)
class KParams:
    """Parameters (k, n) of the ground set [N] with N = kn + 1."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("need k >= 1 and n >= 1")

    @property
    def N(self) -> int:
        return self.k * self.n + 1


@dataclass(frozen=True)
class Permutation:
    """A permutation of [K], stored as the image tuple w(1), ..., w(K)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError(f"not a permutation of [{len(self.image)}]: {self.image}")

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        return self.image[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition; the right factor acts first."""
        if other.degree != self.degree:
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation(tuple(self.image[y - 1] for y in other.image))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.image, start=1):
            inv[y - 1] = x
        return Permutation(tuple(inv))

    def cycles(self, with_fixed_points: bool = True) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition: each cycle starts at its
        minimum, cycles sorted by minima.

        The full decomposition is computed once per instance and kept
        outside the dataclass fields, so equality and hashing still
        read only the image."""
        full = self.__dict__.get("_cycles")
        if full is None:
            seen = [False] * self.degree
            out = []
            for start in range(1, self.degree + 1):
                if seen[start - 1]:
                    continue
                cyc = [start]
                seen[start - 1] = True
                x = self(start)
                while x != start:
                    cyc.append(x)
                    seen[x - 1] = True
                    x = self(x)
                out.append(tuple(cyc))
            full = tuple(out)
            object.__setattr__(self, "_cycles", full)
        if with_fixed_points:
            return full
        return tuple(cyc for cyc in full if len(cyc) > 1)

    def cycle_count(self) -> int:
        """Number of cycles including fixed points."""
        return len(self.cycles())

    def is_even(self) -> bool:
        return (self.degree - self.cycle_count()) % 2 == 0

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r})"

    def __str__(self) -> str:
        return format_cycles(self)


def identity(K: int) -> Permutation:
    return Permutation(tuple(range(1, K + 1)))


def from_cycles(K: int, cycles: tuple[tuple[int, ...], ...]) -> Permutation:
    """Build a permutation of [K] from disjoint cycles."""
    image = list(range(1, K + 1))
    seen: set[int] = set()
    for cyc in cycles:
        for x in cyc:
            if not 1 <= x <= K:
                raise ValueError(f"cycle entry {x} outside [{K}]")
            if x in seen:
                raise ValueError(f"cycles are not disjoint at {x}")
            seen.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a - 1] = b
    return Permutation(tuple(image))


def long_cycle(N: int) -> Permutation:
    """The cycle (1 2 ... N)."""
    return from_cycles(N, (tuple(range(1, N + 1)),))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, K: int) -> Permutation:
    """Parse cycle notation like '(1 2 7)(3 4 5 6)'; '()' is the identity."""
    text = text.strip()
    if not text:
        raise ValueError("empty cycle notation")
    stripped = text.replace(" ", "")
    body = _CYCLE_RE.sub("", stripped)
    if body:
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for group in _CYCLE_RE.findall(text):
        entries = group.replace(",", " ").split()
        if entries:
            cycles.append(tuple(int(e) for e in entries))
    return from_cycles(K, tuple(cycles))


def format_cycles(w: Permutation) -> str:
    """Cycle notation with fixed points omitted; identity prints as '()'."""
    cycles = w.cycles(with_fixed_points=False)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycles)


def is_one_mod_k(w: Permutation, k: int) -> bool:
    """True iff every cycle length of w is congruent to 1 mod k."""
    return all(len(cyc) % k == 1 % k for cyc in w.cycles())


def ell_k(w: Permutation, k: int) -> int | None:
    """Word length of w over the (k+1)-cycles, in closed form.

    Equals (K - cyc(w)) / k when every cycle length of w is 1 mod k.
    Outside that domain the closed form does not apply and None is
    returned.  If k is even and w is odd, w lies outside the generated
    subgroup entirely and a ValueError is raised.
    """
    if k % 2 == 0 and not w.is_even():
        raise ValueError("odd permutation is not a product of odd-length cycles")
    if not is_one_mod_k(w, k):
        return None
    q, r = divmod(w.degree - w.cycle_count(), k)
    assert r == 0
    return q


def all_k1_cycles(K: int, k: int) -> list[Permutation]:
    """All (k+1)-cycles in the symmetric group on [K]."""
    out = []
    for support in combinations(range(1, K + 1), k + 1):
        first, rest = support[0], support[1:]
        for order in permutations(rest):
            out.append(from_cycles(K, ((first,) + order,)))
    return out


@lru_cache(maxsize=None)
def _distance_table(K: int, k: int) -> dict[tuple[int, ...], int]:
    """BFS distances from the identity over the (k+1)-cycle generators."""
    gens = [g.image for g in all_k1_cycles(K, k)]
    start = tuple(range(1, K + 1))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for img in frontier:
            d = dist[img]
            for g in gens:
                # right-multiply: (w * g)(x) = w(g(x))
                new = tuple(img[y - 1] for y in g)
                if new not in dist:
                    dist[new] = d + 1
                    nxt.append(new)
        frontier = nxt
    return dist


def ell_k_oracle(w: Permutation, k: int, bound: int | None = None) -> int:
    """Exact word length of w over the (k+1)-cycles by breadth-first
    search, valid for small degrees (K <= 8).

    Raises ValueError if w is not in the generated subgroup, or if a
    bound is given and the true length exceeds it.
    """
    if w.degree > 8:
        raise ValueError("oracle limited to degree <= 8")
    table = _distance_table(w.degree, k)
    if w.image not in table:
        raise ValueError(f"{w} is not a product of (k+1)-cycles for k = {k}")
    d = table[w.image]
    if bound is not None and d > bound:
        raise ValueError(f"length {d} of {w} exceeds bound {bound}")
    return d


def covers_below(w: Permutation, k: int) -> set[Permutation]:
    """Elements covered by w in the (k+1)-cycle generated order.

    w must have all cycle lengths 1 mod k.  Each cover is obtained by
    cutting one cycle of w into k + 1 cycles whose lengths are again
    all 1 mod k; equivalently u = w * t^{-1} for a (k+1)-cycle t whose
    entries sit in compatible cyclic order inside one cycle of w.
    """
    if not is_one_mod_k(w, k):
        raise ValueError("covers_below needs all cycle lengths 1 mod k")
    K = w.degree
    target = w.cycle_count() + k
    out = set()
    for cyc in w.cycles():
        if len(cyc) < k + 1:
            continue
        for positions in combinations(range(len(cyc)), k + 1):
            t = from_cycles(K, (tuple(cyc[p] for p in positions),))
            u = w * t.inverse()
            if u.cycle_count() == target and is_one_mod_k(u, k):
                out.add(u)
    return out
