"""Permutations of [K] = {1, ..., K} with cycle-notation input/output.

Composition follows the function convention (u * v)(x) = u(v(x)): the
right factor acts first.  Cycle decompositions are canonical: every
cycle is rotated to start at its minimum and cycles are sorted by their
minima.  Fixed points are kept internally but omitted when printing.

The module also provides the (k+1)-cycle generated word length ell_k,
both in closed form (defined exactly on the permutations whose cycle
lengths are all congruent to 1 mod k) and as a breadth-first oracle
over the full generated subgroup for small K.  `breadth_first` is the
one search loop behind that oracle and behind the Hurwitz, commutation
and type B oracles.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Hashable, Iterable
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


def breadth_first(
    start: Hashable,
    neighbours: Callable[[Hashable], Iterable[Hashable]],
    max_states: int | None = None,
) -> dict:
    """Distance from start of every state reachable through
    neighbours(state), in visiting order.

    Raises RuntimeError when a new state would make more than
    max_states states.
    """
    dist = {start: 0}
    queue = [start]
    for state in queue:
        d = dist[state] + 1
        for new in neighbours(state):
            if new not in dist:
                if max_states is not None and len(dist) >= max_states:
                    raise RuntimeError(f"orbit exceeded max_states = {max_states}")
                dist[new] = d
                queue.append(new)
    return dist


@lru_cache(maxsize=None)
def _distance_table(K: int, k: int) -> dict[tuple[int, ...], int]:
    """BFS distances from the identity over the (k+1)-cycle generators."""
    gens = [g.image for g in all_k1_cycles(K, k)]
    # right-multiply: (w * g)(x) = w(g(x))
    return breadth_first(
        tuple(range(1, K + 1)),
        lambda img: [tuple(img[y - 1] for y in g) for g in gens],
    )


def ell_k_oracle(w: Permutation, k: int) -> int:
    """Exact word length of w over the (k+1)-cycles by breadth-first
    search, valid for small degrees (K <= 8).

    Raises ValueError if w is not in the generated subgroup.
    """
    if w.degree > 8:
        raise ValueError("oracle limited to degree <= 8")
    table = _distance_table(w.degree, k)
    if w.image not in table:
        raise ValueError(f"{w} is not a product of (k+1)-cycles for k = {k}")
    return table[w.image]


def covers_below(w: Permutation, k: int) -> list[Permutation]:
    """Elements covered by w in the (k+1)-cycle generated order.

    w must have all cycle lengths 1 mod k.  Each cover cuts one cycle
    (c_0 ... c_{s-1}) of w after k + 1 of its positions into k + 1
    cyclic runs (a, b] whose lengths are again all 1 mod k; equivalently
    u = w * t^{-1} for the (k+1)-cycle t on those positions.  u is w's
    image with the k + 1 cut entries rewritten, u(c_b) = c_{a+1} for each
    run, indices mod s.  Returned as a list: cycles by minima, and the
    cuts of each cycle in combinations order."""
    if not is_one_mod_k(w, k):
        raise ValueError("covers_below needs all cycle lengths 1 mod k")
    out = []
    for cyc in w.cycles():
        size, twice = len(cyc), cyc + cyc
        for cut in combinations(range(size), k + 1):
            ends = cut[1:] + (cut[0] + size,)
            if all((b - a) % k == 1 % k for a, b in zip(cut, ends)):
                image = list(w.image)
                for a, b in zip(cut, ends):
                    image[twice[b] - 1] = twice[a + 1]
                out.append(Permutation(tuple(image)))
    return out
