"""Experimental lab for the type B analogue.

Signed permutations of {-m, ..., -1, 1, ..., m} with m = kn are stored
as the image tuple of 1..m (negative values mean sign flips), so that
w(-x) = -w(x).  The simple generators are s_0 (sign change on 1) and
s_i (the transposition of i and i+1); grouping k consecutive simple
factors of the Coxeter word s_0 s_1 ... s_{kn-1} gives an n-factor
factorization whose Hurwitz orbit, prefix census, and restricted-order
zeta values are compared against conjectured product formulas.

Everything here is report-only: the report pairs each conjectured
count with its observation and never raises on a mismatch.
"""

from __future__ import annotations

from .counting import typeb_orbit_size, typeb_prefix_count, typeb_zeta_value
from .perm import breadth_first

SignedPerm = tuple[int, ...]

DEFAULT_MAX_STATES = 2_000_000  # default guard of hurwitz_orbit_signed


def sp_identity(m: int) -> SignedPerm:
    return tuple(range(1, m + 1))


def sp_apply(w: SignedPerm, x: int) -> int:
    return w[x - 1] if x > 0 else -w[-x - 1]


def sp_compose(u: SignedPerm, v: SignedPerm) -> SignedPerm:
    """(u * v)(x) = u(v(x)); the right factor acts first."""
    return tuple(sp_apply(u, y) for y in v)


def sp_inverse(w: SignedPerm) -> SignedPerm:
    inv = [0] * len(w)
    for x, y in enumerate(w, start=1):
        if y > 0:
            inv[y - 1] = x
        else:
            inv[-y - 1] = -x
    return tuple(inv)


def simple_generator(i: int, m: int) -> SignedPerm:
    """s_0 flips the sign of 1; s_i swaps i and i+1."""
    img = list(range(1, m + 1))
    if i == 0:
        img[0] = -1
    else:
        img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def grouped_factors(n: int, k: int) -> tuple[SignedPerm, ...]:
    """t_j = s_{(j-1)k} * ... * s_{jk-1}, so that t_1 ... t_n is the
    Coxeter word s_0 s_1 ... s_{kn-1}."""
    m = k * n
    out = []
    for j in range(1, n + 1):
        t = sp_identity(m)
        for i in range((j - 1) * k, j * k):
            t = sp_compose(t, simple_generator(i, m))
        out.append(t)
    return tuple(out)


def all_reflections(m: int) -> list[SignedPerm]:
    """The m^2 reflections of the hyperoctahedral group."""
    out = []
    for i in range(1, m + 1):
        img = list(range(1, m + 1))
        img[i - 1] = -i
        out.append(tuple(img))
        for j in range(i + 1, m + 1):
            img = list(range(1, m + 1))
            img[i - 1], img[j - 1] = j, i
            out.append(tuple(img))
            img = list(range(1, m + 1))
            img[i - 1], img[j - 1] = -j, -i
            out.append(tuple(img))
    return out


def reflection_length_table(m: int) -> dict[SignedPerm, int]:
    """Distance from the identity in the full reflection generating set,
    by breadth-first search over the whole group (m <= 6)."""
    if m > 6:
        raise ValueError("reflection-length table limited to m <= 6")
    gens = all_reflections(m)
    return breadth_first(
        sp_identity(m), lambda w: [sp_compose(w, g) for g in gens]
    )


def _hurwitz_moves(f: tuple[SignedPerm, ...]):
    """sigma_{i+1} and its inverse at every position i, in that order."""
    for i in range(len(f) - 1):
        a, b = f[i], f[i + 1]
        yield f[:i] + (b, sp_compose(sp_compose(sp_inverse(b), a), b)) + f[i + 2 :]
        yield f[:i] + (sp_compose(sp_compose(a, b), sp_inverse(a)), a) + f[i + 2 :]


def hurwitz_orbit_signed(
    start: tuple[SignedPerm, ...], max_states: int = DEFAULT_MAX_STATES
) -> set[tuple[SignedPerm, ...]]:
    """Breadth-first Hurwitz orbit of a tuple of signed permutations."""
    return set(breadth_first(start, _hurwitz_moves, max_states))


def typeb_report(n: int, k: int) -> list[tuple[str, int, int]]:
    """Orbit size, prefix census, and restricted zeta values for the
    grouped type B factorization, each as a (claim, conjectured,
    observed) triple."""
    m = k * n
    if m > 6:
        raise ValueError("type B lab limited to kn <= 6")
    orbit = hurwitz_orbit_signed(grouped_factors(n, k))
    prefixes: set[SignedPerm] = set()
    for f in orbit:
        acc = sp_identity(m)
        prefixes.add(acc)
        for t in f:
            acc = sp_compose(acc, t)
            prefixes.add(acc)

    # u <= v iff l(u) + l(u^-1 v) = l(v).  Z(q) = number of (q-1)-element
    # multichains: the elements at q = 2, the comparable pairs at q = 3
    table = reflection_length_table(m)
    lengths = [(v, table[v]) for v in prefixes]
    pairs = 0
    for u in prefixes:
        inv, lu = sp_inverse(u), table[u]
        pairs += sum(lu + table[sp_compose(inv, v)] == lv for v, lv in lengths)
    return [
        ("hurwitz orbit size", typeb_orbit_size(n, k), len(orbit)),
        ("prefix census", typeb_prefix_count(n, k), len(prefixes)),
        ("restricted zeta at q=2", typeb_zeta_value(n, k, 2), len(prefixes)),
        ("restricted zeta at q=3", typeb_zeta_value(n, k, 3), pairs),
    ]
