"""Exact closed-form counts for the k-indivisible noncrossing families.

Everything here is arbitrary-precision integer arithmetic.  The central
object is the two-parameter Raney number

    Ran(n, p, r) = r / (np + r) * binomial(np + r, n),

which specializes to the Fuss-Catalan numbers (r = 1), the cardinality
of the k-indivisible noncrossing partition poset (p = k + 1, r = 2),
and, through negative values of p and r, to zeta-polynomial and Mobius
evaluations of that poset.  The binomial coefficient is the generalized
one: the top argument may be any integer, the bottom must be >= 0.
"""

from __future__ import annotations

import math


def binomial(top: int, bottom: int) -> int:
    """Generalized binomial coefficient C(top, bottom).

    top may be negative; bottom must be a nonnegative integer.  For
    negative top the falling-factorial definition is used, equivalently
    C(-a, b) = (-1)^b C(a + b - 1, b).
    """
    if bottom < 0:
        raise ValueError("bottom index of a binomial must be nonnegative")
    if top >= 0:
        if bottom > top:
            return 0
        return math.comb(top, bottom)
    return (-1) ** bottom * math.comb(-top + bottom - 1, bottom)


def raney(n: int, p: int, r: int) -> int:
    """Raney number Ran(n, p, r) = r/(np+r) * C(np+r, n).

    n must be >= 0 and np + r must be nonzero.  p and r may be any
    integers; the result is always an exact integer.
    """
    if n < 0:
        raise ValueError("Raney numbers need n >= 0")
    if n == 0:
        return 1
    d = n * p + r
    if d == 0:
        raise ValueError("Raney number undefined: np + r = 0")
    value, rem = divmod(r * binomial(d, n), d)
    if rem:
        raise ArithmeticError(f"Ran({n},{p},{r}) is not an integer")
    return value


def catalan(n: int) -> int:
    """Catalan number, i.e. Ran(n, 2, 1)."""
    return raney(n, 2, 1)


def fuss_catalan(n: int, p: int) -> int:
    """Fuss-Catalan number Ran(n, p, 1), the count of p-ary trees with
    n internal vertices."""
    return raney(n, p, 1)


def nc_cardinality(n: int, k: int) -> int:
    """Number of k-indivisible noncrossing partitions of [kn+1]."""
    return raney(n, k + 1, 2)


def nc_rank_count(n: int, k: int, r: int) -> int:
    """Number of k-indivisible noncrossing partitions of rank r.

    The poset on [kn+1] is graded with ranks 0..n.  Rank r holds the
    rank-jump count for the profile (r, n - r), that is
    (1/N) * Ran(r, 1 - k, N) * Ran(n - r, 1 - k, N) with N = kn + 1.
    """
    if not 0 <= r <= n:
        return 0
    return rank_jump_count(n, k, (r, n - r))


def rank_jump_count(n: int, k: int, jumps: tuple[int, ...]) -> int:
    """Number of multichains x_1 <= ... <= x_q in the k-indivisible
    noncrossing partition poset whose rank jumps are the given profile.

    jumps = (r_0, ..., r_q) with sum n: r_0 = rank of x_1, r_i the rank
    increase at step i, r_q = n - rank(x_q).  The count is
    (1/N) * prod_i Ran(r_i, 1 - k, N) with N = kn + 1.
    """
    if sum(jumps) != n:
        raise ValueError("rank jumps must sum to n")
    if any(r < 0 for r in jumps):
        raise ValueError("rank jumps must be nonnegative")
    N = k * n + 1
    product = 1
    for r in jumps:
        product *= raney(r, 1 - k, N)
    value, rem = divmod(product, N)
    if rem:
        raise ArithmeticError(f"rank-jump count not integral for {jumps}")
    return value


def zeta_value(n: int, k: int, q: int) -> int:
    """Zeta polynomial of the k-indivisible poset evaluated at q + 1,
    i.e. the number of q-element multichains:

        Z(q + 1) = (q + 1)/(Nq + 1) * C(Nq + n, n),  N = kn + 1.

    Defined as a polynomial in q, so negative q is legal; the argument
    q + 1 = -1, i.e. q = -2, gives the Mobius invariant.
    """
    N = k * n + 1
    d = N * q + 1
    if d == 0:
        raise ValueError("zeta evaluation undefined: Nq + 1 = 0")
    value, rem = divmod((q + 1) * binomial(N * q + n, n), d)
    if rem:
        raise ArithmeticError(f"zeta value not integral at q = {q}")
    return value


def mobius_invariant(n: int, k: int) -> int:
    """Mobius function of the bounded k-indivisible poset between its
    minimum and maximum: (-1)^n Ran(n, 2k, 1) = Z(-1), i.e. q = -2."""
    return (-1) ** n * raney(n, 2 * k, 1)


def chain_count(n: int, k: int) -> int:
    """Number of maximal chains of the k-indivisible poset, equal to the
    number of reduced (k+1)-cycle factorizations of the long cycle:
    N^(n-1) with N = kn + 1."""
    N = k * n + 1
    return N ** (n - 1)


def commutation_class_count(n: int, k: int) -> int:
    """Number of commutation classes of reduced factorizations,
    Ran(n, 2k + 1, 1)."""
    return raney(n, 2 * k + 1, 1)


def _check_m(m: int) -> None:
    """The m-divisible closed forms hold for m >= 1 only."""
    if m < 1:
        raise ValueError("need m >= 1")


def mdiv_cardinality(n: int, k: int, m: int) -> int:
    """Number of m-divisible k-indivisible noncrossing partitions,
    i.e. m-element multichains: zeta at m."""
    _check_m(m)
    return zeta_value(n, k, m)


def mdiv_zeta_value(n: int, k: int, m: int, q: int) -> int:
    """Zeta polynomial of the m-divisible poset at q + 1.  Its q-element
    multichains of m-chains are counted by the mq-element multichains of
    the base poset, so this is zeta_value at mq:

        (mq + 1)/(mNq + 1) * C(mNq + n, n),  N = kn + 1.
    """
    _check_m(m)
    return zeta_value(n, k, m * q)


def mdiv_mobius_hat(n: int, k: int, m: int) -> int:
    """Mobius invariant of the m-divisible poset with an artificial
    bottom adjoined: (-1)^(n-1) Ran(n, km, m - 1)."""
    _check_m(m)
    return (-1) ** (n - 1) * raney(n, k * m, m - 1)


def mdiv_mobius_bar(n: int, k: int, m: int) -> int:
    """Mobius invariant of the m-divisible poset with its minimal
    elements merged into one: (-1)^n (Ran(n, k(m+1), m) - Ran(n, km, m-1))."""
    _check_m(m)
    return (-1) ** n * (raney(n, k * (m + 1), m) - raney(n, k * m, m - 1))


def typeb_orbit_size(n: int, k: int) -> int:
    """Conjectured size of the Hurwitz orbit of the grouped type B
    factorization of the Coxeter word of B_{kn}: k^(n-1) n^n.  A
    conjecture, compared by the type B lab, not a theorem."""
    return k ** (n - 1) * n**n


def typeb_prefix_count(n: int, k: int) -> int:
    """Conjectured number of prefix products over that Hurwitz orbit:
    2 C(nk + n - 1, n - 1).  A conjecture, compared by the type B lab."""
    return 2 * binomial(n * k + n - 1, n - 1)


def typeb_zeta_value(n: int, k: int, q: int) -> int:
    """Conjectured zeta value at q of the prefix products under the
    reflection-length order, the number of (q-1)-element multichains:
    q C(nk(q - 1) + n - 1, n - 1).  A conjecture, compared by the type B
    lab."""
    return q * binomial(n * k * (q - 1) + n - 1, n - 1)


def nc_matrix(n: int, k: int) -> list[list[int]]:
    """The n x n matrix M with M[i][j] = C((n-j)k + 2, j - i + 1) for
    1-based i, j, whose determinant counts the poset."""
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            b = j - i + 1
            row.append(binomial((n - j) * k + 2, b) if b >= 0 else 0)
        rows.append(row)
    return rows


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant via Bareiss fraction-free elimination."""
    m = [row[:] for row in matrix]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(size - 1):
        if m[col][col] == 0:
            for row in range(col + 1, size):
                if m[row][col] != 0:
                    m[col], m[row] = m[row], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for row in range(col + 1, size):
            for c in range(col + 1, size):
                num = m[row][c] * m[col][col] - m[row][col] * m[col][c]
                q, rem = divmod(num, prev)
                assert rem == 0, "Bareiss division must be exact"
                m[row][c] = q
            m[row][col] = 0
        prev = m[col][col]
    return sign * m[size - 1][size - 1]
