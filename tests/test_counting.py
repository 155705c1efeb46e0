from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncindiv import counting
from ncindiv.counting import (
    bareiss_determinant,
    binomial,
    catalan,
    chain_count,
    commutation_class_count,
    fuss_catalan,
    mdiv_cardinality,
    mdiv_mobius_bar,
    mdiv_mobius_hat,
    mdiv_zeta_value,
    mobius_invariant,
    nc_cardinality,
    nc_matrix,
    nc_rank_count,
    raney,
    rank_jump_count,
    zeta_value,
)


def test_binomial_nonnegative_matches_pascal():
    for top in range(8):
        for bottom in range(10):
            expected = binomial(top - 1, bottom - 1) + binomial(top - 1, bottom) if bottom else 1
            assert binomial(top, bottom) == expected


def test_binomial_negative_top():
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(-3, 0) == 1
    with pytest.raises(ValueError):
        binomial(5, -1)


@given(st.integers(0, 20), st.integers(-6, 6), st.integers(-6, 6))
def test_raney_is_integral_or_pole(n, p, r):
    if n > 0 and n * p + r == 0:
        with pytest.raises(ValueError):
            raney(n, p, r)
    else:
        value = raney(n, p, r)
        assert value == Fraction(r, n * p + r) * binomial(n * p + r, n) if n else value == 1


@given(
    st.integers(0, 12),
    st.integers(-4, 4),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_raney_convolution(n, p, r, s):
    terms = []
    for i in range(n + 1):
        if (i and i * p + r == 0) or (n - i and (n - i) * p + s == 0):
            return  # a pole makes the identity inapplicable
        terms.append(raney(i, p, r) * raney(n - i, p, s))
    if n and n * p + r + s == 0:
        return
    assert sum(terms) == raney(n, p, r + s)


def test_catalan_and_fuss():
    assert [catalan(i) for i in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert fuss_catalan(3, 3) == 12
    assert fuss_catalan(4, 4) == 140


def test_hand_values():
    assert nc_cardinality(3, 2) == 30
    assert nc_cardinality(4, 3) == 340
    assert chain_count(3, 2) == 49
    assert mobius_invariant(3, 2) == -22
    assert commutation_class_count(3, 1) == 12
    assert commutation_class_count(2, 2) == 5


def test_rank_counts_sum_to_cardinality():
    for k in range(1, 4):
        for n in range(1, 7):
            total = sum(nc_rank_count(n, k, r) for r in range(n + 1))
            assert total == nc_cardinality(n, k)


def test_rank_jump_symmetry_and_total():
    # summing over all jump profiles of length q+1 gives the q-multichain count
    from itertools import product

    for k, n, q in ((2, 3, 2), (1, 4, 2), (3, 2, 3)):
        total = 0
        for profile in product(range(n + 1), repeat=q + 1):
            if sum(profile) == n:
                count = rank_jump_count(n, k, profile)
                assert count == rank_jump_count(n, k, profile[::-1])
                total += count
        assert total == zeta_value(n, k, q)


def test_zeta_specializations():
    for k in range(1, 4):
        for n in range(1, 6):
            assert zeta_value(n, k, 1) == nc_cardinality(n, k)
            assert zeta_value(n, k, 0) == 1
            assert zeta_value(n, k, -2) == mobius_invariant(n, k)


def test_integrality_checks_fire(monkeypatch):
    """Each closed form divides exactly and refuses a remainder; faked
    binomials and Raney numbers make the quotients non-integral."""
    monkeypatch.setattr(counting, "binomial", lambda top, bottom: 1)
    with pytest.raises(ArithmeticError, match=r"Ran\(2,2,1\) is not an integer"):
        raney(2, 2, 1)  # 1 * 1 / 5
    for q in (1, -2):  # 2 / 4 and -1 / -5
        with pytest.raises(ArithmeticError, match=f"zeta value not integral at q = {q}"):
            zeta_value(2, 1, q)
    monkeypatch.setattr(counting, "raney", lambda n, p, r: 1)
    with pytest.raises(ArithmeticError, match="rank-jump count not integral"):
        rank_jump_count(2, 1, (1, 1))  # 1 / 3


def test_mdiv_closed_forms_consistency():
    for k in (1, 2):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                assert mdiv_cardinality(n, k, m) == mdiv_zeta_value(n, k, m, 1)
                if m == 1:
                    assert mdiv_cardinality(n, k, 1) == nc_cardinality(n, k)
                    # adjoining a bottom below an existing bottom kills mu
                    assert mdiv_mobius_hat(n, k, 1) == 0
                assert isinstance(mdiv_mobius_bar(n, k, m), int)


@pytest.mark.parametrize("m", [0, -1])
def test_mdiv_closed_forms_refuse_m_below_one(m):
    for closed_form in (
        lambda: mdiv_cardinality(3, 1, m),
        lambda: mdiv_zeta_value(3, 1, m, 2),
        lambda: mdiv_mobius_hat(3, 1, m),
        lambda: mdiv_mobius_bar(3, 1, m),
    ):
        with pytest.raises(ValueError, match="need m >= 1"):
            closed_form()


def test_determinant_matches_cardinality():
    for k in range(1, 5):
        for n in range(1, 7):
            assert bareiss_determinant(nc_matrix(n, k)) == nc_cardinality(n, k)


def test_bareiss_on_singular_and_permuted():
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([]) == 1
