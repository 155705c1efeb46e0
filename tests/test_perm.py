import pytest
from hypothesis import given, strategies as st

from ncindiv.perm import (
    KParams,
    Permutation,
    all_k1_cycles,
    covers_below,
    ell_k,
    ell_k_oracle,
    format_cycles,
    from_cycles,
    identity,
    is_one_mod_k,
    long_cycle,
    parse_cycles,
)

perm_images = st.integers(1, 7).flatmap(
    lambda K: st.permutations(list(range(1, K + 1)))
)


def test_params_validation():
    assert KParams(2, 3).N == 7
    with pytest.raises(ValueError):
        KParams(0, 3)
    with pytest.raises(ValueError):
        KParams(2, 0)


@given(perm_images, st.randoms())
def test_group_axioms(image, rng):
    w = Permutation(tuple(image))
    shuffled = list(image)
    rng.shuffle(shuffled)
    v = Permutation(tuple(shuffled))
    assert (w * v).inverse() == v.inverse() * w.inverse()
    assert w * w.inverse() == identity(w.degree)
    assert (w * v)(1) == w(v(1))


@given(perm_images)
def test_cycle_round_trip(image):
    w = Permutation(tuple(image))
    assert from_cycles(w.degree, w.cycles()) == w
    assert parse_cycles(format_cycles(w), w.degree) == w


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 3)  # not disjoint
    assert parse_cycles("()", 4) == identity(4)
    assert parse_cycles("(1,2,7)(3 4 5 6)", 7) == from_cycles(
        7, ((1, 2, 7), (3, 4, 5, 6))
    )


def test_format_omits_fixed_points():
    assert format_cycles(from_cycles(5, ((2, 4),))) == "(2 4)"
    assert format_cycles(identity(5)) == "()"


def test_ell_closed_form_matches_oracle():
    # exhaustive agreement on the whole group for small degrees
    from itertools import permutations as sym

    for K, k in ((5, 1), (5, 2), (7, 2), (5, 4)):
        for image in sym(range(1, K + 1)):
            w = Permutation(tuple(image))
            if k % 2 == 0 and not w.is_even():
                with pytest.raises(ValueError):
                    ell_k(w, k)
                continue
            closed = ell_k(w, k)
            if closed is not None:
                assert closed == ell_k_oracle(w, k)
            else:
                # closed form undefined: the true length exceeds the
                # closed-form minimum (K - cyc)/k, or w is unreachable
                try:
                    d = ell_k_oracle(w, k)
                except ValueError:
                    continue
                assert d * k > K - w.cycle_count()


def test_long_cycle_length():
    for k, n in ((1, 4), (2, 3), (3, 2)):
        N = k * n + 1
        assert ell_k(long_cycle(N), k) == n


def test_all_k1_cycles_count():
    import math

    for K, k in ((5, 1), (5, 2), (6, 3)):
        expected = math.comb(K, k + 1) * math.factorial(k)
        assert len(all_k1_cycles(K, k)) == expected


def test_covers_below_drop_rank_by_one():
    for k, n in ((1, 3), (2, 3), (3, 2)):
        N = k * n + 1
        c = long_cycle(N)
        for u in covers_below(c, k):
            assert is_one_mod_k(u, k)
            assert ell_k(u, k) == n - 1
    with pytest.raises(ValueError):
        covers_below(from_cycles(5, ((1, 2),)), 2)


def test_cycles_are_computed_once_and_leave_equality_alone():
    w = parse_cycles("(1 3)(2 5 4)", 6)
    twin = Permutation(w.image)
    assert w.cycles() is w.cycles()
    assert w.cycles() == ((1, 3), (2, 5, 4), (6,))
    assert w.cycles(with_fixed_points=False) == ((1, 3), (2, 5, 4))
    assert w == twin and hash(w) == hash(twin)
    assert len({w, twin}) == 1
