import os
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import ncindiv
from ncindiv.nc import enumerate_nc
from ncindiv.perm import (
    KParams,
    Permutation,
    all_k1_cycles,
    breadth_first,
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


def covers_by_products(w, k):
    """covers_below by its product definition: w * t^{-1} for the
    (k+1)-cycle t on each increasing (k+1)-subset of the positions of a
    cycle of w, kept when it has k more cycles, all 1 mod k."""
    target = w.cycle_count() + k
    out = []
    for cyc in w.cycles():
        for positions in combinations(range(len(cyc)), k + 1):
            t = from_cycles(w.degree, (tuple(cyc[p] for p in positions),))
            u = w * t.inverse()
            if u.cycle_count() == target and is_one_mod_k(u, k):
                out.append(u)
    return out


@pytest.mark.parametrize(
    "k, n", [(k, n) for k in range(1, 10) for n in range(1, 10) if k * n + 1 <= 10]
)
def test_covers_below_matches_the_product_definition(k, n):
    # same members, each once, in combinations order (build_poset's
    # cover order)
    for e in enumerate_nc(KParams(k, n)):
        assert covers_below(e.perm, k) == covers_by_products(e.perm, k)


def test_cycles_are_computed_once_and_leave_equality_alone():
    w = parse_cycles("(1 3)(2 5 4)", 6)
    twin = Permutation(w.image)
    assert w.cycles() is w.cycles()
    assert w.cycles() == ((1, 3), (2, 5, 4), (6,))
    assert w.cycles(with_fixed_points=False) == ((1, 3), (2, 5, 4))
    assert w == twin and hash(w) == hash(twin)
    assert repr(w) == repr(twin) == "Permutation(image=(3, 5, 1, 2, 4, 6))"
    assert len({w, twin}) == 1


def test_repr_of_a_rejected_image_returns():
    """A failing test prints the frame's self, which may be an instance
    whose __post_init__ rejected its image; repr must not walk cycles."""
    probe = (
        "from ncindiv.perm import Permutation\n"
        "w = object.__new__(Permutation)\n"
        "object.__setattr__(w, 'image', (3, 3, 4, 1))\n"
        "print(repr(w))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncindiv.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "Permutation(image=(3, 3, 4, 1))\n"
    assert str(parse_cycles("(1 3)(2 5 4)", 6)) == "(1 3)(2 5 4)"


def test_breadth_first_distances_order_and_cap():
    def steps(i):
        return ((i + 1) % 7, (i - 1) % 7)

    dist = breadth_first(0, steps)
    assert dist == {i: min(i, 7 - i) for i in range(7)}
    order = list(dist.values())
    assert order == sorted(order)
    assert breadth_first(0, steps, max_states=len(dist)) == dist
    with pytest.raises(RuntimeError, match="max_states = 6"):
        breadth_first(0, steps, max_states=len(dist) - 1)
