import pytest
from hypothesis import given, strategies as st

from ncindiv.counting import chain_count, commutation_class_count
from ncindiv.hurwitz import (
    commutation_classes,
    commute,
    enumerate_factorizations,
    enumerate_parking_functions,
    factorization_product,
    hurwitz_move,
    hurwitz_orbit,
    is_parking_function,
    is_reduced_factorization,
    orbit_and_class_report,
    phi_inverse,
    phi_parking,
    sym_action,
)
from ncindiv.perm import KParams, from_cycles, long_cycle, parse_cycles


def test_moves_preserve_product_and_invert():
    params = KParams(2, 3)
    for f in enumerate_factorizations(params):
        for i in range(params.n - 1):
            g = hurwitz_move(f, i)
            assert factorization_product(g) == long_cycle(params.N)
            assert hurwitz_move(g, i, inverse=True) == f


def test_sym_action_example():
    f = (parse_cycles("(1 2 3)", 5), parse_cycles("(3 4 5)", 5))
    g = sym_action(f, 0)
    assert g == (parse_cycles("(3 4 5)", 5), parse_cycles("(1 2 5)", 5))
    assert factorization_product(g) == factorization_product(f)


def test_sym_action_swaps_minima():
    params = KParams(2, 3)
    for f in enumerate_factorizations(params):
        for i in range(params.n - 1):
            p = list(phi_parking(f))
            p[i], p[i + 1] = p[i + 1], p[i]
            assert phi_parking(sym_action(f, i)) == tuple(p)


def test_enumeration_counts_and_validity():
    for k, n in ((2, 3), (1, 4), (3, 2)):
        params = KParams(k, n)
        facts = enumerate_factorizations(params)
        assert len(facts) == chain_count(n, k)
        assert len(set(facts)) == len(facts)
        assert all(is_reduced_factorization(f, params) for f in facts)


def test_orbit_is_everything_from_every_start():
    for k, n in ((2, 3), (1, 3), (3, 2)):
        params = KParams(k, n)
        facts = set(enumerate_factorizations(params))
        for start in facts:
            assert hurwitz_orbit(start) == facts


def test_orbit_cap():
    with pytest.raises(RuntimeError):
        hurwitz_orbit(
            tuple(enumerate_factorizations(KParams(2, 3)))[0], max_states=5
        )


def test_commutation_classes_counted():
    for k, n in ((1, 3), (2, 2), (2, 3)):
        params = KParams(k, n)
        classes = commutation_classes(enumerate_factorizations(params))
        assert len(classes) == commutation_class_count(n, k)


def test_commute_predicate():
    assert commute(from_cycles(5, ((1, 2),)), from_cycles(5, ((3, 4),)))
    assert not commute(from_cycles(5, ((1, 2),)), from_cycles(5, ((2, 3),)))


def consecutive_blocks(params):
    """The factorization (1..k+1)(k+1..2k+1)...(N-k..N) the report starts from."""
    k = params.k
    return tuple(
        from_cycles(params.N, (tuple(range(i * k + 1, i * k + k + 2)),))
        for i in range(params.n)
    )


def test_packed_report_matches_slow_path():
    for k, n in ((2, 3), (1, 4)):
        params = KParams(k, n)
        report = orbit_and_class_report(params)
        assert report["orbit_size"] == chain_count(n, k)
        assert report["transitive"]
        assert report["class_count"] == commutation_class_count(n, k)
    # against the Permutation-level oracles, for every N <= 7
    for k in range(1, 7):
        for n in range(1, 6 // k + 1):
            params = KParams(k, n)
            start = consecutive_blocks(params)
            assert is_reduced_factorization(start, params)
            report = orbit_and_class_report(params)
            assert report["orbit_size"] == len(hurwitz_orbit(start))
            assert report["class_count"] == len(
                commutation_classes(enumerate_factorizations(params))
            )


def test_report_refuses_past_the_int64_packing():
    # 3876**6 packed states overflow int64
    with pytest.raises(ValueError, match="packing"):
        orbit_and_class_report(KParams(3, 6))


@given(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]), st.randoms())
def test_parking_membership_is_sorted_condition(kn, rng):
    k, n = kn
    params = KParams(k, n)
    p = tuple(rng.randint(1, params.N) for _ in range(n))
    expected = all(
        v <= k * i + 1 for i, v in enumerate(sorted(p))
    )
    assert is_parking_function(p, params) == expected


def test_parking_bijection():
    for k, n in ((2, 3), (1, 3), (3, 2)):
        params = KParams(k, n)
        facts = enumerate_factorizations(params)
        parked = [phi_parking(f) for f in facts]
        functions = enumerate_parking_functions(params)
        assert sorted(parked) == sorted(functions)
        assert len(set(parked)) == len(parked)
        for p in functions:
            assert phi_parking(phi_inverse(p, params)) == p
        with pytest.raises(ValueError):
            phi_inverse((params.N,) * n, params)
