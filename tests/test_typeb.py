import pytest

from ncindiv.perm import KParams
from ncindiv.typeb import (
    all_reflections,
    grouped_factors,
    hurwitz_orbit_signed,
    reflection_length_table,
    simple_generator,
    sp_compose,
    sp_identity,
    sp_inverse,
    typeb_report,
)
from ncindiv.verify import typeb_checks


def test_signed_permutation_algebra():
    s0 = simple_generator(0, 3)
    s1 = simple_generator(1, 3)
    assert sp_compose(s0, s0) == sp_identity(3)
    assert sp_compose(s1, sp_inverse(s1)) == sp_identity(3)
    # (s0 s1)^4 = identity: the B_2-type braid relation inside B_3
    prod = sp_identity(3)
    for _ in range(4):
        prod = sp_compose(prod, sp_compose(s0, s1))
    assert prod == sp_identity(3)


def test_grouped_factors_multiply_to_coxeter_element():
    for n, k in ((2, 1), (1, 2), (2, 2), (4, 1)):
        m = n * k
        coxeter = sp_identity(m)
        for i in range(m):
            coxeter = sp_compose(coxeter, simple_generator(i, m))
        factors = grouped_factors(n, k)
        assert len(factors) == n
        acc = sp_identity(m)
        for t in factors:
            acc = sp_compose(acc, t)
        assert acc == coxeter


def test_reflection_count():
    for m in (2, 3, 4):
        refs = all_reflections(m)
        assert len(refs) == m * m
        assert len(set(refs)) == m * m
        table = reflection_length_table(m)
        assert all(table[r] == 1 for r in refs)


def test_orbit_moves_preserve_product():
    factors = grouped_factors(2, 2)
    target = sp_identity(4)
    for t in factors:
        target = sp_compose(target, t)
    for f in hurwitz_orbit_signed(factors):
        acc = sp_identity(4)
        for t in f:
            acc = sp_compose(acc, t)
        assert acc == target


def test_orbit_cap():
    start = grouped_factors(2, 2)
    with pytest.raises(RuntimeError):
        hurwitz_orbit_signed(start, max_states=2)
    # the cap counts states: an orbit of exactly max_states passes
    assert len(hurwitz_orbit_signed(start, max_states=8)) == 8
    with pytest.raises(RuntimeError, match="max_states = 7"):
        hurwitz_orbit_signed(start, max_states=7)


def test_reports_are_structurally_complete():
    for n, k in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (4, 1), (1, 4)):
        claims = [claim for claim, _conjectured, _observed in typeb_report(n, k)]
        assert claims == [
            "hurwitz orbit size",
            "prefix census",
            "restricted zeta at q=2",
            "restricted zeta at q=3",
        ]
        checks = typeb_checks(KParams(k, n))
        assert [c.claim for c in checks] == [
            f"type B {claim} [k={k},n={n}]" for claim in claims
        ]
        # a lab mismatch is OPEN, so it can never fail verify
        assert all(c.conjectural for c in checks)
        assert all(c.status in ("PASS", "OPEN") for c in checks)


@pytest.mark.parametrize(
    "n, k, observed",
    [
        (5, 1, [3125, 252, 252, 3003]),
        (1, 5, [1, 2, 2, 3]),
    ],
)
def test_observations_at_kn_5(n, k, observed):
    report = typeb_report(n, k)
    assert [o for _claim, _conjectured, o in report] == observed
    # every conjectured formula holds here too
    assert [c for _claim, c, _observed in report] == observed


def test_size_bound_enforced():
    with pytest.raises(ValueError):
        typeb_report(7, 1)
