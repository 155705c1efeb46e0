import pytest

from ncindiv import geometry
from ncindiv.counting import commutation_class_count
from ncindiv.geometry import (
    Dissection,
    all_dissections,
    build_cambrian,
    diagonal_for_pair,
    rotate_diagonal,
    theta,
    theta_inverse,
)
from ncindiv.hurwitz import (
    commutation_classes,
    enumerate_factorizations,
    hurwitz_move,
)
from ncindiv.perm import KParams, parse_cycles


def test_dissection_validity():
    params = KParams(1, 3)
    good = Dissection(params, frozenset({(2, 4), (3, 4)}))
    assert good.is_valid()
    assert len(good.faces()) == 3
    bad = Dissection(params, frozenset({(2, 4)}))
    assert not bad.is_valid()  # wrong diagonal count


def test_record_format():
    d = Dissection(KParams(1, 3), frozenset({(2, 4), (3, 4)}))
    assert d.to_record() == {"two_n": 8, "diagonals": [[3, 8], [5, 8]]}


def test_theta_constant_on_commutation_classes():
    for k, n in ((1, 3), (2, 2)):
        params = KParams(k, n)
        for cls in commutation_classes(enumerate_factorizations(params)):
            images = {theta(f, params) for f in cls}
            assert len(images) == 1


def test_theta_is_a_bijection_onto_dissections():
    for k, n in ((1, 3), (2, 2), (2, 3), (1, 4), (3, 2)):
        params = KParams(k, n)
        dissections = all_dissections(params)
        assert len(dissections) == commutation_class_count(n, k)
        assert all(d.is_valid() for d in dissections)


def test_theta_round_trip():
    # theta_inverse also checks each word against the long cycle
    for k, n in ((1, 3), (2, 2), (2, 3), (3, 2), (1, 4), (1, 5), (2, 4), (3, 3), (4, 3)):
        params = KParams(k, n)
        for d in all_dissections(params):
            word = theta_inverse(d)
            assert theta(word, params) == d


def test_rotation_realizes_hurwitz_moves():
    # direct move <-> counterclockwise slide, inverse <-> clockwise
    for k, n in ((1, 3), (2, 2), (2, 3)):
        params = KParams(k, n)
        for f in enumerate_factorizations(params):
            d = theta(f, params)
            for i in range(n - 1):
                try:
                    diag = diagonal_for_pair(d, f, i)
                except ValueError:
                    continue
                assert theta(hurwitz_move(f, i), params) == rotate_diagonal(
                    d, diag, clockwise=False
                )
                assert theta(
                    hurwitz_move(f, i, inverse=True), params
                ) == rotate_diagonal(d, diag, clockwise=True)


def test_rotation_round_trip():
    params = KParams(1, 3)
    for d in all_dissections(params):
        for diag in d.diagonals:
            d2 = rotate_diagonal(d, diag, clockwise=True)
            moved = next(iter(d2.diagonals - d.diagonals))
            assert rotate_diagonal(d2, moved, clockwise=False) == d


def test_cambrian_one_three():
    poset = build_cambrian(KParams(1, 3))
    assert len(poset) == 12
    assert len(poset.covers) == 16
    assert poset.is_lattice()
    bottom_word = theta_inverse(poset.elements[poset.bottom()])
    top_word = theta_inverse(poset.elements[poset.top()])
    assert bottom_word == tuple(
        parse_cycles(s, 4) for s in ("(1 2)", "(2 3)", "(3 4)")
    )
    assert top_word == tuple(
        parse_cycles(s, 4) for s in ("(2 3)", "(3 4)", "(1 4)")
    )


def test_cambrian_two_two():
    poset = build_cambrian(KParams(2, 2))
    assert len(poset) == 5
    assert len(poset.covers) == 4
    assert poset.is_lattice()
    bottom_word = theta_inverse(poset.elements[poset.bottom()])
    top_word = theta_inverse(poset.elements[poset.top()])
    assert bottom_word == tuple(parse_cycles(s, 5) for s in ("(1 2 3)", "(3 4 5)"))
    assert top_word == tuple(parse_cycles(s, 5) for s in ("(3 4 5)", "(1 2 5)"))


def test_cambrian_bounded_with_named_extremes():
    for k, n in ((3, 2), (1, 4), (2, 3)):
        params = KParams(k, n)
        poset = build_cambrian(params)
        bottom_word = theta_inverse(poset.elements[poset.bottom()])
        top_word = theta_inverse(poset.elements[poset.top()])
        expected_bottom = tuple(
            tuple(range(i * k + 1, (i + 1) * k + 2)) for i in range(n)
        )
        expected_top = tuple(
            tuple(range(i * k + k + 1, i * k + 2 * k + 2)) for i in range(n - 1)
        ) + (tuple(range(1, k + 1)) + (params.N,),)
        assert tuple(t.cycles(with_fixed_points=False)[0] for t in bottom_word) == expected_bottom
        assert tuple(t.cycles(with_fixed_points=False)[0] for t in top_word) == expected_top
        assert poset.is_lattice()


def test_cambrian_refuses_before_listing(monkeypatch):
    def listed(params):
        raise AssertionError("all_dissections called past the cap")

    monkeypatch.setattr(geometry, "all_dissections", listed)
    with pytest.raises(ValueError, match="262144"):
        build_cambrian(KParams(1, 7))


def test_cambrian_build_never_calls_theta_inverse(monkeypatch):
    def word(d):
        raise AssertionError("theta_inverse called during the build")

    monkeypatch.setattr(geometry, "theta_inverse", word)
    poset = build_cambrian.__wrapped__(KParams(1, 4))
    assert len(poset) == commutation_class_count(4, 1)


def test_rotate_rejects_foreign_diagonal():
    params = KParams(1, 3)
    d = all_dissections(params)[0]
    with pytest.raises(ValueError):
        rotate_diagonal(d, (9, 9), clockwise=True)
