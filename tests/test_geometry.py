import random
import re

import pytest

from ncindiv import geometry, hurwitz
from ncindiv.counting import chain_count, commutation_class_count
from ncindiv.geometry import (
    CAMBRIAN_MAX_DISSECTIONS,
    Dissection,
    _blocked_position,
    _cell_union,
    _split_faces,
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
    support,
)
from ncindiv.nc import ENUMERATION_MAX_N
from ncindiv.perm import KParams, parse_cycles

# every (k, n) that build_cambrian admits
ADMITTED = [
    (k, n)
    for k in range(1, ENUMERATION_MAX_N)
    for n in range(1, ENUMERATION_MAX_N)
    if k * n + 1 <= ENUMERATION_MAX_N
    and commutation_class_count(n, k) <= CAMBRIAN_MAX_DISSECTIONS
]


def test_dissection_validity():
    params = KParams(1, 3)
    good = Dissection(params, frozenset({(2, 4), (3, 4)}))
    assert good.is_valid()
    assert len(good.faces()) == 3
    bad = Dissection(params, frozenset({(2, 4)}))
    assert not bad.is_valid()  # wrong diagonal count


def test_faces_are_computed_once_and_leave_equality_alone():
    d = Dissection(KParams(1, 3), frozenset({(2, 4), (3, 4)}))
    twin = Dissection(d.params, d.diagonals)
    assert d.faces() is d.faces()
    assert d.faces() == ((1, 2, 3, 8), (3, 4, 5, 8), (5, 6, 7, 8))
    assert d == twin and hash(d) == hash(twin)
    assert repr(d) == repr(twin)
    assert repr(d).startswith("Dissection(params=KParams(k=1, n=3), diagonals=frozenset(")
    assert len({d, twin}) == 1


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


def test_admitted_sizes():
    assert len(ADMITTED) == 28
    assert (2, 5) in ADMITTED and (1, 7) not in ADMITTED


@pytest.mark.parametrize(
    "k, n", [(k, n) for k, n in ADMITTED if chain_count(n, k) <= 3_000]
)
def test_dissections_are_theta_of_the_commutation_classes(k, n):
    params = KParams(k, n)
    classes = commutation_classes(enumerate_factorizations(params))
    assert {d.diagonals for d in all_dissections(params)} == {
        theta(next(iter(cls)), params).diagonals for cls in classes
    }
    # the label of a dissection is the least word of its class
    for cls in classes:
        least = min(cls, key=lambda w: tuple(support(t) for t in w))
        assert theta_inverse(theta(next(iter(cls)), params)) == least


@pytest.mark.parametrize("k, n", ADMITTED)
def test_dissections_are_distinct_valid_and_sorted(k, n):
    dissections = all_dissections(KParams(k, n))
    assert len(dissections) == commutation_class_count(n, k)
    assert len({d.diagonals for d in dissections}) == len(dissections)
    assert all(d.is_valid() for d in dissections)
    keys = [sorted(d.diagonals) for d in dissections]
    assert keys == sorted(keys)


def unblocked_rotations(params: KParams) -> int:
    """The clockwise rotations of all dissections that _blocked_position
    leaves unblocked, counted without building the order."""
    count = 0
    for d in all_dissections(params):
        for diag in d.diagonals:
            position = frozenset((2 * diag[0] - 1, 2 * diag[1]))
            blocked = _blocked_position(_cell_union(d, diag), params.k, 2 * params.N)
            count += position != blocked
    return count


@pytest.mark.parametrize("k, n", ADMITTED)
def test_unblocked_rotation_count(k, n):
    # each diagonal rotates through a cycle of 2k + 1 positions, one of
    # them blocked
    params = KParams(k, n)
    rotations = unblocked_rotations(params)
    size = commutation_class_count(n, k)
    assert rotations * (2 * k + 1) == 2 * k * size * (n - 1)
    covers = len(build_cambrian(params).covers)
    if k == 1:
        assert covers == rotations
    else:
        assert covers <= rotations


def test_theta_round_trip():
    # theta_inverse also checks each word against the long cycle; the
    # label depends only on the diagonals, not on how they were built
    for k, n in ((1, 3), (2, 2), (2, 3), (3, 2), (1, 4), (1, 5), (2, 4), (3, 3), (4, 3), (3, 4)):
        params = KParams(k, n)
        for d in all_dissections(params):
            word = theta_inverse(d)
            assert theta(word, params) == d
            assert str(theta(word, params)) == str(d)


@pytest.mark.parametrize("k, n", [(2, 4), (3, 3)])
def test_faces_ignore_the_chord_order(k, n):
    rng = random.Random(0)
    params = KParams(k, n)
    for d in all_dissections(params):
        chords = sorted(d.positions())
        faces = _split_faces(2 * params.N, chords)
        assert faces == list(d.faces())
        assert [cell[0] for cell in faces] == sorted(cell[0] for cell in faces)
        assert all(list(cell) == sorted(cell) for cell in faces)
        for _ in range(3):
            rng.shuffle(chords)
            assert _split_faces(2 * params.N, chords) == faces
            assert _split_faces(2 * params.N, [(q, p) for p, q in chords]) == faces


@pytest.mark.parametrize(
    "diagonals, message",
    [
        ({(1, 2), (2, 3)}, "crossing chords"),  # positions (1,4) and (3,6)
        ({(1, 1), (3, 4)}, "chord (1,2) joins adjacent vertices"),
        ({(1, 4), (3, 4)}, "chord (1,8) joins adjacent vertices"),
        ({(0, 2), (3, 4)}, "chord (-1,4) leaves positions 1..8"),
        ({(2, 5), (3, 4)}, "chord (3,10) leaves positions 1..8"),
    ],
)
def test_faces_refuse_bad_chords(diagonals, message):
    d = Dissection(KParams(1, 3), frozenset(diagonals))
    with pytest.raises(ValueError, match=re.escape(message)):
        d.faces()
    assert not d.is_valid()


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
    with pytest.raises(ValueError, match="7752"):
        build_cambrian(KParams(1, 7))
    with pytest.raises(ValueError, match="N = 1000000001 > 13"):
        build_cambrian(KParams(10**9, 1))  # one dissection of a huge polygon


def test_cambrian_build_never_calls_theta_inverse(monkeypatch):
    def word(d):
        raise AssertionError("theta_inverse called during the build")

    monkeypatch.setattr(geometry, "theta_inverse", word)
    poset = build_cambrian(KParams(1, 4))
    assert len(poset) == commutation_class_count(4, 1)


def test_cambrian_build_never_floods_factorizations(monkeypatch):
    def oracle(*args):
        raise AssertionError("a factorization oracle called during the build")

    for module in (geometry, hurwitz):
        for name in ("enumerate_factorizations", "commutation_classes", "build_poset"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, oracle)
    cambrian = build_cambrian(KParams(1, 4))
    assert len(cambrian) == commutation_class_count(4, 1)


def test_rotate_rejects_foreign_diagonal():
    params = KParams(1, 3)
    d = all_dissections(params)[0]
    with pytest.raises(ValueError):
        rotate_diagonal(d, (9, 9), clockwise=True)
