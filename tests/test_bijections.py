from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from ncindiv.bijections import (
    OrderIdeal,
    arc_poset_elements,
    ary_to_dyck,
    boundary_path,
    compose_path,
    contract,
    dyck_to_ary,
    enumerate_ideals,
    expand,
    gj_tree,
    ideal_to_path,
    is_ary,
    is_k_dyck,
    is_staircase_path,
    nc_to_nn,
    nc_to_paths,
    nn_to_nc,
    path_decompose,
    path_to_ideal,
    split_tree,
    tree_from_text,
    tree_to_text,
)
from ncindiv.counting import nc_cardinality
from ncindiv.nc import enumerate_nc
from ncindiv.perm import KParams

ROUND_TRIP_PARAMS = [
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 1), (2, 2), (2, 3),
    (3, 2),
]


def test_tree_validation_catches_bad_degrees():
    for params in (KParams(2, 3), KParams(3, 2)):
        for e in enumerate_nc(params):
            tree = gj_tree(e)  # raises if any check fails
            degrees = [len(c) for c in tree.white + tree.black]
            assert all(d % params.k == 1 % params.k for d in degrees)


def test_split_and_contract_shapes():
    params = KParams(2, 3)
    for e in enumerate_nc(params):
        white, black = split_tree(gj_tree(e))
        cw, cb = contract(white, params.k), contract(black, params.k)
        assert is_ary(cw, params.k) and is_ary(cb, params.k)
        assert expand(cw, params.k) == white
        assert expand(cb, params.k) == black


def test_tree_text_round_trip():
    for tree in ((), ((), ()), (((), ()), ()), ((((),),),)):
        assert tree_from_text(tree_to_text(tree)) == tree
    with pytest.raises(ValueError):
        tree_from_text("(()")


@given(st.integers(1, 3), st.integers(0, 4), st.randoms())
def test_dyck_round_trip_random_trees(k, size, rng):
    def random_ary(depth):
        if depth == 0 or rng.random() < 0.5:
            return ()
        return tuple(random_ary(depth - 1) for _ in range(k + 1))

    tree = random_ary(size)
    word = ary_to_dyck(tree, k) + "R"  # re-append the omitted leaf step
    assert word.count("R") == word.count("U") * k + 1
    trimmed = word[:-1]
    assert is_k_dyck(trimmed, k)
    assert dyck_to_ary(trimmed, k) == tree


def test_is_k_dyck_rejections():
    assert is_k_dyck("", 2)
    assert is_k_dyck("URR", 2)
    assert not is_k_dyck("RU", 1)
    assert not is_k_dyck("UR", 2)  # R count not a multiple of k per U
    with pytest.raises(ValueError):
        dyck_to_ary("RU", 1)


def test_staircase_paths_and_decomposition():
    for k, n in ROUND_TRIP_PARAMS:
        params = KParams(k, n)
        assert is_staircase_path(boundary_path(params), params)
        for e in enumerate_nc(params):
            p1, p2 = nc_to_paths(e)
            word = compose_path(p1, p2, params)
            assert path_decompose(word, params) == (p1, p2)


def test_arc_poset_shape():
    params = KParams(3, 4)
    arcs = arc_poset_elements(params)
    assert len(arcs) == len(set(arcs))
    assert all(a < b <= params.N - params.k + 1 for a, b in arcs)
    assert len(enumerate_ideals(params)) == 340


def test_ideal_path_round_trip():
    for k, n in ROUND_TRIP_PARAMS:
        params = KParams(k, n)
        ideals = enumerate_ideals(params)
        assert len(ideals) == nc_cardinality(n, k)
        for ideal in ideals:
            word = ideal_to_path(ideal)
            assert is_staircase_path(word, params)
            assert path_to_ideal(word, params) == ideal


def test_full_bijection_round_trip():
    for k, n in ROUND_TRIP_PARAMS:
        params = KParams(k, n)
        elements = enumerate_nc(params)
        images = [nc_to_nn(e) for e in elements]
        assert len({i.arcs for i in images}) == len(elements)
        for e, ideal in zip(elements, images):
            assert nn_to_nc(ideal) == e


@pytest.mark.parametrize("k, n", [(1, 3), (1, 4), (2, 2), (2, 3), (3, 2)])
def test_order_ideal_accepts_exactly_the_down_sets(k, n):
    params = KParams(k, n)
    universe = arc_poset_elements(params)
    subsets = chain.from_iterable(
        combinations(universe, r) for r in range(len(universe) + 1)
    )
    accepted = 0
    for subset in subsets:
        arcs = frozenset(subset)
        down_closed = all(
            (a2, b2) in arcs
            for a, b in arcs
            for a2, b2 in universe
            if a2 >= a and b2 <= b
        )
        if down_closed:
            OrderIdeal(params, arcs)
            accepted += 1
        else:
            with pytest.raises(ValueError, match="not down-closed"):
                OrderIdeal(params, arcs)
    assert accepted == nc_cardinality(n, k)


def test_order_ideal_rejects_a_non_element():
    params = KParams(2, 2)
    with pytest.raises(ValueError, match="non-element"):
        OrderIdeal(params, frozenset({(2, 3)}))
    with pytest.raises(ValueError, match="non-element"):
        OrderIdeal(params, frozenset({(1, 2), (1, 5)}))
