import tracemalloc
from itertools import chain, combinations, product

import pytest
from hypothesis import given, strategies as st

from ncindiv.bijections import (
    OrderIdeal,
    _relabel_tour,
    arc_poset_elements,
    ary_to_dyck,
    boundary_path,
    check_row_counts,
    compose_path,
    contract,
    counts_to_arcs,
    counts_to_path,
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
    nonnesting_rows,
    path_decompose,
    path_to_ideal,
    split_tree,
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
            degrees = [len(c) for c in tree.white.cycles() + tree.black.cycles()]
            assert all(d % params.k == 1 % params.k for d in degrees)


def test_split_and_contract_shapes():
    params = KParams(2, 3)
    for e in enumerate_nc(params):
        white, black = split_tree(gj_tree(e))
        cw, cb = contract(white, params.k), contract(black, params.k)
        assert is_ary(cw, params.k) and is_ary(cb, params.k)
        assert expand(cw, params.k) == white
        assert expand(cb, params.k) == black


def test_relabel_tour_refuses_a_wrong_edge_count():
    # two leaves hold only the root edge, where N = 3 needs two more
    with pytest.raises(ValueError, match="N - 1 non-root edges"):
        _relabel_tour((), (), KParams(1, 2))


@given(st.integers(1, 3), st.integers(0, 4), st.randoms())
def test_dyck_round_trip_random_trees(k, size, rng):
    def random_ary(depth):
        if depth == 0 or rng.random() < 0.5:
            return ()
        return tuple(random_ary(depth - 1) for _ in range(k + 1))

    tree = random_ary(size)
    word = ary_to_dyck(tree) + "R"  # re-append the omitted leaf step
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


# ---------------------------------------------------------------------------
# The nonnesting side on row counts, against the arc-set oracle
# ---------------------------------------------------------------------------

# every (k, n) that the CLI accepts (N <= 13) with at most 5,000 ideals
ORACLE_PARAMS = [
    (k, n)
    for k in range(1, 13)
    for n in range(1, 13)
    if k * n <= 12 and nc_cardinality(n, k) <= 5000
]


@pytest.mark.parametrize("k, n", ORACLE_PARAMS)
def test_count_rows_match_the_ideal_oracle(k, n):
    params = KParams(k, n)
    rows = list(nonnesting_rows(params))
    expected = sorted(
        (ideal_to_path(ideal), sorted(ideal.arcs))
        for ideal in enumerate_ideals(params)
    )
    assert [(p, counts_to_arcs(c, k)) for p, c in rows] == expected
    for path, counts in rows:
        assert path_to_ideal(path, params).row_counts() == counts


def test_count_rows_refuse_at_the_call():
    # refused before the first row is asked for, so no output is opened
    with pytest.raises(ValueError, match="N = 14 > 13"):
        nonnesting_rows(KParams(1, 13))


def test_row_counts_fail_exactly_where_order_ideal_does():
    # every count vector in a box one past the row lengths, negative
    # counts included, gets OrderIdeal's verdict and message
    for k, n in [(1, 3), (2, 3), (3, 2), (1, 4)]:
        params = KParams(k, n)
        for counts in product(range(-1, k * (n - 1) + 3), repeat=n):
            try:
                OrderIdeal(params, frozenset(counts_to_arcs(counts, k)))
                expected = None
            except ValueError as exc:
                expected = str(exc)
            if min(counts) < 0:
                expected = "ideal contains a non-element"
            if expected is None:
                check_row_counts(counts, params)
            else:
                with pytest.raises(ValueError, match=expected):
                    check_row_counts(counts, params)


def test_row_counts_rejections():
    params = KParams(2, 3)  # rows hold at most 5, 3 and 1 arcs
    check_row_counts((5, 3, 1), params)
    check_row_counts((2, 0, 0), params)
    with pytest.raises(ValueError, match="not down-closed"):
        check_row_counts((3, 0, 0), params)  # c_2 = 0 < c_1 - k = 1
    with pytest.raises(ValueError, match="not down-closed"):
        check_row_counts((2, 3, 0), params)
    for counts in [(6, 4, 1), (5, 3, 2), (0, -1, 0), (0, 0), (0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="non-element"):
            check_row_counts(counts, params)


def test_counts_to_path_rejects_decreasing_offsets():
    with pytest.raises(AssertionError, match="nondecreasing"):
        counts_to_path((0, 3), KParams(1, 2))


def test_staircase_runs_agree_with_the_step_by_step_walk():
    def walk(word, params):
        if len(word) != params.n + 1 + params.N or not word.startswith("U"):
            return False
        ups = downs = 0
        for ch in word:
            ups += ch == "U"
            downs += ch == "R"
            if ch == "R" and downs > 1 + params.k * (ups - 1):
                return False
        return ups == params.n + 1 and downs == params.N

    for k, n in [(1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]:
        params = KParams(k, n)
        length = n + 1 + params.N
        for size in (length - 1, length, length + 1):
            for letters in product("UR", repeat=size):
                word = "".join(letters)
                assert is_staircase_path(word, params) == walk(word, params)
    assert not is_staircase_path("UURRx", KParams(1, 1))


def test_count_rows_peak_memory():
    # tracemalloc peak at (1,9), 16,796 ideals: the rows take 3.9 MB,
    # while enumerate_ideals with the sorted (path, arcs) rows it
    # replaces takes 36.2 MB
    params = KParams(1, 9)
    tracemalloc.start()
    try:
        rows = list(nonnesting_rows(params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 16796
    assert peak < 12 * 2**20
