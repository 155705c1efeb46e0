import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ncindiv.counting import (
    chain_count,
    mobius_invariant,
    nc_cardinality,
    nc_rank_count,
    zeta_value,
)
from ncindiv.geometry import build_cambrian
from ncindiv.mdivisible import with_bottom
from ncindiv.perm import KParams, from_cycles, identity, long_cycle
from ncindiv.poset import (
    HasseDiagram,
    _bits,
    build_poset,
    leq_nc,
    refines,
    transitive_reduction,
)


def diamond() -> HasseDiagram:
    return HasseDiagram(
        elements=("0", "a", "b", "1"),
        covers=((0, 1), (0, 2), (1, 3), (2, 3)),
        rank=(0, 1, 1, 2),
    )


def test_basic_queries_on_diamond():
    p = diamond()
    assert p.bottom() == 0 and p.top() == 3
    assert p.is_leq(0, 3) and not p.is_leq(1, 2)
    assert p.maximal_chain_count() == 2
    assert sorted(p.maximal_chains()) == [(0, 1, 3), (0, 2, 3)]
    assert p.multichain_count(2) == 9  # pairs x <= y, reflexive included
    assert p.mobius_invariant() == 1
    assert p.is_lattice()
    assert p.rank_census() == {0: 1, 1: 2, 2: 1}


def test_multichain_jump_census_on_diamond():
    p = diamond()
    census = p.multichain_jump_census(1)
    assert census == {(0, 2): 1, (1, 1): 2, (2, 0): 1}
    assert p.multichain_jump_census(0) == {(2,): 1}
    assert sum(p.multichain_jump_census(2).values()) == p.multichain_count(2)


def test_closure_rejects_cycles():
    with pytest.raises(ValueError):
        HasseDiagram(elements=("a", "b"), covers=((0, 1), (1, 0)))


def test_transitive_reduction_drops_implied_edges():
    edges = {(0, 1), (1, 2), (0, 2)}
    assert transitive_reduction(3, edges) == ((0, 1), (1, 2))


def test_multichain_count_is_exact_past_int64():
    # q-multichains of a chain are q-element multisets of its elements
    size = 200
    chain = HasseDiagram(
        elements=tuple(range(size)),
        covers=tuple((i, i + 1) for i in range(size - 1)),
    )
    assert chain.multichain_count(20) == math.comb(size + 19, 20)


def test_refinement_agrees_with_cycle_order():
    # on the k-indivisible family the two order descriptions coincide
    for params in (KParams(2, 3), KParams(1, 4)):
        poset = build_poset(params)
        for i, ei in enumerate(poset.elements):
            for j, ej in enumerate(poset.elements):
                expected = refines(ei.perm, ej.perm) and leq_nc(
                    ei.perm, ej.perm, params.k
                )
                assert poset.is_leq(i, j) == expected


def test_leq_nc_edges():
    c = long_cycle(7)
    assert leq_nc(identity(7), c, 2)
    assert leq_nc(from_cycles(7, ((1, 2, 3),)), c, 2)
    assert not leq_nc(from_cycles(7, ((1, 3, 2),)), c, 2)
    with pytest.raises(ValueError):
        leq_nc(identity(7), from_cycles(7, ((1, 2),)), 2)


def test_built_poset_statistics():
    for k, n in ((2, 3), (1, 4), (3, 2)):
        params = KParams(k, n)
        poset = build_poset(params)
        assert len(poset) == nc_cardinality(n, k)
        assert poset.rank_census() == {
            r: nc_rank_count(n, k, r) for r in range(n + 1)
        }
        assert poset.maximal_chain_count() == chain_count(n, k)
        assert poset.mobius_invariant() == mobius_invariant(n, k)
        for q in (1, 2, 3):
            assert poset.multichain_count(q) == zeta_value(n, k, q)


def test_nc_poset_not_a_lattice_for_k2():
    assert build_poset(KParams(1, 3)).is_lattice()
    assert not build_poset(KParams(2, 3)).is_lattice()


def test_dot_and_csv_exports():
    poset = build_poset(KParams(2, 1))
    dot = poset.to_dot("tiny")
    assert dot.startswith("digraph tiny {") and "n0 -> n1" in dot
    assert poset.rank_census_csv() == "rank,count\r\n0,1\r\n1,1\r\n"


def test_labels_default_to_element_strings_and_keep_given_ones():
    poset = build_poset(KParams(2, 2))
    assert poset.labels == tuple(str(e) for e in poset.elements)
    given_labels = tuple(f"x{i}" for i in range(len(poset)))
    relabelled = HasseDiagram(poset.elements, poset.covers, labels=given_labels)
    assert relabelled.labels is given_labels
    assert with_bottom(poset).labels == ("0",) + poset.labels


def lattice_oracle(poset: HasseDiagram) -> bool:
    """Brute-force lattice test: every pair's common lower set has
    exactly one maximal element, and its common upper set exactly one
    minimal element."""
    size = len(poset)
    for i in range(size):
        for j in range(i + 1, size):
            down = poset.down[i] & poset.down[j]
            if sum(1 for z in _bits(down) if poset.up[z] & down == 1 << z) != 1:
                return False
            upc = poset.up[i] & poset.up[j]
            if sum(1 for z in _bits(upc) if poset.down[z] & upc == 1 << z) != 1:
                return False
    return True


@st.composite
def random_posets(draw):
    size = draw(st.integers(1, 9))
    pairs = list(combinations(range(size), 2))
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    # a bottom or a top, each drawn on its own, makes lattices and
    # posets with all meets but not all joins (or the reverse) common
    if draw(st.booleans()):
        edges |= {(0, i) for i in range(1, size)}
    if draw(st.booleans()):
        edges |= {(i, size - 1) for i in range(size - 1)}
    return HasseDiagram(tuple(range(size)), transitive_reduction(size, edges))


@given(random_posets())
def test_is_lattice_matches_oracle_on_random_posets(poset):
    assert poset.is_lattice() == lattice_oracle(poset)


# the oracle is cubic in the size, so the k = 1 posets at N = 8 and 9
# (1430 and 4862 elements) are left out
ORACLE_POSET_PARAMS = [
    (k, n)
    for k in range(1, 9)
    for n in range(1, 9)
    if k * n + 1 <= 9 and (k, n) not in ((1, 7), (1, 8))
]


@pytest.mark.parametrize("k, n", ORACLE_POSET_PARAMS)
def test_is_lattice_matches_oracle_on_nc_posets(k, n):
    poset = build_poset(KParams(k, n))
    assert poset.is_lattice() == lattice_oracle(poset)


@pytest.mark.parametrize("k, n", [(1, 3), (1, 4), (2, 2), (2, 3)])
def test_is_lattice_matches_oracle_on_cambrian_posets(k, n):
    poset = build_cambrian(KParams(k, n))
    assert poset.is_lattice() == lattice_oracle(poset)
