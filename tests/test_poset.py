import math

import pytest

from ncindiv.counting import (
    chain_count,
    mobius_invariant,
    nc_cardinality,
    nc_rank_count,
    zeta_value,
)
from ncindiv.perm import KParams, from_cycles, identity, long_cycle
from ncindiv.poset import (
    HasseDiagram,
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
