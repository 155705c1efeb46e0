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
from ncindiv import cli
from ncindiv.cli import main
from ncindiv.geometry import build_cambrian, theta_inverse
from ncindiv.mdivisible import build_mdiv_poset, with_bottom, with_merged_minima
from ncindiv.nc import kreweras
from ncindiv.perm import KParams, format_cycles, from_cycles, identity, long_cycle
from ncindiv import poset as poset_module
from ncindiv.poset import (
    HasseDiagram,
    _bits,
    build_poset,
    closure,
    leq_nc,
    refines,
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
    cycles = ((2, ((0, 1), (1, 0))), (1, ((0, 0),)), (4, ((0, 1), (1, 2), (2, 1))))
    for size, relation in cycles:
        with pytest.raises(ValueError, match="^cover relation contains a cycle$"):
            closure(size, relation)
    # the masks are derived on first read, so that is where a cycle shows
    poset = HasseDiagram(elements=("a", "b"), covers=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        poset.down


def test_transitive_reduction_drops_implied_edges():
    edges = {(0, 1), (1, 2), (0, 2)}
    assert HasseDiagram(range(3), down=closure(3, edges)).covers == ((0, 1), (1, 2))


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


def node_labels(poset: HasseDiagram) -> list[str]:
    dot = poset.to_dot()
    return [line.split('"')[1] for line in dot.splitlines() if "[label=" in line]


def test_dot_labels_are_element_strings():
    poset = build_poset(KParams(2, 2))
    assert node_labels(poset) == [str(e) for e in poset.elements]
    cambrian = build_cambrian(KParams(1, 3))
    assert node_labels(cambrian) == [
        " | ".join(format_cycles(t) for t in theta_inverse(d))
        for d in cambrian.elements
    ]
    assert node_labels(with_bottom(poset)) == ["0"] + node_labels(poset)


def transpose(down) -> list[int]:
    """The weakly-above masks of the order with weakly-below masks down."""
    up = [0] * len(down)
    for j, mask in enumerate(down):
        for i in _bits(mask):
            up[i] |= 1 << j
    return up


def lattice_oracle(poset: HasseDiagram) -> bool:
    """Brute-force lattice test: every pair's common lower set has
    exactly one maximal element, and its common upper set exactly one
    minimal element."""
    size = len(poset)
    up = transpose(poset.down)
    for i in range(size):
        for j in range(i + 1, size):
            down = poset.down[i] & poset.down[j]
            if sum(1 for z in _bits(down) if up[z] & down == 1 << z) != 1:
                return False
            upc = up[i] & up[j]
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
    return HasseDiagram(range(size), down=closure(size, edges))


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


def assert_views_match_oracle(poset: HasseDiagram) -> None:
    """The maximal elements are those whose up-set, the transpose of
    down, is themselves alone, and covers are exactly the pairs i < j
    with nothing strictly between them."""
    size, down, up = len(poset), poset.down, transpose(poset.down)
    assert poset.maximal_elements() == [i for i in range(size) if up[i] == 1 << i]
    brute = {
        (i, j)
        for j in range(size)
        for i in range(size)
        if i != j
        and down[j] >> i & 1
        and not any(
            down[z] >> i & 1 for z in range(size) if down[j] >> z & 1 and z not in (i, j)
        )
    }
    assert len(set(poset.covers)) == len(poset.covers)
    assert set(poset.covers) == brute


@given(random_posets())
def test_views_match_oracle_on_random_posets(poset):
    assert_views_match_oracle(poset)
    # the same order given by its covers derives the same masks
    assert_views_match_oracle(HasseDiagram(poset.elements, poset.covers))


@pytest.mark.parametrize("k, n", ORACLE_POSET_PARAMS)
def test_views_match_oracle_on_nc_posets(k, n):
    assert_views_match_oracle(build_poset(KParams(k, n)))


@pytest.mark.parametrize("k, n", [(1, 3), (1, 4), (2, 2), (2, 3)])
def test_views_match_oracle_on_cambrian_posets(k, n):
    assert_views_match_oracle(build_cambrian(KParams(k, n)))


# the PARAMS cases of test_mdivisible
@pytest.mark.parametrize(
    "k, n, m", [(k, n, m) for k in (1, 2) for n in (1, 2, 3) for m in (1, 2, 3)]
)
def test_views_match_oracle_on_mdiv_posets(k, n, m):
    poset = build_mdiv_poset(KParams(k, n), m)
    for diagram in (poset, with_bottom(poset), with_merged_minima(poset)):
        assert_views_match_oracle(diagram)


def assert_multichains_match_brute_force(poset: HasseDiagram) -> None:
    """multichains(q) lists, in product order, the tuples of
    product(range(size), repeat=q) whose consecutive entries satisfy
    is_leq; the tuples are built one entry at a time, so a prefix that
    fails is dropped before it is extended."""
    for q in range(4):
        brute = [()]
        for _ in range(q):
            brute = [
                c + (x,)
                for c in brute
                for x in range(len(poset))
                if not c or poset.is_leq(c[-1], x)
            ]
        assert poset.multichains(q) == brute
        assert len(brute) == poset.multichain_count(q)


@given(random_posets())
def test_multichains_match_brute_force_on_random_posets(poset):
    assert_multichains_match_brute_force(poset)


@pytest.mark.parametrize("k, n", ORACLE_POSET_PARAMS)
def test_multichains_match_brute_force_on_nc_posets(k, n):
    assert_multichains_match_brute_force(build_poset(KParams(k, n)))


def test_a_diagram_needs_covers_or_down():
    with pytest.raises(ValueError):
        HasseDiagram(("a",))


def test_empty_diagram():
    empty = HasseDiagram((), ())
    assert empty.is_lattice() and empty.maximal_elements() == []
    assert empty.multichains(0) == [()] and empty.multichains(2) == []
    with pytest.raises(ValueError):
        empty.multichains(-1)


def test_views_are_derived_only_when_read():
    poset = build_poset(KParams(1, 6))
    len(poset), poset.covers, poset.rank_census_csv(), poset.to_dot()
    assert "down" not in vars(poset) and "up" not in vars(poset)
    mposet = build_mdiv_poset(KParams(1, 4), 2)
    mposet.multichain_count(2), mposet.minimal_elements()
    assert "covers" not in vars(mposet) and "up" not in vars(mposet)


@pytest.mark.parametrize("fmt", ["text", "dot", "csv", "json"])
def test_poset_command_computes_no_mask(monkeypatch, capsys, fmt):
    def refuse(size, relation):
        raise RuntimeError("closure computed")

    built = []

    def recorded(params):
        built.append(build_poset(params))
        return built[-1]

    monkeypatch.setattr(poset_module, "closure", refuse)
    monkeypatch.setattr(cli, "build_poset", recorded)
    code = main(["poset", "--k", "2", "--n", "3", "--format", fmt])
    assert capsys.readouterr().err == ""
    assert code == 0
    assert len(built) == 1
    assert "down" not in vars(built[0]) and "up" not in vars(built[0])


IDENTITY_PARAMS = [(1, 5), (1, 7), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)]


@pytest.mark.parametrize("k, n", IDENTITY_PARAMS)
def test_kreweras_is_an_anti_automorphism(k, n):
    poset = build_poset(KParams(k, n))
    index = {e.perm: i for i, e in enumerate(poset.elements)}
    image = [index[kreweras(e.perm)] for e in poset.elements]
    assert sorted(image) == list(range(len(poset)))
    assert sorted((image[i], image[j]) for i, j in poset.covers) == sorted(
        (j, i) for i, j in poset.covers
    )


@pytest.mark.parametrize("k, n", IDENTITY_PARAMS)
def test_lower_intervals_are_products_over_the_blocks(k, n):
    poset = build_poset(KParams(k, n))
    for e, mask in zip(poset.elements, poset.down):
        blocks = e.perm.cycles()
        assert all((len(b) - 1) % k == 0 for b in blocks)
        assert mask.bit_count() == math.prod(
            nc_cardinality((len(b) - 1) // k, k) for b in blocks
        )
