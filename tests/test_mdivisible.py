import math

import pytest

from ncindiv.counting import (
    mdiv_cardinality,
    mdiv_mobius_bar,
    mdiv_mobius_hat,
    mdiv_zeta_value,
)
from ncindiv.mdivisible import (
    MChain,
    build_mdiv_poset,
    mchain_leq,
    mdiv_mobius_bar_brute,
    mdiv_mobius_hat_brute,
    mdiv_sums,
    with_bottom,
    with_merged_minima,
)
from ncindiv.perm import KParams, ell_k, from_cycles, identity, long_cycle
from ncindiv.poset import HasseDiagram, _bits, _quotient, build_poset, closure

PARAMS = [(k, n, m) for k in (1, 2) for n in (1, 2, 3) for m in (1, 2, 3)]
# cases small enough to compare every pair against the delta predicate
SMALL_PARAMS = [(k, n, m) for k, n, m in PARAMS if mdiv_cardinality(n, k, m) <= 150]


def test_delta_sequence():
    params = KParams(2, 3)
    x = from_cycles(7, ((1, 2, 3),))
    chain = MChain((x, x), params)
    d = chain.deltas()
    assert d[0] == x and d[1] == identity(7)
    assert x * d[2] == long_cycle(7)
    poset = build_mdiv_poset(params, 2)
    assert poset.rank[poset.elements.index(chain)] == 1


def test_order_has_constant_top():
    params = KParams(2, 2)
    poset = build_mdiv_poset(params, 2)
    top = poset.elements[poset.top()]
    assert all(x == long_cycle(5) for x in top.chain)
    # every element is below the top, per the raw predicate too
    assert all(mchain_leq(c, top) for c in poset.elements)


@pytest.mark.parametrize("k,n,m", SMALL_PARAMS)
def test_order_matches_delta_predicate(k, n, m):
    poset = build_mdiv_poset(KParams(k, n), m)
    chains = poset.elements
    for i, c1 in enumerate(chains):
        for j, c2 in enumerate(chains):
            assert poset.is_leq(i, j) == mchain_leq(c1, c2)


@pytest.mark.parametrize("k,n,m", PARAMS)
def test_cardinality_and_zeta(k, n, m):
    poset = build_mdiv_poset(KParams(k, n), m)
    assert len(poset) == mdiv_cardinality(n, k, m)
    for q in (1, 2):
        assert poset.multichain_count(q) == mdiv_zeta_value(n, k, m, q)


@pytest.mark.parametrize("k,n,m", PARAMS)
def test_gradedness(k, n, m):
    poset = build_mdiv_poset(KParams(k, n), m)
    for i, j in poset.covers:
        assert poset.rank[j] == poset.rank[i] + 1


@pytest.mark.parametrize("k,n,m", PARAMS)
def test_mobius_completions(k, n, m):
    params = KParams(k, n)
    assert mdiv_mobius_hat_brute(params, m) == mdiv_mobius_hat(n, k, m)
    assert mdiv_mobius_bar_brute(params, m) == mdiv_mobius_bar(n, k, m)


@pytest.mark.parametrize("k,n,m", PARAMS)
def test_chain_count(k, n, m):
    poset = with_bottom(build_mdiv_poset(KParams(k, n), m))
    N = k * n + 1
    assert poset.maximal_chain_count() == m**n * N ** (n - 1)


def test_completions_are_bounded():
    poset = build_mdiv_poset(KParams(2, 2), 2)
    assert len(poset.minimal_elements()) > 1
    hat = with_bottom(poset)
    assert hat.bottom() == 0 and len(hat) == len(poset) + 1
    bar = with_merged_minima(poset)
    assert bar.bottom() == 0
    assert len(bar) == len(poset) - len(poset.minimal_elements()) + 1


@pytest.mark.parametrize("k,n,m", PARAMS)
def test_completion_masks_are_the_closure_of_their_covers(k, n, m):
    poset = build_mdiv_poset(KParams(k, n), m)
    hat, bar = with_bottom(poset), with_merged_minima(poset)
    assert HasseDiagram(hat.elements, hat.covers).down == hat.down
    assert closure(len(bar), bar.covers) == bar.down


def test_rank_is_first_component_length():
    params = KParams(2, 2)
    poset = build_mdiv_poset(params, 2)
    for c, r in zip(poset.elements, poset.rank):
        assert ell_k(c.chain[0], params.k) == r


def test_rejects_bad_m():
    with pytest.raises(ValueError):
        build_mdiv_poset(KParams(1, 2), 0)
    with pytest.raises(ValueError):
        mdiv_sums(build_poset(KParams(1, 2)), 0)


@pytest.mark.parametrize("k,n,m", [(k, n, m) for k in (1, 2, 3) for n in (1, 2, 3) for m in (1, 2, 3)])
def test_sums_match_the_mchain_order(k, n, m):
    """One call gives every m' <= m; at m = 3 this is the call verify makes."""
    params = KParams(k, n)
    sums = mdiv_sums(build_poset(params), m)
    assert len(sums) == m
    for m_, entry in enumerate(sums, 1):
        poset = build_mdiv_poset(params, m_)
        assert entry == (
            len(poset),
            poset.multichain_count(2),
            mdiv_mobius_hat_brute(params, m_),
            mdiv_mobius_bar_brute(params, m_),
        )


@pytest.mark.parametrize("k,n", [(1, 4), (1, 5), (2, 3), (3, 2)])
def test_quotient_is_the_inverse_product(k, n):
    base = build_poset(KParams(k, n))
    quotient = _quotient(base)
    perms = [e.perm for e in base.elements]
    for y, mask in enumerate(base.down):
        for x in _bits(mask):
            assert perms[quotient(x, y)] == perms[x].inverse() * perms[y]


@pytest.mark.parametrize("k,n,m", SMALL_PARAMS)
def test_up_set_is_the_product_of_the_delta_intervals(k, n, m):
    params = KParams(k, n)
    base, poset = build_poset(params), build_mdiv_poset(params, m)
    index = {e.perm: f for f, e in enumerate(base.elements)}
    for i, chain in enumerate(poset.elements):
        up = sum(poset.is_leq(i, j) for j in range(len(poset)))
        assert up == math.prod(
            base.down[index[d]].bit_count() for d in chain.deltas()[1:]
        )


@pytest.mark.parametrize("k,n,m", PARAMS)
def test_minimal_chains_start_at_the_identity(k, n, m):
    poset = build_mdiv_poset(KParams(k, n), m)
    minimal = set(poset.minimal_elements())
    e = identity(k * n + 1)
    for i, chain in enumerate(poset.elements):
        assert (i in minimal) == (chain.chain[0] == e)
