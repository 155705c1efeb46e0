from collections import Counter

import pytest

from ncindiv.counting import nc_cardinality
from ncindiv.nc import (
    NoncrossingElement,
    crossing_witness,
    enumerate_nc,
    generated_rank_census,
    is_k_indivisible_i,
    is_k_indivisible_ii,
    is_k_indivisible_iii,
    is_noncrossing,
    kreweras,
    nc_filter_oracle,
)
from ncindiv.perm import KParams, from_cycles, long_cycle, parse_cycles


def test_crossing_witness():
    crossing = from_cycles(4, ((1, 3), (2, 4)))
    assert crossing_witness(crossing) == (1, 2, 3, 4)
    nested = from_cycles(4, ((1, 4), (2, 3)))
    assert crossing_witness(nested) is None


def test_is_noncrossing_needs_increasing_cycles():
    # same support sets, but the 3-cycle is traversed decreasingly
    assert is_noncrossing(from_cycles(4, ((1, 2, 3),)))
    assert not is_noncrossing(from_cycles(4, ((1, 3, 2),)))


def test_kreweras_hand_value():
    w = parse_cycles("(1 2 7)(3 4 5 6)(9 11)", 12)
    assert kreweras(w) == parse_cycles("(2 6)(7 8 11 12)(9 10)", 12)


def test_kreweras_order_two_up_to_rotation():
    # Krew(Krew(w)) = c^-1 w c, conjugation by the long cycle
    for params in (KParams(2, 3), KParams(1, 4)):
        c = long_cycle(params.N)
        for e in enumerate_nc(params):
            w = e.perm
            assert kreweras(kreweras(w)) == c.inverse() * w * c


def test_element_validation():
    params = KParams(2, 3)
    with pytest.raises(ValueError):
        NoncrossingElement(from_cycles(7, ((1, 2),)), params)  # block size 2
    e = NoncrossingElement(from_cycles(7, ((1, 2, 3),)), params)
    assert e.rank == 1
    assert e.to_record() == {"n": 3, "k": 2, "cycles": [[1, 2, 3]]}


def test_generation_matches_symmetric_group_filter():
    for params in (KParams(2, 3), KParams(1, 3), KParams(3, 2), KParams(2, 2)):
        generated = {e.perm for e in enumerate_nc(params)}
        filtered = set(nc_filter_oracle(params))
        assert generated == filtered


def test_characterizations_agree_on_generated_sets():
    for params in (KParams(2, 3), KParams(1, 4), KParams(3, 2)):
        for e in enumerate_nc(params):
            assert is_k_indivisible_i(e.perm, params)
            assert is_k_indivisible_ii(e.perm, params)
            assert is_k_indivisible_iii(e.perm, params)


def test_counts_and_census():
    for k, n in ((1, 5), (2, 3), (3, 2), (2, 4)):
        params = KParams(k, n)
        census = generated_rank_census(params)
        assert sum(census.values()) == nc_cardinality(n, k)
        assert census == Counter(e.rank for e in enumerate_nc(params))


def test_enumeration_is_sorted_and_bounded():
    params = KParams(2, 3)
    images = [e.perm.image for e in enumerate_nc(params)]
    assert images == sorted(images)
    with pytest.raises(ValueError):
        enumerate_nc(KParams(2, 9))
    with pytest.raises(ValueError, match="N = 14 > 13"):
        enumerate_nc(KParams(1, 13))
