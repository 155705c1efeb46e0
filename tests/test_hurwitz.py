import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from ncindiv import hurwitz
from ncindiv.counting import chain_count, commutation_class_count, nc_rank_count
from ncindiv.hurwitz import (
    commutation_classes,
    commute,
    enumerate_factorizations,
    enumerate_parking_functions,
    factorization_product,
    hurwitz_move,
    hurwitz_orbit,
    is_parking_function,
    is_reduced_factorization,
    orbit_and_class_report,
    phi_inverse,
    phi_parking,
    sym_action,
)
from ncindiv.perm import KParams, from_cycles, long_cycle, parse_cycles
from ncindiv.poset import build_poset


def test_moves_preserve_product_and_invert():
    params = KParams(2, 3)
    for f in enumerate_factorizations(params):
        for i in range(params.n - 1):
            g = hurwitz_move(f, i)
            assert factorization_product(g) == long_cycle(params.N)
            assert hurwitz_move(g, i, inverse=True) == f


def test_sym_action_example():
    f = (parse_cycles("(1 2 3)", 5), parse_cycles("(3 4 5)", 5))
    g = sym_action(f, 0)
    assert g == (parse_cycles("(3 4 5)", 5), parse_cycles("(1 2 5)", 5))
    assert factorization_product(g) == factorization_product(f)


def test_sym_action_swaps_minima():
    params = KParams(2, 3)
    for f in enumerate_factorizations(params):
        for i in range(params.n - 1):
            p = list(phi_parking(f))
            p[i], p[i + 1] = p[i + 1], p[i]
            assert phi_parking(sym_action(f, i)) == tuple(p)


def test_enumeration_counts_and_validity():
    for k, n in ((2, 3), (1, 4), (3, 2)):
        params = KParams(k, n)
        facts = enumerate_factorizations(params)
        assert len(facts) == chain_count(n, k)
        assert len(set(facts)) == len(facts)
        assert all(is_reduced_factorization(f, params) for f in facts)


# every (k, n) with N <= 9 but (1, 7) and (1, 8), whose 8^6 and 9^7
# chains are too many to multiply out one by one here
CHAIN_PARAMS = [
    (k, n)
    for k in range(1, 9)
    for n in range(1, 9)
    if k * n + 1 <= 9 and (k, n) not in ((1, 7), (1, 8))
]


@pytest.mark.parametrize("k, n", CHAIN_PARAMS)
def test_factorizations_are_the_chain_products(k, n):
    # the i-th factor is x_{i-1}^{-1} x_i along each maximal chain, in
    # the order of maximal_chains()
    poset = build_poset(KParams(k, n))
    expected = []
    for chain in poset.maximal_chains():
        perms = [poset.elements[i].perm for i in chain]
        expected.append(tuple(a.inverse() * b for a, b in zip(perms, perms[1:])))
    assert enumerate_factorizations(KParams(k, n)) == expected


def test_orbit_is_everything_from_every_start():
    for k, n in ((2, 3), (1, 3), (3, 2)):
        params = KParams(k, n)
        facts = set(enumerate_factorizations(params))
        for start in facts:
            assert hurwitz_orbit(start) == facts


def test_orbit_cap():
    start = enumerate_factorizations(KParams(2, 3))[0]
    with pytest.raises(RuntimeError):
        hurwitz_orbit(start, max_states=5)
    # the cap counts states: an orbit of exactly max_states passes
    assert len(hurwitz_orbit(start, max_states=49)) == 49
    with pytest.raises(RuntimeError, match="max_states = 48"):
        hurwitz_orbit(start, max_states=48)


def test_commutation_classes_counted():
    for k, n in ((1, 3), (2, 2), (2, 3)):
        params = KParams(k, n)
        classes = commutation_classes(enumerate_factorizations(params))
        assert len(classes) == commutation_class_count(n, k)


def test_commute_predicate():
    assert commute(from_cycles(5, ((1, 2),)), from_cycles(5, ((3, 4),)))
    assert not commute(from_cycles(5, ((1, 2),)), from_cycles(5, ((2, 3),)))


def consecutive_blocks(params):
    """The factorization (1..k+1)(k+1..2k+1)...(N-k..N) the report starts from."""
    k = params.k
    return tuple(
        from_cycles(params.N, (tuple(range(i * k + 1, i * k + k + 2)),))
        for i in range(params.n)
    )


@lru_cache(maxsize=None)
def permutation_oracle(k, n):
    """Orbit size of the consecutive blocks and the class count, both
    from the Permutation-level oracles."""
    params = KParams(k, n)
    start = consecutive_blocks(params)
    assert is_reduced_factorization(start, params)
    return (
        len(hurwitz_orbit(start)),
        len(commutation_classes(enumerate_factorizations(params))),
    )


def test_packed_report_matches_slow_path():
    for k, n in ((2, 3), (1, 4)):
        params = KParams(k, n)
        report = orbit_and_class_report(params)
        assert report["orbit_size"] == chain_count(n, k)
        assert report["transitive"]
        assert report["class_count"] == commutation_class_count(n, k)
    # against the Permutation-level oracles, for every N <= 7; capped at
    # the chain count, which no orbit exceeds, so a search that revisits
    # states fails at once instead of running to the default cap
    for k in range(1, 7):
        for n in range(1, 6 // k + 1):
            report = orbit_and_class_report(KParams(k, n), chain_count(n, k))
            assert (report["orbit_size"], report["class_count"]) == (
                permutation_oracle(k, n)
            )


def test_tiny_chunks_match_the_oracles(monkeypatch):
    # one representative a chunk, so moves deduplicated inside one chunk
    # meet their repeats in the others
    monkeypatch.setattr(hurwitz, "CHUNK", 7)
    for k in range(1, 7):
        for n in range(2, 6 // k + 1):
            assert hurwitz._frontier_search(k * n + 1, k, n, chain_count(n, k)) == (
                permutation_oracle(k, n)
            )


def support_mask(t):
    return sum(1 << x - 1 for cyc in t.cycles() if len(cyc) > 1 for x in cyc)


@pytest.mark.parametrize("k, n", [(1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_full_twist_conjugates_by_the_inverse_long_cycle(k, n):
    # (sigma_1 ... sigma_{n-1})^n sends every factor t to c^{-1} t c, whose
    # support is supp t rotated by -1, so every orbit is closed under the
    # rotations the frontier search quotients by
    params = KParams(k, n)
    N = params.N
    c = long_cycle(N)
    atoms, rot = hurwitz._atom_tables(N, k)
    index = {int(a): i for i, a in enumerate(atoms)}
    for f in enumerate_factorizations(params):
        g = f
        for _ in range(n):
            for i in range(n - 1):
                g = hurwitz_move(g, i)
        assert g == tuple(c.inverse() * t * c for t in f)
        digits = [index[support_mask(t)] for t in f]
        assert [index[support_mask(t)] for t in g] == [rot[a, N - 1] for a in digits]
        # no rotation fixes a factorization, so its class holds N states
        assert len({tuple(rot[a, r] for a in digits) for r in range(N)}) == N
    # the rotation table maps atoms onto atoms
    full = (1 << N) - 1
    for r in range(N):
        assert sorted(rot[:, r]) == list(range(len(atoms)))
        for a, mask in enumerate(atoms.tolist()):
            assert atoms[rot[a, r]] == (mask << r | mask >> N - r) & full


@pytest.mark.parametrize(
    "k, n", [(1, 4), (1, 5), (2, 3), (2, 4), (3, 3), (3, 4), (4, 2)]
)
def test_factors_are_exactly_the_atoms(k, n):
    params = KParams(k, n)
    atoms, _ = hurwitz._atom_tables(params.N, k)
    supports = {support_mask(t) for f in enumerate_factorizations(params) for t in f}
    assert sorted(supports) == atoms.tolist()  # increasing, no repeats
    assert len(atoms) == nc_rank_count(n, k, 1)


@pytest.mark.parametrize("k, n", [(1, 7), (2, 5)])
def test_layers_spanning_many_chunks_match_one_default_chunk(monkeypatch, k, n):
    N = k * n + 1
    expected = hurwitz._frontier_search(N, k, n, 10**6)
    monkeypatch.setattr(hurwitz, "CHUNK", 1000)
    assert hurwitz._frontier_search(N, k, n, 10**6) == expected
    assert expected == (chain_count(n, k), commutation_class_count(n, k))


def test_frontier_memory_follows_the_layers():
    # numpy reports its buffers to tracemalloc; expanding whole layers of
    # states at once peaks at about 10 MB here, chunks of states at about
    # 3 MB, chunks of rotation classes at about 1.3 MB
    tracemalloc.start()
    try:
        hurwitz._frontier_search(8, 1, 7, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("k, n", [(4, 5), (6, 4), (26, 2), (18, 3)])
def test_report_runs_where_atom_digits_fit_the_packing(k, n):
    # (4,5) and (6,4) overflow int64 with all (k+1)-subsets as digits;
    # (26,2) and (18,3) have N = 53 and N = 55, masks past 2**52
    report = orbit_and_class_report(KParams(k, n))
    assert report["orbit_size"] == chain_count(n, k)
    assert report["transitive"]
    assert report["class_count"] == commutation_class_count(n, k)


def refuse_searching(*args):
    raise AssertionError("the search ran")


def test_report_refuses_past_the_int64_packing(monkeypatch):
    # 6370**5 packed states overflow int64
    monkeypatch.setattr(hurwitz, "_frontier_search", refuse_searching)
    with pytest.raises(ValueError, match="packing"):
        orbit_and_class_report(KParams(11, 5))


def test_report_default_cap_refuses_before_searching(monkeypatch):
    # 15**6 = 11,390,625 states, past DEFAULT_MAX_STATES; verify passes
    # max_states=None, so this is its cap as well as that of `hurwitz`
    monkeypatch.setattr(hurwitz, "_frontier_search", refuse_searching)
    assert chain_count(7, 2) > hurwitz.DEFAULT_MAX_STATES
    with pytest.raises(ValueError, match="11390625 states"):
        orbit_and_class_report(KParams(2, 7))


def test_report_refuses_masks_past_62_points(monkeypatch):
    monkeypatch.setattr(hurwitz, "_frontier_search", refuse_searching)
    with pytest.raises(ValueError, match="N <= 62"):
        orbit_and_class_report(KParams(31, 2))


@given(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]), st.randoms())
def test_parking_membership_is_sorted_condition(kn, rng):
    k, n = kn
    params = KParams(k, n)
    p = tuple(rng.randint(1, params.N) for _ in range(n))
    expected = all(
        v <= k * i + 1 for i, v in enumerate(sorted(p))
    )
    assert is_parking_function(p, params) == expected


def test_parking_bijection():
    for k, n in ((2, 3), (1, 3), (3, 2)):
        params = KParams(k, n)
        facts = enumerate_factorizations(params)
        parked = [phi_parking(f) for f in facts]
        functions = enumerate_parking_functions(params)
        assert sorted(parked) == sorted(functions)
        assert len(set(parked)) == len(parked)
        for p in functions:
            assert phi_parking(phi_inverse(p, params)) == p
        with pytest.raises(ValueError):
            phi_inverse((params.N,) * n, params)
