"""Acceptance suite: one test per headline claim, exact equality only.

Each test prints a single pass/fail line.
"""

import random
from contextlib import contextmanager
from itertools import permutations as sym_group, product

from ncindiv.bijections import (
    enumerate_ideals,
    gj_tree,
    ideal_to_path,
    is_staircase_path,
    nc_to_nn,
    nc_to_paths,
    nn_to_nc,
    path_decompose,
    path_to_ideal,
    split_tree,
    _relabel_tour,
)
from ncindiv.counting import (
    bareiss_determinant,
    chain_count,
    commutation_class_count,
    fuss_catalan,
    mdiv_mobius_bar,
    mdiv_mobius_hat,
    mdiv_zeta_value,
    mobius_invariant,
    nc_cardinality,
    nc_matrix,
    nc_rank_count,
    rank_jump_count,
    zeta_value,
)
from ncindiv.geometry import (
    all_dissections,
    build_cambrian,
    diagonal_for_pair,
    rotate_diagonal,
    theta,
    theta_inverse,
)
from ncindiv.hurwitz import (
    enumerate_factorizations,
    enumerate_parking_functions,
    hurwitz_move,
    hurwitz_orbit,
    orbit_and_class_report,
    phi_parking,
    sym_action,
)
from ncindiv.mdivisible import (
    build_mdiv_poset,
    mdiv_mobius_bar_brute,
    mdiv_mobius_hat_brute,
    with_bottom,
)
from ncindiv.nc import (
    generated_rank_census,
    is_k_indivisible_i,
    is_k_indivisible_ii,
    is_k_indivisible_iii,
    nc_filter_oracle,
)
from ncindiv.perm import KParams, Permutation, parse_cycles
from ncindiv.poset import build_poset
from ncindiv.typeb import (
    grouped_factors,
    hurwitz_orbit_signed,
    sp_compose,
    sp_identity,
)
from ncindiv.verify import typeb_checks


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


def params_with_N_at_most(max_N: int, max_k: int | None = None):
    out = []
    for k in range(1, max_N):
        if max_k is not None and k > max_k:
            break
        n = 1
        while k * n + 1 <= max_N:
            out.append(KParams(k, n))
            n += 1
    return out


def test_criterion_01_cardinality():
    with criterion(1, "cardinality"):
        params = KParams(2, 3)
        assert sum(generated_rank_census(params).values()) == 30
        assert len(nc_filter_oracle(params)) == 30
        for p in params_with_N_at_most(13):
            assert sum(generated_rank_census(p).values()) == nc_cardinality(p.n, p.k)
        assert nc_cardinality(4, 3) == 340


def test_criterion_02_characterization_equivalence():
    with criterion(2, "characterization equivalence"):
        for p in params_with_N_at_most(7, max_k=3):
            for image in sym_group(range(1, p.N + 1)):
                w = Permutation(tuple(image))
                a = is_k_indivisible_i(w, p)
                b = is_k_indivisible_ii(w, p)
                c = is_k_indivisible_iii(w, p)
                assert a == b == c, (w, p)
        rng = random.Random(20260823)
        for p in (KParams(1, 7), KParams(1, 8), KParams(2, 4)):
            base = list(range(1, p.N + 1))
            for _ in range(10_000):
                rng.shuffle(base)
                w = Permutation(tuple(base))
                a = is_k_indivisible_i(w, p)
                b = is_k_indivisible_ii(w, p)
                c = is_k_indivisible_iii(w, p)
                assert a == b == c, (w, p)


def test_criterion_03_rank_census():
    with criterion(3, "rank census"):
        assert generated_rank_census(KParams(2, 3)) == {0: 1, 1: 14, 2: 14, 3: 1}
        for p in params_with_N_at_most(11):
            census = generated_rank_census(p)
            for r in range(p.n + 1):
                assert census.get(r, 0) == nc_rank_count(p.n, p.k, r)


def test_criterion_04_maximal_chains():
    with criterion(4, "maximal chains"):
        assert build_poset(KParams(2, 3)).maximal_chain_count() == 49
        for p in params_with_N_at_most(9):
            brute = build_poset(p).maximal_chain_count()
            assert brute == chain_count(p.n, p.k)
            assert brute == orbit_and_class_report(p)["orbit_size"]


def test_criterion_05_zeta_and_mobius():
    with criterion(5, "zeta and Mobius"):
        for p in params_with_N_at_most(9):
            poset = build_poset(p)
            for q in range(4):
                assert poset.multichain_count(q) == zeta_value(p.n, p.k, q)
            mu = poset.mobius_invariant()
            assert mu == mobius_invariant(p.n, p.k)
            assert mu == zeta_value(p.n, p.k, -2)  # Z at argument -1
        assert mobius_invariant(3, 2) == -22


def test_criterion_06_rank_jump_counts():
    with criterion(6, "rank-jump counts"):
        for p in params_with_N_at_most(7):
            poset = build_poset(p)
            for q in (1, 2, 3):
                census = poset.multichain_jump_census(q)
                for profile in product(range(p.n + 1), repeat=q + 1):
                    if sum(profile) != p.n:
                        continue
                    assert census.get(profile, 0) == rank_jump_count(
                        p.n, p.k, profile
                    ), (p, profile)


def test_criterion_07_m_divisible():
    with criterion(7, "m-divisible extension"):
        for k in (1, 2):
            for n in (1, 2, 3):
                p = KParams(k, n)
                for m in (1, 2, 3):
                    poset = build_mdiv_poset(p, m)
                    for q in (1, 2):
                        assert poset.multichain_count(q) == mdiv_zeta_value(
                            n, k, m, q
                        )
                    chains = with_bottom(poset).maximal_chain_count()
                    assert chains == m**n * p.N ** (n - 1)
                    assert mdiv_mobius_hat_brute(p, m) == mdiv_mobius_hat(n, k, m)
                    assert mdiv_mobius_bar_brute(p, m) == mdiv_mobius_bar(n, k, m)


def test_criterion_08_hurwitz_transitivity():
    with criterion(8, "Hurwitz transitivity"):
        # explicit orbit from every start at small sizes
        for p in (KParams(1, 3), KParams(2, 2), KParams(2, 3), KParams(3, 2)):
            facts = set(enumerate_factorizations(p))
            for start in facts:
                assert hurwitz_orbit(start) == facts
        # one orbit covering all N^(n-1) factorizations certifies a
        # single orbit from every start (orbits partition the set)
        for p in params_with_N_at_most(9):
            report = orbit_and_class_report(p)
            assert report["transitive"]
            assert report["orbit_size"] == chain_count(p.n, p.k)


def test_criterion_09_parking_bijection():
    with criterion(9, "parking-function bijection"):
        for p in (KParams(2, 3), KParams(1, 4)):
            facts = enumerate_factorizations(p)
            assert len(facts) == chain_count(p.n, p.k)
            parked = [phi_parking(f) for f in facts]
            assert len(set(parked)) == len(parked)
            assert sorted(parked) == sorted(enumerate_parking_functions(p))
            for f in facts:
                for i in range(p.n - 1):
                    swapped = list(phi_parking(f))
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    assert phi_parking(sym_action(f, i)) == tuple(swapped)
        for k in (1, 2, 3):
            for n in (1, 2, 3, 4):
                p = KParams(k, n)
                assert len(enumerate_parking_functions(p)) == chain_count(n, k)


def test_criterion_10_commutation_classes_and_dissections():
    with criterion(10, "commutation classes and dissections"):
        assert len(all_dissections(KParams(1, 3))) == 12
        assert len(all_dissections(KParams(2, 2))) == 5
        for p in params_with_N_at_most(9):
            assert orbit_and_class_report(p)[
                "class_count"
            ] == commutation_class_count(p.n, p.k)
        for p in (KParams(1, 3), KParams(2, 2), KParams(2, 3), KParams(3, 2)):
            for d in all_dissections(p):
                assert theta(theta_inverse(d), p) == d
        # rotation/Hurwitz commuting square on every applicable move
        for p in (KParams(1, 3), KParams(2, 2), KParams(2, 3)):
            for f in enumerate_factorizations(p):
                d = theta(f, p)
                for i in range(p.n - 1):
                    try:
                        diag = diagonal_for_pair(d, f, i)
                    except ValueError:
                        continue
                    assert theta(hurwitz_move(f, i), p) == rotate_diagonal(
                        d, diag, clockwise=False
                    )
                    assert theta(
                        hurwitz_move(f, i, inverse=True), p
                    ) == rotate_diagonal(d, diag, clockwise=True)
        cambrian = build_cambrian(KParams(1, 3))
        assert len(cambrian) == 12
        assert len(cambrian.covers) == 16
        assert cambrian.is_lattice()
        bottom = theta_inverse(cambrian.elements[cambrian.bottom()])
        top = theta_inverse(cambrian.elements[cambrian.top()])
        assert bottom == tuple(
            parse_cycles(s, 4) for s in ("(1 2)", "(2 3)", "(3 4)")
        )
        assert top == tuple(
            parse_cycles(s, 4) for s in ("(2 3)", "(3 4)", "(1 4)")
        )


def test_criterion_11_nonnesting():
    with criterion(11, "nonnesting side"):
        assert len(enumerate_ideals(KParams(3, 4))) == 340
        for n in range(1, 9):
            for k in range(1, 5):
                assert bareiss_determinant(nc_matrix(n, k)) == nc_cardinality(n, k)
        assert bareiss_determinant(nc_matrix(3, 2)) == 30
        small = [
            KParams(1, 1), KParams(1, 2), KParams(1, 3), KParams(1, 4),
            KParams(1, 5), KParams(2, 2), KParams(2, 3), KParams(3, 2),
            KParams(3, 4),
        ]
        for p in small:
            ideals = enumerate_ideals(p)
            for ideal in ideals:
                word = ideal_to_path(ideal)
                assert is_staircase_path(word, p)
                assert path_to_ideal(word, p) == ideal
                p1, p2 = path_decompose(word, p)
                assert word == "U" + p1 + "R" + p2
        for p in small:
            elements = build_poset(p).elements
            images = {nc_to_nn(e).arcs for e in elements}
            assert len(images) == len(elements) == nc_cardinality(p.n, p.k)
            for e in elements:
                assert nn_to_nc(nc_to_nn(e)) == e


def test_criterion_12_tree_pipeline():
    with criterion(12, "tree pipeline"):
        for p in (KParams(2, 3), KParams(1, 4), KParams(3, 2)):
            census: dict[int, int] = {}
            for e in build_poset(p).elements:
                tree = gj_tree(e)  # validates degrees and the label tour
                white, black = split_tree(tree)
                assert _relabel_tour(white, black, p) == e
                p1, _p2 = nc_to_paths(e)
                census[p1.count("U")] = census.get(p1.count("U"), 0) + 1
            for i in range(p.n + 1):
                assert census.get(i, 0) == fuss_catalan(i, p.k + 1) * fuss_catalan(
                    p.n - i, p.k + 1
                )


def test_criterion_13_type_b_lab():
    with criterion(13, "type B lab"):
        for n, k in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)):
            m = n * k
            target = sp_identity(m)
            for t in grouped_factors(n, k):
                target = sp_compose(target, t)
            for f in hurwitz_orbit_signed(grouped_factors(n, k)):
                acc = sp_identity(m)
                for t in f:
                    acc = sp_compose(acc, t)
                assert acc == target  # product preserved across the orbit
            checks = typeb_checks(KParams(k, n))
            assert len(checks) == 4
            for check in checks:
                assert check.status in ("PASS", "OPEN")
