import random
import re

import pytest

from icsheaf import demos
from icsheaf.simplicial import SimplicialComplex
from icsheaf.stratify import (StratificationError, compute_open_filtration,
                              compute_open_strata, naive_filtration,
                              validate_stratification, verify_filtration_identities)

import oracles


def boundary(vertices):
    from itertools import combinations
    vs = list(vertices)
    return [list(c) for c in combinations(vs, len(vs) - 1)]


def test_trivial_manifold_stratification():
    K = SimplicialComplex(range(6), boundary(range(6)))
    strat = validate_stratification(K, {"2": [list(s) for s in boundary(range(6))],
                                        "1": [], "0": []})
    assert strat.n == 2
    assert len(strat.strata) == 1
    assert strat.strata[0].is_open and strat.strata[0].complex_dim == 2


def test_wedge_strata(wedge):
    K, strat = wedge
    flags = sorted((s.complex_dim, s.is_open, len(s.simplex_set)) for s in strat.strata)
    # point stratum, open S2 part minus the point, open S4 part minus the point
    assert flags == [(0, False, 1), (1, True, 13), (2, True, 61)]


def test_lone_edge_violates_dimensional_homogeneity(wedge):
    K, strat = wedge
    levels = strat.levels_doc()["levels"]
    bad = dict(levels)
    bad["1"] = levels["1"] + [[1, 2]]
    with pytest.raises(StratificationError, match="dimensional homogeneity"):
        validate_stratification(K, bad)


def test_open_point_stratum_rejected():
    K = SimplicialComplex(range(4), [[0, 1, 2], [3]])
    with pytest.raises(StratificationError, match="0-dimensional stratum"):
        validate_stratification(K, {"1": [[0, 1, 2], [3]], "0": [[3]]})


def test_non_nested_levels_rejected(wedge):
    K, strat = wedge
    levels = strat.levels_doc()["levels"]
    bad = dict(levels)
    bad["0"] = [[1]]  # vertex 1 is not in the level-1 sphere part
    with pytest.raises(StratificationError, match="nested"):
        validate_stratification(K, bad)
    with pytest.raises(StratificationError, match="missing"):
        validate_stratification(K, {"2": levels["2"]})


def test_level_keys_name_each_level_once(wedge):
    # a key is exactly str(k), as a JSON document writes it, so no level has
    # a second name: a level named twice was read from whichever key came
    # last, and a bad level could hide behind it
    K, strat = wedge
    levels = strat.levels_doc()["levels"]
    assert len(validate_stratification(K, levels).strata) == 3
    for key in ("01", " 1", "+1", "1 ", "1.0", "one", "3", "-1", True, 1.0, 1):
        bad = {"0": levels["0"], key: levels["1"], "2": levels["2"]}
        with pytest.raises(StratificationError,
                           match=re.escape("level key %r is not a level 0..2" % (key,))):
            validate_stratification(K, bad)
    shadowed = {"0": levels["0"], "1": [["not", "a", "vertex"]], "01": levels["1"],
                "2": levels["2"]}
    with pytest.raises(StratificationError, match="level key '01' is not"):
        validate_stratification(K, shadowed)


def test_odd_dimensional_complex_rejected():
    K = SimplicialComplex(range(4), [[0, 1, 2], [1, 2, 3], [0, 1, 3], [0, 2, 3],
                                     [0, 1, 2, 3]])
    assert K.dim == 3
    with pytest.raises(StratificationError, match="odd real dimension"):
        validate_stratification(K, {"1": [[0, 1, 2, 3]], "0": []})


def test_open_strata_wedge(wedge):
    K, strat = wedge
    U_m, X_m = compute_open_strata(strat)
    # up-closedness enumeration oracle
    for m, u in U_m.items():
        assert K.is_up_closed(u)
    s4 = {i for i, s in enumerate(K.simplices) if set(s) <= set(range(6))}
    s2 = {i for i, s in enumerate(K.simplices) if set(s) <= {0, 6, 7, 8}}
    v0 = K.id_of([0])
    assert set(U_m[2]) == s4 - {v0}
    assert set(U_m[1]) == s2 - {v0}
    assert set(X_m[2]) == s4
    assert set(X_m[1]) == s2


def test_pure_case_filtration_formula():
    # on a pure space the open filtration is complement of the level sets
    K = SimplicialComplex(range(6), boundary(range(6)))
    strat = validate_stratification(
        K, {"2": [list(s) for s in boundary(range(6))], "1": [[0]], "0": [[0]]})
    filt = compute_open_filtration(strat)
    for k in range(1, strat.n + 2):
        assert filt.U[k] == K.full_set() - strat.level(strat.n - k)
    # pure case: naive filtration coincides with the canonical one
    nv = naive_filtration(strat)
    assert all(nv.U[k] == filt.U[k] for k in filt.U)


def test_wedge_filtration_sets(wedge):
    K, strat = wedge
    filt = compute_open_filtration(strat)
    v0 = K.id_of([0])
    everything = set(K.full_set())
    assert set(filt.U[1]) == everything - {v0}
    assert filt.U[2] == filt.U[1]
    assert set(filt.U[3]) == everything
    assert len(filt.W[2]) == 61  # closure of the 4-sphere part minus the glue vertex
    assert verify_filtration_identities(filt) == []


def test_fake_surface_naive_strictly_larger(spaces):
    K, strat = spaces["fake-surface"]
    filt = compute_open_filtration(strat)
    nv = naive_filtration(strat)
    assert nv.U[1] == filt.U[1]
    assert filt.U[2] < nv.U[2]
    assert not nv.canonical


def test_fake_surface_filtration_formula_instances(spaces):
    # the second open set glues the codimension-one locally closed piece of
    # the surface closure onto the untouched curve part; the naive variant
    # takes the curve's own second step instead and overshoots
    K, strat = spaces["fake-surface"]
    filt = compute_open_filtration(strat)
    nv = naive_filtration(strat)
    u2_2 = filt.U_m_j(2, 2)
    u1_1 = filt.U_m_j(1, 1)
    u1_2 = filt.U_m_j(1, 2)
    assert filt.U[2] == u2_2 | u1_1
    assert nv.U[2] == u2_2 | u1_2
    assert filt.W[2] == u2_2


def test_is_refinement(wedge, spaces):
    K, strat = wedge
    assert oracles.is_refinement(strat, strat)[0]
    refined = demos.refine_stratification(strat, "extra-point")
    ok, corr = oracles.is_refinement(refined, strat)
    assert ok and len(corr) == len(refined.strata)
    assert not oracles.is_refinement(strat, refined)[0]
    # two transverse fake-surface refinements do not refine one another
    r1 = demos.refine_stratification(strat, "extra-surface")
    r2 = demos.refine_stratification(strat, "extra-surface:3")
    assert r1.levels != r2.levels
    assert not oracles.is_refinement(r1, r2)[0]
    assert not oracles.is_refinement(r2, r1)[0]
    _, fake_doc = demos.demo_space("fake-surface")
    fake_strat = validate_stratification(K, fake_doc["levels"])
    assert oracles.is_refinement(fake_strat, strat)[0]


def test_randomized_filtration_identities(spaces):
    rng = random.Random(20240811)
    cases = 0
    for name, (K, strat) in spaces.items():
        for _ in range(8):
            refined = demos.random_refinement(strat, rng)
            filt = compute_open_filtration(refined)
            assert verify_filtration_identities(filt) == []
            assert K.walk(filt.U[1], K.facets) == K.full_set()
            cases += 1
    assert cases == 40


def test_u1_is_the_union_of_the_open_strata(spaces):
    # the frontier condition gives X^m − U^m ⊆ X_{m−1}, so U_1 is ∪ U^m in
    # the canonical and the naive filtration alike; a --local-system file
    # is read on that union
    recipes = ["extra-point", "extra-surface", "extra-surface:3"]
    recipes += ["random:%d" % seed for seed in range(1, 13)]
    cases = 0
    for name, (K, strat) in spaces.items():
        strats = [strat]
        for recipe in recipes:
            try:
                strats.append(demos.refine_stratification(strat, recipe))
            except StratificationError:
                continue  # no admissible refinement of this kind
        for st in strats:
            u1 = frozenset().union(*compute_open_strata(st)[0].values())
            assert u1 == compute_open_filtration(st).U[1] == naive_filtration(st).U[1], \
                (name, st.levels_doc())
            cases += 1
    assert cases == 78


def test_refinement_recipes_deterministic(wedge):
    K, strat = wedge
    a = demos.refine_stratification(strat, "random:5")
    b = demos.refine_stratification(strat, "random:5")
    assert [s.simplex_set for s in a.strata] == [s.simplex_set for s in b.strata]
    # an unknown name is refused as unknown, whatever number follows it
    for recipe in ("foo", "foo:0", "foo:1", "foo:07"):
        with pytest.raises(StratificationError, match="unknown refinement recipe"):
            demos.refine_stratification(strat, recipe)


def test_level_given_as_a_set_of_ids_is_rejected(wedge):
    # a level is a list of generating vertex lists; the frozenset of ids
    # that a Stratification holds is not read as one
    K, strat = wedge
    with pytest.raises(StratificationError, match="level 0 must be a list of simplices"):
        validate_stratification(K, {str(k): strat.level(k) for k in range(strat.n + 1)})
