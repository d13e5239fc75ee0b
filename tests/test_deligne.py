import copy
import gc
import json
import random
import re
import tracemalloc
import weakref

import pytest

from icsheaf import axioms, deligne, demos, reports
from icsheaf.cli import run
from icsheaf.deligne import (ICBundle, _verify_bundle, build_ic, clc_coarsen,
                             compare_stratifications)
from icsheaf.fields import QQ, field_by_name
from icsheaf import sections as sec
from icsheaf.reduction import SparseComplex
from icsheaf.sheaves import (SheafComplex, SheafError, constant_complex, first_difference,
                             make_local_system)
from icsheaf.simplicial import SimplicialComplex, complex_to_doc
from icsheaf.stratify import compute_open_filtration
from icsheaf.stratify import StratificationError, validate_stratification

import oracles


def test_engine_errors_name_the_step(spaces, monkeypatch):
    # the wedge has two steps; truncation fails in the second
    K, strat = spaces["wedge"]
    truncate, calls = sec.truncate_le, []

    def failing(S, a):
        calls.append(a)
        if len(calls) == 2:
            raise sec.EngineError("the restriction at [0] -> [0, 1] in degree 0 "
                                  "does not land in ker d^0")
        return truncate(S, a)

    monkeypatch.setattr(sec, "truncate_le", failing)
    with pytest.raises(sec.EngineError,
                       match=r"^step 2 \(collapsed through 2\): truncation: the restriction "
                             r"at \[0\] -> \[0, 1\] in degree 0 does not land in ker d\^0$"):
        build_ic(strat)


def test_pushforward_unit_check_names_step_simplex_and_degree(spaces, monkeypatch):
    # a same-support cleanup that loses a survivor breaks the section unit
    # on the boundary region, and the check says at which step and layer,
    # simplex and degree
    real = SparseComplex.reduce

    def lossy(G, same_support=False):
        real(G, same_support)
        if same_support:
            del G.degree[min(G.degree)]

    monkeypatch.setattr(SparseComplex, "reduce", lossy)
    with pytest.raises(sec.EngineError) as info:
        build_ic(spaces["wedge"][1])
    assert str(info.value) == "step 2 (collapsed through 2): pushforward: the cleanup " \
        "broke the section unit at [0, 1]: degree 0 has dim 1, expected 0"


def test_manifold_trivial_build():
    # no singular strata: the recursion is the shifted constant sheaf
    from icsheaf.simplicial import SimplicialComplex
    from itertools import combinations
    K = SimplicialComplex(range(6), [list(c) for c in combinations(range(6), 5)])
    strat = validate_stratification(
        K, {"2": [list(c) for c in combinations(range(6), 5)], "1": [], "0": []})
    b = build_ic(strat)
    for sid in sorted(K.full_set()):
        assert b.ic.stalk_cohomology(sid) == {-2: 1}


def test_wedge_ic_values(wedge_ic, wedge):
    K, strat = wedge
    v0 = K.id_of([0])
    assert wedge_ic.ic.stalk_cohomology(v0) == {-2: 1, -1: 1}
    assert sec.cell_costalk(wedge_ic.ic, [v0])[v0] == {1: 1, 2: 1}
    # independent oracle: shifted sphere cohomologies of the two components
    from itertools import combinations
    h4 = oracles.cochain_cohomology_dims([list(c) for c in combinations(range(6), 5)])
    h2 = oracles.cochain_cohomology_dims([list(c) for c in combinations([0, 6, 7, 8], 3)])
    expect = {}
    for q, d in h4.items():
        expect[q - 2] = expect.get(q - 2, 0) + d
    for q, d in h2.items():
        expect[q - 1] = expect.get(q - 1, 0) + d
    assert sec.hypercohomology(wedge_ic.ic) == expect == {-2: 1, -1: 1, 1: 1, 2: 1}
    # costalk at a smooth top-component simplex sits in the manifold degree
    smooth = K.id_of([1, 2])
    assert sec.cell_costalk(wedge_ic.ic, [smooth])[smooth] == {2: 1}


def test_wedge_restriction_to_u1_is_shifted_system(wedge_ic, wedge):
    K, strat = wedge
    filt = wedge_ic.filtration
    back = wedge_ic.ic.restrict_open(filt.U[1])
    for m, um in filt.U_m.items():
        for sid in um:
            assert back.stalk_cohomology(sid) == {-m: 1}


def test_tower_restriction_compatibility(towers):
    for name, b in towers.items():
        for i in range(len(b.intermediates) - 1):
            prev, cur = b.intermediates[i], b.intermediates[i + 1]
            backed = cur.restrict_open(prev.domain)
            for sid in sorted(prev.domain):
                assert backed.stalk_cohomology(sid) == prev.stalk_cohomology(sid)


def test_vanishing_by_construction(built):
    # degrees on each W_{k+1} stay at or below the middle-perversity cutoff
    for name, b in built.items():
        filt = b.filtration
        n = filt.n
        for k in range(1, n + 1):
            for sid in sorted(filt.W[k + 1]):
                table = b.ic.stalk_cohomology(sid)
                assert all(q <= k - 1 - n for q in table), (name, k, sid)


def test_attaching_by_construction(built):
    # costalks vanish in degrees <= n-k across the non-open strata
    for name, b in built.items():
        filt = b.filtration
        n = filt.n
        for k in range(1, n + 1):
            zone = filt.U[k + 1] - filt.U[k]
            for sid, table in sec.cell_costalk(b.ic, zone).items():
                assert all(q > n - k for q in table), (name, k, sid)


def discarded_costalks(monkeypatch, strat, local_system=None, field=QQ):
    """The tower of strat and the singular costalks its truncations predict.

    A sheaf-level check that shares nothing with the cellular costalk: at
    a simplex σ of a stratum of real dimension d that is new at a step
    with stage A and cutoff p, i^! Rj_* = 0 gives
    i^!(τ≤p Rj_*A) = i^*(τ>p Rj_*A)[−1−d], so costalk^a(IC, σ) =
    dim H^(a−1−d)(Rj_*A)_σ when a−1−d > p and 0 otherwise (Goresky and
    MacPherson, Intersection Homology II, §2–3).  Returns the unverified
    tower and {sid: costalk} at every simplex the pushforwards give a
    value, which is every simplex off U_1: no attached local system.
    """
    K, pushed = strat.complex, []
    truncate = sec.truncate_le

    def keep(S, p):
        pushed.append((S, p))
        return truncate(S, p)

    with monkeypatch.context() as m:
        m.setattr(sec, "truncate_le", keep)
        tower = deligne.build_tower(strat, local_system, field=field)
    assert len(pushed) == len(tower.log)
    want = {}
    for A, (R, p) in zip(tower.intermediates, pushed):
        new = R.domain - A.domain
        for sid in new:
            d = max(K.sdim(t) for t in K.up_set(sid) if t in new)
            want[sid] = {b + 1 + d: h for b, h in R.stalk_cohomology(sid).items() if b > p}
    assert set(want) == K.full_set() - tower.filtration.U[1]
    return tower, want


@pytest.mark.parametrize("field", ("fp:2", "fp:32003", "q"))
def test_singular_costalks_are_what_each_truncation_discards(spaces, monkeypatch, field):
    counts = []
    for name in demos.DEMO_NAMES:
        K, strat = spaces[name]
        tower, want = discarded_costalks(monkeypatch, strat, field=field_by_name(field))
        got = sec.cell_costalk(tower.ic, want)
        for sid in sorted(want):
            assert got[sid] == want[sid], (name, K.simplices[sid], got[sid], want[sid])
        counts.append(len(want))
    assert counts == [1, 1, 2, 2, 15]


def test_pinched_torus_against_normalization_oracle(built):
    # the construction matches the sphere pushed forward: H*(S^2)[1]
    h2 = oracles.cochain_cohomology_dims(demos.icosahedron_faces())
    expect = {q - 1: d for q, d in h2.items()}
    got = sec.hypercohomology(built["pinched-torus"].ic)
    assert got == {q: d for q, d in expect.items() if d} == {-1: 1, 1: 1}


def test_pure_wrapper_matches_direct_build(built, spaces):
    K, strat = spaces["pinched-torus"]
    piece, sub_bundle = oracles.build_ic_pure(strat, 1)
    direct = built["pinched-torus"].ic
    for sid in sorted(K.full_set()):
        assert piece.stalk_cohomology(sid) == direct.stalk_cohomology(sid)


def test_pure_wrapper_rejects_nonpure(spaces):
    K, strat = spaces["wedge"]
    with pytest.raises(StratificationError, match="dimension 3|no open strata"):
        oracles.build_ic_pure(strat, 3)


def test_susp_oracle_and_duality(built):
    cells = [[demos._product_label(u, w) for (u, w) in cell]
             for cell in demos._s1xs2_cells()]
    h_m = oracles.cochain_cohomology_dims(cells)
    assert h_m == {0: 1, 1: 1, 2: 1, 3: 1}
    expect = oracles.suspension_ic_hyperco(h_m, n=2)
    got = sec.hypercohomology(built["susp-s1xs2"].ic)
    assert got == expect == {-2: 1, -1: 1, 1: 1, 2: 1}
    # duality smoke test: the dimension vector is palindromic
    dims = [got.get(q, 0) for q in range(-2, 3)]
    assert dims == dims[::-1]


# the 6-vertex RP²
RP2 = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
       [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]]


def susp_rp2xs1():
    """The suspension of RP² × S¹, staircase-multiplied with a 3-cycle.

    1,190 simplices; the apexes 18 and 19 are levels 0 and 1.  Not a CLI demo.
    """
    circle = [[0, 1], [1, 2], [0, 2]]
    cells = [[3 * u + w for u, w in c] for c in demos.staircase_product(RP2, circle)]
    top = [c + [18] for c in cells] + [c + [19] for c in cells]
    K = SimplicialComplex(range(20), top)
    return validate_stratification(
        K, {"2": [sorted(c) for c in top], "1": [[18], [19]], "0": [[18], [19]]})


def wedge_s6_s4_s2():
    """∂Δ⁷ (an S⁶), ∂Δ⁵ (an S⁴) and ∂Δ³ (an S²) glued at vertex 0.

    328 simplices, complex dimension 3.  Level 3 is all of it, level 2
    the S⁴ and the S², level 1 the S² and the wedge point, level 0 the
    wedge point.
    """
    s6 = demos.boundary_simplex_faces(range(8))
    s4 = demos.boundary_simplex_faces([0, 8, 9, 10, 11, 12])
    s2 = demos.boundary_simplex_faces([0, 13, 14, 15])
    K = SimplicialComplex(range(16), s6 + s4 + s2)
    return validate_stratification(
        K, {"3": s6 + s4 + s2, "2": s4 + s2, "1": s2 + [[0]], "0": [[0]]})


def not_self_dual(S):
    """The simplices where S's costalk is not its stalk mirrored: costalk^a ≠ stalk^-a."""
    K = S.complex
    return {K.simplices[sid] for sid, costalk in sec.cell_costalk(S, K.full_set()).items()
            if costalk != {-q: d for q, d in S.stalk_cohomology(sid).items()}}


@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_verdier_self_duality(build_of, spaces, name):
    # the middle-perversity IC with constant coefficients is Verdier self-dual
    # (Goresky-MacPherson, Intersection Homology II): costalk^a = stalk^-a on
    # every simplex.  The naive builds are negative controls: they break it
    # exactly at nonpure-wedge's cone point and on fake-surface's fake sphere.
    K, strat = spaces[name]
    expect_bad = set()
    if name == "nonpure-wedge":
        expect_bad = {(12,)}
    elif name == "fake-surface":
        expect_bad = {K.simplices[sid] for sid in oracles.fake_surface_stratum_ids(K)}
        assert len(expect_bad) == 14
    for naive in (False, True):
        S = build_of(name, "fp:32003", naive).ic
        assert not_self_dual(S) == (expect_bad if naive else set()), naive


@pytest.mark.parametrize("field,apex_h1,expect_bad", (("fp:2", 2, set()),
                                                      ("q", 1, {(18,), (19,)})),
                         ids=("fp:2", "q"))
def test_verdier_self_duality_susp_rp2xs1(field, apex_h1, expect_bad):
    # RP² × S¹ is non-orientable, so its suspension's IC is self-dual over
    # GF(2), where every manifold is orientable, and over QQ breaks it
    # exactly at the two apexes.  The apex stalk is H^0 and H^1 of
    # RP² × S¹ shifted by −2 (the cone formula).
    strat = susp_rp2xs1()
    S = build_ic(strat, field=field_by_name(field)).ic
    assert S.stalk_cohomology(strat.complex.id_of([18])) == {-2: 1, -1: apex_h1}
    assert not_self_dual(S) == expect_bad


@pytest.mark.parametrize("field", ("q", "fp:3", "fp:2"))
def test_orientation_system_susp_rp2xs1(field, tmp_path, monkeypatch):
    # ω, the orientation system of the top stratum RP² × S¹ × (0, 1), makes
    # IC_ω the Verdier dual of IC, D(IC_L) = IC_(L^∨ ⊗ ω): costalk^a(IC_ω) =
    # stalk^−a(IC) and costalk^a(IC) = stalk^−a(IC_ω) at every simplex, the
    # apexes' stalk vanishes, and H^*(X; IC_ω) is the IH of allowable
    # chains.  Each singular costalk of IC_ω is what its truncation
    # discards (`discarded_costalks`).  Over GF(2) ω is trivial.  Over
    # GF(3) ω also goes through the CLI as a --local-system file.
    strat = susp_rp2xs1()
    K, F = strat.complex, field_by_name(field)
    U = compute_open_filtration(strat).U[1]
    dims, signs = oracles.orientation_system(K, U)
    omega = make_local_system(F, K, U, dims,
                              {p: [[F.parse(e)]] for p, e in signs.items()})
    tower, discarded = discarded_costalks(monkeypatch, strat, omega, F)
    _verify_bundle(tower)
    ic, icw = build_ic(strat, field=F).ic, tower.ic
    del tower
    costalk, costalk_w = (sec.cell_costalk(S, K.full_set()) for S in (ic, icw))
    if field == "fp:2":
        assert icw.stalk_table() == ic.stalk_table() and costalk_w == costalk
        assert sec.hypercohomology(icw) == sec.hypercohomology(ic)
        return
    assert {K.simplices[sid] for sid in discarded} == {(18,), (19,)}
    for sid, want in discarded.items():
        assert costalk_w[sid] == want, K.simplices[sid]
    for sid in range(len(K)):
        for c, S in ((costalk_w, ic), (costalk, icw)):
            assert c[sid] == {-q: d for q, d in S.stalk_cohomology(sid).items()}, \
                K.simplices[sid]
    apex = K.id_of([18])
    assert icw.stalk_cohomology(apex) == {} and costalk_w[apex] == {1: 1, 2: 1}
    if field != "fp:3":
        return
    # H^q = Σ_m IH_(m−q)(X^m); X^1 is empty here
    ih = oracles.intersection_homology(K, strat.levels_doc()["levels"], 3)
    assert ih == {1: {}, 2: {0: 1, 1: 1}}
    assert sec.hypercohomology(icw) == {2 - i: d for i, d in ih[2].items()} == {1: 1, 2: 1}
    space = tmp_path / "space"
    reports.write_json(space / "complex.json", complex_to_doc(K))
    reports.write_json(space / "stratification.json", strat.levels_doc())
    key = lambda sid: reports.simplex_key(K, sid)
    reports.write_json(tmp_path / "omega.json", {
        "stalk_dims": {key(s): d for s, d in dims.items()},
        "matrices": {"%s|%s" % (key(s), key(t)): [[e]] for (s, t), e in signs.items()}})
    o = tmp_path / "o"
    for command in ("build", "check-ax1", "check-ax2"):
        assert run([command, str(space), "--field", field, "--local-system",
                    str(tmp_path / "omega.json"), "--out", str(o)]) == 0, command
    doc = json.loads((o / "ic-bundle.json").read_text())
    assert doc["report"]["stalk_table"] == reports.table_doc(K, icw.stalk_table())


def test_complex_dimension_three_wedge():
    # the one space of complex dimension 3: three cutoffs, and AX1's W_k/U_k
    # bookkeeping for k up to 3.  Each sphere's IC is constant; at the
    # wedge point the stalk is the sum of the three cone stalks, H^0 of
    # each sphere's link shifted by −m, and the costalk its mirror.  Its
    # only singular stratum is the point, so no elimination of a build
    # meets a family column (`SparseComplex.add_ucol` is never called).
    strat = wedge_s6_s4_s2()
    K = strat.complex
    assert len(K) == 328 and strat.n == 3
    want = oracles.link_stalks(K, strat, 32003)
    point = K.id_of([0])
    for field in ("q", "fp:32003"):
        b = build_ic(strat, field=field_by_name(field))
        S = b.ic
        assert [(s["step"], s["cutoff"]) for s in b.log] == [(1, -3), (2, -2), (3, -1)]
        assert S.stalk_cohomology(point) == {-3: 1, -2: 1, -1: 1}
        assert sec.cell_costalk(S, [point])[point] == {1: 1, 2: 1, 3: 1}
        assert S.stalk_table() == want, field
        assert sec.hypercohomology(S) == {q: 1 for q in (-3, -2, -1, 1, 2, 3)}
        assert not_self_dual(S) == set()
        assert axioms.check_ax1(S, strat).passed
        assert axioms.check_ax2(S, strat).passed
        classic = axioms.check_classic_ax2(S)
        assert [c.clause for c in classic.clauses if not c.passed] == ["c", "d"], field


def two_four_spheres_along_a_two_sphere():
    """∂Δ³ * ∂{4,5,6} and ∂Δ³ * ∂{7,8,9}, two S⁴ glued along the S² ∂Δ³.

    24 top simplices, 194 simplices, complex dimension 2.  The S² is a
    singular stratum of complex dimension 1 whose link is two circles, so
    no neighbourhood of it is a manifold.  Returns (complex, levels).
    """
    sphere = demos.boundary_simplex_faces(range(4))
    tops = [s + c for c in (demos.boundary_simplex_faces([4, 5, 6])
                            + demos.boundary_simplex_faces([7, 8, 9]))
            for s in sphere]
    return SimplicialComplex(range(10), tops), {"2": tops, "1": sphere, "0": []}


def test_two_four_spheres_glued_along_a_two_sphere(tmp_path):
    # the first singular stratum of positive dimension whose neighbourhood
    # is no manifold: the normalization is two disjoint S⁴, so IH is theirs,
    # the stalk on the S² counts its two local branches, and the costalk at
    # a vertex of it is their mirror.  Its builds still never fill a family
    # column (`SparseComplex.add_ucol` is not called).
    K, levels = two_four_spheres_along_a_two_sphere()
    strat = validate_stratification(K, levels)
    assert len(K) == 194 and strat.n == 2
    assert sum(1 for c in K.cofacets if not c) == 24
    ih = oracles.intersection_homology(K, levels, 32003)
    assert {m: h for m, h in ih.items() if h} == {2: {0: 2, 4: 2}}
    want = oracles.link_stalks(K, strat, 32003)
    v0, top = K.id_of([0]), K.id_of(levels["2"][0])
    for field in ("q", "fp:32003"):
        F = field_by_name(field)
        S = build_ic(strat, field=F).ic
        assert sec.hypercohomology(S) == {2 - i: d for i, d in ih[2].items()}, field
        assert S.stalk_table() == want, field
        assert all(S.stalk_cohomology(sid) == {-2: 2} for sid in strat.level(1))
        assert S.stalk_cohomology(top) == {-2: 1}
        assert sec.cell_costalk(S, [v0])[v0] == {2: 2} == oracles.star_costalk(S, v0)
        assert axioms.check_ax1(S, strat).passed, field
        assert axioms.check_ax2(S, strat).passed, field
        assert axioms.check_classic_ax2(S).passed, field
        for recipe in ("extra-point", "random:1"):
            other = demos.refine_stratification(strat, recipe)
            rep, = deligne.compare_stratifications(strat, [other], field=F)
            assert rep["passed"], (field, recipe)
    d = tmp_path / "space"
    reports.write_json(d / "complex.json", {"vertices": list(range(10)),
                                            "maximal_simplices": levels["2"]})
    reports.write_json(d / "stratification.json", {"levels": levels})
    for command in ("build", "check-ax1", "check-ax2"):
        assert run([command, str(d), "--out", str(tmp_path / "o")]) == 0, command
    built = json.loads((tmp_path / "o" / "ic-bundle.json").read_text())["report"]
    assert built["stalk_table"] == reports.table_doc(K, want)


@pytest.mark.parametrize("field", ("q", "fp:32003"))
@pytest.mark.parametrize("naive", (False, True), ids=("canonical", "naive"))
def test_scoped_build_matches_full_build(build_of, spaces, naive, field):
    # the full build is the oracle: built on the open star of a simplex, the
    # tower gives the full build's stalk and costalk there; on the two large
    # demos, every singular simplex and a seeded sample of the others
    F = field_by_name(field)
    for name in demos.DEMO_NAMES:
        K, strat = spaces[name]
        full = build_of(name, field, naive).ic
        check = sorted(K.full_set())
        if name in ("susp-s1xs2", "nonpure-wedge"):
            sing = strat.level(strat.n - 1)
            rest = [sid for sid in check if sid not in sing]
            check = sorted(sing) + random.Random(name).sample(rest, 8)
        for sid in check:
            star = K.open_star(K.simplices[sid])
            ic = build_ic(strat, field=F, naive=naive, within=star).ic
            assert ic.domain == star
            where = (name, K.simplices[sid])
            assert ic.stalk_cohomology(sid) == full.stalk_cohomology(sid), where
            assert sec.cell_costalk(ic, [sid])[sid] == sec.cell_costalk(full, [sid])[sid], where


def test_scoped_build_needs_an_open_set(wedge):
    K, strat = wedge
    with pytest.raises(SheafError, match="up-closed"):
        build_ic(strat, within=frozenset([K.id_of([0])]))
    # ids that name no simplex of the complex are no open set of it either
    for within in ({len(K)}, {-1}, K.full_set() | {len(K)}):
        with pytest.raises(SheafError, match="up-closed"):
            deligne.build_tower(strat, within=frozenset(within))


@pytest.mark.parametrize("stage", (0, -1), ids=("first", "last"))
def test_verify_names_simplex_degree_and_dims(towers, stage):
    # a tower with one stage shifted by one degree fails verification with
    # the stage, the simplex, the first differing degree and both dims in
    # the message
    b = towers["wedge"]
    tower = list(b.intermediates)
    tower[stage] = oracles.shift(tower[stage], 1)
    bad = ICBundle(b.stratification, b.filtration, b.systems, tower, b.log,
                   b.field, b.naive)
    with pytest.raises(sec.EngineError) as info:
        _verify_bundle(bad)
    assert str(info.value) == {
        0: "verify, stage 0: not the shifted local system at [1]: degree -3 has dim 1, "
           "expected 0",
        -1: "verify, stage 2: does not restrict to stage 1 at [1]: degree -3 has dim 1, "
            "expected 0"}[stage]


def test_verify_needs_each_stage_open_in_the_next(towers):
    # the finished complex put first lives on the whole space, which is not
    # an open subset of the second stage's U_2; its stalks over U_1 still
    # match the shifted local system, so the domain check is what fails
    b = towers["wedge"]
    tower = list(b.intermediates)
    assert len(tower) == 3 and tower[1].domain != tower[-1].domain
    tower[0] = tower[-1]
    bad = ICBundle(b.stratification, b.filtration, b.systems, tower, b.log,
                   b.field, b.naive)
    with pytest.raises(sec.EngineError) as info:
        _verify_bundle(bad)
    assert str(info.value) == "verify, stage 1: the domain of stage 0 is not open in it"


def test_susp_cone_point_stalk(built, spaces):
    K, strat = spaces["susp-s1xs2"]
    apex = K.id_of([12])
    cells = [[demos._product_label(u, w) for (u, w) in cell]
             for cell in demos._s1xs2_cells()]
    h_m = oracles.cochain_cohomology_dims(cells)
    expect = oracles.truncated_shift_dims(h_m, shift=2, cutoff=-1)
    assert built["susp-s1xs2"].ic.stalk_cohomology(apex) == expect == {-2: 1, -1: 1}


def test_decomposition_wedge_and_nonpure(built):
    rep = oracles.check_decomposition(built["wedge"])
    assert rep["passed"]
    rep2 = oracles.check_decomposition(built["nonpure-wedge"])
    assert rep2["passed"]
    assert rep2["summand_hypercohomology"][1] == {-1: 1, 1: 1}
    assert rep2["summand_hypercohomology"][2] == {-2: 1, -1: 1, 1: 1, 2: 1}
    assert rep2["sum_hypercohomology"] == {-2: 1, -1: 2, 1: 2, 2: 1}
    assert rep2["direct_hypercohomology"] == rep2["sum_hypercohomology"]


def test_decomposition_pure_space_single_summand(spaces):
    K, strat = spaces["pinched-torus"]
    b = build_ic(strat)
    rep = oracles.check_decomposition(b)
    assert rep["passed"] and list(rep["summand_hypercohomology"]) == [1]


def test_decomposition_all_spaces_and_random_refinements(built, spaces):
    import random
    for name, b in built.items():
        if name in ("wedge", "nonpure-wedge", "pinched-torus"):
            continue  # covered elsewhere
        assert oracles.check_decomposition(b)["passed"], name
    for name, seed in (("wedge", 41), ("fake-surface", 42)):
        K, strat = spaces[name]
        refined = demos.random_refinement(strat, random.Random(seed))
        rep = oracles.check_decomposition(build_ic(refined))
        assert rep["passed"], (name, seed, rep["first_mismatch"])


def test_hypercohomology_additive_over_sums(built):
    S = built["wedge"].ic
    T = oracles.direct_sum(S, S)
    hs = sec.hypercohomology(S)
    assert sec.hypercohomology(T) == {q: 2 * d for q, d in hs.items()}


def test_compare_same_and_refined(wedge, spaces):
    K, strat = wedge
    rep, = compare_stratifications(strat, [strat])
    assert rep["passed"]
    refined = demos.refine_stratification(strat, "extra-point")
    rep2, = compare_stratifications(strat, [refined])
    assert rep2["passed"]


def test_compare_holds_one_bundle_at_a_time(wedge, monkeypatch):
    # each complex is read and dropped before the next build starts, and
    # the first is built once for all comparisons
    K, strat = wedge
    real, refs = deligne.build_ic, []

    def build(*args, **kwargs):
        gc.collect()
        assert all(r() is None for r in refs), "a bundle is alive during the next build"
        bundle = real(*args, **kwargs)
        refs.append(weakref.ref(bundle.ic))
        return bundle

    monkeypatch.setattr(deligne, "build_ic", build)
    others = [demos.refine_stratification(strat, r) for r in ("extra-point", "random:7")]
    reps = compare_stratifications(strat, others)
    assert len(refs) == 3 and [rep["passed"] for rep in reps] == [True, True]


@pytest.mark.parametrize("naive", (False, True), ids=("canonical", "naive"))
def test_build_ic_keeps_only_the_final_complex(spaces, monkeypatch, naive):
    # a canonical build verifies the whole tower; either way the bundle
    # returned keeps the IC and no other stage alive
    real_init, real_verify = ICBundle.__init__, deligne._verify_bundle
    stages, verified = [], []

    def init(self, strat, filt, systems, intermediates, *rest):
        stages.append([weakref.ref(S) for S in intermediates])
        real_init(self, strat, filt, systems, intermediates, *rest)

    def verify(bundle):
        verified.append(len(bundle.intermediates))
        real_verify(bundle)

    monkeypatch.setattr(ICBundle, "__init__", init)
    monkeypatch.setattr(deligne, "_verify_bundle", verify)
    for name, (K, strat) in spaces.items():
        bundle = build_ic(strat, naive=naive)
        gc.collect()
        refs = stages.pop()
        assert verified == ([] if naive else [len(refs)]), name
        assert bundle.intermediates is None and refs[-1]() is bundle.ic, name
        assert len(refs) > 1 and all(r() is None for r in refs[:-1]), name
        verified.clear()


@pytest.mark.parametrize("name, field", (("wedge", "q"), ("wedge", "fp:32003"),
                                         ("susp-s1xs2", "q"), ("susp-s1xs2", "fp:32003"),
                                         ("nonpure-wedge", "q")))
def test_build_report_stays_below_the_build_peak(tmp_path, name, field):
    # writing a build's report as the CLI does, with the bundle held,
    # allocates less at its peak than the build did.  Collections before
    # each phase leave out the garbage and free lists the interpreter has
    # not reclaimed yet, so the figures count live objects only.
    K, doc = demos.demo_space(name)
    strat = validate_stratification(K, doc["levels"])
    gc.collect()
    tracemalloc.start()
    try:
        bundle = build_ic(strat, field=field_by_name(field))
        build_peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        tracemalloc.reset_peak()
        path = reports.write_report(tmp_path / "ic-bundle.json", {},
                                    reports.bundle_doc(bundle))
        report_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report_peak < build_peak, (path.stat().st_size, report_peak, build_peak)


@pytest.mark.parametrize("system", ("constant", "matrices"))
@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_no_operation_mutates_a_shared_map(monkeypatch, spaces, name, system):
    # maps are shared across simplices, pairs and complexes (one {degree:
    # matrix} map per matrix of a local system, the far region of a
    # pushforward, the pieces' maps in a glued stage), so none may change
    # in place: every complex built here, the local system and each stage
    # among them, keeps the dims, differentials and restrictions it was
    # built with through build_tower, cell_costalk, cohomology_sheaf and
    # clc_coarsen
    K, strat = spaces[name]
    U = compute_open_filtration(strat).U[1]
    built, init = [], SheafComplex.__init__

    def recording(S, *args):
        init(S, *args)
        built.append((S, copy.deepcopy((S.dims, S.diffs, S.restrictions))))

    monkeypatch.setattr(SheafComplex, "__init__", recording)
    if system == "constant":
        L = constant_complex(QQ, K, U, 2)
    else:
        # diag(2, 1) on every cover pair; every other pair shares one matrix
        D = [[2, 0], [0, 1]]
        L = make_local_system(QQ, K, U, {s: 2 for s in U},
                              {p: D if i % 2 else [row[:] for row in D]
                               for i, p in enumerate(sorted(K.cover_pairs(U)))})
    bundle = deligne.build_tower(strat, L, field=QQ)
    S = bundle.ic
    sec.cell_costalk(S, S.domain)
    lo, hi = S.degree_range()
    for a in range(lo, hi + 1):
        sec.cohomology_sheaf(S, a)
    clc_coarsen(strat, S)
    assert len(built) > len(bundle.intermediates)
    for i, (T, before) in enumerate(built):
        for what, got, want in zip(("dims", "diffs", "restrictions"),
                                   (T.dims, T.diffs, T.restrictions), before):
            assert got == want, "%s, %s system: complex %d changed its %s" % (
                name, system, i, what)


def _one_dims_map_per_value(dims):
    maps = {}  # value -> ids of the maps that hold it
    for qs in dims.values():
        maps.setdefault(tuple(sorted(qs.items())), set()).add(id(qs))
    return all(len(ids) == 1 for ids in maps.values())


@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_systems_and_cohomology_sheaves_share_one_dims_map_per_value(tower_of, name):
    # a constant system, the attached local systems (extended by zero and
    # raw) and every cohomology sheaf of the IC give all simplices with the
    # same value one dims map, which no operation mutates
    bundle = tower_of(name)
    S, K, U = bundle.ic, bundle.ic.complex, bundle.filtration.U
    L = constant_complex(QQ, K, U[1], 2)
    assert len({id(qs) for qs in L.dims.values()}) == 1
    attached = [bundle.intermediates[0],
                deligne._attach_systems(QQ, K, bundle.systems, U[max(U)],
                                        upto=max(bundle.systems), raw=True)]
    for A in attached:
        assert len(A.dims) > len({id(qs) for qs in A.dims.values()})
        assert _one_dims_map_per_value(A.dims), name
    lo, hi = S.degree_range()
    for a in range(lo, hi + 1):
        H = sec.cohomology_sheaf(S, a)
        assert _one_dims_map_per_value(H.dims), (name, a)


@pytest.mark.parametrize("name", demos.DEMO_NAMES)
def test_direct_sum_shares_every_one_sided_map(monkeypatch, spaces, name):
    # each stage is the truncation and the attached systems glued as a
    # disjoint union, so every map is one-sided: every dims, differential
    # and restriction map of a glued stage is a map of one of the two, and
    # none is rebuilt, in canonical and naive QQ builds
    real = deligne._glue
    shared, rebuilt = [0], []

    def glue(trunc, attached):
        C = real(trunc, attached)
        for what in ("dims", "diffs", "restrictions"):
            mine, theirs, got = (getattr(X, what) for X in (trunc, attached, C))
            assert got.keys() == mine.keys() | theirs.keys(), (name, what)
            for key, m in got.items():
                if m is mine.get(key) or m is theirs.get(key):
                    shared[0] += 1
                else:
                    rebuilt.append((what, key))
        return C

    monkeypatch.setattr(deligne, "_glue", glue)
    for naive in (False, True):
        deligne.build_tower(spaces[name][1], naive=naive)
    assert shared[0] and not rebuilt, (shared[0], len(rebuilt), rebuilt[:5])


@pytest.mark.parametrize("name,naive", (("wedge", False), ("nonpure-wedge", True)))
def test_glue_rejects_a_truncation_that_meets_the_attached_systems(monkeypatch, spaces,
                                                                   name, naive):
    # with the truncation made the identity, the pushforward keeps the
    # lower local systems' values on U^1 where they are attached again;
    # the glue names the step and a simplex there instead of summing them
    K, strat = spaces[name]
    monkeypatch.setattr(sec, "truncate_le", lambda S, a: S)
    with pytest.raises(sec.EngineError) as info:
        deligne.build_tower(strat, naive=naive)
    got = re.fullmatch(r"step 1 \(collapsed through (\d)\): glue: the truncation meets an "
                       r"attached local system at (\[[\d, ]*\])", str(info.value))
    assert got, str(info.value)
    U1 = compute_open_filtration(strat).U_m[1]
    assert K.id_of(json.loads(got.group(2))) in U1, str(info.value)


def test_stages_keep_no_composite_restrictions(towers):
    # composite restrictions are memoized per pushforward call, not per stage
    for name, bundle in towers.items():
        for stage in bundle.intermediates:
            assert "_restr_cache" not in vars(stage), name
        S, K = bundle.ic, bundle.ic.complex
        s, t = next((s, t) for s in sorted(S.dims) for t in K.up_set(s)
                    if K.sdim(t) == K.sdim(s) + 2 and S.dims[s].keys() & S.dims.get(t, {}).keys())
        q = min(S.dims[s].keys() & S.dims[t].keys())
        assert S.restriction(s, t, q) == S.restriction(s, t, q)
        assert S.restriction(s, t, q) is not S.restriction(s, t, q), name


def test_compare_naive_fails_with_witness(spaces):
    K, strat = spaces["fake-surface"]
    rep, = compare_stratifications(strat, [strat], naive_first=True)
    assert not rep["passed"]
    kinds = {w["kind"] for w in rep["witnesses"]}
    assert "stalk" in kinds
    fake = {tuple(sorted(s)) for s in
            (tuple(t) for t in (K.simplices[i] for i in oracles.fake_surface_stratum_ids(K)))}
    first = rep["witnesses"][0]
    assert tuple(first["simplex"]) in fake


def test_coarsen_examples(built, spaces):
    # fake refinement of the wedge coarsens back to the minimal levels
    K, strat = spaces["fake-surface"]
    b = build_ic(strat)
    state = clc_coarsen(strat, b.ic)
    Kw, wedge_doc = demos.demo_space("wedge")
    minimal = validate_stratification(K, wedge_doc["levels"])
    assert all(state.levels[k] == minimal.level(k) for k in range(3))
    # constant sheaf on a manifold with a fake point coarsens to the trivial filtration
    from icsheaf.simplicial import SimplicialComplex
    from itertools import combinations
    Km = SimplicialComplex(range(6), [list(c) for c in combinations(range(6), 5)])
    sm = validate_stratification(
        Km, {"2": [list(c) for c in combinations(range(6), 5)], "1": [[0]], "0": [[0]]})
    S = oracles.shift(constant_complex(QQ, Km, Km.full_set()), 2)
    st = clc_coarsen(sm, S)
    assert len(st.levels[0]) == 0 and len(st.levels[1]) == 0
    # the pinch point never merges
    Kp, sp = spaces["pinched-torus"]
    stp = clc_coarsen(sp, built["pinched-torus"].ic)
    assert [Kp.simplices[i] for i in sorted(stp.levels[0])] == [(0,)]


def test_coarsening_is_a_fixed_point(spaces, build_of):
    # the direct-sum IC does not depend on the stratification: a rebuild on
    # the levels clc_coarsen returns keeps every stalk, every costalk and the
    # hypercohomology, coarsening those levels again changes nothing, and a
    # refinement of a demo coarsens to the demo's own levels
    def first_row(t1, t2):
        return next((sid for sid in sorted(set(t1) | set(t2))
                     if t1.get(sid, {}) != t2.get(sid, {})), None)

    coarse = {}
    for name in demos.DEMO_NAMES:
        K, own = spaces[name]
        for field in ("q", "fp:32003"):
            F = field_by_name(field)
            rebuilt, docs = {}, {}
            for label in ("own", "random:7"):
                case = "%s over %s, %s stratification" % (name, field, label)
                if label == "own":
                    strat, ic = own, build_of(name, field).ic
                else:
                    strat = demos.refine_stratification(own, label)
                    ic = build_ic(strat, field=F).ic
                doc = docs[label] = clc_coarsen(strat, ic).levels_doc()
                key = oracles.canonical_json(doc)
                if key not in rebuilt:
                    coarser = validate_stratification(K, doc)
                    ic2 = build_ic(coarser, field=F).ic
                    rebuilt[key] = (ic2, sec.cell_costalk(ic2, ic2.domain),
                                    clc_coarsen(coarser, ic2).levels_doc())
                ic2, costalks2, again = rebuilt[key]
                for what, t1, t2 in (("stalk", ic.stalk_table(), ic2.stalk_table()),
                                     ("costalk", sec.cell_costalk(ic, ic.domain), costalks2)):
                    sid = first_row(t1, t2)
                    assert sid is None, "%s: %s differs at %s: %s != %s" % (
                        case, what, list(K.simplices[sid]), t1.get(sid), t2.get(sid))
                h1, h2 = sec.hypercohomology(ic), sec.hypercohomology(ic2)
                assert h1 == h2, "%s: hypercohomology differs in degree %s" % (
                    case, first_difference(h1, h2))
                assert again == doc, "%s: coarsening the coarsened levels moves them" % case
            assert docs["own"] == docs["random:7"], \
                "%s over %s: the refinement coarsens to other levels" % (name, field)
            coarse[name, field] = docs["own"]
    for field in ("q", "fp:32003"):
        assert coarse["fake-surface", field] == coarse["wedge", field], field


def test_coarsen_records_each_failure_once(spaces, build_of):
    # on the naive build stratum 1 fails at its own level before stratum 2
    # merges; the next round of that level must not record it again
    K, strat = spaces["fake-surface"]
    state = clc_coarsen(strat, build_of("fake-surface", naive=True).ic)
    assert [(s["level"], s["stratum"], s["merged"], s.get("witness_pair"))
            for s in state.steps] == [(2, 3, True, None),
                                      (1, 1, False, [[1], [0, 1]]),
                                      (1, 2, True, None)]


def test_coarsen_rejects_non_clc(spaces):
    K, strat = spaces["wedge"]
    # a skyscraper off the strata pattern is not locally constant stratumwise
    v = frozenset({K.id_of([1])})
    sky = oracles.extend_by_zero(constant_complex(QQ, K, v), K.full_set())
    with pytest.raises(SheafError, match="locally constant"):
        clc_coarsen(strat, sky)


def test_icbundle_log_and_flags(built):
    b = built["wedge"]
    assert [s["cutoff"] for s in b.log] == [-2, -1]
    assert not b.naive
    assert b.field is QQ
