"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (integer dimension equalities); the only tolerances
are the per-criterion wall-clock budgets, asserted at the stated limits.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from icsheaf import axioms as ax
from icsheaf import demos
from icsheaf import sections as sec
from icsheaf.deligne import (build_ic, build_tower, compare_stratifications,
                             default_costalk_sample, split_local_system,
                             _attach_systems, _verify_bundle)
from icsheaf.fields import QQ
from icsheaf.sheaves import constant_complex, make_local_system
from icsheaf.simplicial import SimplicialComplex
from icsheaf.stratify import (compute_open_filtration, validate_stratification,
                              verify_filtration_identities)

import oracles


@contextmanager
def criterion(num, description, budget_s):
    t0 = time.time()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = time.time() - t0
        status = "FAIL" if failed else ("PASS" if dt < budget_s else "FAIL (over budget)")
        print("criterion %2d: %s  —  %s  [%.1fs / budget %ds]"
              % (num, status, description, dt, budget_s))
    assert dt < budget_s, "criterion %d exceeded its %ds budget (%.1fs)" % (num, budget_s, dt)


def space(name):
    K, doc = demos.demo_space(name)
    return K, validate_stratification(K, doc["levels"])


def test_criterion_1_wedge_reproduction():
    with criterion(1, "wedge stalk/costalk at the glue vertex", 30):
        K, strat = space("wedge")
        b = build_ic(strat)
        v0 = K.id_of([0])
        assert b.ic.stalk_cohomology(v0) == {-2: 1, -1: 1}
        assert sec.cell_costalk(b.ic, [v0])[v0] == {1: 1, 2: 1}


def test_criterion_2_classical_axiom_failure():
    with criterion(2, "classical support/cosupport fail on the wedge; "
                      "per-dimension axioms pass", 30):
        K, strat = space("wedge")
        b = build_ic(strat)
        classic = ax.check_classic_ax2(b.ic)
        assert not classic.passed
        by = {c.clause: c for c in classic.clauses}
        support = [w for w in by["c"].witnesses if w.degree == -1]
        assert support and support[0].observed_dim == 1
        cosupport = [w for w in by["d"].witnesses if w.degree == 1]
        assert cosupport and cosupport[0].observed_dim == 1
        assert ax.check_ax2(b.ic, strat).passed


def test_criterion_3_naive_filtration_failure():
    with criterion(3, "naive filtration build fails the support clause on the "
                      "fake-surface stratum; canonical build passes", 120):
        K, strat = space("fake-surface")
        naive = build_ic(strat, naive=True)
        report = ax.check_ax2(naive.ic, strat)
        assert not report.passed
        clause_b = next(c for c in report.clauses if c.clause == "b")
        assert not clause_b.passed
        w = clause_b.witnesses[0]
        assert w.degree == -1 and w.observed_dim == 1 and w.bound == 1
        fake = oracles.fake_surface_stratum_ids(K)
        locus = set(w.simplex_ids)
        # the witness locus is the fake stratum (its closure may pick up the
        # glue vertex, where the sphere summand also has degree -1 stalk)
        assert fake <= locus and locus - fake <= {K.id_of([0])}
        assert max(K.sdim(i) for i in locus) == 2
        assert ax.check_ax2(build_ic(strat).ic, strat).passed


def test_criterion_4_pure_case_oracle():
    with criterion(4, "pinched torus sections equal the normalization oracle", 30):
        K, strat = space("pinched-torus")
        b = build_ic(strat)
        got = sec.hypercohomology(b.ic)
        sphere = oracles.cochain_cohomology_dims(demos.icosahedron_faces())
        oracle = {q - 1: d for q, d in sphere.items() if d}
        assert got == oracle == {-1: 1, 1: 1}
        assert got.get(0, 0) == 0


def test_criterion_5_cone_formula_oracle():
    with criterion(5, "suspension sections equal the Mayer-Vietoris oracle "
                      "and are palindromic", 600):
        K, strat = space("susp-s1xs2")
        b = build_ic(strat)
        got = sec.hypercohomology(b.ic)
        cells = [[demos._product_label(u, w) for (u, w) in cell]
                 for cell in demos._s1xs2_cells()]
        h_m = oracles.cochain_cohomology_dims(cells)
        oracle = oracles.suspension_ic_hyperco(h_m, n=2)
        assert got == oracle
        dims = [got.get(q, 0) for q in range(-2, 3)]
        assert dims == [1, 1, 0, 1, 1]
        assert dims == dims[::-1]
        # cone-point stalks follow the truncated-shift cone formula
        apex = K.id_of([12])
        assert b.ic.stalk_cohomology(apex) == \
            oracles.truncated_shift_dims(h_m, shift=2, cutoff=-1)


def test_criterion_6_decomposition():
    with criterion(6, "direct construction equals the sum of pure-closure "
                      "complexes on the non-pure wedge", 600):
        K, strat = space("nonpure-wedge")
        b = build_ic(strat)
        report = oracles.check_decomposition(b)
        assert report["passed"], report["first_mismatch"]
        assert report["direct_hypercohomology"] == {-2: 1, -1: 2, 1: 2, 2: 1}
        assert report["sum_hypercohomology"] == {-2: 1, -1: 2, 1: 2, 2: 1}


def test_criterion_7_stratification_independence():
    with criterion(7, "the complex is unchanged under randomized admissible "
                      "refinements on every bundled space", 900):
        rng_seeds = [101, 202, 303]
        for name in demos.DEMO_NAMES:
            K, strat = space(name)
            for seed in rng_seeds:
                refined = demos.random_refinement(strat, random.Random(seed))
                rep, = compare_stratifications(strat, [refined])
                assert rep["passed"], (name, seed, rep["witnesses"])


def _equivalence_corpus():
    """(label, stratification, complex) members over the bundled spaces."""
    members = []

    Kw, sw = space("wedge")
    filt_w = compute_open_filtration(sw)
    bw = build_ic(sw)
    members.append(("wedge ic", sw, bw.ic))
    L2 = constant_complex(QQ, Kw, filt_w.U[1], 2)
    members.append(("wedge ic rank 2", sw, build_ic(sw, L2).ic))
    members.append(("wedge constant [2]", sw,
                    oracles.shift(constant_complex(QQ, Kw, Kw.full_set()), 2)))
    members.append(("wedge constant [0]", sw,
                    constant_complex(QQ, Kw, Kw.full_set())))
    members.append(("wedge ic shifted", sw, oracles.shift(bw.ic, 1)))
    systems_w = split_local_system(constant_complex(QQ, Kw, filt_w.U[1]), filt_w,
                                   filt_w.U[1])
    I1w = _attach_systems(QQ, Kw, systems_w, filt_w.U[1], upto=2)
    raw_w = sec.pushforward_open(I1w, Kw.full_set())
    members.append(("wedge untruncated pushforward", sw, raw_w))
    members.append(("wedge overtruncated pushforward", sw, sec.truncate_le(raw_w, -2)))
    L0 = constant_complex(QQ, Kw, filt_w.U[1], 0)
    members.append(("wedge zero system ic", sw, build_ic(sw, L0).ic))
    members.append(("wedge ic plus constant", sw, oracles.direct_sum(
        bw.ic, oracles.shift(constant_complex(QQ, Kw, Kw.full_set()), 2))))

    Kp, sp = space("pinched-torus")
    filt_p = compute_open_filtration(sp)
    bp = build_ic(sp)
    members.append(("pinched ic", sp, bp.ic))
    members.append(("pinched constant [1]", sp,
                    oracles.shift(constant_complex(QQ, Kp, Kp.full_set()), 1)))
    raw_p = sec.pushforward_open(oracles.shift(constant_complex(QQ, Kp, filt_p.U[1]), 1),
                                 Kp.full_set())
    members.append(("pinched untruncated pushforward", sp, raw_p))
    members.append(("pinched undertruncated pushforward", sp, sec.truncate_le(raw_p, 0)))
    Lp2 = constant_complex(QQ, Kp, filt_p.U[1], 2)
    members.append(("pinched ic rank 2", sp, build_ic(sp, Lp2).ic))

    Kf, sf = space("fake-surface")
    members.append(("fake-surface ic", sf, build_ic(sf).ic))
    members.append(("fake-surface naive product", sf, build_ic(sf, naive=True).ic))
    _, wedge_doc = demos.demo_space("wedge")
    sw_on_f = validate_stratification(Kf, wedge_doc["levels"])
    members.append(("minimal-stratification ic vs refined strata", sf,
                    build_ic(sw_on_f).ic))

    Ks, ss = space("susp-s1xs2")
    filt_s = compute_open_filtration(ss)
    bs = build_ic(ss)
    members.append(("suspension ic", ss, bs.ic))
    members.append(("suspension constant [2]", ss,
                    oracles.shift(constant_complex(QQ, Ks, Ks.full_set()), 2)))
    raw_s = sec.pushforward_open(oracles.shift(constant_complex(QQ, Ks, filt_s.U[1]), 2),
                                 Ks.full_set())
    members.append(("suspension untruncated pushforward", ss, raw_s))

    Kn, sn = space("nonpure-wedge")
    members.append(("nonpure ic", sn, build_ic(sn).ic))
    members.append(("nonpure naive product", sn, build_ic(sn, naive=True).ic))
    return members


def _extract_system(S, filt):
    K = S.complex
    dims, mats = {}, {}
    for m, um in filt.U_m.items():
        H = sec.cohomology_sheaf(S, -m)
        for sid in um:
            dims[sid] = H.dim(sid, -m)
        for (a, b) in K.cover_pairs(H.domain):
            if a in um and b in um:
                mats[(a, b)] = H.restriction_cover(a, b, -m)
    return make_local_system(QQ, K, filt.U[1], dims, mats)


def test_criterion_8_axiom_equivalence_suite():
    with criterion(8, "stratification-dependent and -independent verdicts agree "
                      "over a 22-member corpus; passing members match a rebuild", 1200):
        members = _equivalence_corpus()
        assert len(members) >= 20
        passes = 0
        for label, strat, S in members:
            clc_ok, _ = sec.is_clc(S, strat)
            assert clc_ok, label
            r1 = ax.check_ax1(S, strat)
            r2 = ax.check_ax2(S, strat)
            assert r1.passed == r2.passed, (label, r1.to_json(), r2.to_json())
            if r1.passed:
                passes += 1
                filt = compute_open_filtration(strat)
                L = _extract_system(S, filt)
                tower = build_tower(strat, L)
                # L is rank 0 wherever S's cohomology sheaf vanishes; such a
                # piece stores no 0 × 0 map, so no stage keeps a restriction
                # with no value at either end
                empty = sum(1 for I in tower.intermediates for s, t in I.restrictions
                            if s not in I.dims and t not in I.dims)
                assert empty == 0, label
                _verify_bundle(tower)
                assert S.stalk_table() == tower.ic.stalk_table(), label
        assert passes >= 6


def test_criterion_9_filtration_lemma_suite():
    with criterion(9, "the five open-filtration identities hold on 205 "
                      "bundled and randomized stratifications", 300):
        cases = 0
        for name in demos.DEMO_NAMES:
            K, strat = space(name)
            filt = compute_open_filtration(strat)
            assert verify_filtration_identities(filt) == []
            cases += 1
        rng = random.Random(9)
        per_space = 40
        for name in demos.DEMO_NAMES:
            K, strat = space(name)
            for _ in range(per_space):
                refined = demos.random_refinement(strat, rng)
                filt = compute_open_filtration(refined)
                assert verify_filtration_identities(filt) == []
                cases += 1
        assert cases >= 200


def test_criterion_10_engine_properties():
    with criterion(10, "truncation contract, pushforward unit, adjunction ranks, "
                       "manifold costalk concentration, cleanup neutrality", 600):
        spaces = {name: space(name) for name in demos.DEMO_NAMES}
        builds = {name: build_tower(strat) for name, (K, strat) in spaces.items()}

        # truncation contract at every simplex and cutoff
        for name in ("wedge", "pinched-torus", "fake-surface"):
            S = builds[name].ic
            lo, hi = S.degree_range()
            for a in range(lo - 1, hi + 1):
                T = sec.truncate_le(S, a)
                for sid in sorted(S.domain):
                    full = S.stalk_cohomology(sid)
                    assert T.stalk_cohomology(sid) == \
                        {q: d for q, d in full.items() if q <= a}

        # pushforward unit on every bundled space
        for name, b in builds.items():
            prev = b.intermediates[-2]
            T = sec.pushforward_open(prev, b.ic.domain)
            for sid in sorted(prev.domain):
                assert T.stalk_cohomology(sid) == prev.stalk_cohomology(sid)

        # adjunction triangle rank identity across the non-open strata
        for name, b in builds.items():
            filt = b.filtration
            for k in range(1, filt.n + 1):
                V = filt.U[k + 1]
                Z = V - filt.U[k]
                SV = b.ic.restrict_open(V)
                for sid in sorted(Z):
                    supported = oracles.supported_section_dims(SV, sid, Z)
                    stalk = SV.stalk_cohomology(sid)
                    star = [i for i in SV.complex.up_set(sid) if i in V]
                    openpart = oracles.rgamma_dims(SV, [i for i in star if i not in Z])
                    total = sum((-1) ** q * (supported.get(q, 0) - stalk.get(q, 0)
                                             + openpart.get(q, 0))
                                for q in set(supported) | set(stalk) | set(openpart))
                    assert total == 0, (name, k, sid)

        # constant-sheaf costalks on closed manifolds concentrate in top degree
        manifolds = [
            SimplicialComplex(range(4), [list(c) for c in combinations(range(4), 3)]),
            SimplicialComplex(range(12), demos.icosahedron_faces()),
            SimplicialComplex(range(6), [list(c) for c in combinations(range(6), 5)]),
        ]
        for K in manifolds:
            S = constant_complex(QQ, K, K.full_set())
            for costalk in sec.cell_costalk(S, K.full_set()).values():
                assert costalk == {K.dim: 1}

        # the cleaned pushforwards of the construction have the stalks of
        # the definition: RΓ over the deleted star at every new simplex
        for name, (K, strat) in spaces.items():
            filt = compute_open_filtration(strat)
            systems = split_local_system(constant_complex(QQ, K, filt.U[1]), filt,
                                         filt.U[1])
            I1 = _attach_systems(QQ, K, systems, filt.U[1], upto=strat.n)
            target = filt.U[2] if len(filt.U[2]) > len(filt.U[1]) \
                else filt.U[strat.n + 1]
            T = sec.pushforward_open(I1, target)
            assert oracles.pushforward_mismatch(I1, T) is None, name
