import pytest

from icsheaf import axioms as ax
from icsheaf import demos
from icsheaf import sections as sec
from icsheaf.deligne import build_ic, split_local_system
from icsheaf.fields import QQ
from icsheaf.sheaves import constant_complex
from icsheaf.stratify import compute_open_filtration, validate_stratification

import oracles


def full_costalks(S):
    return {sid: oracles.star_costalk(S, sid) for sid in sorted(S.domain)}


def test_ax1_passes_on_constant_over_manifold():
    from icsheaf.simplicial import SimplicialComplex
    from itertools import combinations
    K = SimplicialComplex(range(6), [list(c) for c in combinations(range(6), 5)])
    strat = validate_stratification(
        K, {"2": [list(c) for c in combinations(range(6), 5)], "1": [], "0": []})
    S = oracles.shift(constant_complex(QQ, K, K.full_set()), 2)
    assert ax.check_ax1(S, strat).passed
    assert ax.check_ax2(S, strat).passed


def test_ax1_passes_on_all_bundled_ics(built, spaces):
    for name, b in built.items():
        K, strat = spaces[name]
        report = ax.check_ax1(b.ic, strat)
        assert report.passed, (name, report.to_json())


def test_ax1_fails_on_untruncated_pushforward(spaces):
    K, strat = spaces["pinched-torus"]
    filt = compute_open_filtration(strat)
    S = oracles.shift(constant_complex(QQ, K, filt.U[1]), 1)
    T = sec.pushforward_open(S, K.full_set())
    report = ax.check_ax1(T, strat)
    assert not report.passed
    clause_b = next(c for c in report.clauses if c.clause == "b")
    assert not clause_b.passed
    w = clause_b.witnesses[0]
    assert w.degree == 0 and K.id_of([0]) in w.simplex_ids


def test_ax2_wedge_values(wedge_ic, wedge):
    K, strat = wedge
    assert ax.check_ax2(wedge_ic.ic, strat).passed
    classic = ax.check_classic_ax2(wedge_ic.ic)
    assert not classic.passed
    by_clause = {c.clause: c for c in classic.clauses}
    assert by_clause["a"].passed and by_clause["b"].passed
    assert not by_clause["c"].passed and not by_clause["d"].passed
    wc = by_clause["c"].witnesses[0]
    assert wc.degree == -1 and wc.observed_dim == 1 and wc.bound == 1
    wd = by_clause["d"].witnesses[0]
    assert wd.degree == 1 and wd.observed_dim == 1 and wd.bound == 1
    # loci are exactly the sphere component
    s2 = {i for i, s in enumerate(K.simplices) if set(s) <= {0, 6, 7, 8}}
    assert set(wc.simplex_ids) == s2
    assert set(wd.simplex_ids) == s2


def test_classic_ax2_passes_on_pure_pinched_torus(built, spaces):
    K, strat = spaces["pinched-torus"]
    assert ax.check_classic_ax2(built["pinched-torus"].ic).passed


def test_classic_ax2_lower_bound_clause(spaces):
    K, strat = spaces["pinched-torus"]
    S = oracles.shift(constant_complex(QQ, K, K.full_set()), 3)  # degree -3 < -n
    report = ax.check_classic_ax2(S)
    assert not next(c for c in report.clauses if c.clause == "b").passed


def test_ax2_naive_failure_witness(spaces):
    K, strat = spaces["fake-surface"]
    bn = build_ic(strat, naive=True)
    report = ax.check_ax2(bn.ic, strat)
    assert not report.passed
    clause_b = next(c for c in report.clauses if c.clause == "b")
    assert not clause_b.passed
    w = clause_b.witnesses[0]
    assert w.degree == -1 and w.m == 2
    assert w.observed_dim == 1 and w.bound == 1
    fake = oracles.fake_surface_stratum_ids(K)
    assert fake <= set(w.simplex_ids)
    assert set(w.simplex_ids) - fake <= {K.id_of([0])}
    # the canonical build passes
    assert ax.check_ax2(build_ic(strat).ic, strat).passed


def test_constant_on_wedge_fails_cosupport(wedge):
    K, strat = wedge
    S = oracles.shift(constant_complex(QQ, K, K.full_set()), 2)
    report = ax.check_ax2(S, strat)
    assert not report.passed
    clause_c = next(c for c in report.clauses if c.clause == "c")
    assert not clause_c.passed


def test_support_locus(wedge_ic, wedge):
    K, strat = wedge
    S = wedge_ic.ic
    ids, cdim = ax.support_locus(K, S.domain, -1, S.stalk_cohomology)
    s2 = {i for i, s in enumerate(K.simplices) if set(s) <= {0, 6, 7, 8}}
    assert set(ids) == s2 and cdim == 1
    # below the degree range the locus is empty
    ids2, cdim2 = ax.support_locus(K, S.domain, -5, S.stalk_cohomology)
    assert ids2 == [] and cdim2 is None
    # naive complex: degree -1 stalk locus contains the fake stratum
    Kf, docf = demos.demo_space("fake-surface")
    sf = validate_stratification(Kf, docf["levels"])
    bn = build_ic(sf, naive=True)
    ids3, cdim3 = ax.support_locus(Kf, bn.filtration.X_m[2], -1,
                                   bn.ic.stalk_cohomology)
    assert oracles.fake_surface_stratum_ids(Kf) <= set(ids3) and cdim3 == 1


def test_ax2_rejects_non_clc(wedge):
    K, strat = wedge
    v = frozenset({K.id_of([1])})
    sky = oracles.extend_by_zero(constant_complex(QQ, K, v), K.full_set())
    with pytest.raises(ax.AxiomInputError):
        ax.check_ax2(sky, strat)


def test_witness_minimality(wedge_ic, wedge, spaces):
    # every reported violation re-checks from scratch against raw tables
    K, strat = wedge
    ct = full_costalks(wedge_ic.ic)
    classic = ax.check_classic_ax2(wedge_ic.ic)
    for w in [w for c in classic.clauses for w in c.witnesses]:
        tables = ct if w.kind == "costalk" else \
            {sid: wedge_ic.ic.stalk_cohomology(sid) for sid in sorted(K.full_set())}
        assert all(tables[sid].get(w.degree, 0) for sid in w.simplex_ids)
        observed = max(K.sdim(i) for i in w.simplex_ids) // 2
        assert observed == w.observed_dim and observed >= w.bound
    Kf, sf = spaces["fake-surface"]
    bn = build_ic(sf, naive=True)
    rep = ax.check_ax2(bn.ic, sf)
    for w in [w for c in rep.clauses for w in c.witnesses]:
        assert all(bn.ic.stalk_cohomology(sid).get(w.degree, 0)
                   for sid in w.simplex_ids)
        assert max(Kf.sdim(i) for i in w.simplex_ids) // 2 >= w.bound


def test_reports_serialize(wedge_ic, wedge):
    K, strat = wedge
    doc = ax.check_classic_ax2(wedge_ic.ic).to_json()
    assert doc["axiom"] == "classic-ax2" and doc["passed"] is False
    assert any(cl["witnesses"] for cl in doc["clauses"])
    assert doc["trust_notes"]


def test_rank2_system_passes_and_matches_rebuild(wedge):
    # uniqueness: a passing complex has the table of the rebuilt complex
    K, strat = wedge
    filt = compute_open_filtration(strat)
    L2 = constant_complex(QQ, K, filt.U[1], 2)
    b2 = build_ic(strat, L2)
    assert ax.check_ax1(b2.ic, strat).passed
    rebuilt = build_ic(strat, L2)
    assert b2.ic.stalk_table() == rebuilt.ic.stalk_table()
    v0 = K.id_of([0])
    assert b2.ic.stalk_cohomology(v0) == {-2: 2, -1: 2}
