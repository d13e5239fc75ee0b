import random

import pytest

from icsheaf import demos
from icsheaf.deligne import build_ic, default_costalk_sample
from icsheaf.fields import QQ, field_by_name
from icsheaf import sections as sec
from icsheaf.reduction import SparseComplex
from icsheaf.sheaves import SheafComplex, SheafError, constant_complex
from icsheaf.simplicial import SimplicialComplex
from icsheaf.stratify import compute_open_filtration

import oracles


def punctured_disk():
    K = SimplicialComplex(range(4), [[0, 1, 2], [0, 2, 3], [0, 1, 3]])
    U = K.full_set() - {K.id_of([0])}
    return K, U


def test_pushforward_unit_u_equals_v():
    K, U = punctured_disk()
    S = constant_complex(QQ, K, U)
    assert sec.pushforward_open(S, U) is S


def test_pushforward_disk_apex_is_circle():
    # oracle: the deleted neighborhood of the apex retracts to the rim circle
    K, U = punctured_disk()
    S = constant_complex(QQ, K, U)
    T = sec.pushforward_open(S, K.full_set())
    T.validate()
    rim = [[1, 2], [2, 3], [1, 3]]
    assert T.stalk_cohomology(K.id_of([0])) == oracles.cochain_cohomology_dims(rim)
    for sid in sorted(U):
        assert T.stalk_cohomology(sid) == S.stalk_cohomology(sid)


def test_pushforward_pinched_torus_stalk():
    # links of the pinch point are two circles; coefficients shifted by one
    K, doc = demos.demo_space("pinched-torus")
    from icsheaf.stratify import validate_stratification
    strat = validate_stratification(K, doc["levels"])
    filt = compute_open_filtration(strat)
    S = oracles.shift(constant_complex(QQ, K, filt.U[1], rank=1), 1)
    T = sec.pushforward_open(S, K.full_set())
    v = K.id_of([0])
    two_circles = oracles.cochain_cohomology_dims(
        [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5],
         [6, 7], [7, 8], [8, 9], [9, 10], [6, 10]])
    expect = {q - 1: d for q, d in two_circles.items()}
    assert T.stalk_cohomology(v) == expect == {-1: 2, 0: 2}
    trunc = sec.truncate_le(T, -1)
    assert trunc.stalk_cohomology(v) == {-1: 2}


def test_pushforward_rejects_bad_inputs():
    K, U = punctured_disk()
    S = constant_complex(QQ, K, U)
    rim = K.full_set() - frozenset(K.up_set(K.id_of([0])))
    with pytest.raises(SheafError):
        sec.pushforward_open(constant_complex(QQ, K, rim), K.full_set())


def test_truncation_contract(built):
    # dims agree up to the cutoff and vanish above, for every simplex
    for name in ("wedge", "pinched-torus"):
        S = built[name].ic
        lo, hi = S.degree_range()
        for a in range(lo - 1, hi + 1):
            T = sec.truncate_le(S, a)
            for sid in sorted(S.domain):
                full = S.stalk_cohomology(sid)
                cut = T.stalk_cohomology(sid)
                assert cut == {q: d for q, d in full.items() if q <= a}, (name, a, sid)


def test_truncation_shares_every_map_below_the_cutoff(towers):
    # a dims, differential or restriction map wholly below the cutoff is
    # the complex's own map, at every cutoff of every tower step
    shared = 0
    for name, bundle in towers.items():
        for entry, stage in zip(bundle.log, bundle.intermediates):
            S = sec.pushforward_open(
                stage, bundle.filtration.U[entry["collapsed_through"] + 1])
            lo, hi = S.degree_range()
            for a in range(lo, hi):
                T = sec.truncate_le(S, a)
                for sid, qs in S.dims.items():
                    if max(qs) < a:
                        assert T.dims[sid] is qs, (name, a, sid)
                        if sid in S.diffs:
                            assert T.diffs[sid] is S.diffs[sid], (name, a, sid)
                            shared += 1
                for p, ms in S.restrictions.items():
                    if ms and max(ms) < a:
                        assert T.restrictions[p] is ms, (name, a, p)
                        shared += 1
    assert shared


def test_truncation_identity_when_bounded():
    K, U = punctured_disk()
    S = constant_complex(QQ, K, U)
    assert sec.truncate_le(S, 0) is S


def test_hyperco_constant_on_cone_and_sphere():
    K = SimplicialComplex(range(4), [[0, 1, 2], [0, 2, 3], [0, 1, 3]])
    S = constant_complex(QQ, K, K.full_set(), rank=3)
    assert sec.hypercohomology(S) == {0: 3}
    K2 = SimplicialComplex(range(4), [list(s) for s in
                                      [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]])
    S2 = constant_complex(QQ, K2, K2.full_set())
    expect = oracles.cochain_cohomology_dims([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert sec.hypercohomology(S2) == expect == {0: 1, 2: 1}


def test_bar_and_cellular_models_agree(spaces, built):
    # on clopen subsets the one-summand-per-cell model equals the nerve model
    for name in ("wedge", "pinched-torus", "fake-surface"):
        S = built[name].ic
        assert oracles.rgamma_dims(S, S.domain) == sec.hypercohomology(S)
    # a disjoint union, restricted to one clopen component
    K = SimplicialComplex(range(7), [[0, 1, 2], [3, 4, 5, 6]])
    S = constant_complex(QQ, K, K.full_set())
    comp = K.components(K.full_set())[0]
    assert K.is_up_closed(comp) and K.is_down_closed(comp)
    assert oracles.rgamma_dims(S, comp) == \
        sec.hypercohomology(S.restrict_open(comp)) == {0: 1}


def test_hypercohomology_needs_a_clopen_domain(wedge):
    # a build inside the open star of the glue vertex lives on an open set
    # that is not closed: hypercohomology keeps only the cellular model and
    # refuses it, while the nerve model's RΓ over the star is the stalk there
    K, strat = wedge
    S = build_ic(strat, within=frozenset(K.up_set(K.id_of([0])))).ic
    with pytest.raises(SheafError, match="clopen"):
        sec.hypercohomology(S)
    assert oracles.rgamma_dims(S, S.domain) == S.stalk_cohomology(K.id_of([0])) \
        == {-2: 1, -1: 1}


def test_costalk_concentration_on_manifolds():
    # constant sheaf on a closed manifold: costalk is rank 1 in degree dim
    manifolds = [
        SimplicialComplex(range(4), [list(s) for s in
                                     [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]),
        SimplicialComplex(range(12), demos.icosahedron_faces()),
    ]
    for K in manifolds:
        S = constant_complex(QQ, K, K.full_set())
        n = K.dim
        for sid, costalk in sec.cell_costalk(S, K.full_set()).items():
            assert costalk == {n: 1}, (n, K.simplices[sid])


def test_costalk_outside_domain():
    K, U = punctured_disk()
    S = constant_complex(QQ, K, U)
    with pytest.raises(SheafError):
        sec.cell_costalk(S, [K.id_of([0])])


def test_costalk_reads_the_restricted_domain(wedge_ic, wedge):
    # restricted to the closed 2-sphere at the glue vertex, the open star of
    # the vertex shrinks and so does its costalk; the full complex keeps its own
    K, _ = wedge
    S, v0 = wedge_ic.ic, K.id_of([0])
    full = sec.cell_costalk(S, [v0])[v0]
    sphere = frozenset({i for i, s in enumerate(K.simplices) if set(s) <= {0, 6, 7, 8}})
    assert full == {1: 1, 2: 1}
    assert sec.cell_costalk(oracles.restrict_closed(S, sphere), [v0])[v0] == {-2: 1, 1: 1}
    assert sec.cell_costalk(S, [v0])[v0] == full


def nerve_costalk(S, sid):
    """Order-chain oracle for the costalk at sid.

    The kernel of sections over the star onto sections over the deleted
    star: the chains of the star that start at sid, shifted down by the
    real dimension of sid.
    """
    chains = [c for c in oracles.star_chains(S, sid) if c[0] == sid]
    G, _ = oracles.nerve_complex_reference(S, chains)
    d = S.complex.sdim(sid)
    return {q + d: v for q, v in G.minimize_dims().items()}


SURFACE_DEMOS = ("wedge", "pinched-torus", "fake-surface")


@pytest.mark.parametrize("field", ["q", "fp:3"])
@pytest.mark.parametrize("naive", [False, True])
def test_cellular_costalk_matches_nerve_oracle(spaces, built, naive, field):
    # every simplex of the 2-dimensional demos; on the 4-dimensional ones the
    # default sample plus every simplex off the open strata
    F = field_by_name(field)
    for name, (K, strat) in spaces.items():
        if not naive and F is QQ:
            b = built[name]
        else:
            b = build_ic(strat, field=F, naive=naive)
        if name in SURFACE_DEMOS:
            sample = sorted(K.full_set())
        else:
            singular = K.full_set() - b.filtration.U[1]
            sample = sorted(set(default_costalk_sample(strat)) | singular)
        for sid in sample:
            assert sec.cell_costalk(b.ic, [sid])[sid] == nerve_costalk(b.ic, sid), \
                (name, naive, field, K.simplices[sid])


def test_cellular_costalk_matches_nerve_oracle_on_open_part(towers):
    # the first complex of the recursion lives on the proper up-set U_1
    for name in SURFACE_DEMOS:
        S = towers[name].intermediates[0]
        assert S.domain != S.complex.full_set()
        for sid in sorted(S.domain):
            assert sec.cell_costalk(S, [sid])[sid] == nerve_costalk(S, sid), \
                (name, S.complex.simplices[sid])


@pytest.mark.parametrize("field", ("q", "fp:2", "fp:32003"))
def test_cell_costalk_matches_star_oracle(spaces, tower_of, field):
    # one same-support reduction over the union of the stars asked for keeps
    # every costalk: compared with each open star's own reduction on the
    # whole domain of every stage of every tower (the open sets U_k), at
    # each single simplex and, on the IC, over proper up-sets: the AX1
    # zone, the default sample and a seeded random subset; and on one build
    # scoped to an open star
    rng = random.Random(30)
    cases = []
    for name in demos.DEMO_NAMES:
        K, strat = spaces[name]
        for naive in (False, True):
            stages = tower_of(name, field, naive).intermediates
            for k, S in enumerate(stages):
                label = "%s%s stage %d" % (name, " --naive" if naive else "", k)
                ids = sorted(S.domain)
                sets = [("domain", ids)] + [("simplex", [sid]) for sid in ids]
                if k == len(stages) - 1:
                    filt = compute_open_filtration(strat)
                    zone = set().union(*(filt.U[m + 1] - filt.U[m]
                                         for m in range(1, filt.n + 1)))
                    sets += [("AX1 zone", zone), ("sample", default_costalk_sample(strat)),
                             ("random", rng.sample(ids, len(ids) // 4))]
                cases.append((label, S, sets))
    K, strat = spaces["nonpure-wedge"]
    star = frozenset(K.up_set(default_costalk_sample(strat)[0]))
    S = build_ic(strat, field=field_by_name(field), within=star).ic
    cases.append(("nonpure-wedge within a star", S, [("domain", S.domain)]))
    for label, S, sets in cases:
        want = {sid: oracles.star_costalk(S, sid) for sid in sorted(S.domain)}
        for what, sids in sets:
            got = sec.cell_costalk(S, sids)
            assert sorted(got) == sorted(set(sids)), (label, what)
            for sid, row in got.items():
                assert row == want[sid], (label, what, S.complex.simplices[sid], row, want[sid])


def test_adjunction_triangle_rank_identity(built):
    # alternating dims of (supported sections, stalk, deleted-star sections)
    # cancel at every closed-part simplex, per the open/closed triangle
    for name in ("wedge", "pinched-torus", "fake-surface"):
        b = built[name]
        S = b.ic
        filt = b.filtration
        n = filt.n
        for k in range(1, n + 1):
            V = filt.U[k + 1]
            Z = V - filt.U[k]
            if not len(Z):
                continue
            SV = S.restrict_open(V)
            for sid in sorted(Z):
                supported = oracles.supported_section_dims(SV, sid, Z)
                stalk = SV.stalk_cohomology(sid)
                star = [i for i in SV.complex.up_set(sid) if i in V]
                open_part = oracles.rgamma_dims(SV, [i for i in star if i not in Z])
                total = 0
                for q in set(supported) | set(stalk) | set(open_part):
                    total += (-1) ** q * (supported.get(q, 0) - stalk.get(q, 0)
                                          + open_part.get(q, 0))
                assert total == 0, (name, k, sid)


def test_stratum_costalk_shift_identity(built):
    # point costalks match closed-part supported sections shifted by the
    # real dimension of the stratum manifold direction
    for name in ("wedge", "fake-surface", "pinched-torus"):
        b = built[name]
        S = b.ic
        filt = b.filtration
        n = filt.n
        for k in range(1, n + 1):
            V = filt.U[k + 1]
            Z = V - filt.U[k]
            SV = S.restrict_open(V)
            for sid in sorted(Z):
                supported = oracles.supported_section_dims(SV, sid, Z)
                costalk = sec.cell_costalk(S, [sid])[sid]
                shift = 2 * (n - k)
                assert costalk == {q + shift: d for q, d in supported.items()}, \
                    (name, k, sid)


def test_cleanup_rank_neutrality_pushforwards(tower_of):
    # every pushforward step of every canonical and naive tower over GF(32003),
    # the collapsed naive steps included, has the stalks of the definition
    # (RΓ over the deleted star at every new simplex, the coefficients' at
    # every old one), d² = 0, restrictions (family restrictions included)
    # that commute with d, path-independent composites, and the costalks of
    # the definition: the coefficients' at every old simplex (j^! = j^*) and
    # none at a new one (i^! Rj_* = 0), which a missing family restriction
    # breaks while every stalk stays right
    for name in demos.DEMO_NAMES:
        for naive in (False, True):
            inter = tower_of(name, "fp:32003", naive).intermediates
            for i in range(len(inter) - 1):
                S = inter[i]
                T = sec.pushforward_open(S, inter[i + 1].domain)
                assert oracles.pushforward_mismatch(S, T) is None, (name, naive, i)
                T.validate()
                old = sec.cell_costalk(S, S.domain)
                for sid, row in sec.cell_costalk(T, T.domain).items():
                    assert row == old.get(sid, {}), (name, naive, i, S.complex.simplices[sid])


def _same_complex(G, R):
    """Are G and R the same complex id for id, with G's keys its id objects?"""
    ids = G.ids
    return (G.ids == R.ids and G.degree == R.degree and G.support == R.support
            and G.dout == R.dout
            and all(g is ids[g] for g in G.degree)
            and all(h is ids[h] for row in G.dout for h in row)
            and all(g is ids[g] for g in G.ucols))


@pytest.mark.parametrize("field", ("q", "fp:32003", "fp:2"))
def test_nerve_complex_and_step_match_the_reference(tower_of, monkeypatch, field):
    # on every pushforward step of every canonical and naive tower, the nerve
    # complex equals the reference assembly id for id before its cleanup,
    # its unit columns are r(t→ρ) e_j at the reference's heads, and the
    # materialized step equals the one the reference family columns give
    real, seen = sec._nerve_complex, []

    def nerve(S, chains, units=()):
        G = real(S, chains, units)
        R, heads = oracles.nerve_complex_reference(S, chains)
        assert _same_complex(G, R)
        members = {c[0] for c in chains}
        assert G.ucols == oracles.unit_columns_reference(S, heads, members, units)
        seen.append(sum(map(len, G.ucols.values())))
        return G

    monkeypatch.setattr(sec, "_nerve_complex", nerve)
    for name in demos.DEMO_NAMES:
        for naive in (False, True):
            inter = tower_of(name, field, naive).intermediates
            for i in range(len(inter) - 1):
                S, V = inter[i], inter[i + 1].domain
                T, R = sec.pushforward_open(S, V), oracles.pushforward_reference(S, V)
                assert (T.dims, T.diffs, T.restrictions) == \
                    (R.dims, R.diffs, R.restrictions), (name, naive, i)
    assert len(seen) > 10 and any(seen)


@pytest.mark.parametrize("field", ("q", "fp:32003", "fp:2"))
def test_cellular_complex_matches_the_reference(tower_of, field):
    # on every stage of every canonical and naive tower, the cellular
    # complex over the whole domain, and over the up-sets that
    # `cell_costalk` assembles (those of a few simplices, one by one and
    # together), equals the reference assembly id for id
    stages = 0
    for name in demos.DEMO_NAMES:
        for naive in (False, True):
            for i, S in enumerate(tower_of(name, field, naive).intermediates):
                K, dom = S.complex, sorted(S.domain)
                few = [dom[0], dom[len(dom) // 2], dom[-1]]
                for members in [S.domain, K.walk(few, K.cofacets)] + \
                        [K.walk([sid], K.cofacets) for sid in few]:
                    G = sec._cellular_complex(S, members)
                    R = oracles.cellular_complex_reference(S, members)
                    assert _same_complex(G, R) and not G.ucols, (name, naive, i)
                stages += 1
    assert stages == 26


@pytest.mark.parametrize("field", ("q", "fp:32003"))
def test_family_fill_matches_the_reference(build_of, monkeypatch, field):
    # no build's cleanup meets a family column, so push each demo's IC back
    # from the complement of a vertex: there the eliminations carry the unit
    # columns (`SparseComplex.add_ucol`), and the step is the definition and
    # the one the reference family columns give
    calls = {}
    real = SparseComplex.add_ucol

    def add_ucol(G, h, ext, val):
        calls[key] = calls.get(key, 0) + 1
        return real(G, h, ext, val)

    monkeypatch.setattr(SparseComplex, "add_ucol", add_ucol)
    for name in demos.DEMO_NAMES:
        S = build_of(name, field).ic
        K = S.complex
        for v in (0, 1):
            key = (name, v)
            U = S.domain - {K.id_of([v])}
            T = sec.pushforward_open(S.restrict_open(U), S.domain)
            assert oracles.pushforward_mismatch(S.restrict_open(U), T) is None, key
            R = oracles.pushforward_reference(S.restrict_open(U), S.domain)
            assert (T.dims, T.diffs, T.restrictions) == \
                (R.dims, R.diffs, R.restrictions), key
    assert calls[("susp-s1xs2", 0)] and calls[("wedge", 1)]
    assert len(calls) >= 8


def test_cleanup_rank_neutrality_full_builds(towers):
    # every pushforward of the canonical tower has the stalks of the definition
    for name in ("wedge", "pinched-torus", "fake-surface"):
        inter = towers[name].intermediates
        for i in range(len(inter) - 1):
            T = sec.pushforward_open(inter[i], inter[i + 1].domain)
            assert oracles.pushforward_mismatch(inter[i], T) is None, (name, i)


def test_exactness_bookkeeping(towers):
    # rank + nullity = column count for every stored differential of the towers
    from icsheaf import matrices as mx
    checked = 0
    for name, bundle in towers.items():
        for stage in bundle.intermediates:
            for sid, ms in stage.diffs.items():
                for q, d in ms.items():
                    cols = stage.dim(sid, q)
                    assert mx.rank(QQ, d) + len(mx.kernel(QQ, d, cols)[1]) == cols, \
                        (name, sid, q)
                    checked += 1
    assert checked


def test_truncation_names_a_block_outside_the_kernel():
    # an edge with value F^2 -> F in degrees 0, 1 everywhere and d^0 = (1 0),
    # so ker d^0 is the second axis; the degree-0 restriction [0] -> [0, 1]
    # swaps the axes and is no chain map
    K = SimplicialComplex(range(2), [[0, 1]])
    one, zero = QQ.one, QQ.zero
    ids = sorted(K.full_set())
    dims = {sid: {0: 2, 1: 1} for sid in ids}
    diffs = {sid: {0: [[one, zero]]} for sid in ids}
    restr = {(s, t): {0: [[one, zero], [zero, one]], 1: [[one]]}
             for s, t in K.cover_pairs(K.full_set())}
    swap = (K.id_of([0]), K.id_of([0, 1]))
    restr[swap][0] = [[zero, one], [one, zero]]
    S = SheafComplex(QQ, K, K.full_set(), dims, diffs, restr)
    with pytest.raises(sec.EngineError,
                       match=r"restriction at \[0\] -> \[0, 1\] in degree 0 "):
        sec.truncate_le(S, 0)


def test_cohomology_sheaf_restrictions(built):
    # the degree -1 cohomology sheaf of the wedge complex is the sphere-part
    # constant sheaf: rank 1 there with invertible restrictions
    b = built["wedge"]
    H = sec.cohomology_sheaf(b.ic, -1)
    K = b.ic.complex
    s2 = {i for i, s in enumerate(K.simplices) if set(s) <= {0, 6, 7, 8}}
    assert {s for s in K.full_set() if H.dim(s, -1)} == s2
    assert all(H.restriction_cover(s, t, -1) == [[QQ.one]] or
               abs(H.restriction_cover(s, t, -1)[0][0]) == 1
               for (s, t) in K.cover_pairs(H.domain) if s in s2 and t in s2)


@pytest.mark.parametrize("naive", (False, True), ids=("canonical", "naive"))
@pytest.mark.parametrize("field", ("q", "fp:32003"))
def test_cohomology_sheaf_matches_reference(build_of, field, naive):
    # the flat path, the memo and the kernel coordinates against the dense
    # solver: one CochainCohomology per simplex.  A missing block is zero,
    # and the sheaf stores none where one end has no H^a, so zero-sized
    # blocks are dropped from both sides
    def sized(H, a):
        return {p: ms for p, ms in H.restrictions.items() if ms[a] and ms[a][0]}

    flat = 0
    for name in demos.DEMO_NAMES:
        S = build_of(name, field, naive).ic
        lo, hi = S.degree_range()
        for a in range(lo - 1, hi + 2):
            H, ref = sec.cohomology_sheaf(S, a), oracles.cohomology_sheaf_reference(S, a)
            assert H.dims == ref.dims, (name, a)
            assert sized(H, a) == sized(ref, a), (name, a)
            assert all(H.dim(s, a) and H.dim(t, a) for s, t in H.restrictions), (name, a)
            flat += sum(H.restrictions[p][a] is S.restrictions.get(p, {}).get(a)
                        for p in H.restrictions)
    assert flat  # the flat path was taken


def test_is_clc_matches_reference(spaces, built):
    # verdict and witness against a brute-force walk over the dense
    # cohomology sheaves, on whole-space builds against their own and a
    # refined stratification, on a build inside an open star, and on vertex
    # skyscrapers, which fail unless the vertex is a stratum by itself
    failed = 0
    for name in demos.DEMO_NAMES:
        K, strat = spaces[name]
        S = built[name].ic
        for other in (strat, demos.refine_stratification(strat, "extra-point")):
            assert sec.is_clc(S, other) == oracles.is_clc_reference(S, other), name
        star = build_ic(strat, field=QQ, within=frozenset(K.up_set(K.id_of([0])))).ic
        assert sec.is_clc(star, strat) == oracles.is_clc_reference(star, strat), name
        for v in sorted(s for s in K.full_set() if K.sdim(s) == 0)[:4]:
            sky = constant_complex(QQ, K, frozenset([v]))
            sky = oracles.extend_by_zero(sky, K.full_set())
            got = sec.is_clc(sky, strat)
            assert got == oracles.is_clc_reference(sky, strat), (name, v)
            alone = any(st.simplex_set == {v} for st in strat.strata)
            assert got[0] == alone, (name, v)
            failed += not got[0]
    assert failed


def test_cohomology_sheaf_is_memoized(built):
    S = built["wedge"].ic
    H = sec.cohomology_sheaf(S, -1)
    assert sec.cohomology_sheaf(S, -1) is H
    T = S.restrict_open(S.domain)
    assert sec.cohomology_sheaf(T, -1) is not H


def test_restricted_copies_keep_stalk_values(built):
    b = built["wedge"]
    S, U1 = b.ic, b.filtration.U[1]
    back = S.restrict_open(U1)
    for sid in sorted(U1):
        assert back.stalk_cohomology(sid) == S.stalk_cohomology(sid)
    # outside its domain a restricted copy has no value, whatever the parent has
    v0 = S.complex.id_of([0])
    assert S.stalk_cohomology(v0) == {-2: 1, -1: 1}
    assert back.stalk_cohomology(v0) == {}
    assert S.stalk_cohomology(v0) == {-2: 1, -1: 1}


def test_pushforward_unit_property(towers):
    # stalks over the old open set are unchanged by any pushforward
    for name in ("wedge", "susp-s1xs2"):
        b = towers[name]
        S = b.intermediates[-2] if len(b.intermediates) > 1 else b.ic
        U = S.domain
        T = sec.pushforward_open(S, b.ic.domain)
        for sid in sorted(U):
            assert T.stalk_cohomology(sid) == S.stalk_cohomology(sid)
