"""The direct-sum intersection complex via the generalized open-filtration recursion.

Starting from a local system split over the open strata unions U^m and
shifted by complex dimension, the complex is pushed forward step by step
along the induced open filtration, truncated at the middle-perversity
cutoff k−1−n, with the lower-dimensional local systems re-attached as
closed extensions by zero at each stage.  This one pass builds the sum of
the classical pure-dimensional complexes of the closures X^m, each extended
by zero; the tests check that decomposition against the pure recursion run
on each closure.

Each stage is a disjoint union, not a block sum: the truncated pushforward
has no value on the pieces U^m where L^m[m] is re-attached.  U^m is
up-closed, so a value of a stage at σ ∈ U^m is built from simplices in
U^m, in degrees ≥ −m; for m ≤ n−k that lies above the cutoff k−1−n, so
the truncation leaves no value there, and no differential or restriction
at a simplex where L^m[m] has one.  `_glue` merges the two complexes'
maps and raises EngineError where they meet.
"""

from itertools import chain

from .fields import QQ
from . import sections as sec
from .sheaves import SheafComplex, SheafError, constant_complex, first_mismatch, mismatch_text
from .stratify import (compute_open_filtration, generators_doc, naive_filtration,
                       StratificationError, TRUST_NOTE)


class ICBundle:
    """The constructed complex with its provenance.

    `ic` is the final complex.  `intermediates` is the stage tower, the
    U_k-indexed complexes with I_1 first and `ic` last, as `build_tower`
    returns it; `build_ic` verifies it and sets it to None, so a bundle
    from `build_ic` holds `ic` as its only complex.
    """

    def __init__(self, strat, filt, systems, intermediates, log, field, naive):
        self.stratification = strat
        self.filtration = filt
        self.systems = systems              # m -> degree-0 SheafComplex on U^m
        self.intermediates = intermediates
        self.ic = intermediates[-1]
        self.log = log                      # per-step dicts
        self.field = field
        self.naive = naive
        self.convention = "local systems shifted by complex dimension"
        self.trust_note = TRUST_NOTE


def split_local_system(L, filt, within):
    """Restrict a local system to the per-dimension pieces U^m ∩ within.

    L lives on an open set containing the open dense part U_1: on U_1
    itself, or on the U_1 of a coarser stratification (`compare`).
    """
    if not filt.U[1] <= L.domain:
        raise SheafError("local system must be defined on the open dense part U_1")
    out = {}
    for m, um in filt.U_m.items():
        um = um & within
        if um:
            out[m] = L.restrict_open(um)
    return out


def _attach_systems(F, K, systems, ambient, upto, raw=False):
    """⊕_{m ≤ upto} L^m[m] extended by zero into the ambient open set.

    The pieces U^m ∩ within are disjoint (strata of different dimensions),
    so the sum is one complex whose maps are the pieces' maps.  Each piece
    must be closed in the ambient set, which makes this the extension by
    zero.  With raw=True (the naive construction) the pieces are placed in
    the ambient set as they are: the naive open sets need not contain the
    lower local systems as closed subsets.  The cover pairs of a piece
    share one {-m: matrix} map per distinct matrix of L^m, and its
    simplices one {-m: rank} dims map per distinct rank: one of each in
    all for a constant system.  A cover pair of rank 0, with no value at
    either end, stores no map.
    """
    dims, restr = {}, {}
    for m in sorted(systems):
        if m > upto:
            continue
        L = systems[m]
        if not raw and not (L.domain <= ambient
                            and K.is_down_closed(L.domain, within=ambient)):
            raise SheafError("the local system on U^%d is not closed in the open set "
                             "it is attached to" % m)
        shifted = {}  # id of a matrix of L -> its {-m: matrix} map
        for p, ms in L.restrictions.items():
            r = ms[0]
            if not r:  # 0 × 0, as L's maps are invertible
                continue
            got = shifted.get(id(r))
            if got is None:
                got = shifted[id(r)] = {-m: r}
            restr[p] = got
        ranks = {r: {-m: r} for r in {qs[0] for qs in L.dims.values()}}
        for s, qs in L.dims.items():
            dims[s] = ranks[qs[0]]
    return SheafComplex(F, K, ambient, dims, {}, restr)


def _glue(trunc, attached):
    """The stage trunc ⊕ attached, for complexes on one domain with disjoint values.

    Every map of the result is a map of one of the two, shared as it is.
    A simplex where one side has a value and the other a value, a
    differential or a restriction raises EngineError naming it: there the
    sum would need blocks of both.  So does a cover pair both store: every
    map of the attached systems has a value at both ends.
    """
    owned, K = attached.dims, trunc.complex
    clash = next(chain((s for s in trunc.dims if s in owned),
                       (s for s in trunc.diffs if s in owned),
                       (s for p in trunc.restrictions for s in p if s in owned),
                       (s for p in attached.restrictions for s in p if s in trunc.dims)),
                 None)
    if clash is not None:
        raise sec.EngineError("the truncation meets an attached local system at %s"
                              % list(K.simplices[clash]))
    dims = dict(trunc.dims)
    dims.update(owned)
    restr = dict(attached.restrictions)
    restr.update(trunc.restrictions)
    return SheafComplex(trunc.F, K, trunc.domain, dims, trunc.diffs, restr)


def build_ic(strat, local_system=None, field=QQ, naive=False, within=None):
    """The intersection complex: `build_tower`, verified, without its stages.

    A canonical build runs `_verify_bundle` on the whole tower; a naive one
    is not verified.  Either way the returned ICBundle keeps the final
    complex `ic`, the log, the local systems and the filtration, and drops
    the intermediate stages (`intermediates` is None), which no report reads.
    """
    bundle = build_tower(strat, local_system, field=field, naive=naive, within=within)
    if not naive:
        _verify_bundle(bundle)
    bundle.intermediates = None
    return bundle


def build_tower(strat, local_system=None, field=QQ, naive=False, within=None):
    """Run the recursion over the induced (or naive) open filtration, unverified.

    Returns an ICBundle with every stage in `intermediates` and the final
    complex, which lives on `within`, as `ic`.  `within` is an up-closed
    frozenset of simplex ids (default: the whole space).  The step schedule
    and cutoffs come from the global filtration; only the domain of every
    stage is cut down to `within`.  Pushforward, truncation and the sum
    with the lower local systems commute with restriction to an open set,
    so the result is the whole-space complex restricted to `within`.  With
    naive=True the stepwise-simultaneous filtration is used instead and
    runs of repeated open sets are collapsed into a single pushforward
    truncated at the cutoff of the last collapsed step; the result is the
    deliberately non-canonical comparison object.
    """
    F = field
    K = strat.complex
    n = strat.n
    if within is None:
        within = K.full_set()
    elif not (within <= K.full_set() and K.is_up_closed(within)):
        raise SheafError("build_ic needs an up-closed set to build on")
    filt = naive_filtration(strat) if naive else compute_open_filtration(strat)
    if local_system is None:
        local_system = constant_complex(F, K, filt.U[1])
    if local_system.F is not F:
        raise SheafError("local system field does not match the build field")
    systems = split_local_system(local_system, filt, within)

    I = _attach_systems(F, K, systems, filt.U[1] & within, upto=n)
    intermediates = [I]
    log = []
    k = 1
    while k <= n:
        k2 = k
        if naive:
            while k2 + 1 <= n and filt.U[k2 + 2] == filt.U[k + 1]:
                k2 += 1
        cutoff = k2 - 1 - n
        target = filt.U[k2 + 1] & within
        layer = "pushforward"
        try:
            pushed = sec.pushforward_open(I, target)
            layer = "truncation"
            trunc = sec.truncate_le(pushed, cutoff)
            layer = "glue"
            I = _glue(trunc, _attach_systems(F, K, systems, target, upto=n - k2,
                                             raw=naive))
        except sec.EngineError as e:
            raise type(e)("step %d (collapsed through %d): %s: %s" % (k, k2, layer, e)) from e
        del pushed, trunc  # so only I, and no step leftover, meets the next cleanup
        log.append({"step": k, "collapsed_through": k2, "cutoff": cutoff,
                    "target_size": len(target)})
        intermediates.append(I)
        k = k2 + 1

    return ICBundle(strat, filt, systems, intermediates, log, F, naive)


def _verify_bundle(bundle):
    """Re-check the construction invariants on the finished tower.

    A failed check is a fault of the engine, not of its inputs: it raises
    EngineError.
    """
    K = bundle.stratification.complex
    inter = bundle.intermediates
    stage = 0
    try:
        # first stage is the shifted local system sum
        shifted = {sid: {q - m: d for q, d in Lm.dims.get(sid, {}).items()}
                   for m, Lm in bundle.systems.items() for sid in Lm.domain}
        wrong = first_mismatch(sorted(shifted), inter[0].stalk_cohomology, shifted.get)
        if wrong is not None:
            raise sec.EngineError("not the shifted local system " + mismatch_text(K, wrong))
        # each stage lives on an open part of the next and restricts back to it
        for stage in range(1, len(inter)):
            prev, cur = inter[stage - 1], inter[stage]
            if not (prev.domain <= cur.domain
                    and K.is_up_closed(prev.domain, within=cur.domain)):
                raise sec.EngineError("the domain of stage %d is not open in it" % (stage - 1))
            wrong = first_mismatch(sorted(prev.domain), cur.stalk_cohomology,
                                   prev.stalk_cohomology)
            if wrong is not None:
                raise sec.EngineError("does not restrict to stage %d %s"
                                      % (stage - 1, mismatch_text(K, wrong)))
        ok, witness = sec.is_clc(bundle.ic, bundle.stratification)
        if not ok:
            raise sec.EngineError("not stratumwise locally constant: %r" % (witness,))
    except sec.EngineError as e:
        raise type(e)("verify, stage %d: %s" % (stage, e)) from e


def default_costalk_sample(strat, limit=24):
    """Deterministic simplex sample: all singular simplices plus a spread."""
    K = strat.complex
    filt_sing = strat.level(strat.n - 1)
    sample = sorted(filt_sing)
    rest = sorted(K.full_set() - filt_sing)
    if rest:
        step = max(1, len(rest) // max(1, limit))
        sample.extend(rest[::step][:limit])
    return sorted(set(sample))


def compare_stratifications(strat1, others, local_system=None, field=QQ,
                            naive_first=False):
    """Compare the complex of strat1 with that of each stratification in others.

    Returns one report per member of others, in order: the stalks,
    sampled costalks and sections of the two complexes.  The complexes
    are built one at a time, strat1's once: its stalk table,
    hypercohomology and costalks are read and it is dropped, then each
    other complex is built, read and dropped in turn, so only one bundle
    is alive at once.  A comparison's sample (`default_costalk_sample` of
    both stratifications) is fixed before any build.  A costalk does not
    depend on which other simplices one `cell_costalk` call covers, so
    strat1's costalks at every sample come from one call on their union,
    and each other side's at its sample from one call.  A member of
    others that is strat1 itself is not built again unless naive_first:
    its side reads strat1's tables.  The witnesses are the first stalk
    mismatch in id order, the first costalk mismatch in sample order
    (`first_mismatch`) and a hypercohomology mismatch, and a report
    passes when it has none.

    The local system lives on the first build's open dense part U_1 (by
    default it is constant of rank 1); each other build restricts it to
    its own stratification's U_1, which lies inside the first when it
    refines strat1.  With naive_first the first build uses the
    non-canonical filtration (negative demonstrations).
    """
    K = strat1.complex
    if any(strat2.complex is not K for strat2 in others):
        raise StratificationError("stratifications live on different complexes")
    first = default_costalk_sample(strat1)
    samples = [sorted(set(first) | set(default_costalk_sample(strat2)))
               for strat2 in others]

    ic = build_ic(strat1, local_system, field=field, naive=naive_first).ic
    t1, h1 = ic.stalk_table(), sec.hypercohomology(ic)
    c1 = sec.cell_costalk(ic, set().union(*samples))
    del ic
    out = []
    for strat2, sample in zip(others, samples):
        if strat2 is strat1 and not naive_first:
            t2, c2, h2 = t1, c1, h1
        else:
            ic = build_ic(strat2, local_system, field=field).ic
            t2, c2 = ic.stalk_table(), sec.cell_costalk(ic, sample)
            h2 = sec.hypercohomology(ic)
            del ic
        witnesses = []
        for kind, sids, x, y in (("stalk", range(len(K)), t1, t2), ("costalk", sample, c1, c2)):
            wrong = first_mismatch(sids, x.get, y.get)
            if wrong is not None:
                sid = wrong[0]
                witnesses.append({"kind": kind, "simplex": list(K.simplices[sid]),
                                  "first": x[sid], "second": y[sid]})
        if h1 != h2:
            witnesses.append({"kind": "hypercohomology", "first": h1, "second": h2})
        out.append({"passed": not witnesses, "witnesses": witnesses, "hypercohomology": h1})
    return out


class CoarseningState:
    def __init__(self, strat, levels, steps, merge_level):
        self.input_stratification = strat
        self.levels = levels            # k -> frozenset of simplex ids (closed filtration)
        self.steps = steps              # per-step witness records
        self.merge_level = merge_level  # stratum index -> level merged at (or None)
        self.note = ("merging is restricted to strata of the given stratification; "
                     "manifold-ness of merged pieces is not decidable and is not checked")

    def levels_doc(self):
        return generators_doc(self.input_stratification.complex,
                              sorted(self.levels.items()))


def clc_coarsen(strat, S):
    """Coarsen the filtration as far as the complex stays stratumwise constant.

    Top-down: at each level, a stratum merges into the open part when every
    cohomology-sheaf restriction map from it into already-merged strata is
    an isomorphism (and none lands in a stratum that stays closed).  The
    result is a filtration by closed unions of input strata refined by the
    input stratification.
    """
    K = strat.complex
    ok, witness = sec.is_clc(S, strat)
    if not ok:
        raise SheafError("complex is not locally constant on the input strata: %r"
                         % (witness,))
    lo, hi = S.degree_range()
    sheaves = {a: sec.cohomology_sheaf(S, a) for a in range(lo, hi + 1)}

    def maps_iso(sid, tid):
        return all(H.is_iso(sid, tid, a) for a, H in sheaves.items())

    stratum_of = {}
    for st in strat.strata:
        for sid in st.simplex_set:
            stratum_of[sid] = st.index

    merge_level = {st.index: None for st in strat.strata}
    steps = []
    n = strat.n
    for j in range(n, 0, -1):
        # strata still closed and of complex dim <= j may merge at level j;
        # a stratum that fails has a fixed first bad pair, so it is not
        # checked again at this level
        failed = set()
        changed = True
        while changed:
            changed = False
            for st in strat.strata:
                if (merge_level[st.index] is not None or st.index in failed
                        or st.complex_dim > j):
                    continue
                # upward cover pairs leaving the stratum; it waits until every
                # one of them lands in a merged stratum
                pairs = [(sid, cof) for sid in sorted(st.simplex_set)
                         for cof, _ in K.cofacets[sid] if stratum_of[cof] != st.index]
                if any(merge_level[stratum_of[cof]] is None for _, cof in pairs):
                    continue
                if st.complex_dim < j and not pairs:
                    # nothing above it: this stratum merges at its own level
                    continue
                bad = next((pair for pair in pairs if not maps_iso(*pair)), None)
                if bad is None:
                    merge_level[st.index] = j
                    changed = True
                    steps.append({"level": j, "stratum": st.index,
                                  "complex_dim": st.complex_dim,
                                  "merged": True, "pairs_checked": len(pairs)})
                    continue
                failed.add(st.index)
                if st.complex_dim == j:
                    steps.append({"level": j, "stratum": st.index,
                                  "complex_dim": st.complex_dim, "merged": False,
                                  "witness_pair": [list(K.simplices[bad[0]]),
                                                   list(K.simplices[bad[1]])]})
    # a stratum merged at level j leaves the filtration below level j only
    levels = {k: frozenset(sid for st in strat.strata
                           if merge_level[st.index] is None or merge_level[st.index] <= k
                           for sid in st.simplex_set) if k < n else K.full_set()
              for k in range(n + 1)}
    return CoarseningState(strat, levels, steps, merge_level)
