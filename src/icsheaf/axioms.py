"""Mechanical checkers for the axiom systems characterizing the complex.

AX1 (stratification dependent): normalization on the open dense part,
cohomology-sheaf vanishing above the middle-perversity cutoff on the W
sets, and the attaching condition checked through point costalks (the
equivalent vanishing form: costalks vanish in degrees ≤ n−k on the
non-open codimension-k strata).

AX2 (stratification independent): normalization on per-dimension dense
manifolds plus the pure-dimensional support and cosupport bounds, with
loci reported as unions of open simplices inside each closure X^m.

The classical global support/cosupport system (intended for pure spaces)
is kept as check_classic_ax2 for negative demonstrations.
"""

from . import sections as sec
from .sheaves import SheafError
from .stratify import compute_open_filtration, TRUST_NOTE


class AxiomInputError(ValueError):
    """Bad input to a checker (not a FAIL verdict): e.g. non-clc complex."""


class Witness:
    def __init__(self, kind, clause, simplex_ids, degree, observed_dim, bound, m=None):
        self.kind = kind
        self.clause = clause
        self.simplex_ids = sorted(simplex_ids)
        self.degree = degree
        self.observed_dim = observed_dim
        self.bound = bound
        self.m = m

    def to_json(self, K):
        return {
            "kind": self.kind,
            "clause": self.clause,
            "locus": [list(K.simplices[i]) for i in self.simplex_ids],
            "degree": self.degree,
            "observed_complex_dim": self.observed_dim,
            "required_bound": self.bound,
            "component_dim": self.m,
        }


class ClauseResult:
    """A clause's verdict: it passes exactly when it has no witness."""

    def __init__(self, clause, description, witnesses):
        self.clause = clause
        self.description = description
        self.witnesses = list(witnesses)
        self.passed = not self.witnesses

    def to_json(self, K):
        return {"clause": self.clause, "description": self.description,
                "passed": self.passed,
                "witnesses": [w.to_json(K) for w in self.witnesses]}


class AxiomReport:
    def __init__(self, axiom_id, complex, clauses):
        self.axiom_id = axiom_id
        self.complex = complex
        self.clauses = clauses
        self.passed = all(c.passed for c in clauses)

    def to_json(self):
        return {"axiom": self.axiom_id, "passed": self.passed,
                "clauses": [c.to_json(self.complex) for c in self.clauses],
                "trust_notes": [TRUST_NOTE]}


def support_locus(K, ids, a, dims_at):
    """Simplices of ids whose degree-a dimension under dims_at is nonzero.

    dims_at maps a simplex id to its table degree -> dim: a complex's
    `stalk_cohomology`, or a costalk table's `__getitem__`.  Returns
    (ids, complex_dim), the second that of the closure of the locus (None
    for the empty locus).
    """
    out = [sid for sid in sorted(ids) if dims_at(sid).get(a, 0)]
    if not out:
        return out, None
    top = max(K.sdim(i) for i in out)
    if top % 2 != 0:
        raise AxiomInputError(
            "support locus has odd real dimension %d; "
            "the complex is not locally constant on even-dimensional strata" % top)
    return out, top // 2


def _locus_witnesses(K, ids, degrees, dims_at, kind, clause, bound, m=None):
    """One witness per degree a whose locus in ids has complex dim ≥ bound(a)."""
    witnesses = []
    for a in degrees:
        locus, cdim = support_locus(K, ids, a, dims_at)
        if locus and cdim >= bound(a):
            witnesses.append(Witness(kind, clause, locus, a, cdim, bound(a), m=m))
    return witnesses


def _support_clauses(S, pieces, support, cosupport):
    """The stalk support and costalk cosupport clauses, each given as (name, description).

    pieces: (m, ids, component_dim) triples; inside ids a degree-a stalk locus
    must have complex dimension < −a for a > −m, a costalk locus < a for a < m.
    """
    K = S.complex
    hi = S.degree_range()[1]
    costalks = sec.cell_costalk(S, S.domain)
    crange = sorted({a for t in costalks.values() for a in t})
    support_w, cosupport_w = [], []
    for m, ids, cdim in pieces:
        support_w += _locus_witnesses(K, ids, range(-m + 1, hi + 1), S.stalk_cohomology,
                                      "stalk", support[0], lambda a: -a, m=cdim)
        cosupport_w += _locus_witnesses(K, ids, [a for a in crange if a < m],
                                        costalks.__getitem__, "costalk", cosupport[0],
                                        lambda a: a, m=cdim)
    return [ClauseResult(*support, support_w), ClauseResult(*cosupport, cosupport_w)]


def _normalization_clause(S, clause_name, domains):
    """Stalk concentration in degree −m with invertible restrictions on each V^m."""
    witnesses = []
    for m, dom in sorted(domains.items()):
        Hm = None
        for sid in sorted(dom):
            table = S.stalk_cohomology(sid)
            if set(table) - {-m}:
                bad = next(q for q in sorted(table) if q != -m and table[q])
                witnesses.append(Witness("stalk", clause_name, [sid], bad,
                                         None, None, m=m))
                break
        else:
            Hm = sec.cohomology_sheaf(S, -m)
            for (s, t) in S.complex.cover_pairs(dom):
                if not Hm.is_iso(s, t, -m):
                    witnesses.append(Witness("restriction", clause_name,
                                             [s, t], -m, None, None, m=m))
                    break
    return ClauseResult(clause_name,
                        "restriction to each open dense piece is a local system "
                        "shifted by its complex dimension",
                        witnesses)


def check_ax1(S, strat):
    """Stratification-dependent axioms for a complex on the whole space."""
    K = strat.complex
    if S.domain != K.full_set():
        raise AxiomInputError("the complex must be defined on the whole space")
    n = strat.n
    filt = compute_open_filtration(strat)
    clauses = [_normalization_clause(S, "a", filt.U_m)]

    # (b) vanishing above the cutoff on W_{k+1}: a nonempty locus has
    # complex dimension ≥ 0, above every cutoff
    witnesses = []
    hi = S.degree_range()[1]
    for k in range(1, n + 1):
        cutoff = k - 1 - n
        witnesses += _locus_witnesses(K, filt.W[k + 1], range(cutoff + 1, hi + 1),
                                      S.stalk_cohomology, "stalk", "b",
                                      lambda a: cutoff, m=k)
    clauses.append(ClauseResult(
        "b", "cohomology sheaves vanish above the middle-perversity cutoff on each W_{k+1}",
        witnesses))

    # (c) attaching, as costalk vanishing on the non-open strata
    witnesses = []
    zones = {k: filt.U[k + 1] - filt.U[k] for k in range(1, n + 1)}
    costalks = sec.cell_costalk(S, set().union(*zones.values()))
    for k, zone in zones.items():
        for sid in sorted(zone):
            bad = [a for a, d in costalks[sid].items() if d and a <= n - k]
            if bad:
                witnesses.append(Witness("costalk", "c", [sid], min(bad),
                                         None, n - k, m=k))
    clauses.append(ClauseResult(
        "c", "costalks vanish in degrees ≤ n−k across the non-open codimension-k strata",
        witnesses))
    return AxiomReport("ax1", K, clauses)


def check_ax2(S, strat):
    """Stratification-independent axioms, checked on the open pieces U^m.

    The complex must be locally constant along the given strata; that is an
    input error, not a FAIL.  Support loci live in the closures X^m.
    """
    K = strat.complex
    if S.domain != K.full_set():
        raise AxiomInputError("the complex must be defined on the whole space")
    ok, witness = sec.is_clc(S, strat)
    if not ok:
        raise AxiomInputError(
            "complex is not locally constant on the strata: %r" % (witness,))
    clauses = [_normalization_clause(S, "a", strat.U_m)]
    clauses += _support_clauses(
        S, [(m, strat.X_m[m], m) for m in sorted(strat.U_m)],
        ("b", "stalk support loci in each X^m have complex dimension < −a"),
        ("c", "costalk support loci in each X^m have complex dimension < a"))
    return AxiomReport("ax2", K, clauses)


def check_classic_ax2(S):
    """The single-perversity global support/cosupport system.

    Correct for pure-dimensional spaces, with n the complex dimension of
    the whole space; on direct sums over components of different
    dimensions it fails, which is the point of keeping it.
    """
    K = S.complex
    n = K.dim // 2
    lo = S.degree_range()[0]
    clauses = []

    # (a) normalization off a small closed subset: carve out the largest
    # open set where the complex is a shifted local system, then bound the
    # complement's dimension.  One pass carves it: the set only shrinks, so
    # a pair the pass skips or finds invertible never qualifies later
    conc = {sid for sid in S.domain
            if set(S.stalk_cohomology(sid)) == {-n}}
    v_ids = {sid for sid in conc if set(K.up_set(sid)) <= conc}
    Hn = sec.cohomology_sheaf(S, -n)
    for (s, t) in K.cover_pairs(Hn.domain):
        if s in v_ids and t in v_ids and not Hn.is_iso(s, t, -n):
            v_ids -= K.walk((s,), K.facets)
    witnesses = []
    sigma = K.full_set() - v_ids
    top = max(map(K.sdim, sigma), default=-1)
    if not v_ids:
        witnesses.append(Witness("stalk", "a", [], -n, None, None))
    elif sigma and top > 2 * (n - 1):
        witnesses.append(Witness("stalk", "a", sigma, -n, top // 2, n - 1))
    clauses.append(ClauseResult(
        "a", "local system in degree −n off a closed subset of complex dimension < n",
        witnesses))

    # (b) lower bound
    witnesses = []
    for a in range(lo, -n):
        ids, cdim = support_locus(K, S.domain, a, S.stalk_cohomology)
        if ids:
            witnesses.append(Witness("stalk", "b", ids, a, cdim, None))
    clauses.append(ClauseResult("b", "no cohomology below degree −n",
                                witnesses))

    # (c) support, (d) cosupport -- global loci
    clauses += _support_clauses(
        S, [(n, S.domain, None)],
        ("c", "global stalk support loci have complex dimension < −a"),
        ("d", "global costalk support loci have complex dimension < a"))
    return AxiomReport("classic-ax2", K, clauses)
