"""Complexes of cellular sheaves on a face poset.

A SheafComplex assigns to every simplex of its domain a finite complex of
vector spaces (its value), with per-simplex differentials, and to every
covering pair σ ⋖ τ a restriction matrix in each degree (maps go from
faces to cofaces) commuting with the differentials; path independence
makes arbitrary restrictions well-defined.  A sheaf is a SheafComplex in
one degree: a local system lives in degree 0 and the degree-a cohomology
sheaf of a complex in degree a.  Everything is immutable and explicit;
operations return new objects, which share every matrix and value they
leave unchanged with their inputs.  A matrix, and a map of matrices or
dims, is never mutated once it is part of a complex.  No operation adds
two values at one simplex: each stage of the construction is a disjoint
union of a truncated pushforward and the attached local systems
(`deligne._glue`), so no block-diagonal matrix is ever built.  A missing
matrix is zero; the writer (`reports.sheaf_complex_doc`) spells out the
canonical keys, so no operation stores a zero block for the sake of a
document.
A question about one value is dense (`matrices`): stalk cohomology comes
from exact ranks, invertibility from a rank; section models over many
simplices are sparse (`sections`).
"""

from . import matrices as mx


class SheafError(ValueError):
    pass


def first_difference(x, y):
    """The lowest degree at which two {degree: dim} tables differ, or None."""
    return min((q for q in set(x) | set(y) if x.get(q, 0) != y.get(q, 0)),
               default=None)


def _mul(F, A, B, m, k, n):
    # shape-safe composition for possibly zero-dimensional matrices
    if m == 0 or n == 0 or k == 0:
        return mx.zeros(F, m, n)
    return mx.mat_mul(F, A, B)


def make_local_system(F, complex, domain, spec):
    """Build and verify a local system on an up-closed domain, in degree 0.

    spec: {"rank": r} for the constant system of rank r (a nonnegative int), or
          {"stalk_dim": {sid: dim}, "matrices": {(sid, tid): matrix}} with
          explicit invertible cover-pair matrices.  Every stalk dim is a
          nonnegative int at a simplex of the domain, every matrices key a
          cover pair of the domain, and every matrix has dim(tid) rows of
          dim(sid) entries, each a canonical element of F
          (`F.is_element`: no float or bool, and in [0, p) over F_p).
    """
    if not complex.is_up_closed(domain):
        raise SheafError("local system domain must be up-closed")
    if "rank" in spec:
        r = spec["rank"]
        if type(r) is not int or r < 0:
            raise SheafError("rank must be a nonnegative integer, got %r" % (r,))
        return constant_complex(F, complex, domain, r)
    at = complex.simplices
    dims, matrices = spec["stalk_dim"], spec["matrices"]
    for s, d in dims.items():
        if s not in domain or type(d) is not int or d < 0:
            raise SheafError("stalk dim at %r must be a nonnegative integer at a simplex "
                             "of the domain, got %r" % (at[s], d))
    pairs = list(complex.cover_pairs(domain))
    cover = set(pairs)
    for (s, t), m in matrices.items():
        if (s, t) not in cover:
            raise SheafError("matrix at %r -> %r is not on a cover pair of the domain"
                             % (at[s], at[t]))
        rows, cols = dims.get(t, 0), dims.get(s, 0)
        if len(m) != rows or any(len(row) != cols for row in m):
            raise SheafError("matrix at %r -> %r must have %d rows of %d entries"
                             % (at[s], at[t], rows, cols))
        for row in m:
            for x in row:
                if not F.is_element(x):
                    raise SheafError("matrix at %r -> %r has entry %r, not an element of %r"
                                     % (at[s], at[t], x, F))
    sheaf = SheafComplex(F, complex, domain, {s: {0: d} for s, d in dims.items()}, {},
                         {p: {0: m} for p, m in matrices.items()})
    for (s, t) in pairs:
        if not sheaf.is_iso(s, t, 0):
            raise SheafError("restriction %r -> %r is not invertible" % (at[s], at[t]))
    sheaf.check_path_independence(0)
    return sheaf


class SheafComplex:
    """A bounded complex of cellular sheaves on a common domain.

    Matrices are shared with the complexes an operation was derived from
    and are never mutated, and neither is any map of `dims`, `diffs` or
    `restrictions`: no operation changes a map in place, so one map may
    serve many simplices or pairs, within a complex and across complexes
    (`constant_complex` gives every simplex the same dims map and every
    cover pair the same restriction map; a glued stage holds its pieces'
    maps as they are).  Two kinds of derived data are
    cached per instance and owned by it alone: stalk cohomology and,
    filled by `sections.cohomology_sheaf`, one cohomology sheaf per
    degree.  A restricted copy starts with empty caches and
    computes the same values again where it reads them.  Costalks are not
    cached: each check that reads them keeps its own table for as long as
    it runs.  Composite restrictions are not cached here either: they are
    products the caller needs only while it assembles one complex, so the
    caller owns the memo, one dict per loop that reads them (see
    `restriction`), and drops it when the loop ends.
    """

    def __init__(self, F, complex, domain, dims, diffs, restrictions):
        self.F = F
        self.complex = complex
        self.domain = domain  # a frozenset of simplex ids
        # dims: sid -> {q: dim}; diffs: sid -> {q: matrix}; restrictions:
        # (sid,tid) -> {q: matrix}.  Missing entries mean zero.
        # One pass drops zero dims and then empty values; a value with no
        # zero dim is kept as it is, shared with the caller.
        self.dims = {}
        for s, qs in dims.items():
            if not all(qs.values()):
                qs = {q: d for q, d in qs.items() if d}
            if qs:
                self.dims[s] = qs
        self.diffs = diffs
        self.restrictions = restrictions
        self._stalk_cache = {}
        self._coh_cache = {}

    # -- basic accessors ----------------------------------------------------

    def degrees(self):
        out = set()
        for qs in self.dims.values():
            out.update(qs)
        return sorted(out)

    def degree_range(self):
        degs = self.degrees()
        if not degs:
            return (0, -1)
        return (degs[0], degs[-1])

    def dim(self, sid, q):
        return self.dims.get(sid, {}).get(q, 0)

    def diff(self, sid, q):
        m = self.diffs.get(sid, {}).get(q)
        if m is None:
            return mx.zeros(self.F, self.dim(sid, q + 1), self.dim(sid, q))
        return m

    def restriction_cover(self, sid, tid, q):
        m = self.restrictions.get((sid, tid), {}).get(q)
        if m is None:
            return mx.zeros(self.F, self.dim(tid, q), self.dim(sid, q))
        return m

    def restriction(self, sid, tid, q, memo=None):
        """Composite restriction along the canonical ascending-vertex path.

        The path adds the vertices of tid missing from sid in ascending
        order, so the composite is the last cover map, into tid from tid
        minus its last missing vertex, times the composite up to that
        face.  A caller that reads many composites passes a dict as memo:
        it keeps every composite this call computes, prefixes included,
        keyed by (sid, tid, q), so each new one costs one product.  Without
        a memo the same products run in the same order afresh.
        """
        if sid == tid:
            return mx.identity(self.F, self.dim(sid, q))
        if memo is not None:
            got = memo.get((sid, tid, q))
            if got is not None:
                return got
        K = self.complex
        s, t = K.simplices[sid], K.simplices[tid]
        missing = [v for v in t if v not in s]
        assert set(s) <= set(t) and missing
        last = missing[-1]
        mid = K.index[tuple(u for u in t if u != last)]
        out = self.restriction_cover(mid, tid, q)
        if mid != sid:
            out = _mul(self.F, out, self.restriction(sid, mid, q, memo),
                       self.dim(tid, q), self.dim(mid, q), self.dim(sid, q))
        if memo is not None:
            memo[(sid, tid, q)] = out
        return out

    def is_iso(self, sid, tid, q):
        """Is the degree-q restriction along the cover pair sid ⋖ tid an isomorphism?"""
        n = self.dim(sid, q)
        if n != self.dim(tid, q):
            return False
        return mx.rank(self.F, self.restriction_cover(sid, tid, q)) == n

    # -- derived data --------------------------------------------------------

    def stalk_cohomology(self, sid):
        """Cohomology dims of the value complex at sid, from exact ranks.

        dim H^q = dim_q − rank d^q − rank d^(q−1), each rank by
        `matrices.rank`; a missing differential has rank 0.
        """
        got = self._stalk_cache.get(sid)
        if got is None:
            rk = {q: mx.rank(self.F, m) for q, m in self.diffs.get(sid, {}).items()}
            got = {}
            for q, d in sorted(self.dims.get(sid, {}).items()):
                h = d - rk.get(q, 0) - rk.get(q - 1, 0)
                if h:
                    got[q] = h
            self._stalk_cache[sid] = got
        return got

    def stalk_table(self):
        return {sid: self.stalk_cohomology(sid) for sid in sorted(self.domain)}

    # -- validation -----------------------------------------------------------

    def validate(self):
        F = self.F
        for sid in self.dims:
            for q in self.dims[sid]:
                if self.dim(sid, q + 1) and self.dim(sid, q + 2):
                    dd = _mul(F, self.diff(sid, q + 1), self.diff(sid, q),
                              self.dim(sid, q + 2), self.dim(sid, q + 1), self.dim(sid, q))
                    if any(any(row) for row in dd):
                        raise SheafError("d² ≠ 0 at %r" % (self.complex.simplices[sid],))
        for (s, t) in self.complex.cover_pairs(self.domain):
            for q in self.dims.get(s, {}):
                # restriction commutes with d
                a = _mul(F, self.diff(t, q), self.restriction_cover(s, t, q),
                         self.dim(t, q + 1), self.dim(t, q), self.dim(s, q))
                b = _mul(F, self.restriction_cover(s, t, q + 1), self.diff(s, q),
                         self.dim(t, q + 1), self.dim(s, q + 1), self.dim(s, q))
                if a != b:
                    raise SheafError(
                        "restriction does not commute with d at %r -> %r"
                        % (self.complex.simplices[s], self.complex.simplices[t]))
        for q in self.degrees():
            self.check_path_independence(q)

    def check_path_independence(self, q):
        """All two-step degree-q composites between a codim-2 pair must agree."""
        K = self.complex
        dom = self.domain
        for s in sorted(dom):
            targets = {}
            for m, _ in K.cofacets[s]:
                if m in dom:
                    for t, _ in K.cofacets[m]:
                        if t in dom:
                            targets.setdefault(t, []).append(m)
            for t, ms in targets.items():
                if len(ms) < 2:
                    continue
                comps = [_mul(self.F, self.restriction_cover(m, t, q),
                              self.restriction_cover(s, m, q),
                              self.dim(t, q), self.dim(m, q), self.dim(s, q))
                         for m in ms]
                for other in comps[1:]:
                    if other != comps[0]:
                        raise SheafError(
                            "path independence fails between %r and %r"
                            % (K.simplices[s], K.simplices[t]))

    # -- operations -----------------------------------------------------------

    def restrict_open(self, subset):
        if not (subset <= self.domain
                and self.complex.is_up_closed(subset, within=self.domain)):
            raise SheafError("restrict_open needs an up-closed subset of the domain")
        dims = {s: qs for s, qs in self.dims.items() if s in subset}
        diffs = {s: ms for s, ms in self.diffs.items() if s in subset}
        restr = {p: ms for p, ms in self.restrictions.items()
                 if p[0] in subset and p[1] in subset}
        return SheafComplex(self.F, self.complex, subset, dims, diffs, restr)


def constant_complex(F, complex, domain, rank=1):
    """The constant sheaf of the given rank on any domain, in degree 0.

    Every simplex shares one {0: rank} dims map and every cover pair one
    {0: identity} map; no operation mutates a map, so the shares hold.
    """
    value = {0: rank}
    dims = {s: value for s in domain}
    ident = {0: mx.identity(F, rank)}
    restr = {p: ident for p in complex.cover_pairs(domain)}
    return SheafComplex(F, complex, domain, dims, {}, restr)
