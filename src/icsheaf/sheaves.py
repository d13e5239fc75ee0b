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
dims, is never mutated once it is part of a complex.
"""

from . import matrices as mx
from .reduction import SparseComplex


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
    if not domain.is_up_closed():
        raise SheafError("local system domain must be up-closed")
    if "rank" in spec:
        r = spec["rank"]
        if type(r) is not int or r < 0:
            raise SheafError("rank must be a nonnegative integer, got %r" % (r,))
        return constant_complex(F, complex, domain, r)
    at = complex.simplices
    dims, matrices = spec["stalk_dim"], spec["matrices"]
    for s, d in dims.items():
        if s not in domain.ids or type(d) is not int or d < 0:
            raise SheafError("stalk dim at %r must be a nonnegative integer at a simplex "
                             "of the domain, got %r" % (at[s], d))
    pairs = list(domain.cover_pairs())
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
    cover pair the same restriction map).  Two kinds of derived data are
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
        self.domain = domain
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

    def add_value(self, G, sid, shift=0, sign=1, support=None):
        """Add the value at sid to G, degree q at q + shift; {q: first id}.

        The internal differential enters times sign (±1); every generator
        gets the given support.
        """
        qs = self.dims.get(sid, {})
        first = {q: G.add_gen(q + shift, support, qs[q]) for q in sorted(qs)}
        for q, m in self.diffs.get(sid, {}).items():
            if q in first and q + 1 in first:
                G.add_block(first[q], first[q + 1], m, sign)
        return first

    def stalk_cohomology(self, sid):
        """Cohomology dims of the value complex at sid, by sparse reduction.

        A value whose differentials all vanish is its own cohomology, and
        its dims are returned without a reduction.
        """
        got = self._stalk_cache.get(sid)
        if got is None:
            ds = self.diffs.get(sid)
            if ds and any(any(row) for m in ds.values() for row in m):
                G = SparseComplex(self.F)
                self.add_value(G, sid)
                got = G.minimize_dims()
            else:
                got = dict(sorted(self.dims.get(sid, {}).items()))
            self._stalk_cache[sid] = got
        return got

    def stalk_table(self):
        return {sid: self.stalk_cohomology(sid) for sid in sorted(self.domain.ids)}

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
        for (s, t) in self.domain.cover_pairs():
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
        dom = self.domain.ids
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

    def direct_sum(self, other):
        """Blockwise sum; where one summand has no value, the other's block is shared.

        Every key of the general sum is emitted, including explicit zero
        matrices, so the result is the same document either way.  Where
        the one summand's map at a simplex or pair already has exactly
        those keys, the map itself is shared.
        """
        if self.domain != other.domain:
            raise SheafError("direct sum requires equal domains")
        if self.F is not other.F:
            raise SheafError("direct sum requires a common field")
        F = self.F
        none = {}
        dims, diffs, restr = {}, {}, {}
        for sid in self.domain.ids:
            qa = self.dims.get(sid, none)
            qb = other.dims.get(sid, none)
            if not (qa or qb):
                continue
            only = other if not qa else self if not qb else None
            if only is not None:
                nd = dims[sid] = qa or qb
                got = only.diffs.get(sid)
                if got and got.keys() == {q for q in nd if nd.get(q + 1)}:
                    diffs[sid] = got
                    continue
            else:
                nd = dims[sid] = {q: qa.get(q, 0) + qb.get(q, 0)
                                  for q in sorted(set(qa) | set(qb))}
            dmap = {}
            for q in nd:
                if not nd.get(q + 1):
                    continue
                if only is not None:
                    dmap[q] = only.diff(sid, q)
                else:
                    dmap[q] = _block_diag(F, self.diff(sid, q), other.diff(sid, q),
                                          qa.get(q + 1, 0), qa.get(q, 0),
                                          qb.get(q + 1, 0), qb.get(q, 0))
            if dmap:
                diffs[sid] = dmap
        for (s, t) in self.domain.cover_pairs():
            sa, ta = self.dims.get(s, none), self.dims.get(t, none)
            sb, tb = other.dims.get(s, none), other.dims.get(t, none)
            only = other if not (sa or ta) else self if not (sb or tb) else None
            qs = sorted(set(sa) | set(sb) | set(ta) | set(tb))
            if only is not None:
                got = only.restrictions.get((s, t))
                if got and got.keys() == set(qs):
                    restr[(s, t)] = got
                    continue
            rmap = {}
            for q in qs:
                if only is not None:
                    rmap[q] = only.restriction_cover(s, t, q)
                else:
                    rmap[q] = _block_diag(F, self.restriction_cover(s, t, q),
                                          other.restriction_cover(s, t, q),
                                          ta.get(q, 0), sa.get(q, 0),
                                          tb.get(q, 0), sb.get(q, 0))
            if rmap:
                restr[(s, t)] = rmap
        return SheafComplex(F, self.complex, self.domain, dims, diffs, restr)

    def restrict_open(self, subset):
        if not subset.issubset(self.domain) or not subset.is_up_closed(within=self.domain):
            raise SheafError("restrict_open needs an up-closed subset of the domain")
        dims = {s: qs for s, qs in self.dims.items() if s in subset.ids}
        diffs = {s: ms for s, ms in self.diffs.items() if s in subset.ids}
        restr = {p: ms for p, ms in self.restrictions.items()
                 if p[0] in subset.ids and p[1] in subset.ids}
        return SheafComplex(self.F, self.complex, subset, dims, diffs, restr)

    def extend_by_zero(self, ambient):
        """Extension by zero to an ambient SimplexSet containing the domain.

        The domain must be down-closed inside the ambient set (closed
        pushforward); values outside are zero, so no new matrices appear.
        """
        if not self.domain.issubset(ambient):
            raise SheafError("ambient set must contain the domain")
        if not self.domain.is_down_closed(within=ambient):
            raise SheafError("extend_by_zero requires a domain closed in the ambient set")
        return SheafComplex(self.F, self.complex, ambient,
                            self.dims, self.diffs, self.restrictions)


def _block_diag(F, A, B, ra, ca, rb, cb):
    out = mx.zeros(F, ra + rb, ca + cb)
    for i in range(ra):
        for j in range(ca):
            out[i][j] = A[i][j]
    for i in range(rb):
        for j in range(cb):
            out[ra + i][ca + j] = B[i][j]
    return out


def constant_complex(F, complex, domain, rank=1):
    """The constant sheaf of the given rank on any domain, in degree 0.

    Every simplex shares one {0: rank} dims map and every cover pair one
    {0: identity} map; no operation mutates a map, so the shares hold.
    """
    value = {0: rank}
    dims = {s: value for s in domain.ids}
    ident = {0: mx.identity(F, rank)}
    restr = {p: ident for p in domain.cover_pairs()}
    return SheafComplex(F, complex, domain, dims, {}, restr)
