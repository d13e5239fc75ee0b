"""Stratifications by closed subcomplex-sets and the induced open filtration.

Levels are indexed by complex dimension k (real dimension 2k), descending:
X = X_n ⊇ X_{n-1} ⊇ … ⊇ X_{-1} = ∅.  Validation is purely combinatorial:
nesting, down-closedness, even-dimensional homogeneity of strata, absence
of open point strata, and the frontier condition.  The local cone
condition is NOT checked (undecidable); reports carry that trust note.
"""

from .simplicial import is_vertex_list

TRUST_NOTE = ("local cone structure of strata is not verified; "
              "validation covers combinatorial invariants only")


class StratificationError(ValueError):
    pass


class Stratum:
    __slots__ = ("simplex_set", "complex_dim", "is_open", "index")

    def __init__(self, simplex_set, complex_dim, is_open, index):
        self.simplex_set = simplex_set
        self.complex_dim = complex_dim
        self.is_open = is_open
        self.index = index

    def __repr__(self):
        return "Stratum(dim=%d, open=%s, %d simplices)" % (
            self.complex_dim, self.is_open, len(self.simplex_set))


class Stratification:
    """A validated filtration by closed subcomplex sets with even-dim strata."""

    def __init__(self, complex, levels, strata):
        self.complex = complex
        self.levels = levels          # list of SimplexSet, index k = 0..n
        self.n = len(levels) - 1
        self.strata = strata          # list of Stratum

    def level(self, k):
        if k < 0:
            return self.complex.empty_set()
        if k > self.n:
            return self.levels[self.n]
        return self.levels[k]

    def strata_at(self, k):
        return [s for s in self.strata if s.complex_dim == k]

    def levels_doc(self):
        return {"levels": generators_doc(self.complex, enumerate(self.levels))}


def generators_doc(K, levels):
    """{str(k): maximal members of level k} for (k, down-closed SimplexSet) pairs.

    The maximal members, as vertex lists in ascending id order, are enough
    to regenerate each level.
    """
    doc = {}
    for k, sset in levels:
        ids = sset.ids
        doc[str(k)] = [list(K.simplices[i]) for i in sorted(ids)
                       if not any(c in ids for c, _ in K.cofacets[i])]
    return doc


def validate_stratification(K, levels):
    """Check all stratification invariants; raise StratificationError otherwise.

    levels: a dict mapping each complex dimension k = 0..n, as k or str(k),
    to a list of generating simplices, each a list of vertex ids; level k is
    their down-closure.  No other form is accepted.
    """
    if K.dim % 2 != 0:
        raise StratificationError(
            "complex has odd real dimension %d; strata must be even-dimensional" % K.dim)
    n = K.dim // 2
    lv = []
    if not isinstance(levels, dict):
        raise StratificationError(
            "levels must be a dict from level to simplex lists, got a %s"
            % type(levels).__name__)
    names = {str(k): k for k in range(n + 1)}
    items, named = {}, {}
    for key, v in levels.items():
        k = key if type(key) is int and 0 <= key <= n else names.get(key)
        if k is None:
            raise StratificationError(
                "level key %r is not a level 0..%d, as k or exactly str(k)" % (key, n))
        if k in named:
            raise StratificationError(
                "level %d is named twice, by keys %r and %r" % (k, named[k], key))
        items[k], named[k] = v, key
    for k in range(n + 1):
        raw = items.get(k)
        if raw is None:
            raise StratificationError("missing level %d" % k)
        if not (isinstance(raw, (list, tuple)) and all(map(is_vertex_list, raw))):
            raise StratificationError(
                "level %d must be a list of simplices (lists of vertex ids)" % k)
        lv.append(K.set_from_tuples(raw).down_closure())
    full = K.full_set()
    if lv[n] != full:
        raise StratificationError("top level X_%d must contain every simplex" % n)
    for k in range(n):
        if not lv[k].issubset(lv[k + 1]):
            raise StratificationError("levels not nested: X_%d ⊄ X_%d" % (k, k + 1))

    strata = []
    idx = 0
    for k in range(n + 1):
        content = lv[k].difference(lv[k - 1] if k > 0 else K.empty_set())
        for comp in content.components():
            top = comp.max_real_dim()
            if top > 2 * k:
                bad = max((i for i in comp.ids), key=lambda i: K.sdim(i))
                raise StratificationError(
                    "dimensional homogeneity: component at level %d contains %r of real dimension %d > %d"
                    % (k, K.simplices[bad], K.sdim(bad), 2 * k))
            if top != 2 * k:
                bad = K.simplices[min(comp.ids)]
                raise StratificationError(
                    "dimensional homogeneity: component of %r at level %d has no real-%d-dimensional simplex"
                    % (bad, k, 2 * k))
            is_open = comp.is_up_closed()
            if k == 0 and is_open:
                raise StratificationError(
                    "open 0-dimensional stratum at %r is not allowed"
                    % (K.simplices[min(comp.ids)],))
            strata.append(Stratum(comp, k, is_open, idx))
            idx += 1
    # frontier: the closure of a stratum leaves its own level only downward
    for s in strata:
        cl = s.simplex_set.down_closure()
        extra = cl.difference(s.simplex_set)
        lower = s.complex_dim - 1
        low = lv[lower] if lower >= 0 else K.empty_set()
        if not extra.issubset(low):
            bad = K.simplices[min(extra.difference(low).ids)]
            raise StratificationError(
                "frontier violation: closure of stratum %d meets %r outside lower levels"
                % (s.index, bad))
    return Stratification(K, lv, strata)


class OpenFiltration:
    """U^m, X^m, W_k, U_k derived from a stratification (or the naive variant)."""

    def __init__(self, strat, U_m, X_m, W, U, canonical=True):
        self.stratification = strat
        self.n = strat.n
        self.U_m = U_m      # dict m -> SimplexSet (1..n)
        self.X_m = X_m      # dict m -> SimplexSet
        self.W = W          # dict k -> SimplexSet (1..n+1)
        self.U = U          # dict k -> SimplexSet (1..n+1)
        self.canonical = canonical

    def U_m_j(self, m, j):
        """X^m minus X_{m-j} (locally closed)."""
        return self.X_m[m].difference(self.stratification.level(m - j))


def compute_open_strata(strat):
    """U^m = union of open complex-m-dimensional strata; X^m = its closure."""
    K = strat.complex
    U_m, X_m = {}, {}
    for m in range(1, strat.n + 1):
        u = K.empty_set()
        for s in strat.strata_at(m):
            if s.is_open:
                u = u.union(s.simplex_set)
        U_m[m] = u
        X_m[m] = u.down_closure()
    covered = K.empty_set()
    for m in U_m:
        covered = covered.union(X_m[m])
    if covered != K.full_set():
        missing = K.simplices[min(covered.complement().ids)]
        raise StratificationError(
            "open strata are not dense: %r is outside every X^m" % (missing,))
    return U_m, X_m


def compute_open_filtration(strat):
    """The canonical induced open filtration, with its identities re-verified."""
    K = strat.complex
    n = strat.n
    U_m, X_m = compute_open_strata(strat)
    W, U = {}, {}
    for k in range(1, n + 2):
        w = K.empty_set()
        for m in range(max(1, n - k + 2), n + 1):
            w = w.union(X_m[m].difference(strat.level(n - k)))
        W[k] = w
        u = w
        for m in range(1, n - k + 2):
            if m in U_m:
                u = u.union(U_m[m])
        U[k] = u
    filt = OpenFiltration(strat, U_m, X_m, W, U, canonical=True)
    errors = verify_filtration_identities(filt)
    if errors:
        raise StratificationError("open filtration identity failed: " + errors[0])
    return filt


def naive_filtration(strat):
    """The stepwise-simultaneous filtration U_k = ∪_m (X^m − X_{m−k}).

    Deliberately non-canonical: strata of different dimensions enter at the
    same step, which is exactly what the canonical W_k/U_k bookkeeping
    avoids.  Flagged so builds can record the provenance.
    """
    K = strat.complex
    n = strat.n
    U_m, X_m = compute_open_strata(strat)
    U = {}
    for k in range(1, n + 2):
        u = K.empty_set()
        for m in range(1, n + 1):
            u = u.union(X_m[m].difference(strat.level(m - k)))
        U[k] = u
    return OpenFiltration(strat, U_m, X_m, {}, U, canonical=False)


def verify_filtration_identities(filt):
    """The five structural identities of the canonical open filtration.

    Returns a list of human-readable failure strings (empty = all hold).
    """
    strat = filt.stratification
    K = strat.complex
    n = filt.n
    errors = []
    # openness: U_k up-closed inside U_{k+1}
    for k in range(1, n + 1):
        if not filt.U[k].is_up_closed(within=filt.U[k + 1]):
            errors.append("U_%d is not open in U_%d" % (k, k + 1))
    if filt.U[n + 1] != K.full_set():
        errors.append("U_%d is not the whole complex" % (n + 1))
    # density of U_1
    if filt.U[1].down_closure() != K.full_set():
        errors.append("U_1 is not dense")
    # strata content: U_{k+1} − U_k = non-open complex-(n−k)-dimensional strata
    for k in range(1, n + 1):
        diff = filt.U[k + 1].difference(filt.U[k])
        expected = K.empty_set()
        for s in strat.strata_at(n - k):
            if not s.is_open:
                expected = expected.union(s.simplex_set)
        if diff != expected:
            errors.append(
                "U_%d − U_%d does not equal the non-open dimension-%d strata"
                % (k + 1, k, n - k))
    # closedness: X^m ∩ U_k = U^m_{m−n+k} for m ≥ n−k+1
    for k in range(1, n + 2):
        for m in range(max(1, n - k + 1), n + 1):
            lhs = filt.X_m[m].intersection(filt.U[k])
            rhs = filt.U_m_j(m, m - n + k)
            if lhs != rhs:
                errors.append("X^%d ∩ U_%d ≠ U^%d_%d" % (m, k, m, m - n + k))
    # difference: U_{k+1} − U_k = (W_{k+1} − W_k) − U^{n−k+1}_1
    for k in range(1, n + 1):
        lhs = filt.U[k + 1].difference(filt.U[k])
        rhs = filt.W[k + 1].difference(filt.W[k])
        m = n - k + 1
        if m in filt.U_m:
            rhs = rhs.difference(filt.U_m[m])
        if lhs != rhs:
            errors.append("U_%d − U_%d ≠ (W_%d − W_%d) − U^%d_1" % (k + 1, k, k + 1, k, m))
    return errors
