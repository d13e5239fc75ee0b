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
        self.levels = levels          # list of frozensets of simplex ids, index k = 0..n
        self.n = len(levels) - 1
        self.strata = strata          # list of Stratum

    def level(self, k):
        if k < 0:
            return frozenset()
        if k > self.n:
            return self.levels[self.n]
        return self.levels[k]

    def strata_at(self, k):
        return [s for s in self.strata if s.complex_dim == k]

    def levels_doc(self):
        return {"levels": generators_doc(self.complex, enumerate(self.levels))}


def generators_doc(K, levels):
    """{str(k): maximal members of level k} for (k, down-closed set of ids) pairs.

    The maximal members, as vertex lists in ascending id order, are enough
    to regenerate each level.
    """
    doc = {}
    for k, ids in levels:
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
        lv.append(frozenset(K.walk([K.id_of(t) for t in raw], K.facets)))
    if lv[n] != K.full_set():
        raise StratificationError("top level X_%d must contain every simplex" % n)
    for k in range(n):
        if not lv[k] <= lv[k + 1]:
            raise StratificationError("levels not nested: X_%d ⊄ X_%d" % (k, k + 1))

    strata = []
    idx = 0
    for k in range(n + 1):
        content = lv[k] - lv[k - 1] if k > 0 else lv[k]
        for comp in K.components(content):
            top = max(map(K.sdim, comp))
            if top > 2 * k:
                bad = max(comp, key=K.sdim)
                raise StratificationError(
                    "dimensional homogeneity: component at level %d contains %r of real dimension %d > %d"
                    % (k, K.simplices[bad], K.sdim(bad), 2 * k))
            if top != 2 * k:
                bad = K.simplices[min(comp)]
                raise StratificationError(
                    "dimensional homogeneity: component of %r at level %d has no real-%d-dimensional simplex"
                    % (bad, k, 2 * k))
            is_open = K.is_up_closed(comp)
            if k == 0 and is_open:
                raise StratificationError(
                    "open 0-dimensional stratum at %r is not allowed"
                    % (K.simplices[min(comp)],))
            strata.append(Stratum(comp, k, is_open, idx))
            idx += 1
    # frontier: the closure of a stratum leaves its own level only downward
    for s in strata:
        extra = K.walk(s.simplex_set, K.facets) - s.simplex_set
        low = lv[s.complex_dim - 1] if s.complex_dim > 0 else frozenset()
        if not extra <= low:
            bad = K.simplices[min(extra - low)]
            raise StratificationError(
                "frontier violation: closure of stratum %d meets %r outside lower levels"
                % (s.index, bad))
    return Stratification(K, lv, strata)


class OpenFiltration:
    """U^m, X^m, W_k, U_k derived from a stratification (or the naive variant)."""

    def __init__(self, strat, U_m, X_m, W, U, canonical=True):
        self.stratification = strat
        self.n = strat.n
        # each value a frozenset of simplex ids
        self.U_m = U_m      # dict m -> U^m (1..n)
        self.X_m = X_m      # dict m -> X^m
        self.W = W          # dict k -> W_k (1..n+1)
        self.U = U          # dict k -> U_k (1..n+1)
        self.canonical = canonical

    def U_m_j(self, m, j):
        """X^m minus X_{m-j} (locally closed)."""
        return self.X_m[m] - self.stratification.level(m - j)


def compute_open_strata(strat):
    """U^m = union of open complex-m-dimensional strata; X^m = its closure."""
    K = strat.complex
    U_m, X_m = {}, {}
    for m in range(1, strat.n + 1):
        u = frozenset().union(*(s.simplex_set for s in strat.strata_at(m) if s.is_open))
        U_m[m] = u
        X_m[m] = frozenset(K.walk(u, K.facets))
    outside = K.full_set().difference(*X_m.values())
    if outside:
        raise StratificationError(
            "open strata are not dense: %r is outside every X^m"
            % (K.simplices[min(outside)],))
    return U_m, X_m


def compute_open_filtration(strat):
    """The canonical induced open filtration, with its identities re-verified."""
    n = strat.n
    U_m, X_m = compute_open_strata(strat)
    W, U = {}, {}
    for k in range(1, n + 2):
        W[k] = frozenset().union(*(X_m[m] - strat.level(n - k)
                                   for m in range(max(1, n - k + 2), n + 1)))
        U[k] = W[k].union(*(U_m[m] for m in range(1, n - k + 2)))
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
    n = strat.n
    U_m, X_m = compute_open_strata(strat)
    U = {k: frozenset().union(*(X_m[m] - strat.level(m - k) for m in range(1, n + 1)))
         for k in range(1, n + 2)}
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
        if not K.is_up_closed(filt.U[k], within=filt.U[k + 1]):
            errors.append("U_%d is not open in U_%d" % (k, k + 1))
    if filt.U[n + 1] != K.full_set():
        errors.append("U_%d is not the whole complex" % (n + 1))
    # density of U_1
    if K.walk(filt.U[1], K.facets) != K.full_set():
        errors.append("U_1 is not dense")
    # strata content: U_{k+1} − U_k = non-open complex-(n−k)-dimensional strata
    for k in range(1, n + 1):
        expected = frozenset().union(*(s.simplex_set for s in strat.strata_at(n - k)
                                       if not s.is_open))
        if filt.U[k + 1] - filt.U[k] != expected:
            errors.append(
                "U_%d − U_%d does not equal the non-open dimension-%d strata"
                % (k + 1, k, n - k))
    # closedness: X^m ∩ U_k = U^m_{m−n+k} for m ≥ n−k+1
    for k in range(1, n + 2):
        for m in range(max(1, n - k + 1), n + 1):
            if filt.X_m[m] & filt.U[k] != filt.U_m_j(m, m - n + k):
                errors.append("X^%d ∩ U_%d ≠ U^%d_%d" % (m, k, m, m - n + k))
    # difference: U_{k+1} − U_k = (W_{k+1} − W_k) − U^{n−k+1}_1
    for k in range(1, n + 1):
        m = n - k + 1
        rhs = filt.W[k + 1] - filt.W[k] - filt.U_m.get(m, frozenset())
        if filt.U[k + 1] - filt.U[k] != rhs:
            errors.append("U_%d − U_%d ≠ (W_%d − W_%d) − U^%d_1" % (k + 1, k, k + 1, k, m))
    return errors
