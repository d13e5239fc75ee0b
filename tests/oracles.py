"""Independent oracles for the test suite.

Everything here is written from scratch against the definitions: its own
rational Gaussian elimination, its own simplicial cochain complex, brute
force set enumerations, and the Mayer-Vietoris bookkeeping for suspensions.
Nothing imports the package's linear algebra or section machinery, so these
results are independent of the code paths they check.  The exceptions are
the reference versions of package code that a faster path replaced, kept
as they were so the tests can compare the two (`order_chains`,
`cohomology_sheaf_reference`).
"""

from fractions import Fraction
from itertools import combinations


def rational_rank(rows):
    """Row rank by plain Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        inv = Fraction(1) / pr[c]
        m[rank] = [x * inv for x in pr]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def close_downward(maximal):
    simplices = set()
    for top in maximal:
        t = tuple(sorted(set(top)))
        n = len(t)
        for mask in range(1, 1 << n):
            simplices.add(tuple(t[i] for i in range(n) if mask >> i & 1))
    return sorted(simplices, key=lambda s: (len(s), s))


def cochain_cohomology_dims(maximal):
    """Ordinary rational cohomology of a finite simplicial complex.

    Built directly: one basis vector per simplex, coboundary with
    alternating signs from ascending vertex positions.
    """
    simplices = close_downward(maximal)
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    index = {d: {s: i for i, s in enumerate(v)} for d, v in by_dim.items()}
    top = max(by_dim)
    dims = {}
    ranks = {}
    for d in range(top):
        rows = []
        for t in by_dim.get(d + 1, []):
            row = [Fraction(0)] * len(by_dim[d])
            for pos in range(len(t)):
                f = t[:pos] + t[pos + 1:]
                row[index[d][f]] = Fraction(-1) ** pos
            rows.append(row)
        # rows are indexed by (d+1)-simplices: this is the transpose of the
        # coboundary, which has the same rank
        ranks[d] = rational_rank(rows) if rows else 0
    for d in range(top + 1):
        n = len(by_dim.get(d, []))
        h = n - ranks.get(d, 0) - ranks.get(d - 1, 0)
        if h:
            dims[d] = h
    return dims


def sphere_cohomology(dim):
    return {0: 1} if dim == 0 else {0: 1, dim: 1}


def count_subsets(n, sizes):
    from math import comb
    return sum(comb(n, k) for k in sizes)


def star_by_bruteforce(simplices, s):
    s = set(s)
    return [t for t in simplices if s <= set(t)]


def link_by_bruteforce(simplices, s):
    sset = set(s)
    all_set = {tuple(sorted(t)) for t in simplices}
    out = []
    for t in simplices:
        if set(t) & sset:
            continue
        if tuple(sorted(set(t) | sset)) in all_set:
            out.append(t)
    return out


def components_by_bfs(members):
    """Components of a simplex family under face-comparability."""
    members = [tuple(sorted(m)) for m in members]
    seen = set()
    comps = []
    for start in members:
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            for other in members:
                if other in comp:
                    continue
                a, b = set(cur), set(other)
                if a <= b or b <= a:
                    stack.append(other)
        seen |= comp
        comps.append(comp)
    return comps


def chains_by_bruteforce(members, length):
    """Strict chains of a given length in a family of simplices."""
    members = [tuple(sorted(m)) for m in members]
    chains = [[m] for m in members]
    for _ in range(length):
        new = []
        for c in chains:
            for m in members:
                if set(c[-1]) < set(m):
                    new.append(c + [m])
        chains = new
    return chains


def order_chains(P, length):
    """All strictly increasing chains s0 ⊂ … ⊂ s_length in a SimplexSet P.

    Chains of simplex ids, in lexicographic order; the package builds all
    lengths at once with `simplicial.all_chains`.
    """
    K = P.complex
    mset = P.ids
    out = []

    def extend(chain, top):
        if len(chain) == length + 1:
            out.append(tuple(chain))
            return
        for j in K.up_set(top):
            if j == top or j not in mset:
                continue
            chain.append(j)
            extend(chain, j)
            chain.pop()

    for i in sorted(mset):
        extend([i], i)
    return sorted(out)


def truncated_shift_dims(h, shift, cutoff):
    """Dims of τ_{≤cutoff}(V[shift]) for a graded dimension table V."""
    out = {}
    for d, v in h.items():
        q = d - shift
        if q <= cutoff and v:
            out[q] = v
    return out


def suspension_ic_hyperco(h_m, n=2):
    """Mayer-Vietoris over the two cone charts of a suspension.

    h_m: cohomology dims of the (2n-1)-manifold M being suspended.  Charts
    are open cones with sections τ_{≤-1}(H(M)[n]); the overlap is M × R.
    The chart restrictions are isomorphisms onto the truncation range, so
    every rank in the long exact sequence is forced.
    """
    hm = {d: h_m.get(d, 0) for d in range(2 * n)}
    t = {q: (hm.get(q + n, 0) if q <= -1 else 0) for q in range(-n, n + 1)}
    r = dict(t)  # rank of the difference map per degree
    out = {}
    for q in range(-n, n + 1):
        ker = 2 * t.get(q, 0) - r.get(q, 0)
        over = hm.get(q - 1 + n, 0) - r.get(q - 1, 0)
        v = ker + over
        if v:
            out[q] = v
    return out


def cohomology_sheaf_reference(S, a):
    """The degree-a cohomology sheaf, one CochainCohomology per simplex.

    `sections.cohomology_sheaf` before its flat path and memo: every stalk
    gets a kernel and image basis, and every restriction is projected.
    """
    from icsheaf import matrices as mx
    from icsheaf.sheaves import CellularSheaf
    F = S.F
    data = {}
    stalks = {}
    for sid in sorted(S.domain.ids):
        n = S.dim(sid, a)
        d_out = S.diff(sid, a) if S.dim(sid, a + 1) else None
        d_in = S.diff(sid, a - 1) if S.dim(sid, a - 1) else None
        coh = mx.CochainCohomology(F, n, d_in, d_out)
        data[sid] = coh
        if coh.h_dim:
            stalks[sid] = coh.h_dim
    restr = {}
    for (s, t) in S.domain.cover_pairs():
        cs, ct = data[s], data[t]
        if cs.h_dim == 0 and ct.h_dim == 0:
            continue
        if cs.h_dim == 0:
            restr[(s, t)] = mx.zeros(F, ct.h_dim, 0)
            continue
        r = S.restriction_cover(s, t, a)
        images = [mx.mat_vec(F, r, rep) for rep in cs.reps]
        restr[(s, t)] = ct.project(images)
    return CellularSheaf(F, S.complex, S.domain, stalks, restr)
