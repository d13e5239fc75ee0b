"""Independent oracles for the test suite.

Everything here is written from scratch against the definitions: its own
rational and modular Gaussian elimination and matrix product, its own
simplicial cochain complex, brute force set enumerations, the
Mayer-Vietoris bookkeeping for suspensions, and intersection homology
from allowable chains with its own GF(p) rank (`intersection_homology`
for the whole space, `link_stalks` for the stalk at every simplex), which
reads only the simplices and the levels.
None of these uses the package's linear algebra or section machinery, so
their results are independent of the code paths they check.  The exceptions are
the reference versions of package code that a faster path replaced, kept
as they were so the tests can compare the two (`order_chains`,
`chains_recursively`, `down_set_by_subsets`, `composite_restriction`,
the dense solver behind `cohomology_sheaf_reference`, the dict-indexed
eliminator `DictIndexComplex`, the tuple-keyed one `ReferenceComplex`,
the costalk of one open star by its own reduction, `star_costalk`, and
the pushforward's first nerve assembly and compatible-family columns,
`nerve_complex_reference` and `add_family_columns_reference`, with the
step they make, `pushforward_reference`, and the unit columns by
definition, `unit_columns_reference`, the first cellular assembly,
`cellular_complex_reference`, and the block adders both references
build through, `add_value`, `add_block` and `add_entry`, whose
cancellation rule no assembly needs),
the supported-sections complex that AX2 is compared against
(`supported_section_dims`), the canonical JSON text of a report by
`json.dumps` (`canonical_json`), and the
helpers only tests need: `shift` builds test complexes,
`load_sheaf_complex` reads a dumped complex back and
`fake_surface_stratum_ids` names the fake stratum of a demo.

Library paths that no command runs live here too, as references:
`rgamma_dims`, RΓ over any up-set in the order-chain (nerve) model, which
`hypercohomology` computes in the cellular model over clopen domains only,
and with it the pushforward's stalks by definition (`pushforward_mismatch`);
`restrict_closed`; `is_refinement`; the general block sum `direct_sum`
and `extend_by_zero`, which the construction replaced by gluing disjoint
pieces; and the paper's decomposition
statement, `check_decomposition`, which builds each pure closure's
complex with `build_ic_pure` (through `restrict_stratification`, which
takes the closure as a standalone complex with `subcomplex`, and
`transport_complex`) and compares their sum with the direct-sum build;
`stellar` subdivides a simplex, for the paper's independence of the
triangulation.
"""

import heapq
import json
from fractions import Fraction
from itertools import combinations

from icsheaf import matrices as mx
from icsheaf import reports
from icsheaf import sections as sec
from icsheaf.deligne import build_ic
from icsheaf.fields import QQ
from icsheaf.reduction import SparseComplex
from icsheaf.sheaves import SheafComplex, SheafError, first_difference
from icsheaf.simplicial import SimplicialComplex, all_chains
from icsheaf.stratify import (StratificationError, compute_open_filtration,
                              validate_stratification)


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


def modular_rank(rows, p):
    """Row rank by plain Gaussian elimination over F_p."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def mat_mul_by_definition(F, A, B):
    """A · B by the plain triple loop, every term added, zeros included."""
    out = []
    for row in A:
        orow = []
        for j in range(len(B[0])):
            s = F.zero
            for t in range(len(B)):
                s = F.add(s, F.mul(row[t], B[t][j]))
            orow.append(s)
        out.append(orow)
    return out


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


def down_set_by_subsets(K, sid):
    """Ids of all faces of sid, one index lookup per nonempty vertex subset.

    The reference for the down-set walk `K.walk((sid,), K.facets)`.
    """
    s = K.simplices[sid]
    n = len(s)
    return tuple(sorted(K.index[tuple(s[i] for i in range(n) if mask >> i & 1)]
                        for mask in range(1, 1 << n)))


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
    """Components of a simplex family under face-comparability.

    Two members are comparable when one is a subset of the other; every
    such pair is found by listing each member's proper subsets that are
    members, so the walk is linear in the members for a bounded dimension.
    """
    members = [tuple(sorted(m)) for m in members]
    near = {m: [] for m in members}
    for m in members:
        for r in range(1, len(m)):
            for face in combinations(m, r):
                if face in near:
                    near[m].append(face)
                    near[face].append(m)
    seen = set()
    comps = []
    for start in members:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for other in near[stack.pop()]:
                if other not in comp:
                    comp.add(other)
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


def order_chains(K, mset, length):
    """All strictly increasing chains s0 ⊂ … ⊂ s_length in a set of ids of K.

    Chains of simplex ids, in lexicographic order; the package builds all
    lengths at once with `simplicial.all_chains`.
    """
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


def chains_recursively(K, members):
    """All strict chains in members, by the recursive pre-order walk
    `simplicial.all_chains` replaced: the same chains in the same order."""
    out = []

    def extend(chain):
        out.append(chain)
        for j in K.up_set(chain[-1]):
            if j != chain[-1] and j in members:
                extend(chain + (j,))

    for i in sorted(members):
        extend((i,))
    return out


def composite_restriction(S, sid, tid, q):
    """The composite restriction as `SheafComplex.restriction` first built
    it: a walk from sid adding the missing vertices of tid in ascending
    order, each cover map multiplied onto the product so far."""
    F, K = S.F, S.complex
    if sid == tid:
        return mx.identity(F, S.dim(sid, q))
    t = K.simplices[tid]
    have = set(K.simplices[sid])
    cur, out = sid, None
    for v in [v for v in t if v not in have]:
        have.add(v)
        nxt = K.index[tuple(u for u in t if u in have)]
        step = S.restriction_cover(cur, nxt, q)
        if out is None:
            out = step
        elif S.dim(nxt, q) and S.dim(cur, q) and S.dim(sid, q):
            out = mx.mat_mul(F, step, out)
        else:
            out = mx.zeros(F, S.dim(nxt, q), S.dim(sid, q))
        cur = nxt
    return out


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


def fake_surface_stratum_ids(K):
    """Simplex ids of the ∂Δ³-on-{1,2,3,4} stratum of the fake-surface demo."""
    ids = set()
    for f in combinations([1, 2, 3, 4], 3):
        ids.update(K.walk((K.id_of(f),), K.facets))
    return ids


def star_chains(S, sid):
    """All chains of the subposet up(sid) ∩ domain."""
    K = S.complex
    members = [i for i in K.up_set(sid) if i in S.domain]
    return all_chains(K, members)


def supported_section_dims(S, sid, z_ids):
    """Dims of the sections-supported-on-Z stalk at sid (no shift).

    Z must be closed in the domain near the star; the complex is the kernel
    of sections over the star mapping onto sections over star ∖ Z.
    """
    zset = set(z_ids)
    chains = [c for c in star_chains(S, sid) if any(e in zset for e in c)]
    G, _ = nerve_complex_reference(S, chains)
    return G.minimize_dims()


def rgamma_dims(S, member_ids):
    """Cohomology dims of RΓ over an up-set of S's domain (order-chain model)."""
    members = S.domain.intersection(member_ids)
    if not members:
        return {}
    G, _ = nerve_complex_reference(S, all_chains(S.complex, members))
    return G.minimize_dims()


def add_entry(G, g, h, val):
    """Add the nonzero val to G's entry g -> h, dropping it if it cancels,
    as `SparseComplex.add_entry` did."""
    row = G.dout[g]
    cur = row.get(h)
    if cur is None:
        row[G.ids[h]] = val
    else:
        new = G.F.add(cur, val)
        if new:
            row[h] = new
        else:
            del row[h]


def add_block(G, g0, h0, M, sign):
    """Add sign · M (sign ±1), a map from G's block at id g0 to that at h0,
    entry by entry through `add_entry`."""
    neg, ids = G.F.neg, G.ids
    for j, row in enumerate(M):
        h = ids[h0 + j]
        for i, v in enumerate(row):
            if v:
                add_entry(G, g0 + i, h, v if sign > 0 else neg(v))


def add_value(S, G, sid, shift, sign, support):
    """Add S's value at sid to G as consecutive ids, degree q at q + shift,
    differential times sign (±1), all with the given support; {q: first id}."""
    qs = S.dims.get(sid, {})
    first = {q: G.add_gen(q + shift, support, qs[q]) for q in sorted(qs)}
    for q, m in S.diffs.get(sid, {}).items():
        if q in first and q + 1 in first:
            add_block(G, first[q], first[q + 1], m, sign)
    return first


def nerve_complex_reference(S, chains):
    """The nerve complex as `sections._nerve_complex` first assembled it.

    Every chain's value goes in through `add_value` and every entry
    through `add_entry` and `add_block`, with their cancellation rule.
    Returns (G, heads), heads[sid][q] the id of the first generator in
    degree q of the chain (sid,), for each sid with a nonzero value.  G
    has no map columns.
    """
    F = S.F
    one, mone = F.one, F.neg(F.one)
    G = SparseComplex(F)
    start = {}    # chain -> id of its first generator
    offsets = {}  # top simplex -> {q: offset of its degree-q block}
    for c in chains:
        ids = add_value(S, G, c[-1], len(c) - 1, (-1) ** (len(c) - 1), c[0])
        if ids:
            g0 = start[c] = min(ids.values())
            if c[-1] not in offsets:
                offsets[c[-1]] = {q: g - g0 for q, g in ids.items()}
    memo = {}
    for c in chains:
        cid = start.get(c)
        if cid is None:
            continue
        ln, top = len(c), c[-1]
        coff = offsets[top]
        for pos in range(ln):
            fid = start.get(c[:pos] + c[pos + 1:])
            if fid is None:
                continue
            if pos < ln - 1:
                sgn = one if pos % 2 == 0 else mone
                for q, n in S.dims[top].items():
                    f0, c0 = fid + coff[q], cid + coff[q]
                    for i in range(n):
                        add_entry(G, f0 + i, c0 + i, sgn)
            else:
                for q, o in offsets[c[-2]].items():
                    if q in coff:
                        add_block(G, fid + o, cid + coff[q],
                                  S.restriction(c[-2], top, q, memo), (-1) ** pos)
    heads = {c[0]: {q: cid + o for q, o in offsets[c[0]].items()}
             for c, cid in start.items() if len(c) == 1}
    return G, heads


def cellular_complex_reference(S, members):
    """The cellular complex as `sections._cellular_complex` first assembled it.

    Every member's value goes in through `add_value` and every cover
    restriction through `add_block`, with their cancellation rule.
    """
    K = S.complex
    G = SparseComplex(S.F)
    members = sorted(S.domain.intersection(members))
    first = {sid: add_value(S, G, sid, K.sdim(sid), (-1) ** K.sdim(sid), sid)
             for sid in members}
    for sid in members:
        for cof, sign in K.cofacets[sid]:
            cof0 = first.get(cof)
            if cof0 is None:
                continue
            for q, g0 in first[sid].items():
                if q in cof0:
                    add_block(G, g0, cof0[q], S.restriction_cover(sid, cof, q), sign)
    return G


def add_family_columns_reference(S, G, heads, sid, bids):
    """The compatible-family columns of the far simplex sid, into G's ucols,
    as the pushforward first made them: column (sid, q, i) holds the
    restriction of basis vector i of S(sid) in degree q to every boundary
    simplex ρ ≥ sid, at the chain (ρ,), one composite per (sid, ρ)."""
    memo, ucol = {}, G.ucol
    for rho in S.complex.up_set(sid):
        if rho not in bids:
            continue
        for q, d in sorted(S.dims.get(sid, {}).items()):
            n = S.dim(rho, q)
            if not n:
                continue
            rm, h0 = S.restriction(sid, rho, q, memo), heads[rho][q]
            for i in range(d):
                key = (sid, q, i)
                for j in range(n):
                    v = rm[j][i]
                    if v:
                        ucol(h0 + j)[key] = v


def unit_columns_reference(S, heads, members, units):
    """The unit columns `sections._nerve_complex` writes for the simplices
    in units, by definition: column (t, q, j) holds r(t→ρ) e_j at the
    chain (ρ,) for every member ρ ≥ t, each composite from
    `composite_restriction`, placed by the reference's heads.  Returns
    {id: {key: value}} with the nonzero values only."""
    K, out = S.complex, {}
    for t in units:
        for rho in K.up_set(t):
            if rho not in members or rho not in heads or t not in heads:
                continue
            for q, h0 in heads[rho].items():
                n = S.dim(t, q)
                if not n:
                    continue
                rm = composite_restriction(S, t, rho, q)
                for j in range(n):
                    for k, row in enumerate(rm):
                        if row[j]:
                            out.setdefault(h0 + k, {})[(t, q, j)] = row[j]
    return out


def pushforward_reference(S, V):
    """The open pushforward as `sections.pushforward_open` first made it.

    The nerve complex and the compatible-family columns of every far
    simplex next to the boundary region come from the references above;
    then the same cleanup and the same materialization, each family block
    read off the reduced family columns.  No stalk check.
    """
    K, F, U = S.complex, S.F, S.domain
    new_ids = V - U
    if not new_ids:
        return S
    bids = K.walk(new_ids, K.cofacets) & U
    far = U - bids
    region = bids | new_ids
    G, heads = nerve_complex_reference(S, all_chains(K, bids))
    far_adjacent = {sid for sid in far if any(c in bids for c, _ in K.cofacets[sid])}
    for sid in sorted(far_adjacent):
        add_family_columns_reference(S, G, heads, sid, bids)
    G.reduce(same_support=True)
    dims = {sid: d for sid, d in S.dims.items() if sid in far}
    diffs = {sid: d for sid, d in S.diffs.items() if sid in far}
    restr = {p: ms for p, ms in S.restrictions.items() if p[0] in far and p[1] in far}
    at = {sid: {} for sid in region}
    for g in G.gens_sorted():
        for sid in K.walk((G.support[g],), K.facets):
            if sid in region:
                rows = at[sid].setdefault(G.degree[g], {})
                rows[g] = len(rows)
    for s in sorted(region | far_adjacent):
        qs, dm = at.get(s), {}
        if qs:
            dims[s] = {q: len(rows) for q, rows in qs.items()}
        for q, cols in (qs or {}).items():
            if q + 1 in qs:
                m = sec._block(F, qs[q + 1], len(cols), sec._out_entries(G, cols))
                if m:
                    dm[q] = m
        if dm:
            diffs[s] = dm
        for t, _ in K.cofacets[s]:
            if t not in at:
                continue
            rm = {}
            if qs is not None:
                for q, cols in qs.items():
                    rows = at[t].get(q)
                    if rows:
                        rm[q] = sec._block(F, rows, len(cols),
                                           [(g, cols[g], F.one) for g in rows])
            else:
                for q, d in sorted(S.dims.get(s, {}).items()):
                    rows = at[t].get(q)
                    if rows:
                        m = sec._block(F, rows, d, [
                            (g, i, G.ucols.get(g, {}).get((s, q, i)))
                            for g in rows for i in range(d)])
                        if m:
                            rm[q] = m
            if rm:
                restr[(s, t)] = rm
    return SheafComplex(F, K, V, dims, diffs, restr)


def star_costalk(S, sid):
    """Costalk dims at a simplex of the domain from its open star alone.

    The cellular complex over up(sid) ∩ domain, freely reduced with no
    same-support pass first: the per-simplex path `sections.cell_costalk`
    replaced, which reads every costalk a job needs off one reduction.
    """
    return sec._cellular_complex(S, S.complex.up_set(sid)).minimize_dims()


def pushforward_mismatch(S, T):
    """Where T is not the open pushforward of S by definition, or None.

    The stalk of Rj_*S at a simplex σ of T's domain is RΓ over the deleted
    star up(σ) ∩ domain(S) (`rgamma_dims`); at an old simplex that is S's
    own stalk.  Returns (simplex, degree, T's dim, the definition's dim) at
    the first simplex in id order that differs.
    """
    K = S.complex
    for sid in sorted(T.domain):
        want = S.stalk_cohomology(sid) if sid in S.domain \
            else rgamma_dims(S, K.up_set(sid))
        got = T.stalk_cohomology(sid)
        q = first_difference(got, want)
        if q is not None:
            return list(K.simplices[sid]), q, got.get(q, 0), want.get(q, 0)
    return None


def restrict_closed(S, subset):
    """S restricted to a down-closed subset of its domain."""
    if not (subset <= S.domain and S.complex.is_down_closed(subset, within=S.domain)):
        raise SheafError("restrict_closed needs a down-closed subset of the domain")
    dims = {s: qs for s, qs in S.dims.items() if s in subset}
    diffs = {s: ms for s, ms in S.diffs.items() if s in subset}
    restr = {p: ms for p, ms in S.restrictions.items()
             if p[0] in subset and p[1] in subset}
    return SheafComplex(S.F, S.complex, subset, dims, diffs, restr)


def is_refinement(strat1, strat2):
    """True iff every stratum of strat2 is a union of strat1 strata.

    Returns (bool, correspondence) where correspondence maps each strat1
    stratum index to the strat2 stratum index containing it (when true).
    """
    if strat1.complex is not strat2.complex:
        raise StratificationError("stratifications live on different complexes")
    corr = {}
    for s1 in strat1.strata:
        hosts = [s2.index for s2 in strat2.strata
                 if s1.simplex_set <= s2.simplex_set]
        if len(hosts) != 1:
            return False, {}
        corr[s1.index] = hosts[0]
    covered = {j: set() for j in range(len(strat2.strata))}
    for i, j in corr.items():
        covered[j].update(strat1.strata[i].simplex_set)
    for s2 in strat2.strata:
        if covered[s2.index] != set(s2.simplex_set):
            return False, {}
    return True, corr


# The pure-dimensional recursion on each closure X^m, whose extensions by
# zero sum to the direct-sum complex that `build_ic` builds in one pass.

def subcomplex(K, down_closed_set):
    """A down-closed set of ids of K as a standalone complex, with id maps."""
    assert K.is_down_closed(down_closed_set)
    tuples = [K.simplices[i] for i in sorted(down_closed_set)]
    sub = SimplicialComplex({v for t in tuples for v in t}, tuples)
    to_parent = {sub.index[t]: K.index[t] for t in tuples}
    from_parent = {v: k for k, v in to_parent.items()}
    return sub, to_parent, from_parent


def stellar(K, levels, sigma):
    """Stellar subdivision of K at the simplex sigma, with its levels.

    A new vertex v, one past the largest vertex, goes inside sigma: each
    maximal simplex T ⊇ sigma becomes the simplices {v} ∪ T − {x} for
    x ∈ sigma, and each generating simplex of a level changes the same
    way.  Returns (K', levels', carrier): carrier[i] is the id in K of the
    smallest old simplex that contains simplex i of K', which is v
    replaced by sigma.
    """
    sigma = set(sigma)
    v = max(K.vertices) + 1

    def split(simplices):
        out = []
        for t in simplices:
            if sigma <= set(t):
                out.extend(sorted((set(t) - {x}) | {v}) for x in sorted(sigma))
            else:
                out.append(list(t))
        return out

    maximal = [t for i, t in enumerate(K.simplices) if not K.cofacets[i]]
    K2 = SimplicialComplex(K.vertices + (v,), split(maximal))
    carrier = [K.id_of((set(t) - {v}) | sigma if v in t else t) for t in K2.simplices]
    return K2, {k: split(gens) for k, gens in levels.items()}, carrier


def restrict_stratification(strat, closed_set):
    """The induced stratification of a down-closed union of strata."""
    K = strat.complex
    sub, to_parent, from_parent = subcomplex(K, closed_set)
    levels = {str(k): [K.simplices[i] for i in strat.level(k) if i in from_parent]
              for k in range(sub.dim // 2 + 1)}
    return validate_stratification(sub, levels), sub, to_parent, from_parent


def transport_complex(S, target_complex, id_map, domain):
    dims = {id_map[s]: dict(qs) for s, qs in S.dims.items() if s in id_map}
    diffs = {id_map[s]: dict(ms) for s, ms in S.diffs.items() if s in id_map}
    restr = {(id_map[s], id_map[t]): dict(ms) for (s, t), ms in S.restrictions.items()
             if s in id_map and t in id_map}
    return SheafComplex(S.F, target_complex, domain, dims, diffs, restr)


def build_ic_pure(strat, m, Lm=None, field=QQ):
    """The classical pure-dimensional complex on the closure X^m.

    Validates purity of the closed part, runs the recursion there, and
    returns the result extended by zero back over the ambient complex.
    """
    filt = compute_open_filtration(strat)
    if m not in filt.U_m or not len(filt.U_m[m]):
        raise StratificationError("no open strata of complex dimension %d" % m)
    closed = filt.X_m[m]
    substrat, sub, to_parent, from_parent = restrict_stratification(strat, closed)
    subfilt = compute_open_filtration(substrat)
    for j, uj in subfilt.U_m.items():
        if j != m and len(uj):
            raise StratificationError(
                "closure of the dimension-%d strata is not pure: open strata of dimension %d"
                % (m, j))
    if Lm is None:
        Lsub = None
    else:
        sub_dom = frozenset({from_parent[i] for i in Lm.domain})
        Lsub = transport_complex(Lm, sub, from_parent, sub_dom)
    bundle = build_ic(substrat, Lsub, field=field)
    parent_ic = transport_complex(bundle.ic, strat.complex, to_parent, closed)
    return parent_ic, bundle


def direct_sum(A, B):
    """Blockwise sum of two complexes on one domain.

    A simplex or cover pair where one summand alone has a value keeps that
    summand's maps as they are; elsewhere every degree is a block-diagonal
    matrix.  The construction glues disjoint pieces instead (`deligne._glue`);
    this is the general sum the tests compare and add complexes with.
    """
    if A.domain != B.domain:
        raise SheafError("direct sum requires equal domains")
    if A.F is not B.F:
        raise SheafError("direct sum requires a common field")
    F = A.F
    none = {}

    def total(in_a, in_b, ma, mb, shape):
        # shape(S, q): the rows and columns of S's degree-q block
        if not in_b:
            return ma
        if not in_a:
            return mb
        ma, mb = ma or none, mb or none
        return {q: block_diag(F, ma.get(q), mb.get(q), *shape(A, q), *shape(B, q))
                for q in sorted(ma.keys() | mb.keys())}

    dims, diffs, restr = {}, {}, {}
    for sid in A.dims.keys() | B.dims.keys():
        qa, qb = A.dims.get(sid, none), B.dims.get(sid, none)
        dims[sid] = {q: qa.get(q, 0) + qb.get(q, 0) for q in sorted(qa.keys() | qb.keys())} \
            if qa and qb else qa or qb
        dm = total(qa, qb, A.diffs.get(sid), B.diffs.get(sid),
                   lambda S, q: (S.dim(sid, q + 1), S.dim(sid, q)))
        if dm:
            diffs[sid] = dm
    for (s, t) in A.restrictions.keys() | B.restrictions.keys():
        rm = total(s in A.dims or t in A.dims, s in B.dims or t in B.dims,
                   A.restrictions.get((s, t)), B.restrictions.get((s, t)),
                   lambda S, q: (S.dim(t, q), S.dim(s, q)))
        if rm:
            restr[(s, t)] = rm
    return SheafComplex(F, A.complex, A.domain, dims, diffs, restr)


def block_diag(F, A, B, ra, ca, rb, cb):
    """diag(A, B) for an ra × ca block A and an rb × cb block B; None is zero."""
    out = mx.zeros(F, ra + rb, ca + cb)
    if A is not None:
        for i in range(ra):
            out[i][:ca] = A[i]
    if B is not None:
        for i in range(rb):
            out[ra + i][ca:] = B[i]
    return out


def extend_by_zero(S, ambient):
    """S extended by zero to an ambient set of ids containing its domain.

    The domain must be down-closed inside the ambient set (closed
    pushforward); values outside are zero, so no new matrices appear.
    """
    if not S.domain <= ambient:
        raise SheafError("ambient set must contain the domain")
    if not S.complex.is_down_closed(S.domain, within=ambient):
        raise SheafError("extend_by_zero requires a domain closed in the ambient set")
    return SheafComplex(S.F, S.complex, ambient, S.dims, S.diffs, S.restrictions)


def check_decomposition(bundle):
    """Compare the direct construction with the sum of pure-closure complexes.

    Builds each pure piece independently, extends by zero, sums, and
    compares stalk cohomology tables at every simplex and degree.
    """
    strat = bundle.stratification
    K = strat.complex
    total = None
    summand_hyperco = {}
    for m in sorted(bundle.systems):
        piece, sub_bundle = build_ic_pure(strat, m, bundle.systems[m],
                                          field=bundle.field)
        summand_hyperco[m] = sec.hypercohomology(sub_bundle.ic)
        ext = extend_by_zero(piece, K.full_set())
        total = ext if total is None else direct_sum(total, ext)
    table_direct = bundle.ic.stalk_table()
    table_sum = total.stalk_table()
    mismatch = None
    for sid in sorted(K.full_set()):
        bad = first_difference(table_direct.get(sid, {}), table_sum.get(sid, {}))
        if bad is not None:
            mismatch = {"simplex": list(K.simplices[sid]), "degree": bad,
                        "direct": table_direct.get(sid, {}).get(bad, 0),
                        "sum": table_sum.get(sid, {}).get(bad, 0)}
            break
    return {
        "passed": mismatch is None,
        "first_mismatch": mismatch,
        "summand_hypercohomology": {m: dict(h) for m, h in summand_hyperco.items()},
        "sum_hypercohomology": sec.hypercohomology(total),
        "direct_hypercohomology": sec.hypercohomology(bundle.ic),
    }


# The dense solver that `sections.cohomology_sheaf` and `truncate_le` used
# before they read kernel coordinates at the free columns.

def mat_vec(F, A, v):
    out = []
    for row in A:
        s = F.zero
        for a, x in zip(row, v):
            if a and x:
                s = F.add(s, F.mul(a, x))
        out.append(s)
    return out


def transpose(F, A, cols=None):
    r, c = mx.shape(A)
    if c == 0 and cols is not None:
        c = cols
    return [[A[i][j] for i in range(r)] for j in range(c)]


def hstack(A, B, rows):
    if not A:
        A = [[] for _ in range(rows)]
    if not B:
        B = [[] for _ in range(rows)]
    return [ra + rb for ra, rb in zip(A, B)]


def right_kernel_basis(F, A, ncols=None):
    """Basis of {x : Ax = 0} as a list of column vectors, canonical order."""
    if ncols is None:
        ncols = mx.shape(A)[1]
    if ncols == 0:
        return []
    if not A:
        return [[F.one if i == j else F.zero for i in range(ncols)]
                for j in range(ncols)]
    R, pivots = mx.rref(F, A)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [F.zero] * ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][fc])
        basis.append(v)
    return basis


def solve_right(F, A, B, ncols=None):
    """X with A X = B (B a matrix of column targets). Raises on inconsistency."""
    nr, nc = mx.shape(A)
    if ncols is not None:
        nc = ncols
    nb = mx.shape(B)[1] if B else 0
    aug = hstack(A if A else [[] for _ in range(nr)], B, nr)
    R, pivots = mx.rref(F, aug)
    for c in pivots:
        if c >= nc:
            raise ValueError("inconsistent linear system")
    X = mx.zeros(F, nc, nb)
    for r, pc in enumerate(pivots):
        for j in range(nb):
            X[pc][j] = R[r][nc + j]
    return X


def basis_extension(F, B, K):
    """Indices of columns of K extending the column span of B to span(B)+span(K).

    B and K are matrices with the same row count; returns the canonical
    (leftmost) selection of K-columns.
    """
    rows = len(B) if B else (len(K) if K else 0)
    nb = mx.shape(B)[1] if B else 0
    aug = hstack(B, K, rows)
    _, pivots = mx.rref(F, aug)
    return [c - nb for c in pivots if c >= nb]


class CochainCohomology:
    """Cohomology of one degree of a cochain complex, with induced-map support.

    Holds a canonical basis of H = ker(d_out)/im(d_in) represented by
    column vectors in the ambient space, plus enough data to project any
    cocycle onto H-coordinates.
    """

    def __init__(self, F, dim, d_in, d_out):
        # d_in: matrix into this degree (or None), d_out: matrix out (or None)
        self.F = F
        self.dim = dim
        if dim == 0:
            self.h_dim = 0
            self.reps = []
            self._proj_basis = None
            return
        if d_out is not None and len(d_out) > 0:
            kernel = right_kernel_basis(F, d_out, ncols=dim)
        else:
            kernel = [[F.one if i == j else F.zero for i in range(dim)]
                      for j in range(dim)]
        K = transpose(F, kernel, cols=dim) if kernel else [[] for _ in range(dim)]
        if d_in is not None and mx.shape(d_in)[1] > 0:
            Bim = d_in
        else:
            Bim = [[] for _ in range(dim)]
        ext = basis_extension(F, Bim, K)
        self.reps = [kernel[j] for j in ext]
        self.h_dim = len(self.reps)
        # ambient-basis matrix [im | reps] used to read off H-coordinates
        reps_mat = transpose(F, self.reps, cols=dim) if self.reps \
            else [[] for _ in range(dim)]
        self._proj_basis = hstack(Bim, reps_mat, dim)
        self._n_im = mx.shape(Bim)[1]

    def project(self, vectors):
        """H-coordinates of cocycle column vectors: returns (h_dim, len(vectors)) matrix."""
        F = self.F
        if self.h_dim == 0:
            return mx.zeros(F, 0, len(vectors))
        B = transpose(F, vectors, cols=self.dim)
        X = solve_right(F, self._proj_basis, B)
        return [X[self._n_im + i] for i in range(self.h_dim)]


def cohomology_sheaf_reference(S, a):
    """The degree-a cohomology sheaf, one CochainCohomology per simplex.

    `sections.cohomology_sheaf` before its flat path, its memo and its
    kernel coordinates: every stalk gets a kernel and image basis by dense
    row reduction, and every restriction is projected by a linear solve.
    """
    F = S.F
    data = {}
    stalks = {}
    for sid in sorted(S.domain):
        n = S.dim(sid, a)
        d_out = S.diff(sid, a) if S.dim(sid, a + 1) else None
        d_in = S.diff(sid, a - 1) if S.dim(sid, a - 1) else None
        coh = CochainCohomology(F, n, d_in, d_out)
        data[sid] = coh
        if coh.h_dim:
            stalks[sid] = {a: coh.h_dim}
    restr = {}
    for (s, t) in S.complex.cover_pairs(S.domain):
        cs, ct = data[s], data[t]
        if cs.h_dim == 0 and ct.h_dim == 0:
            continue
        if cs.h_dim == 0:
            restr[(s, t)] = {a: mx.zeros(F, ct.h_dim, 0)}
            continue
        r = S.restriction_cover(s, t, a)
        images = [mat_vec(F, r, rep) for rep in cs.reps]
        restr[(s, t)] = {a: ct.project(images)}
    return SheafComplex(F, S.complex, S.domain, stalks, {}, restr)


def is_clc_reference(S, strat):
    """`sections.is_clc` by brute force over the reference cohomology sheaves.

    Degrees ascending, then strata by index, then each stratum's cover
    pairs inside the domain in ascending order; a restriction is invertible
    when its two stalks agree in dimension and it has full rational rank.
    """
    K = S.complex
    lo, hi = S.degree_range()
    for a in range(lo, hi + 1):
        H = cohomology_sheaf_reference(S, a)
        for st in sorted(strat.strata, key=lambda st: st.index):
            ids = st.simplex_set & S.domain
            for s in sorted(ids):
                for t, _ in K.cofacets[s]:
                    if t not in ids:
                        continue
                    n = H.dim(s, a)
                    if n != H.dim(t, a) or \
                            rational_rank(H.restriction_cover(s, t, a)) != n:
                        return False, {"stratum": st.index, "degree": a,
                                       "pair": (K.simplices[s], K.simplices[t])}
    return True, None


def shift(S, k):
    """S[k]: degree q becomes q−k; differentials pick up (−1)^k."""
    if k == 0:
        return S
    F = S.F
    dims = {s: {q - k: d for q, d in qs.items()} for s, qs in S.dims.items()}
    diffs = {s: {q - k: (m if k % 2 == 0 else [[F.neg(x) for x in row] for row in m])
                 for q, m in ms.items()}
             for s, ms in S.diffs.items()}
    restr = {p: {q - k: m for q, m in ms.items()} for p, ms in S.restrictions.items()}
    return SheafComplex(F, S.complex, S.domain, dims, diffs, restr)


def canonical_json(doc):
    """The text `reports.write_json` writes for doc, by one `json.dumps` call.

    A `reports.Rows` stands for the dict of its rows and a `reports.Text`
    for the value its JSON text spells; `json.dumps` would encode either
    as something else.
    """
    def plain(obj):
        if type(obj) is reports.Text:
            return json.loads(obj)
        if type(obj) is reports.Rows or isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [plain(v) for v in obj]
        return obj

    return json.dumps(plain(doc), sort_keys=True, separators=(",", ":")) + "\n"


def orientation_system(K, U):
    """The orientation local system on U, a manifold part of K of dimension K.dim.

    Returns (dims, signs) for `make_local_system`: rank 1 at every simplex
    of U, and on each cover pair σ ⋖ τ of U the sign ±1 of the map.  The
    stalk at σ is spanned by the vertex order of a reference top simplex
    T(σ) ⊇ σ, the least one; an orientation moves from a top simplex T to
    T' across their shared facet f with the sign −ε(f, T)·ε(f, T'), through
    the top simplices of σ's star and the facets that contain σ.  The map
    σ → τ is the sign with which T(σ)'s order arrives at T(τ).
    """
    tops = [t for t in range(len(K)) if K.sdim(t) == K.dim]
    star = {}  # simplex -> the top simplices containing it
    for t in tops:
        for s in K.walk([t], K.facets):
            star.setdefault(s, []).append(t)
    incidence = {t: dict(K.facets[t]) for t in tops}

    def arrival(s):
        """{top simplex of s's star: the sign T(s)'s order arrives with}"""
        verts = set(K.simplices[s])
        got, todo = {min(star[s]): 1}, [min(star[s])]
        while todo:
            t = todo.pop()
            for f, e in K.facets[t]:
                if not verts <= set(K.simplices[f]):
                    continue
                for t2, _ in K.cofacets[f]:
                    if t2 not in got:
                        got[t2] = -got[t] * e * incidence[t2][f]
                        todo.append(t2)
        return got

    signs = {}
    for s in sorted(U):
        moved = arrival(s)
        for t, _ in K.cofacets[s]:
            if t in U:
                signs[(s, t)] = moved[min(star[t])]
    return {s: 1 for s in U}, signs


def load_sheaf_complex(doc, K, F):
    """A SheafComplex back from its `reports.sheaf_complex_doc` document.

    A key names each vertex v by str(v), so "01" is the string vertex "01".
    """
    named = {str(v): v for v in K.vertices}

    def parse_simplex(key):
        return K.id_of([named[p] for p in key.split(" ")])

    def parse_matrix(m):
        return [[F.parse(x) for x in row] for row in m]

    domain = frozenset(K.id_of(t) for t in doc["domain"])
    dims = {parse_simplex(k): {int(q): d for q, d in v.items()}
            for k, v in doc["stalk_dims"].items()}
    diffs = {parse_simplex(k): {int(q): parse_matrix(m) for q, m in v.items()}
             for k, v in doc["differentials"].items()}
    restr = {}
    for k, v in doc["restrictions"].items():
        a, b = k.split("|")
        restr[(parse_simplex(a), parse_simplex(b))] = {
            int(q): parse_matrix(m) for q, m in v.items()}
    return SheafComplex(F, K, domain, dims, diffs, restr)


# The eliminator as it was while its reverse index `din` held
# {source: value} dicts, built by `reduce` on entry and dropped on return,
# with one int per heap candidate: `reduce`, `eliminate` and `_detach`
# unchanged.

class DictIndexComplex:
    """A copy of a SparseComplex's state, reduced by the dict-indexed eliminator."""

    def __init__(self, G):
        self.F = G.F
        self.degree = dict(G.degree)
        self.support = list(G.support)
        self.dout = [dict(row) for row in G.dout]
        self.ucols = {g: dict(col) for g, col in G.ucols.items()}

    def add_ucol(self, h, ext, val):
        if not val:
            return
        col = self.ucols.setdefault(h, {})
        cur = col.get(ext)
        new = val if cur is None else self.F.add(cur, val)
        if new:
            col[ext] = new
        else:
            col.pop(ext, None)

    def _detach(self, g):
        din, dout = self.din, self.dout
        for t in dout[g]:
            del din[t][g]
        for s in din[g]:
            del dout[s][g]
        dout[g] = {}
        din[g] = {}
        self.ucols.pop(g, None)
        del self.degree[g]

    def eliminate(self, g, h):
        """Gaussian elimination of the differential entry g -> h.

        Needs the reverse index `din`, which `reduce` holds while it runs.
        Returns the other sources into h and the other targets of g, as
        {id: value} dicts.
        """
        F = self.F
        outs = self.dout[g]
        ins = self.din[h]
        alpha = outs.pop(h)
        del ins[g]
        uh = self.ucols.get(h)
        self._detach(g)
        self._detach(h)
        inv = F.inv(alpha)
        add, mul, neg = F.add, F.mul, F.neg
        dout, din = self.dout, self.din
        # the fill s -> t is nonzero; it goes in under add_entry's rule
        for s, a in ins.items():
            coeff = neg(mul(a, inv))
            row = dout[s]
            for t, b in outs.items():
                val = mul(coeff, b)
                cur = row.get(t)
                if cur is None:
                    row[t] = din[t][s] = val
                else:
                    new = add(cur, val)
                    if new:
                        row[t] = din[t][s] = new
                    else:
                        del row[t]
                        del din[t][s]
        if uh:
            for ext, a in uh.items():
                coeff = neg(mul(a, inv))
                for t, b in outs.items():
                    self.add_ucol(t, ext, mul(coeff, b))
        return ins, outs

    def reduce(self, same_support=False):
        """Exhaustively eliminate admissible pivots, deterministically.

        Uses lazy Markowitz ordering: candidates are kept in a heap ordered
        by (fill estimate, source id, target id) and revalidated on pop.
        An eliminated id has no entries left, so a candidate is stale
        exactly when its entry is gone.  Each candidate is one int,
        cost << 2b | g << b | h with b the bit length of the id count:
        ids are below 2^b, so ints order exactly as the tuples would, in
        about a third of the memory and untracked by the cycle collector.

        The reverse index `din` is built from `dout` on entry and dropped
        on return.
        """
        dout, support = self.dout, self.support
        din = self.din = [{} for _ in dout]
        for g, row in enumerate(dout):
            for h, v in row.items():
                din[h][g] = v
        b = len(dout).bit_length()
        mask = (1 << b) - 1
        heap = []
        push = heapq.heappush
        try:
            for g, row in enumerate(dout):
                ng = len(row) - 1
                for h in row:
                    if not same_support or support[g] == support[h]:
                        heap.append(((len(din[h]) - 1) * ng << b | g) << b | h)
            heapq.heapify(heap)
            while heap:
                key = heapq.heappop(heap)
                h = key & mask
                g = key >> b & mask
                if h not in dout[g]:
                    continue
                cur = (len(din[h]) - 1) * (len(dout[g]) - 1)
                if cur > key >> 2 * b:
                    push(heap, (cur << b | g) << b | h)
                    continue
                ins, _ = self.eliminate(g, h)
                for s in ins:
                    row = dout[s]
                    ns = len(row) - 1
                    for t in row:
                        if not same_support or support[s] == support[t]:
                            push(heap, ((len(din[t]) - 1) * ns << b | s) << b | t)
        finally:
            del self.din


# The eliminator before that: a persistent `din` and (cost, source, target)
# heap tuples, with the same `eliminate` and `_detach`.

class ReferenceComplex(DictIndexComplex):
    """A copy of a SparseComplex's state, reduced by the tuple-keyed eliminator."""

    def __init__(self, G):
        super().__init__(G)
        self.din = [{} for _ in G.dout]
        for g, row in enumerate(self.dout):
            for h, v in row.items():
                self.din[h][g] = v

    def reduce(self, same_support=False):
        dout, din, support = self.dout, self.din, self.support
        heap = []
        push = heapq.heappush

        for g, row in enumerate(dout):
            ng = len(row) - 1
            for h in row:
                if not same_support or support[g] == support[h]:
                    heap.append(((len(din[h]) - 1) * ng, g, h))
        heapq.heapify(heap)
        while heap:
            cost, g, h = heapq.heappop(heap)
            if h not in dout[g]:
                continue
            cur = (len(din[h]) - 1) * (len(dout[g]) - 1)
            if cur > cost:
                push(heap, (cur, g, h))
                continue
            ins, _ = self.eliminate(g, h)
            for s in ins:
                row = dout[s]
                ns = len(row) - 1
                for t in row:
                    if not same_support or support[s] == support[t]:
                        push(heap, ((len(din[t]) - 1) * ns, s, t))


def first_reduced_difference(G, R):
    """The first id whose liveness, degree, row or map columns differ, or None."""
    for g in range(max(len(G.dout), len(R.dout))):
        if g >= len(G.dout) or g >= len(R.dout) or G.degree.get(g) != R.degree.get(g) \
                or G.dout[g] != R.dout[g] or G.ucols.get(g) != R.ucols.get(g):
            return g
    return None


# Intersection homology from allowable chains (Goresky–MacPherson,
# Topology 19, 1980), over GF(p), with its own sparse rank.  It reads only
# the simplices and the closed levels X_0 ⊆ X_1 ⊆ … of a stratification,
# as sets of vertex sets; nothing of the sheaf engine.

def _gf_ranks(columns, split, p):
    """(rank M, rank of M's rows ≥ split) over GF(p), M given by its columns.

    Each column is a {row: value} dict.  Columns are reduced in turn
    against the earlier ones at their highest row.  A reduced column whose
    pivot lies below `split` has no entry at a row ≥ split, and those whose
    pivots are ≥ split stay independent on those rows, so they count the
    rank of the high rows.
    """
    pivots = {}
    rank = high = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            r = max(col)
            other = pivots.get(r)
            if other is None:
                inv = pow(col[r], p - 2, p)
                pivots[r] = {k: v * inv % p for k, v in col.items()}
                rank += 1
                high += r >= split
                break
            f = col[r]
            for k, v in other.items():
                x = (col.get(k, 0) - f * v) % p
                if x:
                    col[k] = x
                else:
                    col.pop(k, None)
    return rank, high


def _ih(members, level, m, p):
    """{i: IH_i} over GF(p) of a space with closed levels of codimension 2(m − j).

    members: the space's simplices as frozensets.  level[τ] is the least
    j < m with τ in the closed level X_j, or m where there is none.  The
    chains are those of the barycentric subdivision: an i-flag τ_0 ⊂ … ⊂ τ_i
    of members.  Its members in X_j form an initial segment, and it is
    allowable when, for every j < m, there are none or at most i − m + j of
    them: middle perversity at the real codimension 2(m − j).  With A_i the
    allowable i-flags and π_i the projection onto the others,
    IH_i = |A_i| − rank ∂|A_i − rank ∂|A_(i+1) + rank π_i ∂|A_(i+1).
    """
    order = sorted(members, key=lambda t: (len(t), sorted(t)))
    up = {t: [u for u in order if len(u) > len(t) and t < u] for t in order}
    flags = {}

    def extend(flag):
        flags.setdefault(len(flag) - 1, []).append(flag)
        for u in up[flag[-1]]:
            extend(flag + (u,))

    for t in order:
        extend((t,))
    rows, split = {}, {}  # allowable i-flags first, then the others
    for i, fs in flags.items():
        good, bad = [], []
        for f in fs:
            (good if _allowable(f, level, m) else bad).append(f)
        rows[i] = {f: r for r, f in enumerate(good + bad)}
        split[i] = len(good)
    ranks = {}
    for i in flags:
        if i == 0:
            continue
        below = rows[i - 1]
        cols = [{below[f[:k] + f[k + 1:]]: (-1) ** k for k in range(i + 1)}
                for f, r in rows[i].items() if r < split[i]]
        ranks[i] = _gf_ranks(cols, split[i - 1], p)
    out = {}
    for i in flags:
        r_i = ranks.get(i, (0, 0))[0]
        r_up, s_up = ranks.get(i + 1, (0, 0))
        h = split[i] - r_i - r_up + s_up
        if h:
            out[i] = h
    return out


def _allowable(flag, level, m):
    i = len(flag) - 1
    for j in range(m):
        c = sum(level[t] <= j for t in flag)
        if c and c > i - m + j:
            return False
    return True


def _pure_closures(simplices, levels):
    """{m: X^m}: the closure of the union of the open strata of dimension m.

    simplices: every simplex of the space, as a frozenset; levels[k]: the
    closed level X_k, a set of them.  A stratum is a component of
    X_m − X_(m−1) under face-comparability (`components_by_bfs`; the
    difference is convex, so that is connection through the cover
    relation), and it is open when it holds every coface of its members.
    """
    cofacets = {s: [] for s in simplices}
    for s in simplices:
        if len(s) > 1:
            for v in s:
                cofacets[s - {v}].append(s)
    out = {}
    for m in range(1, len(levels)):
        union = []
        for comp in components_by_bfs(levels[m] - levels[m - 1]):
            comp = {frozenset(t) for t in comp}
            if all(u in comp for s in comp for u in cofacets[s]):
                union += comp
        out[m] = {frozenset(c) for c in close_downward(union)}
    return out


def _level_of(members, levels, m, sigma=frozenset()):
    """{τ: the least j < m with τ ∪ sigma in X_j, or m}."""
    return {t: next((j for j in range(m) if t | sigma in levels[j]), m) for t in members}


def intersection_homology(K, levels, p):
    """{m: {i: IH_i(X^m)}} over GF(p), from allowable chains.

    levels: the stratification document's levels, {str(k): generating
    simplices}; X^m is computed from them here.  X^m has real dimension
    2m, and its closed level X_j (j < m) real codimension 2(m − j).  By the
    paper's decomposition the direct-sum IC has H^q = Σ_m IH_(m−q)(X^m).
    """
    lv = [{frozenset(c) for c in close_downward(levels[k])} for k in sorted(levels, key=int)]
    closures = _pure_closures([frozenset(s) for s in K.simplices], lv)
    return {m: _ih(X, _level_of(X, lv, m), m, p) for m, X in closures.items()}


def link_stalks(K, strat, p):
    """{sid: {a: dim}}, the direct-sum IC's stalks from the IH of links.

    A simplex σ of X^m outside X_(m−1) has stalk {−m: 1}.  Otherwise the
    open star of σ is R^(dim σ) × c°(lk σ), with lk σ taken in X^m and its
    level j the τ with τ ∪ σ in X_j; refined by the cone point as a stratum
    of codimension N = 2m − dim σ, the cone formula gives
    H^a(IC_(X^m))_σ = IH_(a+m)(lk σ) for a + m < N − 1 − ⌊(N − 2)/2⌋, and 0
    otherwise.  The stalk is the sum over the m with σ in X^m.
    """
    lv = [{frozenset(K.simplices[i]) for i in L} for L in strat.levels]
    closures = _pure_closures([frozenset(s) for s in K.simplices], lv)
    out = {}
    for sid, simplex in enumerate(K.simplices):
        sigma = frozenset(simplex)
        row = {}
        for m, X in sorted(closures.items()):
            if sigma not in X:
                continue
            if sigma not in lv[m - 1]:
                row[-m] = row.get(-m, 0) + 1
                continue
            N = 2 * m - (len(sigma) - 1)
            link = [t - sigma for t in X if sigma < t]
            for i, h in _ih(link, _level_of(link, lv, m, sigma), m, p).items():
                if i < N - 1 - (N - 2) // 2:
                    row[i - m] = row.get(i - m, 0) + h
        out[sid] = dict(sorted(row.items()))
    return out
