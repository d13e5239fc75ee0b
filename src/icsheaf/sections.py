"""Derived functor engine for cellular sheaf complexes.

Two cochain models compute sections.  The order-chain (nerve) model works
over every Alexandrov-open set: p-cochains are sums of stalks at the tops
of strict chains s0 ⊂ … ⊂ sp, the differential alternates over chain-face
deletions with a restriction on the top deletion, and the coefficient
complex is totalized in.  This is the derived limit over the poset; open
pushforward uses it for the sections over each deleted star.

The cellular model has one summand per simplex τ, in degree dim τ,
supported at τ, with incidence-signed cover restrictions.  Over a clopen
set it computes the same sections as the nerve model, and
`hypercohomology` uses it there; over the open star of a simplex it
computes the costalk there (compactly supported cochains of the star).
The open star's summands form a subcomplex of the cellular complex over
any up-set holding it, and a same-support reduction of that one complex
keeps every such subcomplex up to homotopy, so `cell_costalk` reads the
costalks at all the simplices a job asks for off one reduction over the
union of their stars.

Both are assembled by `_add_value` and `SparseComplex.add_block` and
reduced sparsely; a question about one value (stalk cohomology, a
truncation kernel, invertibility) is dense (`matrices`).

Open pushforward produces a nerve complex at every simplex of the target;
to keep iterated pushforwards small the result is reduced by Gaussian
elimination of differential entries between generators with the same
support simplex.  Each such elimination is an exact homotopy equivalence
of complexes of sheaves (the generator supports are down-sets, so a
same-support entry is an isomorphism between elementary summands), hence
stalk cohomology, costalks, hypercohomology and all restriction data are
preserved on the nose; a per-run check compares stalk tables against the
coefficient complex on the open part.
"""

from . import matrices as mx
from .reduction import SparseComplex
from .sheaves import SheafComplex, SheafError, first_difference
from .simplicial import all_chains


class EngineError(RuntimeError):
    pass


def _add_value(S, G, sid, shift, sign, support):
    """Add S's value at sid to G as consecutive ids, degree q at q + shift,
    differential times sign (±1), all with the given support; {q: first id}."""
    qs = S.dims.get(sid, {})
    first = {q: G.add_gen(q + shift, support, qs[q]) for q in sorted(qs)}
    for q, m in S.diffs.get(sid, {}).items():
        if q in first and q + 1 in first:
            G.add_block(first[q], first[q + 1], m, sign)
    return first


def _nerve_complex(S, chains):
    """The order-chain (nerve) complex of S over the given chains.

    Returns (G, heads), heads[sid][q] the id of the first generator in
    degree q of the one-element chain (sid,), for each sid with a nonzero
    value: the compatible-family map reads those and nothing else of the
    chain bookkeeping, which dies on return.  A chain c contributes the
    value at its top in degrees q + len(c) − 1, supported at its bottom,
    with the internal differential signed (−1)^(len−1).  Entries into c
    come from each of its faces among the chains: deleting the element at
    position pos below the top gives the identity signed (−1)^pos,
    deleting the top gives the restriction from the new top signed
    (−1)^(len−1).

    The bookkeeping holds one integer per chain, the id of its first
    generator: `_add_value` hands out consecutive ids in ascending degree
    order, so a chain's degree-q block starts at that id plus an offset
    that depends only on its top, kept in one table per top simplex.  A
    chain whose top has a zero value has no generators and no entry.
    The restrictions on top deletions share one memo of composites
    (`SheafComplex.restriction`), so each costs one product; it lives
    only as long as the call, and so is gone before any reduction of G.
    """
    F = S.F
    one, mone = F.one, F.neg(F.one)
    G = SparseComplex(F)
    start = {}    # chain -> id of its first generator
    offsets = {}  # top simplex -> {q: offset of its degree-q block}
    for c in chains:
        ids = _add_value(S, G, c[-1], len(c) - 1, (-1) ** (len(c) - 1), c[0])
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
                        G.add_entry(f0 + i, c0 + i, sgn)
            else:
                for q, o in offsets[c[-2]].items():
                    if q in coff:
                        G.add_block(fid + o, cid + coff[q],
                                    S.restriction(c[-2], top, q, memo), (-1) ** pos)
    heads = {c[0]: {q: cid + o for q, o in offsets[c[0]].items()}
             for c, cid in start.items() if len(c) == 1}
    return G, heads


def _cellular_complex(S, members):
    """The cellular cochain complex of S over a member set.

    One copy of S(τ) per member τ, in degree dim τ + q and supported at
    τ, with internal differential signed (−1)^dim τ and cover restrictions
    signed by incidence: d maps the block at τ into the blocks at τ and at
    its cofacets, so the blocks at the simplices ≥ σ form a subcomplex for
    every σ.
    """
    K = S.complex
    G = SparseComplex(S.F)
    members = sorted(S.domain.intersection(members))
    first = {sid: _add_value(S, G, sid, K.sdim(sid), (-1) ** K.sdim(sid), sid)
             for sid in members}
    for sid in members:
        for cof, sign in K.cofacets[sid]:
            cof0 = first.get(cof)
            if cof0 is None:
                continue
            for q, g0 in first[sid].items():
                if q in cof0:
                    G.add_block(g0, cof0[q], S.restriction_cover(sid, cof, q), sign)
    return G


def hypercohomology(S):
    """Hypercohomology dims of S over its domain, in the cellular model.

    The domain must be clopen (a union of connected components), where the
    cellular complex computes RΓ, the same sections as the order-chain
    model; any other domain raises SheafError.  Over the open star of a
    simplex the same complex computes the costalk there (`cell_costalk`),
    as in Shepard's cellular model of the derived category (Curry,
    Sheaves, Cosheaves and Applications, arXiv:1303.3255).
    """
    K, A = S.complex, S.domain
    if not (K.is_up_closed(A) and K.is_down_closed(A)):
        raise SheafError("hypercohomology needs a clopen domain")
    return _cellular_complex(S, A).minimize_dims()


def cell_costalk(S, sids):
    """Costalk dims at each of the given simplices: {sid: dims}.

    The costalk at σ is the compactly supported cochains of its open star:
    the cellular complex (see `hypercohomology`) over the cofaces τ ≥ σ in
    the domain, one summand per τ in degree dim τ + q.  Over the up-set of
    sids those summands form a subcomplex for every σ asked for, and one
    same-support reduction of the complex over that up-set keeps each of
    them: eliminating g → h, both supported at τ, writes fill only x → y
    with supp(x) ≤ τ ≤ supp(y).  For σ ≤ τ that is a Gaussian elimination
    inside σ's subcomplex; for σ ≰ τ no x lies in it, so its entries are
    untouched.  The costalk at σ is then the free reduction of the
    survivors supported at the simplices ≥ σ.  A simplex outside the
    domain raises SheafError.
    """
    K = S.complex
    sids = sorted(set(sids))
    if not S.domain.issuperset(sids):
        raise SheafError("simplex outside the domain")
    G = _cellular_complex(S, K.walk(sids, K.cofacets))
    G.reduce(same_support=True)
    survivors = {}  # support simplex -> its surviving generators
    for g in G.gens_sorted():
        survivors.setdefault(G.support[g], []).append(g)
    return {sid: G.subcomplex([g for tau in K.up_set(sid)
                               for g in survivors.get(tau, ())]).minimize_dims()
            for sid in sids}


def _vanishes(d):
    """Is the differential d (None where a degree is missing) zero?"""
    return d is None or not any(any(row) for row in d)


def truncate_le(S, a):
    """Good truncation: degrees < a kept, degree a replaced by ker d^a.

    Where d^a vanishes the kernel is all of degree a with the identity
    basis, and the degree-a blocks pass through unchanged; elsewhere they
    are read in the rref kernel basis at its free columns (`_coordinates`).
    A dims, differential or restriction map that lies wholly below a is
    S's own map, shared and not copied: no operation mutates a map.
    """
    F = S.F
    if S.degree_range()[1] <= a:
        return S
    none = {}
    dims, diffs, restr = {}, {}, {}
    kernels = {}  # sid -> (d^a, basis columns, free columns), None for the identity
    for sid, qs in S.dims.items():
        ms = S.diffs.get(sid, none)
        if max(qs) < a:
            dims[sid] = qs
            if ms:
                diffs[sid] = ms
            continue
        nd = {q: d for q, d in qs.items() if q < a}
        da = qs.get(a)
        if da:
            d = ms.get(a) if qs.get(a + 1) else None
            if _vanishes(d):
                nd[a] = da
                kernels[sid] = None
            else:
                kb, free = mx.kernel(F, d, da)
                if free:
                    nd[a] = len(free)
                    kernels[sid] = (d, kb, free)
        if nd:
            dims[sid] = nd
            dm = {}
            for q, m in ms.items():
                if q + 1 < a:
                    dm[q] = m
                elif q + 1 == a and sid in kernels:
                    # the image of d^{a-1} in the kernel basis
                    dm[q] = _coordinates(S, kernels[sid], m, a, "differential", (sid,))
            if dm:
                diffs[sid] = dm
    for (s, t), ms in S.restrictions.items():
        if ms and max(ms) < a:
            restr[(s, t)] = ms
            continue
        rm = {}
        for q, m in ms.items():
            if q < a:
                rm[q] = m
            elif q == a and s in kernels and t in kernels:
                ks = kernels[s]
                mapped = m if ks is None else mx.mat_mul(F, m, ks[1])
                rm[q] = _coordinates(S, kernels[t], mapped, a, "restriction", (s, t))
        if rm:
            restr[(s, t)] = rm
    return SheafComplex(F, S.complex, S.domain, dims, diffs, restr)


def _coordinates(S, kern, B, a, what, sids):
    """Coordinates of the columns of B in a degree-a kernel basis.

    kern is (d^a, basis, free columns), or None for the identity basis,
    where B is returned as it is.  The coordinates are the rows `free` of
    B, once d^a · B = 0 confirms that every column lies in the kernel; a
    column outside it raises EngineError naming the block (`what`, the
    differential or a restriction), its simplices `sids` and the degree.
    """
    if kern is None:
        return B
    d, _, free = kern
    if not _vanishes(mx.mat_mul(S.F, d, B)):
        at = " -> ".join(str(list(S.complex.simplices[i])) for i in sids)
        raise EngineError("the %s at %s in degree %d does not land in ker d^%d"
                          % (what, at, a, a))
    return [B[f] for f in free]


def cohomology_sheaf(S, a):
    """The degree-a cohomology sheaf with induced restriction maps.

    A SheafComplex in degree a, memoized per complex and degree, whose
    simplices share one {a: h} dims map per dimension h; it is read off
    T = `truncate_le(S, a)`, whose degree a is ker d^a: H^a is the cokernel
    of T's d^(a−1).  Where that image vanishes, H^a is T's value and T's
    restrictions pass through.  Elsewhere the image is reduced to echelon
    form from the last coordinate down; the representatives are the kernel
    coordinates where no image vector ends (the leftmost basis of H^a), and
    H-coordinates are one product with the annihilator of the image, which
    is `kernel` of the image rows with their coordinates reversed.
    """
    got = S._coh_cache.get(a)
    if got is not None:
        return got
    F = S.F
    T = truncate_le(S, a)
    data = {}    # sid -> (representatives, annihilator), None where the image vanishes
    stalks = {}
    for sid in sorted(S.domain):
        k = T.dim(sid, a)
        if not k:
            continue
        image = T.diff(sid, a - 1) if T.dim(sid, a - 1) else None
        if _vanishes(image):
            data[sid], stalks[sid] = None, k
            continue
        rev = [[row[i] for row in reversed(image)] for i in range(len(image[0]))]
        P, pfree = mx.kernel(F, rev, k)
        h = len(pfree)
        if not h:
            continue
        data[sid] = ([k - 1 - f for f in reversed(pfree)],
                     [[P[k - 1 - j][h - 1 - i] for j in range(k)] for i in range(h)])
        stalks[sid] = h

    restr = {}
    for (s, t) in S.complex.cover_pairs(S.domain):
        if s not in stalks or t not in stalks:
            continue  # a missing block is zero
        r = T.restriction_cover(s, t, a)
        if data[s] is not None:
            r = [[row[j] for j in data[s][0]] for row in r]
        if data[t] is not None:
            r = mx.mat_mul(F, data[t][1], r)
        restr[(s, t)] = {a: r}
    shared = {h: {a: h} for h in set(stalks.values())}  # one dims map per dim
    got = S._coh_cache[a] = SheafComplex(
        F, S.complex, S.domain, {sid: shared[h] for sid, h in stalks.items()}, {}, restr)
    return got


def is_clc(S, strat):
    """Are all cohomology sheaves locally constant on each stratum?

    Returns (bool, witness) with witness naming the first failing
    restriction (stratum index, degree, face pair).
    """
    lo, hi = S.degree_range()
    for a in range(lo, hi + 1):
        H = cohomology_sheaf(S, a)
        for st in strat.strata:
            for (s, t) in S.complex.cover_pairs(st.simplex_set & S.domain):
                if not H.is_iso(s, t, a):
                    return False, {"stratum": st.index, "degree": a,
                                   "pair": (S.complex.simplices[s],
                                            S.complex.simplices[t])}
    return True, None


def _add_family_columns(S, G, heads, sid, bids):
    """The compatible-family columns of the far simplex sid, into G's ucols.

    Column (sid, q, i) has the restrictions of basis vector i of S(sid) in
    degree q to every boundary simplex ρ ≥ sid, placed at the chain (ρ,).
    Each composite's nonzero entries go straight into G's map columns
    (`G.ucol`), under one key tuple per column: the blocks at distinct
    (ρ, q) are disjoint and the keys of distinct sids differ, so each
    entry is written once and nothing needs adding up.  Every composite
    starts at sid, so one memo per sid serves them all; it is dropped on
    return, before the same-support cleanup.
    """
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


def _block(F, rows, ncols, entries):
    """The dense map with ncols columns into rows, {live id: row}, or None if zero.

    entries are (id, column, value) triples; one whose id has no row, or
    whose value is zero or None, is left out.
    """
    m = None
    for g, j, v in entries:
        i = rows.get(g)
        if i is not None and v:
            if m is None:
                m = mx.zeros(F, len(rows), ncols)
            m[i][j] = v
    return m


def _out_entries(G, cols):
    """(target id, column, value) of G's differential on the ids of cols, {id: column}."""
    for g, j in cols.items():
        for h, v in G.dout[g].items():
            yield h, j, v


def _family_entries(G, rows, s, q, d):
    """(id, column, value) of the family columns from s's degree q into rows."""
    for g in rows:
        col = G.ucols.get(g)
        if col:
            for i in range(d):
                yield g, i, col.get((s, q, i))


def pushforward_open(S, V):
    """Derived pushforward of S along the open inclusion domain(S) → V.

    The value at a new simplex is the order-chain section complex of its
    deleted star inside the old domain; on the old domain the result stays
    literally S away from the boundary region and is the reduced section
    complex there, glued by the compatible-family chain map.  The reduction
    is checked against S's stalks on the boundary region.

    Everything the call builds on the way lives only as long as the call,
    and most of it shorter.  The chain list and the one-id-per-chain
    bookkeeping die inside `_nerve_complex`, which hands back only the
    first ids of the one-element chains; the memos of composite
    restrictions live one per `_nerve_complex` call and one per far
    simplex of the compatible-family map.  So the same-support cleanup
    holds the nerve complex (its rows `dout`, the family columns `ucols`
    with one key tuple per column and, while `reduce` runs, the reverse
    index of source ids and the candidate heap) and nothing of the
    chains.  The materialization after it holds `at[sid][q]`: for each
    region simplex and degree, the live ids sid sees (those supported at a
    simplex ≥ sid), in ascending order, each to its row there.  `_block`
    makes every dense map of the step from it.  Away from the boundary
    region the result shares S's maps, which no operation mutates.
    """
    K = S.complex
    F = S.F
    U = S.domain
    if not K.is_up_closed(U) or not K.is_up_closed(V):
        raise SheafError("pushforward_open needs up-closed U and V")
    if not U <= V:
        raise SheafError("U must be contained in V")
    new_ids = V - U
    if not new_ids:
        return S
    bids = K.walk(new_ids, K.cofacets) & U
    far = U - bids
    region = bids | new_ids

    G, heads = _nerve_complex(S, all_chains(K, bids))

    # compatible-family map from boundary-adjacent old simplices
    far_adjacent = set()
    for sid in far:
        for c, _ in K.cofacets[sid]:
            if c in bids:
                far_adjacent.add(sid)
                break
    for sid in sorted(far_adjacent):
        _add_family_columns(S, G, heads, sid, bids)

    G.reduce(same_support=True)

    dims = {sid: d for sid, d in S.dims.items() if sid in far}
    diffs = {sid: d for sid, d in S.diffs.items() if sid in far}
    restr = {p: ms for p, ms in S.restrictions.items() if p[0] in far and p[1] in far}
    at = {sid: {} for sid in region}
    down_cache = {}
    for g in G.gens_sorted():
        supp = G.support[g]
        lst = down_cache.get(supp)
        if lst is None:
            lst = [x for x in K.down_set(supp) if x in region]
            down_cache[supp] = lst
        q = G.degree[g]
        for sid in lst:
            rows = at[sid].setdefault(q, {})
            rows[g] = len(rows)
    for sid in sorted(region):
        qs, dm = at[sid], {}
        if qs:
            dims[sid] = {q: len(rows) for q, rows in qs.items()}
        for q, cols in qs.items():
            if q + 1 in qs:
                m = _block(F, qs[q + 1], len(cols), _out_entries(G, cols))
                if m:
                    dm[q] = m
        if dm:
            diffs[sid] = dm
    # a restriction selects the ids the coface sees, all seen by s too; the
    # region is the up-set of the new simplices, so it holds every cofacet
    for s in sorted(region):
        for t, _ in K.cofacets[s]:
            rm = {}
            for q, cols in at[s].items():
                rows = at[t].get(q)
                if rows:
                    rm[q] = _block(F, rows, len(cols), [(g, cols[g], F.one) for g in rows])
            if rm:
                restr[(s, t)] = rm
    for s in sorted(far_adjacent):
        for t, _ in K.cofacets[s]:
            if t not in bids:
                continue
            rm = {}
            for q, d in sorted(S.dims.get(s, {}).items()):
                rows = at[t].get(q)
                if rows:
                    m = _block(F, rows, d, _family_entries(G, rows, s, q, d))
                    if m:
                        rm[q] = m
            if rm:
                restr[(s, t)] = rm

    out = SheafComplex(F, K, V, dims, diffs, restr)
    for sid in sorted(bids):
        got, want = out.stalk_cohomology(sid), S.stalk_cohomology(sid)
        if got != want:
            q = first_difference(got, want)
            raise EngineError(
                "pushforward cleanup broke the section unit at %s: degree %d "
                "has dim %d, the coefficient complex %d"
                % (list(K.simplices[sid]), q, got.get(q, 0), want.get(q, 0)))
    return out
