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

This module is the one place that knows how a value and a map enter a
section complex.  Both models lay out each distinct value once
(`_layout`) and write every entry straight into its row, since each is
written once.  Both are reduced sparsely; a question about one value
(stalk cohomology, a truncation kernel, invertibility) is dense
(`matrices`).

Open pushforward produces a nerve complex at every simplex of the target;
to keep iterated pushforwards small the result is reduced by Gaussian
elimination of differential entries between generators with the same
support simplex.  Each such elimination is an exact homotopy equivalence
of complexes of sheaves (the generator supports are down-sets, so a
same-support entry is an isomorphism between elementary summands), hence
stalk cohomology, costalks, hypercohomology and all restriction data are
preserved on the nose; a per-run check compares stalk tables against the
coefficient complex on the open part.  The compatible-family map from the
old simplices away from the new ones rides through the reduction as unit
columns, one set per boundary simplex next to them (see
`pushforward_open`).
"""

from . import matrices as mx
from .reduction import SparseComplex
from .sheaves import SheafComplex, SheafError, first_mismatch, mismatch_text
from .simplicial import all_chains


class EngineError(RuntimeError):
    pass


def _layout(S, sid, shared):
    """The layout of S's value at sid in one block of consecutive ids.

    Returns (blocks, offsets, total, entries), or None for a zero value:
    blocks lists (q, offset, dim) in ascending degree, offsets maps q to
    its offset, total is the block's size, and entries[k] lists the
    internal differential as (source offset, target offset, value)
    triples, signed (−1)^k, column by column of each map.  Values with
    equal dims and one differential map (or none) have one layout, kept
    in shared.
    """
    qs = S.dims.get(sid)
    if not qs:
        return None
    ms = S.diffs.get(sid)
    key = (tuple(sorted(qs.items())), id(ms) if ms else None)
    got = shared.get(key)
    if got is not None:
        return got
    blocks, offsets, total = [], {}, 0
    for q, n in key[0]:
        blocks.append((q, total, n))
        offsets[q] = total
        total += n
    plus = []
    for q, m in (ms or {}).items():
        if q in offsets and q + 1 in offsets:
            g0, h0 = offsets[q], offsets[q + 1]
            plus.extend((g0 + i, h0 + j, v) for j, row in enumerate(m)
                        for i, v in enumerate(row) if v)
    neg = S.F.neg
    got = shared[key] = blocks, offsets, total, (plus, [(i, j, neg(v)) for i, j, v in plus])
    return got


def _nerve_complex(S, chains, units=()):
    """The order-chain (nerve) complex of S over the given chains.

    A chain c contributes the value at its top in degrees q + len(c) − 1,
    supported at its bottom, with the internal differential signed
    (−1)^(len−1).  Entries into c come from each of its faces among the
    chains: deleting the element at position pos below the top gives the
    identity signed (−1)^pos, deleting the top gives the restriction from
    the new top signed (−1)^(len−1).  Every source id belongs to one
    chain, so each entry is written once, straight into its row.

    Each top simplex's value layout (`_layout`) is computed once per call,
    and the bookkeeping holds one integer per chain, the id of its first
    generator: a chain's degree-q block starts at that id plus an offset
    that depends only on its top.  A chain whose top has a zero value has
    no generators and no entry.  The restrictions on top deletions share
    one memo of composites (`SheafComplex.restriction`), so each costs one
    product.

    Every t in units with a value gets unit columns in G's ucols, keyed
    (t, q, j): column (t, q, j) holds e_j at the chain (t,) and r(t→ρ) e_j
    at the chain (ρ,) for every member ρ > t.  They are read off the
    entries the chain (t, ρ), which must be among the chains, got from
    (t,) on deleting its top, −r(t→ρ), after the memo is dropped: the
    columns and the memo are never held at once, and no memo outlives the
    call.
    """
    F = S.F
    one, neg = F.one, F.neg
    mone = neg(one)
    G = SparseComplex(F)
    ids, dout, add_gen, ucol = G.ids, G.dout, G.add_gen, G.ucol
    layouts = {}  # top simplex -> its `_layout`
    shared = {}   # the layouts of distinct values, for `_layout`
    start = {}    # chain -> id of its first generator
    for c in chains:
        top = c[-1]
        lay = layouts.get(top, 0)
        if lay == 0:
            lay = layouts[top] = _layout(S, top, shared)
        if lay is None:
            continue
        shift = len(c) - 1
        g0 = start[c] = len(ids)
        for q, _, n in lay[0]:
            add_gen(q + shift, c[0], n)
        for i, j, v in lay[3][shift & 1]:
            dout[g0 + i][ids[g0 + j]] = v
    memo = {}  # composite restrictions
    for c, cid in start.items():
        ln = len(c)
        if ln == 1:
            continue
        below, top = c[-2], c[-1]
        _, coff, total, _ = layouts[top]
        for pos in range(ln - 1):
            fid = start.get(c[:pos] + c[pos + 1:])
            if fid is not None:
                sgn = one if pos % 2 == 0 else mone
                for i in range(total):
                    dout[fid + i][ids[cid + i]] = sgn
        fid = start.get(c[:-1])
        if fid is None:
            continue
        for q, o in layouts[below][1].items():
            co = coff.get(q)
            if co is None:
                continue
            m = memo.get((below, top, q))
            if m is None:
                m = S.restriction(below, top, q, memo)
            f0, c0 = fid + o, cid + co
            for j, row in enumerate(m):
                h = ids[c0 + j]
                for i, v in enumerate(row):
                    if v:
                        dout[f0 + i][h] = v if ln & 1 else neg(v)
    del memo
    unit_keys = {t: {q: [(t, q, j) for j in range(n)] for q, _, n in layouts[t][0]}
                 for t in units if layouts[t]}
    for t, keys in unit_keys.items():
        g0 = start[(t,)]
        for q, o, n in layouts[t][0]:
            for j, key in enumerate(keys[q]):
                ucol(g0 + o + j)[key] = one
    for c, cid in start.items():
        keys = unit_keys.get(c[0]) if len(c) == 2 else None
        if keys is None:
            continue
        t0, r0, toff = start[c[:1]], start[c[1:]], layouts[c[0]][1]
        for q, co, n in layouts[c[1]][0]:
            kq = keys.get(q)
            if kq is None:
                continue
            rows = dout[t0 + toff[q]:t0 + toff[q] + len(kq)]
            for j in range(n):
                h = ids[cid + co + j]
                for i, row in enumerate(rows):
                    v = row.get(h)
                    if v:
                        ucol(r0 + co + j)[kq[i]] = neg(v)
    return G


def _cellular_complex(S, members):
    """The cellular cochain complex of S over a member set.

    One copy of S(τ) per member τ, in degree dim τ + q and supported at
    τ, with internal differential signed (−1)^dim τ and cover restrictions
    signed by incidence: d maps the block at τ into the blocks at τ and at
    its cofacets, so the blocks at the simplices ≥ σ form a subcomplex for
    every σ.  Each value is placed by its `_layout`, and each pair of
    blocks meets once, so every entry is written straight into its row.
    """
    K = S.complex
    neg = S.F.neg
    G = SparseComplex(S.F)
    ids, dout, add_gen = G.ids, G.dout, G.add_gen
    shared = {}  # the layouts of distinct values, for `_layout`
    start = {}   # member -> (id of its first generator, its layout)
    for sid in sorted(S.domain.intersection(members)):
        lay = _layout(S, sid, shared)
        if lay is None:
            continue
        k, g0 = K.sdim(sid), len(ids)
        start[sid] = g0, lay
        for q, _, n in lay[0]:
            add_gen(q + k, sid, n)
        for i, j, v in lay[3][k & 1]:
            dout[g0 + i][ids[g0 + j]] = v
    for sid, (g0, lay) in start.items():
        for cof, sign in K.cofacets[sid]:
            got = start.get(cof)
            rs = S.restrictions.get((sid, cof)) if got else None
            if not rs:
                continue
            c0, coff = got[0], got[1][1]
            for q, o, _ in lay[0]:
                m = rs.get(q)
                if m is None or q not in coff:
                    continue
                f0, h0 = g0 + o, c0 + coff[q]
                for j, row in enumerate(m):
                    h = ids[h0 + j]
                    for i, v in enumerate(row):
                        if v:
                            dout[f0 + i][h] = v if sign > 0 else neg(v)
    return G


def hypercohomology(S):
    """Hypercohomology dims of S over its domain, in the cellular model.

    The domain must be clopen (a union of connected components), where the
    cellular complex computes RΓ, the same sections as the order-chain
    model; any other domain raises SheafError.  Over the open star of a
    simplex the same complex computes the costalk there (`cell_costalk`),
    as in Shepard's cellular model of the derived category (Curry,
    Sheaves, Cosheaves and Applications, arXiv:1303.3255).  As there, a
    same-support reduction runs before the free one.
    """
    K, A = S.complex, S.domain
    if not (K.is_up_closed(A) and K.is_down_closed(A)):
        raise SheafError("hypercohomology needs a clopen domain")
    G = _cellular_complex(S, A)
    G.reduce(same_support=True)
    return G.minimize_dims()


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
    survivors supported at the simplices ≥ σ (`_seen`).  A simplex outside
    the domain raises SheafError.
    """
    K = S.complex
    sids = sorted(set(sids))
    if not S.domain.issuperset(sids):
        raise SheafError("simplex outside the domain")
    G = _cellular_complex(S, K.walk(sids, K.cofacets))
    G.reduce(same_support=True)
    return {sid: G.subcomplex([g for rows in qs.values() for g in rows]).minimize_dims()
            for sid, qs in _seen(G, K, sids).items()}


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


def _seen(G, K, sids):
    """{σ: {q: {id: row}}} for σ in sids: the live ids of G supported at a
    simplex ≥ σ, split by degree and numbered in ascending id order (empty
    where σ sees none); `cell_costalk` and `pushforward_open` read it."""
    by_support = {}  # support simplex -> its live ids, ascending
    for g in G.gens_sorted():
        by_support.setdefault(G.support[g], []).append(g)
    seen = {}
    for sid in sids:
        qs = seen[sid] = {}
        for g in sorted(g for t in K.up_set(sid) for g in by_support.get(t, ())):
            rows = qs.setdefault(G.degree[g], {})
            rows[g] = len(rows)
    return seen


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


def _unit_entries(G, rows, t, q, n):
    """(id, column, value) of the unit columns of t's degree q into rows."""
    for g in rows:
        col = G.ucols.get(g)
        if col:
            for j in range(n):
                yield g, j, col.get((t, q, j))


def pushforward_open(S, V):
    """Derived pushforward of S along the open inclusion domain(S) → V.

    The value at a new simplex is the order-chain section complex of its
    deleted star inside the old domain; on the old domain the result stays
    literally S away from the boundary region and is the reduced section
    complex there, glued by the compatible-family chain map.  The reduction
    is checked against S's stalks on the boundary region.

    The family map is carried by unit columns (`_nerve_complex`) at each
    boundary simplex t with a far facet s, and its block from s to t is
    U_t · r(s→t), U_t the reduced unit columns of t at t's rows.  That is
    exact: fill into an id supported at y comes only from an id supported
    at a simplex ≥ y, so the entries at supports ≥ t change under the
    same-support cleanup independently of all others, and before it the
    family of s restricted to supports ≥ t is the unit columns of t times
    r(s→t), by path independence.

    After the cleanup, `at` is `_seen` over the region: `at[sid][q]` maps
    each live id that the region simplex sid sees (one supported at a
    simplex ≥ sid) to its row there, in ascending id order.  One pass
    over the region and the far simplices next to it makes every block of
    the step from that index with `_block`: dims, differentials, the 0/1
    selections, the unit columns and from them the family blocks.
    Elsewhere the result shares S's maps, which no operation mutates.
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

    # the far simplices next to the boundary region, and the boundary
    # simplices next to them, which carry the unit columns
    far_adjacent, units = set(), set()
    for sid in far:
        for c, _ in K.cofacets[sid]:
            if c in bids:
                far_adjacent.add(sid)
                units.add(c)
    G = _nerve_complex(S, all_chains(K, bids), units)

    G.reduce(same_support=True)

    dims = {sid: d for sid, d in S.dims.items() if sid in far}
    diffs = {sid: d for sid, d in S.diffs.items() if sid in far}
    restr = {p: ms for p, ms in S.restrictions.items() if p[0] in far and p[1] in far}
    at = _seen(G, K, region)
    unit_blocks = {}  # (t, q) -> t's reduced unit columns in degree q at its rows
    # a region simplex selects the ids each cofacet sees, all seen by s too
    # (the region is up-closed, so it holds every cofacet); a far-adjacent
    # one maps into each cofacet t in the boundary region by t's unit
    # block times r(s→t), and a far cofacet, with no `at` entry, keeps S's
    # own map
    for s in sorted(region | far_adjacent):
        qs, dm = at.get(s), {}
        if qs:
            dims[s] = {q: len(rows) for q, rows in qs.items()}
        for q, cols in (qs or {}).items():
            if q + 1 in qs:
                m = _block(F, qs[q + 1], len(cols), _out_entries(G, cols))
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
                        rm[q] = _block(F, rows, len(cols), [(g, cols[g], F.one) for g in rows])
            else:
                for q in sorted(S.dims.get(s, {})):
                    rows, n = at[t].get(q), S.dim(t, q)
                    if not rows or not n:
                        continue
                    if (t, q) not in unit_blocks:
                        unit_blocks[(t, q)] = _block(F, rows, n, _unit_entries(G, rows, t, q, n))
                    u = unit_blocks[(t, q)]
                    if u is not None:
                        m = mx.mat_mul(F, u, S.restriction_cover(s, t, q))
                        if not _vanishes(m):
                            rm[q] = m
            if rm:
                restr[(s, t)] = rm

    out = SheafComplex(F, K, V, dims, diffs, restr)
    broken = first_mismatch(sorted(bids), out.stalk_cohomology, S.stalk_cohomology)
    if broken is not None:
        raise EngineError("the cleanup broke the section unit " + mismatch_text(K, broken))
    return out
