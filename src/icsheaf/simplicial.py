"""Finite abstract simplicial complexes and their face-poset calculus.

A complex stores its simplices as sorted vertex tuples with deterministic
integer ids assigned by (dimension, lexicographic tuple).  A subset of the
face poset is a frozenset of simplex ids; up-closed sets model open
subspaces of the realization and down-closed sets model closed ones
(Alexandrov duality), and the questions that need the poset are methods
of the complex.  Everything is immutable after construction.

One walk, `SimplicialComplex.walk`, follows facets or cofacets from a set
of seeds: up-sets, down-sets, closures, components and links are all read
off it, and a down-closure is `K.walk(ids, K.facets)`.  `up_set` keeps the
one process-wide cache left, an lru_cache that holds every complex it has
seen until it is emptied: `cli.run` calls
`SimplicialComplex.up_set.cache_clear()` at the end of every job, and
library code that builds many complexes in one process should call it too.
"""

from functools import lru_cache


class ComplexError(ValueError):
    pass


# A maximal simplex on k vertices closes down to 2^k − 1 faces; inputs are
# rejected above this many vertices (dimension 15) before any expansion.
MAX_SIMPLEX_VERTICES = 16


def _vertex_key(v):
    # deterministic order for mixed int/str vertex ids
    return (0, v, "") if isinstance(v, int) else (1, 0, str(v))


def canonical_simplex(vertices):
    t = tuple(sorted(vertices, key=_vertex_key))
    if len(set(t)) != len(t):
        raise ComplexError("duplicate vertex in simplex %r" % (list(vertices),))
    return t


class SimplicialComplex:
    def __init__(self, vertices, maximal_simplices):
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise ComplexError("duplicate vertex id in vertex list")
        # a vertex is named by str(v), and a simplex by the names of its
        # vertices separated by whitespace (`reports.simplex_key`), commas
        # (`--at`) or "|" between the two ends of a pair: each name is one
        # field of those texts and names one vertex
        named = {}
        for v in vs:
            if isinstance(v, str) and (v.split() != [v] or "," in v or "|" in v):
                raise ComplexError("vertex id %r is empty or holds whitespace, ',' or '|'"
                                   % (v,))
            if named.setdefault(str(v), v) != v:
                raise ComplexError("vertex ids %r and %r are both named %r"
                                   % (named[str(v)], v, str(v)))
        vset = set(vs)
        simplices = set()
        for m in maximal_simplices:
            t = canonical_simplex(m)
            if not t:
                raise ComplexError("empty simplex in input")
            if len(t) > MAX_SIMPLEX_VERTICES:
                raise ComplexError("simplex with %d vertices exceeds the limit of %d"
                                   % (len(t), MAX_SIMPLEX_VERTICES))
            for v in t:
                if v not in vset:
                    raise ComplexError("unknown vertex id %r" % (v,))
            # downward closure
            n = len(t)
            for mask in range(1, 1 << n):
                simplices.add(tuple(t[i] for i in range(n) if mask >> i & 1))
        for v in vs:
            simplices.add((v,))
        if not simplices:
            raise ComplexError("empty complex")
        self.vertices = tuple(sorted(vs, key=_vertex_key))
        ordered = sorted(simplices, key=lambda s: (len(s), tuple(_vertex_key(v) for v in s)))
        self.simplices = tuple(ordered)
        self.index = {s: i for i, s in enumerate(ordered)}
        self.dim = max(len(s) for s in ordered) - 1
        self._build_poset()

    def _build_poset(self):
        idx = self.index
        n = len(self.simplices)
        self.facets = [[] for _ in range(n)]    # codim-1 faces, (face_id, sign)
        self.cofacets = [[] for _ in range(n)]  # codim-1 cofaces, (coface_id, sign)
        for i, s in enumerate(self.simplices):
            if len(s) == 1:
                continue
            for pos in range(len(s)):
                f = s[:pos] + s[pos + 1:]
                j = idx[f]
                sign = 1 if pos % 2 == 0 else -1
                self.facets[i].append((j, sign))
                self.cofacets[j].append((i, sign))

    def __len__(self):
        return len(self.simplices)

    def id_of(self, simplex):
        t = canonical_simplex(simplex)
        if t not in self.index:
            raise ComplexError("unknown simplex %r" % (list(simplex),))
        return self.index[t]

    def sdim(self, sid):
        return len(self.simplices[sid]) - 1

    def walk(self, ids, *steps, within=None):
        """Every simplex reached from ids along the given adjacency lists.

        K.walk(ids, K.cofacets) is the up-set of ids and K.walk(ids, K.facets)
        its down-set; with both lists and `within`, a set of ids the walk may
        not leave, it is the component of ids inside that set.
        """
        seen = set(ids)
        stack = list(seen)
        while stack:
            i = stack.pop()
            for adj in steps:
                for j, _ in adj[i]:
                    if j not in seen and (within is None or j in within):
                        seen.add(j)
                        stack.append(j)
        return seen

    @lru_cache(maxsize=None)
    def up_set(self, sid):
        """Ids of all simplices containing sid (the open star), sid included."""
        return tuple(sorted(self.walk((sid,), self.cofacets)))

    def full_set(self):
        return frozenset(range(len(self.simplices)))

    def open_star(self, simplex):
        return frozenset(self.up_set(self.id_of(simplex)))

    def is_up_closed(self, ids, within=None):
        """Up-closed; with `within`, up-closed as a subset of that set (relatively open)."""
        return all(j in ids for i in ids for j, _ in self.cofacets[i]
                   if within is None or j in within)

    def is_down_closed(self, ids, within=None):
        """Down-closed; with `within`, down-closed as a subset of that set (relatively closed)."""
        return all(j in ids for i in ids for j, _ in self.facets[i]
                   if within is None or j in within)

    def cover_pairs(self, ids):
        """Covering pairs s ⋖ t inside ids, in ascending order of s."""
        for s in sorted(ids):
            for c, _ in self.cofacets[s]:
                if c in ids:
                    yield (s, c)

    def components(self, ids):
        """Partition of ids by face-comparability, as frozensets by least member."""
        comps = []
        left = set(ids)
        for i in sorted(ids):
            if i in left:
                comp = self.walk((i,), self.facets, self.cofacets, within=ids)
                left -= comp
                comps.append(frozenset(comp))
        return comps

    def link_of(self, simplex, closed):
        """The link inside a down-closed set of ids, as a complex of its own, or None.

        {t − s : s ⊊ t in closed}: the maximal simplices of closed over s
        generate it.  With K.full_set() it is the link in K.
        """
        sid = self.id_of(simplex)
        s = set(self.simplices[sid])
        members = [tuple(v for v in self.simplices[t] if v not in s)
                   for t in self.up_set(sid) if t != sid and t in closed
                   and not any(c in closed for c, _ in self.cofacets[t])]
        if not members:
            return None
        verts = sorted({v for t in members for v in t}, key=_vertex_key)
        return SimplicialComplex(verts, members)


def all_chains(K, members):
    """All strict chains (any length >= 1) in the subposet given by members.

    Depth first from each member in ascending order: a chain comes right
    before its extensions, which follow the up-set order of its top.  The
    walk keeps an explicit stack of iterators over the members above each
    chain's top, so it leaves no reference cycle behind.
    """
    mset = frozenset(members)
    above = {i: [j for j in K.up_set(i) if j != i and j in mset] for i in mset}
    out = []
    for i in sorted(mset):
        chain = [i]
        out.append((i,))
        stack = [iter(above[i])]
        while stack:
            for j in stack[-1]:
                chain.append(j)
                out.append(tuple(chain))
                stack.append(iter(above[j]))
                break
            else:
                stack.pop()
                chain.pop()
    return out


def load_complex(doc):
    """Build a complex from the JSON document format.

    {"vertices": [ids], "maximal_simplices": [[ids], ...]}

    doc is the parsed document, a dict with exactly these two keys.  Vertex
    ids are integers or strings; any other shape, a JSON string or another
    key included, is a ComplexError.
    """
    if not isinstance(doc, dict) or "vertices" not in doc or "maximal_simplices" not in doc:
        raise ComplexError("document must have 'vertices' and 'maximal_simplices'")
    extra = [k for k in doc if k not in ("vertices", "maximal_simplices")]
    if extra:
        raise ComplexError("unexpected key %r in complex" % (extra[0],))
    vertices, maximal = doc["vertices"], doc["maximal_simplices"]
    if not is_vertex_list(vertices):
        raise ComplexError("'vertices' must be a list of integer or string ids")
    if not isinstance(maximal, list) or not all(map(is_vertex_list, maximal)):
        raise ComplexError("'maximal_simplices' must be a list of lists of vertex ids")
    return SimplicialComplex(vertices, maximal)


def is_vertex_list(t):
    """True for a list or tuple of vertex ids (integers or strings)."""
    return isinstance(t, (list, tuple)) and all(
        isinstance(v, str) or (isinstance(v, int) and not isinstance(v, bool)) for v in t)


def complex_to_doc(K):
    maximal = [list(s) for i, s in enumerate(K.simplices) if not K.cofacets[i]]
    return {"vertices": list(K.vertices), "maximal_simplices": maximal}
