"""Sparse Gaussian reduction of cochain complexes.

A complex is presented by integer generator ids with integer degrees and a
sparse differential.  `add_gen` hands out a block of consecutive ids 0,
1, 2, … in insertion order; every section model (a complex over many
simplices) is assembled by `sections`, which places each value as such a
block and writes the entries straight into the rows, while a question
about one value is dense (`matrices`).  Eliminating an invertible entry
is an exact homotopy equivalence; exhaustive free elimination leaves a
zero differential, so the surviving generator counts are the cohomology
dimensions.  In sheaf mode (same_support=True) only entries between
generators with the same support simplex are eliminated, which keeps
every move an isomorphism of elementary down-set summands and hence an
equivalence of complexes of sheaves, slice by slice.

A complex stores its differential one way only, as rows `dout[g]`.  The
reverse index `din` (the sources into each id), which an elimination
needs, is built by `reduce` when it starts and dropped when it returns,
so a complex waiting to be reduced, or one already reduced and being
read, holds no second copy of its entries.

Every id is one int object, made by `add_gen` and kept in `ids`: every
key that names an id (in `degree`, in a row, in the reverse index and in
`ucols`) is that object, looked up as `ids[g]`, never an int computed
afresh, so a complex holds one int per generator however many entries
name it.  An eliminated id's row is `DEAD`, one read-only empty mapping
shared by every complex; nothing writes to a dead id, so the share is
safe, and a write would raise TypeError.
"""

import heapq
from types import MappingProxyType

DEAD = MappingProxyType({})  # the row of every eliminated id


class SparseComplex:
    """A cochain complex on generator ids 0, 1, … with a sparse differential.

    `ids[g]` is the one int object of id g, which every key naming g
    shares.  `degree` maps each live id to its degree; `support` and
    `dout` are lists indexed by id (an eliminated id's row is the shared
    read-only `DEAD`).  `ucols` maps an id to the columns {external key:
    value} of a chain map into the complex, carried along by elimination;
    `ucol(g)` gives the columns at g to write into.  `din`, the reverse
    index (the list of source ids per id), exists only while `reduce`
    runs; `eliminate` reads and updates it there.
    """

    def __init__(self, F):
        self.F = F
        self.ids = []
        self.degree = {}
        self.support = []
        self.dout = []
        self.ucols = {}

    def add_gen(self, degree, support=None, count=1):
        """Add count generators; return the first of their consecutive ids."""
        ids, g = self.ids, len(self.ids)
        for h in range(g, g + count):
            ids.append(h)
            self.degree[h] = degree
            self.support.append(support)
            self.dout.append({})
        return ids[g]

    def ucol(self, h):
        """The map columns {external key: value} at id h, made empty if new."""
        col = self.ucols.get(h)
        if col is None:
            col = self.ucols[self.ids[h]] = {}
        return col

    def add_ucol(self, h, ext, val):
        if not val:
            return
        col = self.ucol(h)
        cur = col.get(ext)
        new = val if cur is None else self.F.add(cur, val)
        if new:
            col[ext] = new
        else:
            col.pop(ext, None)

    def _detach(self, g):
        """Remove g's entries and map columns; its row becomes `DEAD`."""
        din, dout = self.din, self.dout
        for t in dout[g]:
            din[t].remove(g)
        for s in din[g]:
            del dout[s][g]
        dout[g] = DEAD
        din[g] = ()
        self.ucols.pop(g, None)
        del self.degree[g]

    def eliminate(self, g, h):
        """Gaussian elimination of the differential entry g -> h.

        Needs the reverse index `din`, which `reduce` holds while it runs.
        Each coefficient s -> h is read from the row `dout[s]` before h is
        detached.  Returns the other sources into h, a list of ids, and the
        other targets of g, g's former row.
        """
        F = self.F
        dout, din = self.dout, self.din
        outs = dout[g]
        ins = din[h]
        alpha = outs.pop(h)
        ins.remove(g)
        coeffs = [dout[s][h] for s in ins]
        uh = self.ucols.get(h)
        self._detach(g)
        self._detach(h)
        inv = F.inv(alpha)
        add, mul, neg = F.add, F.mul, F.neg
        # the fill s -> t is nonzero; it is added to any entry s -> t, which
        # is dropped if it cancels, and s enters or leaves din[t] exactly
        # where the row gains or loses t
        for s, a in zip(ins, coeffs):
            coeff = neg(mul(a, inv))
            row = dout[s]
            for t, b in outs.items():
                val = mul(coeff, b)
                cur = row.get(t)
                if cur is None:
                    row[t] = val
                    din[t].append(s)
                else:
                    new = add(cur, val)
                    if new:
                        row[t] = new
                    else:
                        del row[t]
                        din[t].remove(s)
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
        on return.  It holds source ids only, a list per id in the order
        the entries arose; the values stay in `dout`.  On return `degree`
        is rebuilt, so that its table is sized for the survivors alone
        rather than for every id it ever held.
        """
        dout, support, ids = self.dout, self.support, self.ids
        n = [0] * len(dout)
        for row in dout:
            for h in row:
                n[h] += 1
        # exact-size lists, filled from the back; an id with no sources
        # never gains one, so it shares the empty tuple
        din = self.din = [[0] * k if k else () for k in n]
        for g in range(len(dout) - 1, -1, -1):
            for h in dout[g]:
                n[h] -= 1
                din[h][n[h]] = ids[g]
        del n
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
            self.degree = {g: d for g, d in self.degree.items()}

    def minimize_dims(self):
        """Free reduction to zero differential; returns degree -> dimension.
        An entry that survives it raises RuntimeError naming the entry."""
        self.reduce(same_support=False)
        if any(self.dout):
            g = next(g for g, row in enumerate(self.dout) if row)
            raise RuntimeError("free reduction left the entry %d -> %d"
                               % (g, next(iter(self.dout[g]))))
        out = {}
        for d in self.degree.values():
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def subcomplex(self, ids):
        """A new complex on the live ids given, with the entries among them.

        It is a subcomplex when no entry leaves ids; its generators are
        renumbered 0, 1, … in the order given.
        """
        H = SparseComplex(self.F)
        new = {g: H.add_gen(self.degree[g], self.support[g]) for g in ids}
        for g, i in new.items():
            for h, v in self.dout[g].items():
                j = new.get(h)
                if j is not None:
                    H.dout[i][j] = v
        return H

    def gens_sorted(self):
        """Live ids in ascending (insertion) order."""
        return sorted(self.degree)
