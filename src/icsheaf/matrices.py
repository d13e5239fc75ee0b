"""Small dense exact matrices.

Matrices are lists of rows of field elements.  A matrix representing a
linear map V -> W has shape (dim W, dim V) and acts on column vectors.
Everything here is deterministic: pivots are chosen by scan order, kernel
bases come out of the reduced echelon form in column order.
"""


def zeros(F, rows, cols):
    z = F.zero
    return [[z] * cols for _ in range(rows)]


def identity(F, n):
    M = zeros(F, n, n)
    for i in range(n):
        M[i][i] = F.one
    return M


def copy_matrix(A):
    return [row[:] for row in A]


def shape(A):
    return (len(A), len(A[0]) if A else 0)


def transpose(F, A, cols=None):
    r, c = shape(A)
    if c == 0 and cols is not None:
        c = cols
    return [[A[i][j] for i in range(r)] for j in range(c)]


def mat_mul(F, A, B):
    # A: (m, k), B: (k, n)
    m = len(A)
    k = len(B)
    n = len(B[0]) if B else 0
    out = zeros(F, m, n)
    for i in range(m):
        Ai = A[i]
        oi = out[i]
        for t in range(k):
            a = Ai[t]
            if F.is_zero(a):
                continue
            Bt = B[t]
            for j in range(n):
                b = Bt[j]
                if not F.is_zero(b):
                    oi[j] = F.add(oi[j], F.mul(a, b))
    return out


def mat_scale(F, c, A):
    return [[F.mul(c, a) for a in row] for row in A]


def mat_vec(F, A, v):
    out = []
    for row in A:
        s = F.zero
        for a, x in zip(row, v):
            if not (F.is_zero(a) or F.is_zero(x)):
                s = F.add(s, F.mul(a, x))
        out.append(s)
    return out


def hstack(A, B, rows):
    if not A:
        A = [[] for _ in range(rows)]
    if not B:
        B = [[] for _ in range(rows)]
    return [ra + rb for ra, rb in zip(A, B)]


def rref(F, A):
    """Reduced row echelon form (in place on a copy). Returns (R, pivot_cols)."""
    R = copy_matrix(A)
    nr, nc = shape(R)
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if not F.is_zero(R[i][c]):
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        row = R[r]
        # entries left of c are zero in rows r.. (earlier pivots cleared them)
        nz = [j for j in range(c, nc) if not F.is_zero(row[j])]
        inv = F.inv(row[c])
        for j in nz:
            row[j] = F.mul(inv, row[j])
        for i in range(nr):
            Ri = R[i]
            f = Ri[c]
            if i != r and not F.is_zero(f):
                for j in nz:
                    Ri[j] = F.sub(Ri[j], F.mul(f, row[j]))
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return R, pivots


def rank(F, A):
    if not A or not A[0]:
        return 0
    return len(rref(F, A)[1])


def right_kernel_basis(F, A, ncols=None):
    """Basis of {x : Ax = 0} as a list of column vectors, canonical order."""
    if ncols is None:
        ncols = shape(A)[1]
    if ncols == 0:
        return []
    if not A:
        return [[F.one if i == j else F.zero for i in range(ncols)]
                for j in range(ncols)]
    R, pivots = rref(F, A)
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
    nr, nc = shape(A)
    if ncols is not None:
        nc = ncols
    nb = shape(B)[1] if B else 0
    aug = hstack(A if A else [[] for _ in range(nr)], B, nr)
    R, pivots = rref(F, aug)
    for c in pivots:
        if c >= nc:
            raise ValueError("inconsistent linear system")
    X = zeros(F, nc, nb)
    for r, pc in enumerate(pivots):
        for j in range(nb):
            X[pc][j] = R[r][nc + j]
    return X


def is_invertible(F, A):
    nr, nc = shape(A)
    return nr == nc and rank(F, A) == nr


def basis_extension(F, B, K):
    """Indices of columns of K extending the column span of B to span(B)+span(K).

    B and K are matrices with the same row count; returns the canonical
    (leftmost) selection of K-columns.
    """
    rows = len(B) if B else (len(K) if K else 0)
    nb = shape(B)[1] if B else 0
    aug = hstack(B, K, rows)
    _, pivots = rref(F, aug)
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
        if d_in is not None and shape(d_in)[1] > 0:
            Bim = d_in
        else:
            Bim = [[] for _ in range(dim)]
        ext = basis_extension(F, Bim, K)
        self.reps = [kernel[j] for j in ext]
        self.h_dim = len(self.reps)
        # ambient-basis matrix [im | reps] used to read off H-coordinates
        reps_mat = transpose(F, self.reps, cols=dim) if self.reps else [[] for _ in range(dim)]
        self._proj_basis = hstack(Bim, reps_mat, dim)
        self._n_im = shape(Bim)[1]

    def project(self, vectors):
        """H-coordinates of cocycle column vectors: returns (h_dim, len(vectors)) matrix."""
        F = self.F
        if self.h_dim == 0:
            return zeros(F, 0, len(vectors))
        B = transpose(F, vectors, cols=self.dim)
        X = solve_right(F, self._proj_basis, B)
        return [X[self._n_im + i] for i in range(self.h_dim)]

