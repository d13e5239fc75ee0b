"""Small dense exact matrices.

Matrices are lists of rows of canonical field elements (see `fields`), so
an entry is zero exactly when it is falsy.  A matrix representing a
linear map V -> W has shape (dim W, dim V) and acts on column vectors.
Everything here is deterministic: pivots are chosen by scan order, kernel
bases come out of the reduced echelon form in column order.

Coordinate rule: the kernel basis of `kernel` is the identity on the free
(non-pivot) columns, so the coordinates of any vector of ker A in that
basis are its entries at the free columns.  Nothing here solves a linear
system; callers read coordinates and check membership (A · v = 0).
"""


def zeros(F, rows, cols):
    z = F.zero
    return [[z] * cols for _ in range(rows)]


def identity(F, n):
    M = zeros(F, n, n)
    for i in range(n):
        M[i][i] = F.one
    return M


def shape(A):
    return (len(A), len(A[0]) if A else 0)


def mat_mul(F, A, B):
    # A: (m, k), B: (k, n)
    add, mul = F.add, F.mul
    m = len(A)
    k = len(B)
    n = len(B[0]) if B else 0
    if m == k == n == 1:
        a, b = A[0][0], B[0][0]
        return [[mul(a, b) if a and b else F.zero]]
    out = zeros(F, m, n)
    for i in range(m):
        Ai = A[i]
        oi = out[i]
        for t in range(k):
            a = Ai[t]
            if not a:
                continue
            Bt = B[t]
            for j in range(n):
                b = Bt[j]
                if b:
                    oi[j] = add(oi[j], mul(a, b))
    return out


def rref(F, A):
    """Reduced row echelon form (in place on a copy). Returns (R, pivot_cols)."""
    sub, mul = F.sub, F.mul
    R = [row[:] for row in A]
    nr, nc = shape(R)
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        row = R[r]
        # entries left of c are zero in rows r.. (earlier pivots cleared them)
        nz = [j for j in range(c, nc) if row[j]]
        inv = F.inv(row[c])
        for j in nz:
            row[j] = mul(inv, row[j])
        for i in range(nr):
            Ri = R[i]
            f = Ri[c]
            if i != r and f:
                for j in nz:
                    Ri[j] = sub(Ri[j], mul(f, row[j]))
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return R, pivots


def rank(F, A):
    if not A or not A[0]:
        return 0
    if len(A) == len(A[0]) == 1:
        return 1 if A[0][0] else 0
    return len(rref(F, A)[1])


def kernel(F, A, ncols):
    """Kernel {x : Ax = 0} as (basis columns, free columns).

    The basis is an (ncols × len(free)) matrix read off the rref of A:
    column j is the unit vector at free[j] minus the rref entries of
    free[j] at the pivot rows.  The rows `free` of the basis form the
    identity, so the coordinates of a vector in the kernel are its entries
    at the free columns.
    """
    R, pivots = rref(F, A)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    K = zeros(F, ncols, len(free))
    for j, fc in enumerate(free):
        K[fc][j] = F.one
        for r, pc in enumerate(pivots):
            K[pc][j] = F.neg(R[r][fc])
    return K, free
