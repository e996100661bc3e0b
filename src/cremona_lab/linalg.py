"""Dense exact linear algebra over a Field.

Matrices are lists of row lists of field values, in pure Python for the
small systems of the package.  `nullspace_gfp` is the one numpy eliminator,
over GF(p), for large systems such as the graph equations of the inverse
map.  Everything here is deterministic: pivoting always takes the first
nonzero entry.
"""

from __future__ import annotations

from .fields import Field
from .rng import Rng


def mat_copy(A):
    return [row[:] for row in A]


def rref(F: Field, A, ncols=None):
    """Reduced row echelon form of a copy of A; returns (R, pivot column list)."""
    A = mat_copy(A)
    if not A:
        return A, []
    m, n = len(A), ncols if ncols is not None else len(A[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if A[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = F.inv(A[r][c])
        A[r] = [F.mul(x, inv) for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != F.zero:
                f = A[i][c]
                Ai, Ar = A[i], A[r]
                A[i] = [F.sub(Ai[j], F.mul(f, Ar[j])) for j in range(n)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return A, pivots


def rank(F: Field, A) -> int:
    return len(rref(F, A)[1])


def nullspace(F: Field, A, n=None):
    """Basis of {x : A x = 0} as list of length-n vectors."""
    if not A:
        return [[F.one if i == j else F.zero for i in range(n)] for j in range(n)] if n else []
    n = n if n is not None else len(A[0])
    R, pivots = rref(F, A, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * n
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][fc])
        basis.append(v)
    return basis


def nullspace_gfp(rows, p: int):
    """Basis of {x : A x = 0} over GF(p) for a 2-D integer matrix A, in numpy.

    The dense GF(p) eliminator for systems too large for `nullspace`: the
    same RREF (first nonzero pivot, one basis vector per free column, 1 in
    that column), so it returns the vectors `nullspace(GF(p), A)` returns, as
    lists of ints in [0, p).  Entries of A may be any int64 values; A itself
    is left unmodified.  Needs p < 2^31.

    Forward elimination updates only the rows below the pivot that are
    nonzero in its column, and only the columns right of it.  Each update
    subtracts products of two residues, so the trailing block is reduced
    mod p only when one more update could leave int64: after
    k = floor(2^62 / (p-1)^2) updates, about 4.6e6 at p = 1000003 and 1 near
    2^31.  The pivot column and row are reduced before each use.
    Back-substitution then runs on the free columns only: a reduced row is
    zero at every pivot column right of its own, so subtracting it from an
    earlier row changes no other pivot entry of that row.
    """
    import numpy as np

    A = np.asarray(rows, dtype=np.int64) % p
    A = A[A.any(axis=1)]
    m, ncols = A.shape
    k = (1 << 62) // (p - 1) ** 2

    def subtract(B, idx, mult, row, n):
        """B[idx] -= mult (x) row, B holding n unreduced updates; returns n + 1."""
        if n == k:
            B %= p
            n = 0
        if len(idx) == len(B):  # every row: update in place, without a gather
            B -= mult[:, None] * row
        else:
            B[idx] -= mult[:, None] * row
        return n + 1

    pivots = []
    r = n = 0
    for c in range(ncols):
        if r >= m:
            break
        col = A[r:, c] % p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            A[[r, r + nz[0]], c:] = A[[r + nz[0], r], c:]
            col[[0, nz[0]]] = col[[nz[0], 0]]
        row = A[r, c:] % p
        A[r, :c] = 0  # there it holds multiples of p that no update touched
        A[r, c:] = row = row * pow(int(row[0]), p - 2, p) % p
        below = col[1:].nonzero()[0]
        if below.size:
            n = subtract(A[r + 1:, c + 1:], below, col[1:][below], row[1:], n)
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    U = A[:r, pivots]  # unit upper triangular
    X = A[:r, free]
    n = 0
    for t in range(r - 1, 0, -1):
        X[t] %= p
        above = U[:t, t].nonzero()[0]
        if above.size:
            n = subtract(X[:t], above, U[above, t], X[t], n)
    out = np.zeros((len(free), ncols), dtype=np.int64)
    out[:, free] = np.eye(len(free), dtype=np.int64)
    out[:, pivots] = (-X % p).T
    return out.tolist()


def row_space_basis(F: Field, A):
    """Nonzero rows of the rref: canonical basis of the row span."""
    if not A:
        return []
    R, pivots = rref(F, A)
    return [R[i] for i in range(len(pivots))]


def det(F: Field, A):
    A = mat_copy(A)
    n = len(A)
    d = F.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if A[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            return F.zero
        if pr != c:
            A[c], A[pr] = A[pr], A[c]
            d = F.neg(d)
        d = F.mul(d, A[c][c])
        inv = F.inv(A[c][c])
        for i in range(c + 1, n):
            if A[i][c] != F.zero:
                f = F.mul(A[i][c], inv)
                A[i] = [F.sub(A[i][j], F.mul(f, A[c][j])) for j in range(n)]
    return d


def inverse(F: Field, A):
    n = len(A)
    aug = [A[i][:] + [F.one if j == i else F.zero for j in range(n)] for i in range(n)]
    R, pivots = rref(F, aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in R[:n]]


def dot(F: Field, u, v):
    """sum_i u_i v_i."""
    s = F.zero
    for a, b in zip(u, v):
        if a != F.zero and b != F.zero:
            s = F.add(s, F.mul(a, b))
    return s


def mat_mul(F: Field, A, B):
    """The product A B of an m x k and a k x n matrix."""
    cols = list(zip(*B))
    return [[dot(F, row, col) for col in cols] for row in A]


def charpoly(F: Field, A) -> list:
    """det(t - A) as a coefficient list [c0, c1, ..., 1] (c_k the coefficient
    of t^k), over any field: a similarity to upper Hessenberg form H, then
    the recurrence p_m = (t - H[m-1][m-1]) p_{m-1}
    - sum_i H[m-i-1][m-1] H[m-1][m-2] ... H[m-i][m-i-1] p_{m-i-1}."""
    H = mat_copy(A)
    n = len(H)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1] != F.zero), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        inv = F.inv(H[m][m - 1])
        for i in range(m + 1, n):
            u = F.mul(H[i][m - 1], inv)
            if u == F.zero:
                continue
            H[i] = [F.sub(a, F.mul(u, b)) for a, b in zip(H[i], H[m])]
            for row in H:
                row[m] = F.add(row[m], F.mul(u, row[i]))
    polys = [[F.one]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        p = [F.zero] + prev  # t * p_{m-1}
        c = H[m - 1][m - 1]
        for i, a in enumerate(prev):
            p[i] = F.sub(p[i], F.mul(c, a))
        prod = F.one
        for i in range(1, m):
            prod = F.mul(prod, H[m - i][m - i - 1])
            c = F.mul(H[m - i - 1][m - 1], prod)
            if c != F.zero:
                for k, a in enumerate(polys[m - i - 1]):
                    p[k] = F.sub(p[k], F.mul(c, a))
        polys.append(p)
    return polys[n]


def mat_vec(F: Field, A, v):
    return [dot(F, row, v) for row in A]


def random_invertible(F: Field, n: int, rng: Rng):
    while True:
        A = [[F.rand(rng) for _ in range(n)] for _ in range(n)]
        if det(F, A) != F.zero:
            return A
