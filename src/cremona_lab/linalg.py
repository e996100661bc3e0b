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
    """Reduced row echelon form in place; returns (R, pivot column list)."""
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
    lists of ints in [0, p).  Entries of A may be any int64 values; p < 2^31
    keeps every product of two residues inside int64.
    """
    import numpy as np

    A = np.asarray(rows, dtype=np.int64) % p
    ncols = A.shape[1]
    A = A[A.any(axis=1)]
    m = A.shape[0]
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        A[[r, pr]] = A[[pr, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((len(free), ncols), dtype=np.int64)
    out[:, free] = np.eye(len(free), dtype=np.int64)
    out[:, pivots] = (-A[:len(pivots), free] % p).T
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


def mat_vec(F: Field, A, v):
    out = []
    for row in A:
        s = F.zero
        for a, x in zip(row, v):
            s = F.add(s, F.mul(a, x))
        out.append(s)
    return out


def random_invertible(F: Field, n: int, rng: Rng):
    while True:
        A = [[F.rand(rng) for _ in range(n)] for _ in range(n)]
        if det(F, A) != F.zero:
            return A
