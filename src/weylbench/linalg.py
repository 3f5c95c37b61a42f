"""Dense exact linear algebra over an ExactField (desk-scale matrices);
`mat_mul` alone works over any ring.

Matrices are lists of row lists; vectors are lists.  Everything is pure.
"""

from __future__ import annotations

from .errors import SingularMatrixError


def identity(F, n):
    return [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]


def mat_mul(R, A, B):
    """A B over any ring with zero(), is_zero, add and mul: an ExactField, a
    TestRing, a GroupAlgebra or abgroups.INTEGERS.  Zero entries of A and of
    B are skipped."""
    is_zero, add, mul = R.is_zero, R.add, R.mul
    m = len(B[0]) if B else 0
    out = []
    for Ai in A:
        Oi = [R.zero() for _ in range(m)]
        for a, Bt in zip(Ai, B):
            if is_zero(a):
                continue
            for j, b in enumerate(Bt):
                if not is_zero(b):
                    Oi[j] = add(Oi[j], mul(a, b))
        out.append(Oi)
    return out


def mat_vec(F, A, v):
    return [
        _dot(F, row, v)
        for row in A
    ]


def _dot(F, row, v):
    acc = F.zero()
    for a, b in zip(row, v):
        if not (F.is_zero(a) or F.is_zero(b)):
            acc = F.add(acc, F.mul(a, b))
    return acc


def rref(F, A):
    """Reduced row echelon form; returns (R, pivot column list)."""
    R = [row[:] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not F.is_zero(R[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, x) for x in R[r]]
        for i in range(rows):
            if i != r and not F.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def rank(F, A):
    return len(rref(F, A)[1])


def det(F, A):
    # elimination, O(n^3): divides by pivots, so it needs a field
    n = len(A)
    M = [row[:] for row in A]
    sign = False
    d = F.one()
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not F.is_zero(M[i][c]):
                pivot = i
                break
        if pivot is None:
            return F.zero()
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = not sign
        d = F.mul(d, M[c][c])
        inv = F.inv(M[c][c])
        for i in range(c + 1, n):
            if F.is_zero(M[i][c]):
                continue
            f = F.mul(M[i][c], inv)
            M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[c])]
    return F.neg(d) if sign else d


def inv(F, A):
    n = len(A)
    M = [row[:] + IdRow for row, IdRow in zip(A, identity(F, n))]
    R, pivots = rref(F, M)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in R]


def solve(F, A, b):
    """One solution of A x = b, or raise SingularMatrixError if inconsistent."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    M = [A[i][:] + [b[i]] for i in range(rows)]
    R, pivots = rref(F, M)
    for i in range(len(pivots), rows):
        if not F.is_zero(R[i][cols]):
            raise SingularMatrixError("inconsistent linear system")
    x = [F.zero()] * cols
    for r, c in enumerate(pivots):
        if c == cols:
            raise SingularMatrixError("inconsistent linear system")
        x[c] = R[r][cols]
    return x


def nullspace(F, A):
    """Basis of the right kernel of A."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    R, pivots = rref(F, A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero()] * cols
        v[fc] = F.one()
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][fc])
        basis.append(v)
    return basis
