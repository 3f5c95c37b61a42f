"""Dense exact linear algebra over an ExactField (desk-scale matrices), and
the two products that work over any ring: `mat_mul` and the
structure-constant kernel `structure_mul`.

Matrices are lists of row lists; vectors are lists.  Everything is pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def compile_product(F, table):
    """(terms, product) for structure constants over F: terms[i][j] lists the
    (k, c) with table[i][j][k] = c nonzero, and product(x, y) multiplies
    F-coordinate tuples by the kernel chosen here, once per table."""
    terms = tuple(tuple(tuple((k, c) for k, c in enumerate(cell) if not F.is_zero(c))
                        for cell in row) for row in table)
    if F.kind != "rationals":
        zero, is_zero, add, mul = F.zero(), F.is_zero, F.add, F.mul
        return terms, lambda x, y: structure_mul(terms, x, y, zero, is_zero, add, mul, mul)
    # Over Q, on integers: the constants times their common denominator D,
    # x and y times the lcms dx, dy of theirs; one Fraction per coordinate.
    D = lcm(*(c.denominator for row in terms for cell in row for _, c in cell))
    iterms = tuple(tuple(tuple((k, c.numerator * (D // c.denominator)) for k, c in cell)
                         for cell in row) for row in terms)
    zero = Fraction(0)

    def product(x, y):
        dx = lcm(*(a.denominator for a in x))
        dy = lcm(*(b.denominator for b in y))
        ys = [(j, b.numerator * (dy // b.denominator)) for j, b in enumerate(y) if b]
        out = [0] * len(iterms)
        for a, row in zip(x, iterms):
            if a:
                a = a.numerator * (dx // a.denominator)
                for j, b in ys:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] += ab * c
        d = dx * dy * D
        return tuple(Fraction(v, d) if v else zero for v in out)

    return terms, product


def structure_mul(terms, x, y, zero, is_zero, add, mul, scal):
    """The product sum_{i,j,k} x_i y_j c_ijk e_k from compiled terms.

    Coordinates live in any commutative ring given by zero/is_zero/add/mul,
    and scal(c, r) multiplies r by a structure constant c.  Zero coordinates
    and empty cells are skipped, so each x_i y_j is formed only when needed."""
    out = [zero] * len(terms)
    for i, a in enumerate(x):
        if is_zero(a):
            continue
        row = terms[i]
        for j, b in enumerate(y):
            cell = row[j]
            if not cell or is_zero(b):
                continue
            ab = mul(a, b)
            for k, c in cell:
                out[k] = add(out[k], scal(c, ab))
    return tuple(out)


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
