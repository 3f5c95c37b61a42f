"""Dense exact linear algebra over an ExactField (desk-scale matrices), and
the two products that work over any ring: `mat_mul` and the
structure-constant kernel `structure_mul`, which visits only the nonempty
cells of a table (`nonempty_cells`).

`rref` (so `solve`, `inv`, `nullspace` and `rank`) reads one Gauss-Jordan
pass, `_eliminate`, and `det` its forward half: the signed product of the
pivots, over Q fraction-free the last pivot.  Over Q the products, `mat_vec`
and that pass run on Python ints scaled by common denominators, making one
Fraction per output entry; every other field uses field operations.

Matrices are lists of row lists; vectors are lists.  Everything is pure.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm, prod

from .errors import SingularMatrixError


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
    """(terms, product, ints) for structure constants over F: terms[i][j]
    lists the (k, c) with table[i][j][k] = c nonzero, and product(x, y)
    multiplies F-coordinate tuples by the kernel chosen here, once per table.
    Over F_p and Q it adds up Python ints and makes one field element per
    coordinate; ints are then (D, the terms on ints): over Q the constants
    times their common denominator D, over F_p the terms with D = 1; else
    None."""
    terms = tuple(tuple(tuple((k, c) for k, c in enumerate(cell) if not F.is_zero(c))
                        for cell in row) for row in table)
    if F.kind == "prime":   # reduced mod p once per coordinate
        p = F.p
        return terms, lambda x, y: tuple(v % p for v in _int_products(terms, x, y)), (1, terms)
    if F.kind != "rationals":
        cells, zero, is_zero, add, mul = nonempty_cells(terms), F.zero(), F.is_zero, F.add, F.mul
        return terms, lambda x, y: structure_mul(cells, x, y, zero, is_zero, add, mul, mul), None
    # Over Q: the constants times their common denominator D, x and y times
    # the lcms dx, dy of theirs; one Fraction per coordinate.
    D = lcm(*(c.denominator for row in terms for cell in row for _, c in cell))
    iterms = tuple(tuple(tuple((k, c.numerator * (D // c.denominator)) for k, c in cell)
                         for cell in row) for row in terms)
    zero = Fraction(0)

    def product(x, y):
        (dx, xs), (dy, ys) = _on_integers(x), _on_integers(y)
        d = dx * dy * D
        return tuple(Fraction(v, d) if v else zero for v in _int_products(iterms, xs, ys))

    return terms, product, (D, iterms)


def structure_matrix(F, terms, ints, x):
    """Multiplication by x on the canonical basis (columns), read off the
    constants: L[k][j] = sum_i x_i c_ijk.  With ints = (D, int terms) from
    compile_product (F_p and Q) it adds up ints and makes one field element
    per entry; otherwise it uses F's operations on terms."""
    if ints is None:
        zero, is_zero, add, mul, xs = F.zero(), F.is_zero, F.add, F.mul, x
    else:
        (D, terms), zero, is_zero, add, mul = ints, 0, operator.not_, operator.add, operator.mul
        dx, xs = (1, x) if F.kind == "prime" else _on_integers(x)
    L = [[zero] * len(x) for _ in x]
    for a, row in zip(xs, terms):
        if not is_zero(a):
            for j, cell in enumerate(row):
                for k, c in cell:
                    L[k][j] = add(L[k][j], mul(a, c))
    if ints is None:
        return L
    if F.kind == "prime":
        return [[v % F.p for v in row] for row in L]
    return [[Fraction(v, dx * D) for v in row] for row in L]


def _int_products(terms, x, y):
    """sum_{i,j} x_i y_j c_ijk per k, on ints, from (k, c) terms per cell."""
    ys = [(j, b) for j, b in enumerate(y) if b]
    out = [0] * len(terms)
    for a, row in zip(x, terms):
        if a:
            for j, b in ys:
                ab = a * b
                for k, c in row[j]:
                    out[k] += ab * c
    return out


def _on_integers(v):
    """(d, d*v) for a vector v of rationals, d the lcm of their denominators."""
    d = lcm(*(a.denominator for a in v))
    return d, [a.numerator * (d // a.denominator) for a in v]


def nonempty_cells(terms):
    """The cells (i, j, ((k, c), ...)) of compiled terms that hold a constant."""
    return tuple((i, j, cell) for i, row in enumerate(terms) for j, cell in enumerate(row) if cell)


def structure_mul(cells, x, y, zero, is_zero, add, mul, scal):
    """The product sum_{i,j,k} x_i y_j c_ijk e_k over the nonempty cells.

    Coordinates live in any commutative ring given by zero/is_zero/add/mul,
    and scal(c, r) multiplies r by a structure constant c.  Zero coordinates
    are skipped, so each x_i y_j is formed only when needed."""
    out = [zero] * len(x)
    for i, j, cell in cells:
        a, b = x[i], y[j]
        if not (is_zero(a) or is_zero(b)):
            ab = mul(a, b)
            for k, c in cell:
                out[k] = add(out[k], scal(c, ab))
    return tuple(out)


def mat_vec(F, A, v):
    if F.kind != "rationals":
        return [_dot(F, row, v) for row in A]
    dv, vs = _on_integers(v)   # over Q: one denominator per vector and per row
    return [Fraction(sum(a * b for a, b in zip(rs, vs)), dr * dv)
            for dr, rs in map(_on_integers, A)]


def _dot(F, row, v):
    acc = F.zero()
    for a, b in zip(row, v):
        if not (F.is_zero(a) or F.is_zero(b)):
            acc = F.add(acc, F.mul(a, b))
    return acc


def _eliminate(F, A, above=True):
    """One Gauss-Jordan pass over A: (rows, pivot columns, sign, scale), the
    pivot rows not divided by their pivots.  Over a field every other row
    (with above=False, every row below) loses b/a times the pivot row.  Over
    Q the rows are scaled to integers and such a row becomes
    (a*row - b*top) // last, exact by Bareiss's identity (Math. Comp. 22,
    1968); in the Gauss-Jordan form of Montante each pivot row holds the last
    pivot on its pivot column.  scale is the product of the row scales there,
    1 over any other field."""
    rational = F.kind == "rationals"
    if rational:
        scaled = [_on_integers(row) for row in A]
        R, is_zero, scale = [ints for _, ints in scaled], operator.not_, prod(d for d, _ in scaled)
    else:
        R, is_zero, scale = [row[:] for row in A], F.is_zero, 1
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots, sign, last = [], 1, 1
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if not is_zero(R[i][c])), None)
        if pivot is None:
            continue
        if pivot != r:
            R[r], R[pivot], sign = R[pivot], R[r], -sign
        top, a = R[r], R[r][c]
        start = 0 if above else r + 1
        if rational:
            for i, row in enumerate(R[start:], start):
                if i != r:
                    b = row[c]
                    R[i] = [(a * x - b * y) // last for x, y in zip(row, top)]
            last = a
        else:
            inv = F.inv(a)
            for i, row in enumerate(R[start:], start):
                if i != r and not is_zero(row[c]):
                    f = F.mul(row[c], inv)
                    R[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(row, top)]
        pivots.append(c)
        if r + 1 == rows:
            break
    return R, pivots, sign, scale


def rref(F, A):
    """Reduced row echelon form; returns (R, pivot column list): the rows of
    _eliminate with each pivot row divided by its pivot."""
    R, pivots, _, _ = _eliminate(F, A)
    if F.kind == "rationals":   # one Fraction per entry
        zero, ds = Fraction(0), [R[r][c] for r, c in enumerate(pivots)] + [1] * len(R)
        return [[Fraction(x, d) if x else zero for x in row] for row, d in zip(R, ds)], pivots
    for r, c in enumerate(pivots):
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, x) for x in R[r]]
    return R, pivots


def rank(F, A):
    return len(rref(F, A)[1])


def det(F, A):
    """Read off _eliminate below the pivots: the signed product of the
    pivots, over Q the signed last pivot over the row scales (one Fraction).
    A singular A leaves its last row zero, so both read 0."""
    R, _, sign, scale = _eliminate(F, A, above=False)
    if F.kind == "rationals":
        return Fraction(sign * R[-1][-1], scale) if A else Fraction(1)
    d = F.one() if sign > 0 else F.neg(F.one())
    for r, row in enumerate(R):
        d = F.mul(d, row[r])
    return d


def inv(F, A):
    n = len(A)
    M = [row[:] + [F.one() if i == j else F.zero() for j in range(n)] for i, row in enumerate(A)]
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
