"""Finitely generated abelian groups in invariant-factor form, integer matrix
normal forms (Smith, Hermite), subgroups generated by subsets, and character
enumeration against a finite unit group.

Group elements are integer tuples, torsion coordinates first (reduced mod the
invariant factor), free coordinates last.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import InputError, MathIdentityError
from .linalg import mat_mul


# ---------------------------------------------------------------------------
# integer matrices (lists of row lists)

# the integers as a ring for linalg.mat_mul
INTEGERS = SimpleNamespace(zero=int, is_zero=operator.not_, add=operator.add,
                           mul=operator.mul)


def int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_det(A):
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pivot is None:
                return 0
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def smith_normal_form(M):
    """Return (D, U, V) with U*M*V = D, U and V unimodular, D diagonal with
    d1 | d2 | ... and nonnegative entries.  Verified on every call."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [list(map(int, row)) for row in M]
    U = int_identity(rows)
    V = int_identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            A[r][i] -= q * A[r][j]
        for r in range(cols):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(rows, cols):
        # locate smallest nonzero entry in the trailing submatrix; a restart
        # after a nonzero remainder strictly shrinks this minimum
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        restart = False
        for i in range(t + 1, rows):
            if A[i][t] != 0:
                row_op(i, t, A[i][t] // A[t][t])
                if A[i][t] != 0:
                    restart = True
                    break
        if restart:
            continue
        for j in range(t + 1, cols):
            if A[t][j] != 0:
                col_op(j, t, A[t][j] // A[t][t])
                if A[t][j] != 0:
                    restart = True
                    break
        if restart:
            continue
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        # enforce divisibility of the rest by A[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        t += 1

    _verify_snf(M, A, U, V, rows, cols)
    return A, U, V


def _verify_snf(M, D, U, V, rows, cols):
    if mat_mul(INTEGERS, mat_mul(INTEGERS, U, M), V) != D:
        raise MathIdentityError("SNF postcondition U*M*V ≠ D")
    if abs(int_det(U)) != 1 or abs(int_det(V)) != 1:
        raise MathIdentityError("SNF transform is not unimodular")
    diag = [D[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        ok = (b % a == 0) if a != 0 else (b == 0)
        if not ok:
            raise MathIdentityError("SNF divisibility chain broken")
    for i in range(rows):
        for j in range(cols):
            if i != j and D[i][j] != 0:
                raise MathIdentityError("SNF result not diagonal")


def int_mat_inv(A):
    """Inverse of a unimodular integer matrix."""
    n = len(A)
    D, U, V = smith_normal_form(A)
    for i in range(n):
        if D[i][i] != 1:
            raise InputError("matrix is not unimodular")
    return mat_mul(INTEGERS, V, U)


def hermite_rows(M):
    """Canonical (row-style Hermite) basis of the row lattice of M: rows sorted
    by pivot column, pivots positive, entries above pivots reduced."""
    A = [list(map(int, row)) for row in M if any(row)]
    cols = len(M[0]) if M else 0
    basis = []
    for c in range(cols):
        # reduce all rows against current column
        while True:
            cand = [r for r in A if r[c] != 0]
            if not cand:
                break
            pivot = min(cand, key=lambda r: abs(r[c]))
            A.remove(pivot)
            if all(r[c] == 0 for r in A):
                if pivot[c] < 0:
                    pivot = [-x for x in pivot]
                basis.append(pivot)
                break
            for i, r in enumerate(A):
                if r[c] != 0:
                    q = r[c] // pivot[c]
                    A[i] = [a - q * b for a, b in zip(r, pivot)]
            A = [r for r in A if any(r)]
            A.append(pivot)
        A = [r for r in A if any(r)]
    # reduce above-pivot entries
    for i in range(len(basis) - 1, -1, -1):
        c = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            if basis[k][c] != 0:
                q = basis[k][c] // basis[i][c]
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def kernel_basis(M):
    """Basis rows of {x : x*M = 0} over the integers, in Hermite form."""
    rows = len(M)
    if rows == 0:
        return []
    D, U, V = smith_normal_form(M)
    cols = len(M[0])
    out = []
    for i in range(rows):
        d = D[i][i] if i < min(rows, cols) else 0
        if d == 0:
            out.append(U[i][:])
    return hermite_rows(out) if out else []


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FGAbelianGroup:
    """Invariant-factor form: torsion factors d1 | d2 | ... (each >= 2), then
    free rank.  Elements are tuples, torsion coordinates first."""

    torsion: tuple
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise InputError("free rank must be >= 0")
        for d in self.torsion:
            if d < 2:
                raise InputError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise InputError(
                    "torsion factors must form a divisibility chain "
                    "(declare Z/2 + Z/3 as Z/6)")

    @property
    def ncoords(self):
        return len(self.torsion) + self.rank

    def identity(self):
        return (0,) * self.ncoords

    def reduce(self, vec):
        vec = tuple(vec)
        if len(vec) != self.ncoords:
            raise InputError("element has %d coordinates, expected %d"
                             % (len(vec), self.ncoords))
        out = []
        for i, x in enumerate(vec):
            if i < len(self.torsion):
                out.append(x % self.torsion[i])
            else:
                out.append(x)
        return tuple(out)

    def add(self, a, b):
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a):
        return self.reduce(tuple(-x for x in a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, n, a):
        return self.reduce(tuple(n * x for x in a))

    def is_finite(self):
        return self.rank == 0

    def order(self):
        if not self.is_finite():
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def elements(self):
        if not self.is_finite():
            raise InputError("cannot enumerate an infinite group")
        return (tuple(v) for v in itertools.product(*[range(d) for d in self.torsion])) \
            if self.torsion else iter([()])

    def generators(self):
        """Canonical generators, one per coordinate."""
        out = []
        for i in range(self.ncoords):
            v = [0] * self.ncoords
            v[i] = 1
            out.append(tuple(v))
        return out

    def generator_orders(self):
        return list(self.torsion) + [0] * self.rank

    def element_str(self, a):
        if self.ncoords == 0:
            return "0"
        return ",".join(str(x) for x in a)

    def parse_element(self, s):
        s = s.strip()
        if self.ncoords == 0:
            if s in ("0", "", "()"):
                return ()
            raise InputError("trivial group element must be written 0")
        parts = [p.strip() for p in s.split(",")]
        if len(parts) != self.ncoords:
            raise InputError("element needs %d coordinates" % self.ncoords)
        return self.reduce(tuple(int(p) for p in parts))

    def group_str(self):
        parts = ["Z/%d" % d for d in self.torsion]
        if self.rank:
            parts.append("Z^%d" % self.rank)
        return " + ".join(parts) if parts else "1"

    def __repr__(self):
        return "FGAbelianGroup(%s)" % self.group_str()


def trivial_group():
    return FGAbelianGroup((), 0)


def cyclic_group(n):
    if n <= 1:
        return trivial_group()
    return FGAbelianGroup((n,), 0)


@dataclass(frozen=True)
class Presentation:
    generators: int
    relations: tuple  # rows of integer relation vectors

    def __post_init__(self):
        for row in self.relations:
            if len(row) != self.generators:
                raise InputError("relation arity mismatch")


def group_from_presentation(pres):
    """Quotient Z^m / rowspace(relations) in invariant-factor form.

    Returns (group, projection, lift) where projection[j] is the image of
    abstract generator j, and lift[i] is an integer vector over the abstract
    generators mapping onto canonical generator i of the quotient.
    """
    m = pres.generators
    rel = [list(r) for r in pres.relations]
    if not rel:
        rel = [[0] * m] if m else []
    if m == 0:
        return trivial_group(), [], []
    D, U, V = smith_normal_form(rel)
    rows = len(rel)
    diag = [D[i][i] if i < min(rows, m) else 0 for i in range(m)]
    torsion_pos = [i for i, d in enumerate(diag) if d > 1]
    free_pos = [i for i, d in enumerate(diag) if d == 0]
    group = FGAbelianGroup(tuple(diag[i] for i in torsion_pos), len(free_pos))
    positions = torsion_pos + free_pos

    projection = []
    for j in range(m):
        coords = V[j]  # row j of V = image of e_j under x -> x V
        projection.append(group.reduce(tuple(coords[p] for p in positions)))

    Vinv = int_mat_inv(V)
    lift = [list(Vinv[p]) for p in positions]
    return group, projection, lift


@dataclass
class SubgroupResult:
    group: FGAbelianGroup          # H in invariant-factor form
    gens_in_G: list                # canonical H-generator -> element of G
    relations: list                # Hermite basis of ker(Z^S -> G)
    _solve_data: tuple

    def contains(self, element):
        D, U, V, width, G = self._solve_data
        target = list(element) + [0] * (width - len(element))
        gv = [sum(target[r] * V[r][j] for r in range(width)) for j in range(width)]
        rows = D and len(D) or 0
        for j in range(width):
            d = D[j][j] if j < min(rows, width) else 0
            if d == 0:
                if gv[j] != 0:
                    return False
            elif gv[j] % d != 0:
                return False
        return True


def subgroup_generated(G, S):
    """Subgroup of G generated by S, with inclusion data and the relation
    lattice (all integer relations among S inside G)."""
    S = [G.reduce(s) for s in S]
    k = len(S)
    t = G.ncoords
    rows = [list(s) for s in S]
    for i, d in enumerate(G.torsion):
        row = [0] * t
        row[i] = d
        rows.append(row)
    if not rows:
        rows = [[0] * t] if t else []

    # relation lattice: kernel of Z^k -> G, as projection of ker(stacked map)
    if k == 0:
        relations = []
    else:
        full_kernel = kernel_basis(rows) if rows else []
        relations = hermite_rows([r[:k] for r in full_kernel]) if full_kernel else []

    pres = Presentation(k, tuple(tuple(r) for r in relations))
    H, projection, lift = group_from_presentation(pres)

    gens_in_G = []
    for coeffs in lift:
        acc = G.identity()
        for c, s in zip(coeffs, S):
            acc = G.add(acc, G.scale(c, s))
        gens_in_G.append(acc)

    # membership oracle: g in H iff the system x * rows = g is solvable
    if rows:
        D, U, V = smith_normal_form(rows)
        solve_data = (D, U, V, t, G)
    else:
        solve_data = ([], [], int_identity(t), t, G)
    result = SubgroupResult(H, gens_in_G, relations, solve_data)

    for s in S:
        if not result.contains(s):
            raise MathIdentityError("generator not contained in generated subgroup")
    for rel in relations:
        acc = G.identity()
        for c, s in zip(rel, S):
            acc = G.add(acc, G.scale(c, s))
        if acc != G.identity():
            raise MathIdentityError("relation lattice row does not annihilate S")
    return result


# ---------------------------------------------------------------------------
# characters


def enumerate_characters(U, units):
    """All homomorphisms U -> units, as value tuples on canonical generators.

    units: the unit map {unit: order} of a finite group of units R^x."""
    pools = [[e for e, o in units.items() if d % o == 0]
             for d in U.generator_orders()]
    return [tuple(assign) for assign in itertools.product(*pools)]
