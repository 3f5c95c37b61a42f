"""Oracle tests for the arithmetic core: the compiled structure-constant
kernel against the dense n^3 loop it replaced, the one matrix product
against the points-layer loop it replaced, the O(1) zero tests against
comparison with the field's zero, and the index view of a finite ring
against its element operations."""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylbench as wb
from weylbench import abgroups, comrings, galg, linalg, points, scalars
from weylbench.errors import SingularMatrixError, WorkbenchError
from conftest import battery_rings, para_hurwitz_grading

KERNEL = settings(derandomize=True, max_examples=40, deadline=None, database=None)

Q = wb.rationals()
F2 = wb.prime_field(2)
F3 = wb.prime_field(3)
F5 = wb.prime_field(5)
F7 = wb.prime_field(7)
F9 = wb.extension_field(F3, [1, 0, 1])
F81 = wb.extension_field(F9, [(2, 2), (0, 0), (1, 0)])
QSQRT2 = wb.extension_field(Q, [Fraction(-2), Fraction(0), Fraction(1)])

KERNEL_FIELDS = {"Q": Q, "F5": F5, "F9": F9}
PRODUCT_FIELDS = dict(KERNEL_FIELDS, F2=F2, F3=F3, F7=F7)   # every F_p, p = 2..7
ALL_FIELDS = {"Q": Q, "F3": F3, "F5": F5, "F9": F9, "F81": F81, "Q(sqrt2)": QSQRT2}


def dense_mul(F, table, x, y, zero, is_zero, add, mul, lift):
    """The dense n^3 product loop the kernel replaced, kept as the reference:
    it visits every coordinate of every cell and multiplies x_i*y_j by the
    constant lifted into the coefficient ring."""
    n = len(table)
    out = [zero] * n
    for i in range(n):
        if is_zero(x[i]):
            continue
        for j in range(n):
            if is_zero(y[j]):
                continue
            xy = mul(x[i], y[j])
            cell = table[i][j]
            for k in range(n):
                if cell[k] != F.zero():
                    out[k] = add(out[k], mul(xy, lift(cell[k])))
    return tuple(out)


def elements(F):
    if F.kind == "rationals":
        return st.fractions(min_value=-4, max_value=4, max_denominator=5)
    if F.kind == "prime":
        return st.integers(0, F.p - 1)
    return st.tuples(*[elements(F.base)] * F.degree)


def sparse_elements(F):
    """Elements that are zero about half of the time, so the kernel's skips
    of zero coordinates and empty cells are exercised."""
    return st.one_of(st.just(F.zero()), elements(F))


def vectors(F, n):
    return st.tuples(*[sparse_elements(F)] * n)


def tables(F, n):
    cell = st.one_of(st.just((F.zero(),) * n), vectors(F, n))
    return st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)


def coefficient_rings(F):
    base = comrings.base_field_ring(F)
    return [base, comrings.dual_numbers(F, 2), comrings.product_ring(base, base),
            comrings.group_algebra_finite(F, abgroups.cyclic_group(2))]


RINGS = {name: coefficient_rings(F) for name, F in PRODUCT_FIELDS.items()}


@KERNEL
@given(st.sampled_from(sorted(PRODUCT_FIELDS)), st.integers(1, 3), st.data())
def test_field_products_match_dense_loop(name, n, data):
    F = PRODUCT_FIELDS[name]
    table = data.draw(tables(F, n))
    x, y = data.draw(vectors(F, n)), data.draw(vectors(F, n))
    expected = dense_mul(F, table, x, y, F.zero(), lambda a: a == F.zero(),
                         F.add, F.mul, lambda c: c)
    R = data.draw(st.sampled_from(RINGS[name]))
    u, v = data.draw(vectors(F, R.dim)), data.draw(vectors(F, R.dim))
    assert R.mul(u, v) == dense_mul(F, R.table, u, v, F.zero(), lambda a: a == F.zero(),
                                    F.add, F.mul, lambda c: c)
    assert galg.Algebra(F, table).mul(x, y) == expected


def large_rationals():
    """Rationals over products of large primes, zero about half of the time:
    the denominators of a table, of x and of y are coprime or share factors."""
    primes = st.lists(st.sampled_from([2, 3, 10007, 1000003, 998244353]), max_size=3)
    nonzero = st.builds(lambda n, ps: Fraction(n, math.prod(ps)),
                        st.integers(-10**9, 10**9), primes)
    return st.one_of(st.just(Fraction(0)), nonzero)


def large_vectors(n):
    return st.one_of(st.just((Fraction(0),) * n), st.tuples(*[large_rationals()] * n))


def assert_canonical(v):
    for c in v:
        assert type(c) is Fraction and c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1


@KERNEL
@given(st.integers(1, 4), st.data())
def test_rational_kernel_matches_dense_loop_on_large_denominators(n, data):
    cell = st.one_of(st.just((Fraction(0),) * n), large_vectors(n))
    table = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                               min_size=n, max_size=n))
    x, y = data.draw(large_vectors(n)), data.draw(large_vectors(n))
    product = galg.Algebra(Q, table).mul(x, y)
    assert product == dense_mul(Q, table, x, y, Q.zero(), Q.is_zero, Q.add, Q.mul,
                                lambda c: c)
    assert_canonical(product)
    R = comrings.truncated_poly(Q, data.draw(large_vectors(n)) + (Fraction(1),))
    u, v = data.draw(large_vectors(n)), data.draw(large_vectors(n))
    product = R.mul(u, v)
    assert product == dense_mul(Q, R.table, u, v, Q.zero(), Q.is_zero, Q.add, Q.mul,
                                lambda c: c)
    assert_canonical(product)
    a, b = data.draw(large_vectors(2)), data.draw(large_vectors(2))
    power = scalars.power_table(Q, QSQRT2.modulus)
    assert QSQRT2.mul(a, b) == dense_mul(Q, power, a, b, Q.zero(), Q.is_zero, Q.add,
                                         Q.mul, lambda c: c)
    assert_canonical(QSQRT2.mul(a, b))


@KERNEL
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rational_mat_vec_matches_dense_loop_on_large_denominators(m, n, data):
    A = [list(data.draw(large_vectors(n))) for _ in range(m)]
    v = list(data.draw(large_vectors(n)))
    image = linalg.mat_vec(Q, A, v)
    assert image == [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in A]
    assert_canonical(image)


@KERNEL
@given(st.sampled_from(sorted(KERNEL_FIELDS)), st.integers(1, 3), st.data())
def test_products_over_a_ring_match_dense_loop(name, n, data):
    F = KERNEL_FIELDS[name]
    R = data.draw(st.sampled_from(RINGS[name]))
    A = galg.Algebra(F, data.draw(tables(F, n)))
    ring_vectors = st.tuples(*[st.one_of(st.just(R.zero()), vectors(F, R.dim))] * n)
    x, y = data.draw(ring_vectors), data.draw(ring_vectors)
    expected = dense_mul(F, A.table, x, y, R.zero(),
                         lambda r: all(c == F.zero() for c in r),
                         R.add, R.mul, R.from_field)
    assert points.algebra_mul_over_ring(A, R, x, y) == expected
    # apply_point scales matrix entries by the same field constants
    phi = points.point_matrix(A, R, [data.draw(ring_vectors) for _ in range(n)])
    vec = data.draw(vectors(F, n))
    image = [R.zero()] * n
    for j, c in enumerate(vec):
        for k in range(n):
            image[k] = R.add(image[k], R.mul(phi.entries[k][j], R.from_field(c)))
    assert points.apply_point(phi, vec) == tuple(image)


@KERNEL
@given(st.sampled_from(sorted(ALL_FIELDS)), st.data())
def test_fast_is_zero_agrees_with_comparison(name, data):
    F = ALL_FIELDS[name]
    for a in (F.zero(), F.sub(F.one(), F.one()), data.draw(elements(F))):
        assert F.is_zero(a) == (a == F.zero())
    assert not F.is_zero(F.one())


@KERNEL
@given(st.sampled_from(sorted(KERNEL_FIELDS)), st.data())
def test_ring_is_zero_agrees_with_coordinates(name, data):
    F = KERNEL_FIELDS[name]
    R = data.draw(st.sampled_from(RINGS[name]))
    x = data.draw(vectors(F, R.dim))
    assert R.is_zero(x) == all(c == F.zero() for c in x)
    assert R.is_zero(R.sub(x, x))
    assert R.is_zero(R.zero())


def _is_element(F, a):
    """Extension elements are tuples of the degree's length, recursively."""
    if F.kind != "extension":
        return True
    return (type(a) is tuple and len(a) == F.degree
            and all(_is_element(F.base, c) for c in a))


@KERNEL
@given(st.sampled_from(["F9", "F81", "Q(sqrt2)"]), st.data())
def test_extension_ops_return_tuples(name, data):
    F = ALL_FIELDS[name]
    a, b = data.draw(elements(F)), data.draw(elements(F))
    results = [F.zero(), F.one(), F.gen(), F.from_int(7), F.from_base(F.base.one()),
               F.add(a, b), F.neg(a), F.sub(a, b), F.mul(a, b), F.pow(a, 3),
               F.parse(F.to_str(a)), F.parse("1"), F.random_element(random.Random(0))]
    if not F.is_zero(b):
        results += [F.inv(b), F.div(a, b), F.pow(b, -2)]
    for r in results:
        assert _is_element(F, r), r
    if F.cardinality() is not None:
        assert all(_is_element(F, e) for e in F.elements())


def loop_mat_mul(R, A, B):
    """The points-layer square matrix product linalg.mat_mul replaced, kept
    as the reference."""
    n = len(A)
    out = [[R.zero()] * n for _ in range(n)]
    for i in range(n):
        for t in range(n):
            a = A[i][t]
            if R.is_zero(a):
                continue
            for j in range(n):
                if not R.is_zero(B[t][j]):
                    out[i][j] = R.add(out[i][j], R.mul(a, B[t][j]))
    return out


F3EPS = comrings.dual_numbers(F3, 2)
MATRIX_RINGS = {
    "Q": Q, "F5": F5, "F9": F9,
    "dual3/F5": comrings.dual_numbers(F5, 3),
    "F5C3": comrings.group_algebra_finite(F5, abgroups.cyclic_group(3)),
    "F3[eps]C3": comrings.GroupAlgebra(F3EPS, abgroups.cyclic_group(3)),
    "Z": abgroups.INTEGERS,
}


def matrix_entries(R):
    """Entries of R, zero about half of the time."""
    if R is abgroups.INTEGERS:
        return st.one_of(st.just(0), st.integers(-4, 4))
    if isinstance(R, comrings.GroupAlgebra):
        terms = st.lists(st.tuples(st.integers(0, 2), vectors(F3, F3EPS.dim)), max_size=3)

        def build(pairs):
            acc = R.zero()
            for g, r in pairs:
                acc = R.add(acc, R.monomial(r, (g,)))
            return acc

        return st.one_of(st.just(R.zero()), terms.map(build))
    if isinstance(R, comrings.TestRing):
        return st.one_of(st.just(R.zero()), vectors(R.field, R.dim))
    return sparse_elements(R)


@KERNEL
@given(st.sampled_from(sorted(MATRIX_RINGS)), st.integers(1, 3), st.data())
def test_mat_mul_matches_points_loop(name, n, data):
    R = MATRIX_RINGS[name]
    square = st.lists(st.lists(matrix_entries(R), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    A, B = data.draw(square), data.draw(square)
    assert linalg.mat_mul(R, A, B) == loop_mat_mul(R, A, B)


def table_rings():
    out = {}
    for name, F in (("F2", F2), ("F3", F3)):
        base = comrings.base_field_ring(F)
        out["dual2/" + name] = comrings.dual_numbers(F, 2)
        out["dual3/" + name] = comrings.dual_numbers(F, 3)
        out["FxF/" + name] = comrings.product_ring(base, base)
        out["FC2/" + name] = comrings.group_algebra_finite(F, abgroups.cyclic_group(2))
    return out


TABLE_RINGS = table_rings()


def coordinate_is_unit(R, x):
    """The determinant test on coordinates only."""
    cols = [comrings.TestRing.mul(R, x, R._basis_vec(j)) for j in range(R.dim)]
    M = [[col[k] for col in cols] for k in range(R.dim)]
    return not R.field.is_zero(linalg.det(R.field, M))


class Coordinates:
    """The ring protocol of R on elements through the class-level coordinate
    kernels, also after R has moved onto its table: the oracle for the table
    and for the ops it binds on R."""

    def __init__(self, R):
        self.R, self.one = R, R.one

    def zero(self):
        return self.R.zero()

    def is_zero(self, x):
        return self.R.is_zero(x)

    def add(self, x, y):
        return comrings.TestRing.add(self.R, x, y)

    def mul(self, x, y):
        return comrings.TestRing.mul(self.R, x, y)

    def neg(self, x):
        return comrings.TestRing.neg(self.R, x)

    def is_unit(self, x):
        return coordinate_is_unit(self.R, x)


def indices(table):
    """Table indices, the zero index about half of the time."""
    return st.one_of(st.just(table.zero()), st.integers(0, len(table.elems) - 1))


@KERNEL
@given(st.sampled_from(sorted(TABLE_RINGS)), st.data())
def test_ring_table_ops_match_element_ops(name, data):
    R = TABLE_RINGS[name]
    T, C = R.ring_table(), Coordinates(R)
    a, b = data.draw(indices(T)), data.draw(indices(T))
    x, y = T.elems[a], T.elems[b]
    assert T.index[x] == a
    assert T.elems[T.zero()] == C.zero() and T.elems[T.one] == C.one
    assert T.is_zero(a) == C.is_zero(x)
    assert T.elems[T.add(a, b)] == C.add(x, y)
    assert T.elems[T.mul(a, b)] == C.mul(x, y)
    assert T.elems[T.neg(a)] == C.neg(x)
    assert T.is_unit(a) == C.is_unit(x)


def perm_parity(perm):
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def leibniz_det(table, cols):
    """The Leibniz sum on table indices that enumerate_points used before
    ring_det, kept as the reference; it tested the unit flag of this sum."""
    n = len(cols)
    acc = table.zero()
    for perm in itertools.permutations(range(n)):
        term = table.one
        for r, c in zip(perm, range(n)):
            term = table.mul(term, cols[c][r])
        if perm_parity(perm) < 0:
            term = table.neg(term)
        acc = table.add(acc, term)
    return acc


@KERNEL
@given(st.sampled_from(sorted(TABLE_RINGS)), st.integers(1, 3), st.data())
def test_ring_det_over_table_matches_elements_and_leibniz(name, n, data):
    R = TABLE_RINGS[name]
    T = R.ring_table()
    rows = data.draw(st.lists(st.lists(indices(T), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    d = points.ring_det(T, rows)
    assert T.elems[d] == points.ring_det(Coordinates(R),
                                         [[T.elems[a] for a in row] for row in rows])
    cols = [[rows[k][j] for k in range(n)] for j in range(n)]
    assert d == leibniz_det(T, cols)
    assert T.is_unit(d) == T.is_unit(leibniz_det(T, cols))


def test_ring_table_is_built_once_per_ring(monkeypatch):
    builds = []
    init = comrings.RingTable.__init__

    def counting_init(table, R):
        builds.append(R)
        init(table, R)

    gr = para_hurwitz_grading(F3)
    monkeypatch.setattr(comrings.RingTable, "__init__", counting_init)
    R = comrings.dual_numbers(F3, 2)
    assert points.RingTable is comrings.RingTable
    assert R.ring_table() is R.ring_table()
    first = points.enumerate_points(gr, R, "aut")
    assert points.enumerate_points(gr, R, "aut") == first
    # R and R/nil, searched first for the residue points: one table each
    assert builds == [R, R.nil_quotient()[0]]


BATTERY_RING_NAMES = ("base", "dual2", "dual3", "FxF", "FC2", "FC3")


def bound_rings():
    """Every battery ring with at most RingTable.MAX_ELEMENTS elements over
    F2, F3, F5, F7 and F9, moved onto its table."""
    out = {}
    for fname, F in (("F2", F2), ("F3", F3), ("F5", F5), ("F7", F7), ("F9", F9)):
        for rname, R in zip(BATTERY_RING_NAMES, battery_rings(F)):
            if R.element_count() <= comrings.RingTable.MAX_ELEMENTS:
                R.ring_table()
                out["%s/%s" % (rname, fname)] = R
    return out


BOUND_RINGS = bound_rings()


@KERNEL
@given(st.sampled_from(sorted(BOUND_RINGS)), st.integers(0, 9), st.data())
def test_bound_table_ops_match_coordinate_path(name, n, data):
    R = BOUND_RINGS[name]
    TR = comrings.TestRing
    assert {"mul", "add", "is_unit"} <= set(vars(R))
    x, y = data.draw(vectors(R.field, R.dim)), data.draw(vectors(R.field, R.dim))
    assert R.mul(x, y) == TR.mul(R, x, y) and type(R.mul(x, y)) is tuple
    assert R.add(x, y) == TR.add(R, x, y) and type(R.add(x, y)) is tuple
    assert R.is_unit(x) == coordinate_is_unit(R, x)
    power = R.one
    for _ in range(n):
        power = TR.mul(R, power, x)
    assert R.pow_element(x, n) == power


def test_finite_ring_binds_table_ops_at_construction(monkeypatch):
    check_axioms = comrings.TestRing._check_axioms

    def on_coordinates(R):
        assert not {"mul", "add", "is_unit"} & set(vars(R))
        check_axioms(R)

    monkeypatch.setattr(comrings.TestRing, "_check_axioms", on_coordinates)
    base = comrings.base_field_ring(F5)
    rings = [comrings.dual_numbers(F5, 2), comrings.product_ring(base, base),
             comrings.group_algebra_finite(F3, abgroups.cyclic_group(3)),
             comrings.dual_numbers(F2, 9)]   # 512 elements, the bound
    for R in rings:
        assert {"mul", "add", "is_unit"} <= set(vars(R)), R.label
        assert R.ring_table() is R._ring_table
    R = rings[0]
    x = (F5.one(), F5.from_int(2))
    assert R.mul(x, x) == comrings.TestRing.mul(R, x, x)


def test_q_and_large_rings_never_bind_table_ops():
    for R in (comrings.dual_numbers(Q, 2), comrings.dual_numbers(F9, 3)):
        x = tuple(R.field.one() for _ in range(R.dim))
        # products never bind table ops on a Q ring or one past the bound
        for _ in range(2917):
            R.mul(x, x)
        assert not {"mul", "add", "is_unit"} & set(vars(R)), R.label


def test_tabulated_ring_is_freed_without_the_cycle_collector():
    R = comrings.dual_numbers(F3, 2)
    R.unit_group()
    assert {"mul", "add", "is_unit"} <= set(vars(R))
    ref = weakref.ref(R)
    gc.disable()
    try:
        del R
        assert ref() is None
    finally:
        gc.enable()


def test_table_kept_past_its_ring_raises_a_clear_error():
    T = comrings.dual_numbers(F3, 2).ring_table()
    gc.collect()
    for op in (lambda: T.mul(1, 2), lambda: T.add(1, 2), lambda: T.neg(1),
               lambda: T.is_unit(1)):
        with pytest.raises(WorkbenchError, match="valid only while its ring is alive"):
            op()


def test_unit_group_makes_one_determinant_test_per_element(monkeypatch):
    R = comrings.dual_numbers(F5, 3)
    det, calls = linalg.det, []
    monkeypatch.setattr(linalg, "det", lambda F, M: calls.append(M) or det(F, M))
    units = R.unit_group()
    assert len(calls) == R.element_count() == 125 and len(units) == 100
    assert sum(map(R.is_unit, R.elements())) == 100
    assert len(calls) == 125


@st.composite
def rational_matrices(draw, square=False):
    """m x n over Q, tall, wide or square (n = m if square): L B for L m x r and B r x n with
    nonzero entries over products of large primes, so of rank r = min(m, n)
    (generically) or less; then maybe one row set to zero."""
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    r = min(m, n) - draw(st.sampled_from([0, 0, 1, 2]))
    entry = st.builds(lambda a, ps: Fraction(a, math.prod(ps)),
                      st.integers(-10**9, 10**9).filter(bool),
                      st.lists(st.sampled_from([10007, 1000003, 998244353, 2, 3]),
                               min_size=1, max_size=3))
    L = [draw(st.tuples(*[entry] * max(r, 0))) for _ in range(m)]
    B = [draw(st.tuples(*[entry] * n)) for _ in range(max(r, 0))]
    A = [[sum((a * b[j] for a, b in zip(row, B)), Fraction(0)) for j in range(n)]
         for row in L]
    if draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [Fraction(0)] * n
    return A


def sympy_matrix(A):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                         for row in A])


def from_sympy(M):
    return [[Fraction(int(c.p), int(c.q)) for c in M.row(i)] for i in range(M.rows)]


@KERNEL
@given(rational_matrices(), st.booleans(), st.data())
def test_rational_elimination_matches_sympy(A, consistent, data):
    # fraction-free rref over Q against sympy: the form, the pivots and what
    # solve, nullspace, inv and rank read from it
    M = sympy_matrix(A)
    m, n = len(A), len(A[0])
    R, pivots = linalg.rref(Q, A)
    S, spivots = M.rref()
    assert (R, pivots) == (from_sympy(S), list(spivots))
    for row in R:
        assert_canonical(row)
    assert linalg.rank(Q, A) == M.rank()
    assert linalg.nullspace(Q, A) == [from_sympy(v.T)[0] for v in M.nullspace()]
    if consistent:
        x0 = data.draw(st.tuples(*[large_rationals()] * n))
        b = linalg.mat_vec(Q, A, list(x0))
    else:
        b = list(data.draw(st.tuples(*[large_rationals()] * m)))
    if M.row_join(sympy_matrix([[c] for c in b])).rank() == M.rank():
        x, params = M.gauss_jordan_solve(sympy_matrix([[c] for c in b]))
        x = x.subs({t: 0 for t in params})   # free variables zero, as solve sets them
        assert linalg.solve(Q, A, b) == from_sympy(x.T)[0]
    else:
        with pytest.raises(SingularMatrixError):
            linalg.solve(Q, A, b)
    S = data.draw(rational_matrices(square=True))
    if sympy_matrix(S).rank() == len(S):
        assert linalg.inv(Q, S) == from_sympy(sympy_matrix(S).inv())
    else:
        with pytest.raises(SingularMatrixError):
            linalg.inv(Q, S)
