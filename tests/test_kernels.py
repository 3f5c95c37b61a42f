"""Oracle tests for the arithmetic core: the compiled structure-constant
kernel against the dense n^3 loop it replaced, the one matrix product
against the points-layer loop it replaced, the O(1) zero tests against
comparison with the field's zero, and the index view of a finite ring
against its element operations."""

import functools
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylbench as wb
from weylbench import abgroups, comrings, galg, linalg, points, scalars
from weylbench.errors import InputError, SingularMatrixError, WorkbenchError
from conftest import battery_rings, cubic_grading, para_hurwitz_grading, zero_mult_grading

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
    zero_table = [[(F.zero(),) * n] * n] * n   # no nonempty cell at all
    ring_vectors = st.tuples(*[st.one_of(st.just(R.zero()), vectors(F, R.dim))] * n)
    back = points._indexed(R)[2]
    # _kernel twice on one algebra (the second reads the kept cells), then
    # once on a second algebra over the same ring
    first = galg.Algebra(F, data.draw(st.one_of(st.just(zero_table), tables(F, n))))
    for A in (first, first, galg.Algebra(F, data.draw(tables(F, n)))):
        x, y = data.draw(ring_vectors), data.draw(ring_vectors)
        expected = dense_mul(F, A.table, x, y, R.zero(),
                             lambda r: all(c == F.zero() for c in r),
                             R.add, R.mul, R.from_field)
        # the point layer's kernel data, on R's table when it has one
        T, to, terms, cells = points._kernel(A, R)
        ops = T.zero(), T.is_zero, T.add
        product = linalg.structure_mul(cells, tuple(map(to, x)), tuple(map(to, y)),
                                       *ops, T.mul, T.scal)
        assert tuple(map(back, product)) == expected
        # _image scales the columns of phi by the same field constants
        rows = [data.draw(ring_vectors) for _ in range(n)]
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        image = [R.zero()] * n
        for t, c in enumerate(A.table[i][j]):
            for k in range(n):
                image[k] = R.add(image[k], R.mul(rows[k][t], R.from_field(c)))
        cols = [tuple(map(to, col)) for col in zip(*rows)]
        assert tuple(map(back, points._image(terms[i][j], cols, *ops, T.scal))) == tuple(image)
        # the multiplicativity test on (i, j) compares exactly these two
        ei, ej = (tuple(map(back, col)) for col in (cols[i], cols[j]))
        expected_pair = dense_mul(F, A.table, ei, ej, R.zero(),
                                  lambda r: all(c == F.zero() for c in r),
                                  R.add, R.mul, R.from_field) == tuple(image)
        assert points._multiplicative(T, terms, cells, cols, [(i, j)]) == expected_pair
    # what the table keeps per algebra is data only: index terms and cells
    if T is not R:
        assert set(T.terms) >= {first, A}
        for terms, cells in T.terms.values():
            assert cells == tuple((i, j, cell) for i, row in enumerate(terms)
                                  for j, cell in enumerate(row) if cell)
            assert all(type(c) is int for _, _, cell in cells for k, c in cell)


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


def coordinate_mul_matrix(R, x):
    """Multiplication by x as the coordinate products with the basis vectors
    (columns): the definition TestRing.mul_matrix reads off the constants."""
    cols = [R._product(x, R._basis_vec(j)) for j in range(R.dim)]
    return [[col[k] for col in cols] for k in range(R.dim)]


def coordinate_is_unit(R, x):
    """The determinant test on coordinates only."""
    return not R.field.is_zero(linalg.det(R.field, coordinate_mul_matrix(R, x)))


def multiplication_rings():
    """Rings over Q, F_p and F9: F[t]/(f) with constants that add up past p
    (over Q, with large denominators), and the 729-element F9[C3], which has
    no table."""
    big = [Fraction(3, 10007), Fraction(-5, 2000006), Fraction(7, 998244353), Fraction(1)]
    out = {"trunc/Q": comrings.truncated_poly(Q, big)}
    for name, F in (("Q", Q), ("F2", F2), ("F5", F5), ("F9", F9)):
        base = comrings.base_field_ring(F)
        if name != "Q":
            out["trunc/" + name] = comrings.truncated_poly(F, [F.from_int(c) for c in (4, 3, 2, 1)])
        out["dual3/" + name] = comrings.dual_numbers(F, 3)
        out["eps2xF/" + name] = comrings.product_ring(comrings.dual_numbers(F, 2), base)
        out["FC3/" + name] = comrings.group_algebra_finite(F, abgroups.cyclic_group(3))
    assert "mul" not in vars(out["FC3/F9"])
    return out


MULTIPLICATION_RINGS = multiplication_rings()


@pytest.mark.parametrize("name", sorted(MULTIPLICATION_RINGS))
@settings(KERNEL, max_examples=15)
@given(st.data())
def test_mul_matrix_matches_basis_products(name, data):
    # mul_matrix reads L[k][j] = sum_i x_i c_ijk off the compiled constants
    # (ints over Q and F_p, field ops over F9); the products by the unit, which
    # TestRing.mul returns without the kernel, equal the kernel's
    R = MULTIPLICATION_RINGS[name]
    F, TR = R.field, comrings.TestRing
    x = data.draw(large_vectors(R.dim) if F.kind == "rationals" else vectors(F, R.dim))
    M = R.mul_matrix(x)
    assert M == coordinate_mul_matrix(R, x)
    if F.kind == "rationals":
        for row in M:
            assert_canonical(row)
    assert TR.mul(R, R.one, x) == TR.mul(R, x, R.one) == R._product(R.one, x) == x
    assert R.is_unit(x) == coordinate_is_unit(R, x)


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

    def inv(self, x):
        return next(y for y in self.R.elements() if self.mul(x, y) == self.one)


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
@given(st.sampled_from(sorted(TABLE_RINGS)), st.integers(1, 4), st.data())
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
    # 2x2 with a zero a or b, on the table and on rings with no table (Q,
    # and F9[e]/e^3 with 729 elements): ad - bc, with no product by the zero
    for ring, entry in ((T, indices(T)), *((S, vectors(S.field, S.dim))
                                           for S in NO_TABLE_RINGS)):
        assert points._indexed(ring)[0] is ring
        a, b, c, d = (data.draw(entry) for _ in range(4))
        for a, b in ((ring.zero(), b), (a, ring.zero())):
            counted = CountingRing(ring)
            assert points.ring_det(counted, [[a, b], [c, d]]) == ring.add(
                ring.mul(a, d), ring.neg(ring.mul(b, c)))
            assert counted.products == [(x, y) for x, y in ((a, d), (b, c))
                                        if not ring.is_zero(x)]


NO_TABLE_RINGS = (comrings.dual_numbers(Q, 2), comrings.dual_numbers(F9, 3))


class CountingRing:
    """The ring protocol of R, recording the factors of every product."""

    def __init__(self, R):
        self.R, self.one, self.products = R, R.one, []

    def zero(self):
        return self.R.zero()

    def is_zero(self, x):
        return self.R.is_zero(x)

    def add(self, x, y):
        return self.R.add(x, y)

    def neg(self, x):
        return self.R.neg(x)

    def mul(self, x, y):
        self.products.append((x, y))
        return self.R.mul(x, y)


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


def test_ring_tables_number_elements_in_sort_order():
    # a tuple of indices then sorts as its elements: the point search sorts
    # its index rows into the points' sorted order
    tables = 0
    for F in (F2, F3, F5, F9):
        trunc = comrings.truncated_poly(F, [F.one(), F.zero(), F.one()])   # t^2 + 1
        for R in battery_rings(F) + [trunc]:
            quotient = R.nil_quotient()
            blocks = [R.block(e)[0] for e in R.idempotents()] if len(R.idempotents()) > 1 else []
            for S in [R] + blocks + ([quotient[0]] if quotient else []):
                if S.element_count() <= comrings.RingTable.MAX_ELEMENTS:
                    assert S.ring_table().elems == sorted(S.elements()), S.label
                    tables += 1
    assert tables == 60


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


def reference_minors(R, M):
    """The element-tuple determinant ring_det ran before the point layer
    moved onto table indices, kept as the reference: cofactor expansion
    along the first row with memoized minors."""
    memo = {}

    def minor(rows, cols):
        if not rows:
            return R.one
        key = (rows, cols)
        if key not in memo:
            acc = R.zero()
            for pos, c in enumerate(cols):
                entry = M[rows[0]][c]
                if not R.is_zero(entry):
                    term = R.mul(entry, minor(rows[1:], cols[:pos] + cols[pos + 1:]))
                    acc = R.add(acc, R.neg(term) if pos % 2 else term)
            memo[key] = acc
        return memo[key]

    return minor


def reference_det(R, M):
    every = tuple(range(len(M)))
    return reference_minors(R, M)(every, every)


def reference_inv(R, M):
    """The element-tuple ring_mat_inv, kept as the reference."""
    n = len(M)
    minor, every = reference_minors(R, M), tuple(range(n))
    d = minor(every, every)
    if not R.is_unit(d):
        raise InputError("element is not a unit")
    d_inv = R.inv(d)
    return [[R.mul(d_inv, R.neg(cof) if (i + j) % 2 else cof)
             for j in range(n) for cof in [minor(every[:j] + every[j + 1:],
                                                  every[:i] + every[i + 1:])]]
            for i in range(n)]


def reference_membership(R, A, M):
    """The element-tuple automorphism_membership, kept as the reference:
    det M a unit, and phi(e_i e_j) = phi(e_i) phi(e_j) on every basis pair,
    both sides by the dense loop with each constant c as R.from_field(c)."""
    if not R.is_unit(reference_det(R, M)):
        return False
    F, n, lift = A.field, A.dim, R.R.from_field
    cols = [[M[k][j] for k in range(n)] for j in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        image = [R.zero()] * n
        for t, c in enumerate(A.table[i][j]):
            for k in range(n):
                image[k] = R.add(image[k], R.mul(cols[t][k], lift(c)))
        if tuple(image) != dense_mul(F, A.table, cols[i], cols[j], R.zero(), R.is_zero,
                                     R.add, R.mul, lift):
            return False
    return True


# every battery table ring over F3, F5 and F9: the rings of oracle tests
ORACLE_RINGS = {name: R for name, R in BOUND_RINGS.items()
                if name.split("/")[1] in ("F3", "F5", "F9")}


def cube_roots(R):
    """The cube roots of unity in R other than 1, or [1] if it has none."""
    C = Coordinates(R)
    return [z for z in R.elements() if z != R.one and C.mul(z, C.mul(z, z)) == R.one] or [R.one]


CUBE_ROOTS = {name: cube_roots(R) for name, R in ORACLE_RINGS.items()}


def transported(A, P):
    """A on the basis f_j = sum_k P[k][j] e_k, with P^-1; an automorphism S of
    A on the e basis is P^-1 S P on the f basis.  The new constants are
    generic, so a point of A rarely survives a wrong one."""
    F, cols = A.field, [tuple(col) for col in zip(*P)]
    Pinv = linalg.inv(F, P)
    table = [[linalg.mat_vec(F, Pinv, list(A.mul(x, y))) for y in cols] for x in cols]
    return galg.Algebra(F, table), Pinv


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.sampled_from(sorted(ORACLE_RINGS)), st.sampled_from([2, 3]), st.data())
def test_point_layer_matches_element_reference(name, n, data):
    # para-Hurwitz (2 x 2) or the cubic root (3 x 3), transported to a random
    # basis; its points diag(z, z^2), [[0, z^2], [z, 0]] and diag(1, z, z^2)
    # for z^3 = 1, z != 1 if R has such z, one of them with an entry moved, or
    # a random matrix
    R = ORACLE_RINGS[name]
    F, C = R.field, Coordinates(R)
    z = data.draw(st.sampled_from(CUBE_ROOTS[name]))
    zz, o = C.mul(z, z), R.zero()
    if n == 2:
        A = para_hurwitz_grading(F).algebra
        S = data.draw(st.sampled_from([[[z, o], [o, zz]], [[o, zz], [z, o]]]))
    else:
        A = cubic_grading(F).algebra
        S = [[R.one, o, o], [o, z, o], [o, o, zz]]
    P = data.draw(st.lists(st.lists(elements(F), min_size=n, max_size=n),
                           min_size=n, max_size=n).filter(
                               lambda P: not F.is_zero(linalg.det(F, P))))
    A, Pinv = transported(A, P)
    Pinv, P = ([[R.from_field(c) for c in row] for row in N] for N in (Pinv, P))
    M = linalg.mat_mul(C, linalg.mat_mul(C, Pinv, S), P)
    kind = data.draw(st.sampled_from(["point", "moved", "random"]))
    if kind == "point":
        assert reference_membership(C, A, M)
    elif kind == "moved":
        k, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        M[k][j] = data.draw(vectors(F, R.dim))
    else:
        M = [[data.draw(vectors(F, R.dim)) for _ in range(n)] for _ in range(n)]
    d = reference_det(C, M)
    assert points.ring_det(R, M) == d
    assert points.automorphism_membership(points.point_matrix(A, R, M)) == \
        reference_membership(C, A, M)
    if C.is_unit(d):
        assert points.ring_mat_inv(R, M) == reference_inv(C, M)
    else:
        with pytest.raises(InputError):
            points.ring_mat_inv(R, M)


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
    # each ring with its table, and the residue and block rings it made with
    # theirs, goes as soon as it is dropped, and no call leaves cyclic garbage:
    # none is held by a closure of its own
    base = comrings.base_field_ring(F3)
    gr, cubic = zero_mult_grading(F3), cubic_grading(F7)
    cases = [(lambda: comrings.dual_numbers(F3, 2), lambda R: R.unit_group()),
             (lambda: comrings.dual_numbers(F3, 2), lambda R: R.idempotents()),
             (lambda: comrings.product_ring(base, base), lambda R: R.block(R.idempotents()[0])),
             (lambda: comrings.dual_numbers(F3, 2),
              lambda R: points.enumerate_points(gr, R, "aut")),
             (lambda: comrings.product_ring(base, base),
              lambda R: points.enumerate_points(gr, R, "aut")),
             (lambda: comrings.base_field_ring(F7),   # 3x3 minors, memoized
              lambda R: [points.norm_membership_generic(cubic, p)
                         for p in points.enumerate_points(cubic, R, "stab")])]
    for ring, use in cases:
        gc.collect()
        gc.disable()
        try:
            R = ring()
            use(R)
            assert {"mul", "add", "is_unit"} <= set(vars(R))
            rings = [R] + [R._blocks[e][0] for e in R._blocks]
            if R._nil_quotient:
                rings.append(R._nil_quotient[0])
            refs = [weakref.ref(x) for S in rings for x in (S, S.ring_table())]
            del R, rings
            assert [ref() for ref in refs] == [None] * len(refs)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_a_search_past_the_table_size_frees_its_ring_without_the_cycle_collector():
    # the filtration's coordinate memo and the block entry maps hold no ring:
    # F9[eps]/eps^3 is lifted on its elements, F7 x F7[eps]/eps^3 summed on them
    gr7, gr9 = para_hurwitz_grading(F7), para_hurwitz_grading(F9)
    cases = [(lambda: comrings.dual_numbers(F9, 3), gr9),
             (lambda: comrings.product_ring(comrings.base_field_ring(F7),
                                            comrings.dual_numbers(F7, 3)), gr7)]
    for ring, gr in cases:
        gc.collect()
        gc.disable()
        try:
            R = ring()
            assert points.enumerate_points(gr, R, "stab") and R._ring_table is None
            ref = weakref.ref(R)
            del R
            assert ref() is None and gc.collect() == 0
        finally:
            gc.enable()


def test_table_kept_past_its_ring_raises_a_clear_error():
    T = comrings.dual_numbers(F3, 2).ring_table()
    gc.collect()
    for op in (lambda: T.mul(1, 2), lambda: T.add(1, 2), lambda: T.neg(1),
               lambda: T.is_unit(1), lambda: T.inv(T.one)):
        with pytest.raises(WorkbenchError, match="valid only while its ring is alive"):
            op()


@pytest.mark.parametrize("name", ["dual3/F3", "FxF/F3", "FC2/F2"])
def test_table_inv_is_kept_and_matches_element_inv(name):
    R = TABLE_RINGS[name]
    T, units = R.ring_table(), 0
    for a, x in enumerate(T.elems):
        if not comrings.TestRing.is_unit(R, x):
            for _ in range(2):   # a non-unit is refused on every call
                with pytest.raises(InputError, match="not a unit"):
                    T.inv(a)
            continue
        assert T.elems[T.inv(a)] == comrings.TestRing.inv(R, x)
        assert T.inv(a) == T.inv(a) == T._inv[a]   # kept after the first call
        units += 1
    assert units == len(R.unit_group())


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


@KERNEL
@given(rational_matrices(square=True))
@example([[Fraction(0), Fraction(2, 3)], [Fraction(-5, 7), Fraction(1)]])   # a row swap
def test_rational_det_matches_sympy(A):
    # det over Q, the signed last pivot of the fraction-free Gauss-Jordan pass
    # over the row scales: singular draws, zero rows, 1 x 1 and large denominators
    d = sympy_matrix(A).det()
    assert linalg.det(Q, A) == Fraction(int(d.p), int(d.q))
    assert_canonical([linalg.det(Q, A)])


def test_empty_determinant_is_one():
    for F in (Q, F5, F9):
        assert linalg.det(F, []) == F.one()


@st.composite
def field_matrices(draw, F, square=False):
    """m x n over F, tall, wide or square (n = m if square, 0 x 0 among them):
    L B for L m x r and B r x n, so of rank r = min(m, n) or less; then maybe
    one row set to zero."""
    m = draw(st.integers(0 if square else 1, 5))
    n = m if square else draw(st.integers(1, 5))
    r = max(min(m, n) - draw(st.sampled_from([0, 0, 1, 2])), 0)
    L = [draw(st.tuples(*[elements(F)] * r)) for _ in range(m)]
    B = [draw(st.tuples(*[elements(F)] * n)) for _ in range(r)]
    A = [[functools.reduce(F.add, (F.mul(a, b[j]) for a, b in zip(row, B)), F.zero())
          for j in range(n)] for row in L]
    if m and draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [F.zero()] * n
    return A


@st.composite
def prime_field_matrices(draw):
    """(F_p, A) for A over F_p, p = 2..7, square about half of the time."""
    F = draw(st.sampled_from([F2, F3, F5, F7]))
    return F, draw(field_matrices(F, square=draw(st.booleans())))


@KERNEL
@given(prime_field_matrices())
@example((F5, [[0, 1], [1, 0]]))                    # a row swap: det -1
@example((F3, [[0, 1, 2], [0, 2, 2], [1, 0, 1]]))   # the pivot of column 0 in the last row
@example((F7, [[0, 2, 1], [0, 3, 5], [0, 1, 4]]))   # a zero first column: det 0, pivots 1, 2
def test_prime_field_elimination_matches_sympy(case):
    # rref and det over F_p against sympy's DomainMatrix over GF(p): tall,
    # wide, rank-deficient, 1 x 1 and 0 x 0
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF
    F, A = case
    p, K = F.p, GF(F.p)
    m, n = len(A), len(A[0]) if A else 0
    M = matrices.DomainMatrix([[K(a) for a in row] for row in A], (m, n), K)
    S, spivots = M.rref()
    assert linalg.rref(F, A) == ([[K.to_int(s) % p for s in row] for row in S.to_list()],
                                 list(spivots))
    if m == n:
        assert linalg.det(F, A) == K.to_int(M.det()) % p


@KERNEL
@given(field_matrices(F9, square=True))
@example([[(0, 0), (1, 0)], [(0, 1), (2, 2)]])   # a row swap
def test_extension_det_matches_cofactors(A):
    # det over F9 against the cofactor expansion of points.ring_det in F9 as a ring
    R = comrings.base_field_ring(F9)
    assert (linalg.det(F9, A),) == points.ring_det(R, [[(a,) for a in row] for row in A])


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
