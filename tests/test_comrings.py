import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylbench as wb
from weylbench import comrings, linalg, points
from weylbench.abgroups import cyclic_group
from weylbench.comrings import (
    GroupAlgebra,
    TestRing,
    base_field_ring,
    decompose_ring,
    dual_numbers,
    enumerate_units,
    group_algebra_finite,
    product_ring,
    truncated_poly,
)
from weylbench.errors import MathIdentityError, RingAxiomError
from weylbench.factorization import Factor

from conftest import battery_rings, zero_mult_grading


def test_constructors(F3, Q):
    R = dual_numbers(F3, 2)
    assert R.dim == 2
    eps = (F3.zero(), F3.one())
    assert R.is_zero(R.mul(eps, eps))
    P = product_ring(base_field_ring(F3), base_field_ring(F3))
    assert len(P.idempotents()) == 2
    G = group_algebra_finite(Q, cyclic_group(6))
    assert G.dim == 6


def test_axiom_check_rejects_nonassociative(F3):
    # x*x = y, y*y = x, x*y = 0 is commutative but not associative
    z = (F3.zero(), F3.zero())
    x = (F3.one(), F3.zero())
    y = (F3.zero(), F3.one())
    with pytest.raises(RingAxiomError):
        TestRing(F3, [[y, z], [z, x]], x)


def test_unit_and_nilpotent_examples(F3):
    R = dual_numbers(F3, 2)
    one_eps = (F3.one(), F3.one())
    assert (R.is_unit(one_eps), R.is_nilpotent(one_eps)) == (True, False)
    eps = (F3.zero(), F3.one())
    assert (R.is_unit(eps), R.is_nilpotent(eps)) == (False, True)
    P = product_ring(base_field_ring(F3), base_field_ring(F3))
    e = (F3.one(), F3.zero())
    assert (P.is_unit(e), P.is_nilpotent(e)) == (False, False)
    assert R.mul(one_eps, R.inv(one_eps)) == R.one


def test_idempotent_counts(Q, F3, F7):
    C6 = cyclic_group(6)
    assert len(group_algebra_finite(Q, C6).idempotents()) == 4
    assert len(group_algebra_finite(F7, C6).idempotents()) == 6
    assert len(dual_numbers(F3, 2).idempotents()) == 1
    assert len(group_algebra_finite(F3, cyclic_group(3)).idempotents()) == 1


def test_idempotent_block_dimensions(Q):
    R = group_algebra_finite(Q, cyclic_group(6))
    dims = sorted(R.block(e)[0].dim for e in R.idempotents())
    assert dims == [1, 1, 2, 2]


def test_idempotent_family_postconditions(Q, F3, F7, F9):
    rings = [
        group_algebra_finite(Q, cyclic_group(6)),
        group_algebra_finite(F7, cyclic_group(6)),
        dual_numbers(F3, 3),
        product_ring(dual_numbers(F3, 2), base_field_ring(F3)),
        group_algebra_finite(F9, cyclic_group(2)),
        truncated_poly(Q, [Q.from_int(-1), Q.zero(), Q.zero(), Q.zero(), Q.one()]),
    ]
    for R in rings:
        idems = list(R.idempotents())
        acc = R.zero()
        for i, e in enumerate(idems):
            assert R.mul(e, e) == e and not R.is_zero(e)
            acc = R.add(acc, e)
            for f in idems[i + 1:]:
                assert R.is_zero(R.mul(e, f))
        assert acc == R.one


def _basis_change(R, P, Pinv):
    F = R.field
    n = R.dim

    def to_new(vec):
        return tuple(linalg.mat_vec(F, Pinv, list(vec)))

    def to_old(vec):
        return tuple(linalg.mat_vec(F, P, list(vec)))

    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            fi = to_old(tuple(F.one() if k == i else F.zero() for k in range(n)))
            fj = to_old(tuple(F.one() if k == j else F.zero() for k in range(n)))
            table[i][j] = to_new(R.mul(fi, fj))
    return TestRing(F, table, to_new(R.one)), to_old


def test_decomposition_unique_under_basis_change(Q, F7):
    rng = random.Random(2718)
    for R in (group_algebra_finite(Q, cyclic_group(6)),
              group_algebra_finite(F7, cyclic_group(6))):
        F = R.field
        n = R.dim
        reference = set(R.idempotents())
        for _ in range(12):
            while True:
                P = [[F.from_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
                if not F.is_zero(linalg.det(F, P)):
                    break
            Pinv = linalg.inv(F, P)
            R2, to_old = _basis_change(R, P, Pinv)
            mapped = {to_old(e) for e in decompose_ring(R2)}
            assert mapped == reference


def test_two_cubic_blocks_under_basis_change(Q):
    # Q[t]/((t^3 - 2)(t^3 - 3)): every minimal polynomial that splits it has
    # degree 6 and two irreducible cubic factors
    R = truncated_poly(Q, [Q.from_int(c) for c in (6, 0, 0, -5, 0, 0, 1)])
    reference = set(R.idempotents())
    assert len(reference) == 2
    rng = random.Random(7)
    for _ in range(5):
        while True:
            P = [[Q.from_int(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
            if not Q.is_zero(linalg.det(Q, P)):
                break
        R2, to_old = _basis_change(R, P, linalg.inv(Q, P))
        assert {to_old(e) for e in decompose_ring(R2)} == reference


def test_nilradical_properties(F3, Q):
    R = dual_numbers(F3, 3)
    nil = R.nilradical()
    assert len(nil) == 2
    for v in nil:
        assert R.is_nilpotent(v)
    assert group_algebra_finite(Q, cyclic_group(6)).nilradical() == ()
    R33 = group_algebra_finite(F3, cyclic_group(3))
    assert len(R33.nilradical()) == 2


def test_unit_enumeration(F3, F7):
    R = dual_numbers(F3, 2)
    ug = R.unit_group()
    assert len(ug) == 6
    assert sorted(ug.values()) == [1, 2, 3, 3, 6, 6]
    P = product_ring(base_field_ring(F3), base_field_ring(F3))
    assert len(P.unit_group()) == 4
    ug7 = base_field_ring(F7).unit_group()
    assert len(ug7) == 6
    assert ug7[(3,)] == 6
    for u, order in ug.items():
        assert R.is_unit(u)
        assert R.pow_element(u, order) == R.one


def test_a_unit_map_against_lagrange_is_refused(F3):
    # a faulty is_unit that also admits eps makes 7 "units" of F3[eps]/eps^2;
    # eps^7 = 0 != 1, so the orders cannot divide |R^x|
    R = dual_numbers(F3, 2)
    eps = (F3.zero(), F3.one())
    scan = R.is_unit
    R.is_unit = lambda x: x == eps or scan(x)
    with pytest.raises(MathIdentityError, match="Lagrange"):
        R.unit_group()


@pytest.mark.parametrize("fname", ["F2", "F3", "F5"])
def test_unit_map_oracle(fname, request):
    # keys: exactly the x with some y, x*y = 1, in sort-key order; values:
    # the least n >= 1 with x^n = 1, found by stepping powers
    F = request.getfixturevalue(fname)
    rings = battery_rings(F)[1:]
    if fname == "F3":
        rings.append(dual_numbers(request.getfixturevalue("F9"), 2))
    for R in rings:
        elems = list(R.elements())
        units = [x for x in elems if any(R.mul(x, y) == R.one for y in elems)]
        expected = {}
        for u in sorted(units, key=R.sort_key):
            n, acc = 1, u
            while acc != R.one:
                n, acc = n + 1, R.mul(acc, u)
            expected[u] = n
        got = R.unit_group()
        assert list(got.items()) == list(expected.items()), R.label


def test_unit_map_is_the_only_unit_scan(F5):
    R = dual_numbers(F5, 3)
    R.unit_group()
    calls = []
    scan = R.is_unit
    R.is_unit = lambda x: calls.append(x) or scan(x)
    table = R.ring_table()
    brute = points._brute_diag_count(zero_mult_grading(F5), R, 10**6)
    assert calls == []
    assert sum(map(table.is_unit, range(len(table.elems)))) == len(R.unit_group()) == 100
    assert brute == 100 * 100


def _first_dependence(F, vectors):
    """Reference: smallest k with v_k in span(v_0..v_{k-1}), by incremental
    elimination, with v_k as a combination of the earlier vectors."""
    basis, ops, leads = [], [], []
    for k, v in enumerate(vectors):
        cur = list(v)
        expr = [F.zero()] * k
        for idx in range(len(basis)):
            c = cur[leads[idx]]
            if F.is_zero(c):
                continue
            row, op = basis[idx], ops[idx]
            cur = [F.sub(x, F.mul(c, y)) for x, y in zip(cur, row)]
            for i in range(len(op)):
                expr[i] = F.add(expr[i], F.mul(c, op[i]))
        lead = next((i for i, x in enumerate(cur) if not F.is_zero(x)), None)
        if lead is None:
            return k, expr
        invc = F.inv(cur[lead])
        basis.append([F.mul(invc, x) for x in cur])
        ops.append([F.neg(F.mul(invc, e)) for e in expr] + [invc])
        leads.append(lead)
    return None, None


def _reference_min_poly(R, x):
    vectors, acc = [], R.one
    while True:
        vectors.append(list(acc))
        k, coeffs = _first_dependence(R.field, vectors)
        if k is not None:
            return [R.field.neg(c) for c in coeffs] + [R.field.one()]
        acc = R.mul(acc, x)


def test_min_poly_matches_incremental_reference(Q, F3, F7, F9):
    rng = random.Random(2024)
    rings = [group_algebra_finite(Q, cyclic_group(6)),
             group_algebra_finite(F7, cyclic_group(6)),
             dual_numbers(F3, 2),
             group_algebra_finite(F9, cyclic_group(2))]
    for R in rings:
        samples = [R.zero(), R.one]
        samples += [tuple(R.field.random_element(rng, 5) for _ in range(R.dim))
                    for _ in range(8)]
        for x in samples:
            mu = comrings._min_poly_of_element(R, x, R.one, R.dim)
            assert mu == _reference_min_poly(R, x)
            assert R.is_zero(comrings._eval_poly_at_element(R, mu, x, R.one))


def test_unit_exhaustion_matches_unit_test(F3):
    # unit(x) XOR x lies in a maximal ideal, checked as: x is a unit iff no
    # nonzero y has x*y = 0 ... in these small commutative rings a non-unit is
    # always a zero divisor or nilpotent
    for R in (dual_numbers(F3, 2),
              product_ring(base_field_ring(F3), base_field_ring(F3))):
        for x in R.elements():
            has_zero_divisor = any(
                not R.is_zero(y) and R.is_zero(R.mul(x, y)) for y in R.elements())
            assert R.is_unit(x) == (not has_zero_divisor)


def test_group_algebra_ops(F3):
    R = dual_numbers(F3, 2)
    G = cyclic_group(6)
    GA = GroupAlgebra(R, G)
    g = GA.monomial(R.one, (1,))
    ginv = GA.monomial(R.one, (5,))
    assert GA.mul(g, ginv) == GA.scalar(R.one)
    u = (F3.one(), F3.one())
    assert GA.mul(GA.monomial(u, (1,)), GA.monomial(R.inv(u), (5,))) == GA.scalar(R.one)
    # infinite group: sparse elements still multiply
    from weylbench.abgroups import FGAbelianGroup
    Z2 = FGAbelianGroup((), 2)
    GAZ = GroupAlgebra(R, Z2)
    a = GAZ.monomial(R.one, (1, 0))
    b = GAZ.monomial(R.one, (0, -1))
    assert list(GAZ.mul(a, b)) == [(1, -1)]


def test_block_ring_roundtrip(Q, F3, F7, F9):
    eps_x_f3 = product_ring(dual_numbers(F3, 2), base_field_ring(F3))
    rings = [group_algebra_finite(Q, cyclic_group(6)),
             group_algebra_finite(F7, cyclic_group(6)),
             group_algebra_finite(F3, cyclic_group(3)),
             TestRing(F3, eps_x_f3.table, eps_x_f3.one),   # a product's table, unlabelled
             product_ring(base_field_ring(F9), base_field_ring(F9))]
    for R in rings:
        basis = [R._basis_vec(i) for i in range(R.dim)]
        dims = 0
        for e in R.idempotents():
            S, project, inject = R.block(e)
            dims += S.dim
            assert project(e) == S.one
            assert inject(S.one) == e
            for x in basis:
                assert inject(project(x)) == R.mul(e, x)
                # project is a ring map
                for y in basis:
                    assert project(R.mul(x, y)) == S.mul(project(x), project(y))
        assert dims == R.dim, R.label


def test_decompose_ring_builds_the_reduced_quotient_once(Q, F3, F5, F7, F9, monkeypatch):
    # the split runs inside R/nil: one quotient on a non-reduced ring, none on
    # a reduced one, and no block ring at all
    built = []
    quotient_ring = comrings._quotient_ring

    def counting(R, ideal_basis, *args):
        built.append((R, [tuple(v) for v in ideal_basis]))
        return quotient_ring(R, ideal_basis, *args)

    monkeypatch.setattr(comrings, "_quotient_ring", counting)
    non_reduced = [product_ring(dual_numbers(F3, 3), base_field_ring(F3)),
                   dual_numbers(F3, 2), dual_numbers(Q, 3),
                   group_algebra_finite(F3, cyclic_group(6)),
                   product_ring(dual_numbers(F9, 2), base_field_ring(F9))]
    reduced = [group_algebra_finite(Q, cyclic_group(6)),
               group_algebra_finite(F7, cyclic_group(6)),
               product_ring(base_field_ring(F5), base_field_ring(F5)),
               group_algebra_finite(F3, cyclic_group(2))]
    for R in non_reduced + reduced:
        built.clear()
        decompose_ring(R)
        nil = list(R.nilradical())
        assert built == ([(R, nil)] if R in non_reduced else []), R.label
        assert bool(nil) == (R in non_reduced), R.label


def test_frobenius_count_check_fires_when_a_member_is_left_unsplit(F5, F7, monkeypatch):
    # a split that never divides a member ends with the family {1}: one member
    # against dim B = 2 on F5 x F5 and dim B = 6 on F7C6; the one factor is
    # linear, so the linear-split check passes
    monkeypatch.setattr(comrings, "partial_factor",
                        lambda F, mu: [Factor([F.zero(), F.one()], True)])
    for R in (product_ring(base_field_ring(F5), base_field_ring(F5)),
              group_algebra_finite(F7, cyclic_group(6))):
        with pytest.raises(MathIdentityError, match="1 primitive idempotents for a"):
            decompose_ring(R)


def _brute_idempotents(R):
    """The minimal nonzero idempotents, by a scan of every x with x*x = x."""
    idems = [x for x in R.elements() if not R.is_zero(x) and R.mul(x, x) == x]
    return sorted((e for e in idems
                   if not any(f != e and R.mul(f, e) == f for f in idems)), key=R.sort_key)


def _oracle_rings(F):
    one, base = F.one(), base_field_ring(F)
    rings = []
    for n in (1, 2, 3):
        rings += [dual_numbers(F, n), product_ring(dual_numbers(F, n), base)]
    rings += [group_algebra_finite(F, cyclic_group(n)) for n in (2, 3, 4)]
    if F.cardinality() <= 3:
        for deg in (1, 2, 3):
            for low in itertools.product(list(F.elements()), repeat=deg):
                rings.append(truncated_poly(F, list(low) + [one]))
    return [R for R in rings if R.element_count() <= 243]


@pytest.mark.parametrize("fname", ["F2", "F3", "F5"])
def test_idempotents_match_a_brute_force_scan(fname, request):
    # dual numbers of order 1-3 and their products with F, FC2, FC3, FC4, and
    # F[t]/(f) for every monic f of degree <= 3 over F2 and F3
    for R in _oracle_rings(request.getfixturevalue(fname)):
        assert list(R.idempotents()) == _brute_idempotents(R), (R.label, R.table)


def test_quotient_ring_refuses_a_subspace_that_is_not_an_ideal(F3):
    R = dual_numbers(F3, 3)
    eps = (F3.zero(), F3.one(), F3.zero())
    assert comrings._quotient_ring(R, [R.mul(eps, eps)], "ok")[0].dim == 2
    with pytest.raises(MathIdentityError):
        comrings._quotient_ring(R, [eps], "not an ideal")   # eps * eps is outside


def test_polynomial_constructors_keep_their_tables(F2, F3, F9):
    # the tables dual_numbers and base_field_ring were built from by hand
    for F in (F2, F3, F9):
        for n in range(1, 5):
            table = tuple(tuple(tuple(F.one() if k == i + j else F.zero() for k in range(n))
                                for j in range(n)) for i in range(n))
            one = tuple(F.one() if k == 0 else F.zero() for k in range(n))
            R = dual_numbers(F, n)
            assert (R.table, R.one, R.label) == (table, one, "dual%d" % n)
        B = base_field_ring(F)
        assert (B.table, B.one, B.label) == ((((F.one(),),),), (F.one(),), "base")


def test_parse_print_roundtrip(F3):
    R = dual_numbers(F3, 2)
    for x in R.elements():
        assert R.parse(R.to_str(x)) == x
    B = base_field_ring(F3)
    assert B.to_str(B.from_int(2)) == "2"
    assert B.parse("2") == B.from_int(2)


def test_product_decomposition_without_hints(F3, F5):
    # the general algorithm must reproduce the structural block count
    P = product_ring(dual_numbers(F3, 2), base_field_ring(F3))
    assert len(decompose_ring(P)) == 2
    P2 = product_ring(base_field_ring(F5), base_field_ring(F5))
    assert len(decompose_ring(P2)) == 2
    assert set(decompose_ring(P2)) == set(P2.idempotents())


@pytest.mark.parametrize("name", ["Q", "F3", "F9"])
def test_product_ring_idempotents_are_the_embedded_factor_idempotents(name, request):
    F = request.getfixturevalue(name)
    one, zero = F.one(), F.zero()
    factors = [base_field_ring(F), dual_numbers(F, 2),   # eps is nilpotent
               truncated_poly(F, [F.neg(one), zero, one]),   # t^2 - 1 splits
               group_algebra_finite(F, cyclic_group(2))]
    for R1 in factors:
        for R2 in factors:
            P = product_ring(R1, R2)
            pad1, pad2 = (zero,) * R2.dim, (zero,) * R1.dim
            embedded = ([tuple(e) + pad1 for e in R1.idempotents()]
                        + [pad2 + tuple(e) for e in R2.idempotents()])
            assert P.idempotents() == tuple(sorted(embedded, key=P.sort_key))


def test_idempotents_over_a_large_prime_field_without_a_scan():
    # the roots of the fixed element's minimal polynomial came from a scan of F_q
    F = wb.prime_field(10000141)
    R = truncated_poly(F, [F.from_int(-1), F.zero(), F.one()])
    start = time.perf_counter()
    idems = R.idempotents()
    assert time.perf_counter() - start < 2.0
    assert sorted(idems) == [(5000071, 5000070), (5000071, 5000071)]
    assert all(R.mul(e, e) == e for e in idems) and R.add(*idems) == R.one


QQ = wb.rationals()
GF3 = wb.prime_field(3)
AXIOM_FIELDS = {"Q": QQ, "F2": wb.prime_field(2), "F3": GF3, "F5": wb.prime_field(5),
                "F7": wb.prime_field(7), "F9": wb.extension_field(GF3, [1, 0, 1]),
                "Q(sqrt2)": wb.extension_field(QQ, [Fraction(-2), Fraction(0), Fraction(1)])}


def _field_entries(F):
    """Elements of F; over Q with denominators over products of large primes."""
    if F.kind == "rationals":
        return st.builds(lambda a, ps: Fraction(a, math.prod(ps)), st.integers(-10**6, 10**6),
                         st.lists(st.sampled_from([2, 3, 10007, 1000003]), max_size=2))
    if F.kind == "prime":
        return st.integers(0, F.p - 1)
    return st.tuples(*[_field_entries(F.base)] * F.degree)


def _first_nonassociative_triple(F, table):
    """The first basis triple (i, j, k) in loop order with (e_i e_j) e_k !=
    e_i (e_j e_k), by the dense product over F; None if there is none."""
    n = len(table)

    def times(x, y):
        out = [F.zero()] * n
        for i, j, k in itertools.product(range(n), repeat=3):
            out[k] = F.add(out[k], F.mul(F.mul(x[i], y[j]), table[i][j][k]))
        return out

    e = [[F.one() if k == i else F.zero() for k in range(n)] for i in range(n)]
    return next(((i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
                 if times(times(e[i], e[j]), e[k]) != times(e[i], times(e[j], e[k]))), None)


@pytest.mark.parametrize("name", sorted(AXIOM_FIELDS))
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(n=st.integers(2, 5), data=st.data())
def test_associativity_check_fails_at_the_reference_triple(name, n, data):
    # F[t]/(f), or F[s]/(s^a) x F[t]/(t^(n-a)), with one symmetric pair of
    # cells (i, j), (j, i) off the unit's support moved by c e_k: the check
    # must refuse exactly when a reference loop over basis triples finds a
    # failure, and name the first failing triple
    F = AXIOM_FIELDS[name]
    entry = _field_entries(F)
    if data.draw(st.booleans()):
        a = data.draw(st.integers(1, n - 1))
        R = product_ring(dual_numbers(F, a), dual_numbers(F, n - a))
    else:
        R = truncated_poly(F, [data.draw(entry) for _ in range(n)] + [F.one()])
    table = [[list(cell) for cell in row] for row in R.table]
    free = [m for m in range(n - 1, -1, -1) if F.is_zero(R.one[m])]
    if not free:
        return
    i, j = data.draw(st.sampled_from(list(itertools.combinations_with_replacement(free, 2))))
    k, c = data.draw(st.sampled_from(range(n - 1, -1, -1))), data.draw(entry)
    for a, b in {(i, j), (j, i)}:
        table[a][b][k] = F.add(table[a][b][k], c)
    one = R.one
    triple = _first_nonassociative_triple(F, table)
    if triple is None:
        assert TestRing(F, table, one).table == tuple(tuple(map(tuple, row)) for row in table)
    else:
        with pytest.raises(RingAxiomError) as err:
            TestRing(F, table, one)
        assert str(err.value) == "multiplication not associative at basis triple (%d,%d,%d)" % triple


def _mul_matrix_trace_nilradical(R):
    """The radical of B(e_i, e_j) = trace(L_{e_i e_j}), each trace read off
    R.mul_matrix (the definition the structure-constant trace form replaced)."""
    F = R.field
    T = [[None] * R.dim for _ in range(R.dim)]
    for i, j in itertools.product(range(R.dim), repeat=2):
        M = R.mul_matrix(R.table[i][j])
        tr = F.zero()
        for k in range(R.dim):
            tr = F.add(tr, M[k][k])
        T[i][j] = tr
    return linalg.nullspace(F, T)


@pytest.mark.parametrize("name", ["Q", "Q(sqrt2)", "Q(zeta3)"])
def test_trace_form_nilradical_matches_the_mul_matrix_definition(name):
    K = {"Q": QQ, "Q(sqrt2)": AXIOM_FIELDS["Q(sqrt2)"],
         "Q(zeta3)": wb.extension_field(QQ, [Fraction(1), Fraction(1), Fraction(1)])}[name]
    c = K.from_int
    rings = [dual_numbers(K, 3), product_ring(dual_numbers(K, 2), base_field_ring(K)),
             truncated_poly(K, [c(4), c(0), c(-4), c(0), c(1)]),   # (t^2 - 2)^2
             truncated_poly(K, [c(1), c(2), c(3), c(1)]),
             group_algebra_finite(K, cyclic_group(3))]
    rng = random.Random(21)
    for R in list(rings):
        while True:
            P = [[c(rng.randint(-2, 2)) for _ in range(R.dim)] for _ in range(R.dim)]
            if not K.is_zero(linalg.det(K, P)):
                break
        rings.append(_basis_change(R, P, linalg.inv(K, P))[0])
    dims = []
    for R in rings:
        nil = comrings._nilradical_basis(R)
        assert nil == _mul_matrix_trace_nilradical(R), (name, R.label)
        dims.append(len(nil))
    assert 0 in dims and max(dims) >= 2
