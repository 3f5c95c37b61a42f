import random

import pytest

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
            mu = comrings._min_poly_of_element(R, x)
            assert mu == _reference_min_poly(R, x)
            assert R.is_zero(comrings._eval_poly_at_element(R, mu, x))


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
    assert GA.mul(g, ginv) == GA.one()
    u = (F3.one(), F3.one())
    assert GA.mul(GA.monomial(u, (1,)), GA.monomial(R.inv(u), (5,))) == GA.one()
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
             TestRing(F3, eps_x_f3.table, eps_x_f3.one),   # no idempotent hint
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


def test_decompose_ring_builds_the_reduced_quotient_once(F3, monkeypatch):
    built = []
    quotient_ring = comrings._quotient_ring

    def counting(R, ideal_basis, *args):
        built.append((R, [tuple(v) for v in ideal_basis]))
        return quotient_ring(R, ideal_basis, *args)

    monkeypatch.setattr(comrings, "_quotient_ring", counting)
    R = product_ring(dual_numbers(F3, 3), base_field_ring(F3))
    decompose_ring(R)
    nil = list(R.nilradical())
    assert len(nil) == 2
    assert sum(1 for S, ideal in built if S is R and ideal == nil) == 1


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
    # decompose_ring ignores the product's idempotent hint; the general
    # algorithm must reproduce the structural block count
    P = product_ring(dual_numbers(F3, 2), base_field_ring(F3))
    assert len(decompose_ring(P)) == 2
    P2 = product_ring(base_field_ring(F5), base_field_ring(F5))
    assert len(decompose_ring(P2)) == 2
    assert set(decompose_ring(P2)) == set(P2.idempotents())


def test_build_ring_dispatcher(F3, Q):
    from weylbench.comrings import build_ring

    assert build_ring(("dual", F3, 2)).dim == 2
    assert build_ring(("base", Q)).dim == 1
    assert build_ring(("groupalg", Q, cyclic_group(3))).dim == 3
    R = build_ring(("trunc", F3, [F3.one(), F3.zero(), F3.one()]))
    assert R.dim == 2
