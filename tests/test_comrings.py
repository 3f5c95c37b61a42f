import random

import pytest

import weylbench as wb
from weylbench import comrings, linalg
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
from weylbench.errors import RingAxiomError


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
    assert ug.order == 6
    assert [o for _, o in ug.basis] == [6]
    P = product_ring(base_field_ring(F3), base_field_ring(F3))
    assert P.unit_group().order == 4
    ug7 = base_field_ring(F7).unit_group()
    assert ug7.order == 6
    assert ug7.basis[0][1] == 6 and ug7.basis[0][0] == (3,)
    for u in ug.elements:
        assert R.is_unit(u)
        assert R.pow_element(u, ug.orders[u]) == R.one


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
    x = GA.add(GA.monomial(R.from_int(1), (1,)), GA.monomial(R.from_int(2), (2,)))
    assert GA.counit(x) == R.from_int(3)
    g = GA.monomial(R.one, (1,))
    ginv = GA.monomial(R.one, (5,))
    assert GA.mul(g, ginv) == GA.one()
    u = (F3.one(), F3.one())
    assert GA.monomial_is_unit(GA.monomial(u, (1,)))
    assert GA.mul(GA.monomial(u, (1,)), GA.monomial(R.inv(u), (5,))) == GA.one()
    # infinite group: sparse elements still multiply
    from weylbench.abgroups import FGAbelianGroup
    Z2 = FGAbelianGroup((), 2)
    GAZ = GroupAlgebra(R, Z2)
    a = GAZ.monomial(R.one, (1, 0))
    b = GAZ.monomial(R.one, (0, -1))
    assert list(GAZ.mul(a, b)) == [(1, -1)]


def test_block_ring_roundtrip(Q):
    R = group_algebra_finite(Q, cyclic_group(6))
    for e in R.idempotents():
        S, project, inject = R.block(e)
        assert inject(S.one) == e
        assert project(e) == S.one
        # project is a ring map on the block
        x = R.mul(e, R._basis_vec(1))
        assert project(R.mul(x, x)) == S.mul(project(x), project(x))


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
