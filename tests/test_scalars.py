import random
from fractions import Fraction

import pytest

import weylbench as wb
from weylbench import scalars
from weylbench.errors import (
    DivisionByZeroError,
    FieldConstructionError,
    MathIdentityError,
    ReducibleModulusError,
)
from weylbench.scalars import RootResult, count_dth_roots, dth_root, unit_order


def all_fields():
    Q = wb.rationals()
    F2 = wb.prime_field(2)
    F3 = wb.prime_field(3)
    F7 = wb.prime_field(7)
    F9 = wb.extension_field(F3, [F3.one(), F3.zero(), F3.one()])
    F4 = wb.extension_field(F2, [F2.one(), F2.one(), F2.one()])
    F49 = wb.extension_field(F7, [F7.one(), F7.zero(), F7.one()])  # t^2+1, -1 nonsquare mod 7
    return [Q, F2, F3, F7, F9, F4, F49]


def test_prime_field_basics():
    F3 = wb.prime_field(3)
    assert F3.characteristic() == 3
    assert F3.cardinality() == 3
    with pytest.raises(FieldConstructionError):
        wb.prime_field(4)
    with pytest.raises(FieldConstructionError):
        wb.prime_field(1)


def test_extension_field_of_nine_elements():
    F3 = wb.prime_field(3)
    # t^2 + 1 has no root mod 3 (0->1, 1->2, 2->2), so this is a field
    assert all(F3.add(F3.mul(x, x), F3.one()) != F3.zero() for x in F3.elements())
    F9 = wb.extension_field(F3, [F3.one(), F3.zero(), F3.one()])
    assert F9.cardinality() == 9
    assert F9.characteristic() == 3
    assert len(list(F9.elements())) == 9


def test_extension_rejects_bad_moduli():
    F3 = wb.prime_field(3)
    with pytest.raises(FieldConstructionError):
        wb.extension_field(F3, [F3.one(), F3.one()])  # degree 1
    with pytest.raises(FieldConstructionError):
        wb.extension_field(F3, [F3.one(), F3.zero(), F3.from_int(2)])  # not monic


def test_inversion_examples():
    Q = wb.rationals()
    assert Q.inv(Fraction(3, 2)) == Fraction(2, 3)
    F7 = wb.prime_field(7)
    assert F7.inv(3) == 5
    F3 = wb.prime_field(3)
    F9 = wb.extension_field(F3, [F3.one(), F3.zero(), F3.one()])
    t = F9.gen()
    assert F9.inv(t) == (0, 2)  # t * 2t = 2 t^2 = -2 = 1 mod 3
    with pytest.raises(DivisionByZeroError):
        F9.inv(F9.zero())


def test_rational_inverse_is_a_fraction():
    # an int argument must not fall back to float division
    Q = wb.rationals()
    assert Q.inv(1) == Fraction(1) and type(Q.inv(1)) is Fraction
    K = wb.extension_field(Q, [-2, 0, 1])
    inv = K.inv(K.gen())
    assert inv == (0, Fraction(1, 2))
    assert all(type(c) is Fraction for c in inv)


def test_reducible_modulus_refused_at_construction():
    F3 = wb.prime_field(3)
    # t^2 - 1 = (t-1)(t+1) is reducible; building the field must fail loudly
    with pytest.raises(ReducibleModulusError):
        wb.extension_field(F3, [F3.from_int(-1), F3.zero(), F3.one()])


def test_field_axioms_randomized():
    rng = random.Random(7)
    for F in all_fields():
        for _ in range(60):
            a = F.random_element(rng)
            b = F.random_element(rng)
            c = F.random_element(rng)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == F.zero()
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one()


def test_frobenius_identity_on_finite_fields():
    rng = random.Random(11)
    for F in all_fields():
        q = F.cardinality()
        if q is None:
            continue
        for _ in range(25):
            x = F.random_element(rng)
            assert F.pow(x, q) == x


def test_unit_order_examples():
    F7 = wb.prime_field(7)
    assert unit_order(F7, 6) == 2
    assert unit_order(F7, 3) == 6
    for F in all_fields():
        if F.is_finite():
            assert unit_order(F, F.one()) == 1


def test_unit_order_divides_group_order():
    for F in all_fields():
        q = F.cardinality()
        if q is None or q > 50:
            continue
        for x in F.elements():
            if not F.is_zero(x):
                assert (q - 1) % unit_order(F, x) == 0


def test_dth_root_examples():
    Q = wb.rationals()
    res = dth_root(Q, Fraction(8), 3)
    assert res.status == RootResult.WITNESS and res.witness == 2
    assert dth_root(Q, Fraction(1, 2), 3).status == RootResult.NO_SOLUTION
    F7 = wb.prime_field(7)
    res = dth_root(F7, 6, 3)
    assert res.status == RootResult.WITNESS
    assert F7.pow(res.witness, 3) == 6


def test_dth_root_never_contradicts_exhaustion():
    # oracle agreement on all finite fields with at most 81 elements
    for F in all_fields():
        q = F.cardinality()
        if q is None or q > 81:
            continue
        for d in (1, 2, 3, 4, 6):
            for c in F.elements():
                if F.is_zero(c):
                    continue
                found = [x for x in F.elements()
                         if not F.is_zero(x) and F.pow(x, d) == c]
                res = dth_root(F, c, d)
                if found:
                    assert res.status == RootResult.WITNESS
                    assert F.pow(res.witness, d) == c
                else:
                    assert res.status == RootResult.NO_SOLUTION
                cnt = count_dth_roots(F, c, d)
                assert cnt == len(found)


def test_dth_root_rational_negative_and_even():
    Q = wb.rationals()
    assert dth_root(Q, Fraction(-8), 3).witness == -2
    assert dth_root(Q, Fraction(-4), 2).status == RootResult.NO_SOLUTION
    assert count_dth_roots(Q, Fraction(4), 2) == 2
    assert count_dth_roots(Q, Fraction(8), 3) == 1


def test_dth_root_unknown_only_over_char0_extensions():
    Q = wb.rationals()
    K = wb.extension_field(Q, [Q.from_int(-2), Q.zero(), Q.zero(), Q.one()])
    # 1/2 embedded as a constant: no rational root, but t/... may be a root;
    # the oracle is allowed to say unknown here and only here
    res = dth_root(K, K.from_base(Fraction(1, 2)), 3)
    assert res.status == RootResult.UNKNOWN


def test_integer_kth_root():
    assert scalars.integer_kth_root(0, 3) == 0
    assert scalars.integer_kth_root(26, 3) == 2
    assert scalars.integer_kth_root(27, 3) == 3
    assert scalars.integer_kth_root(10**30, 2) == 10**15


def test_parse_and_print_roundtrip():
    rng = random.Random(3)
    for F in all_fields():
        for _ in range(20):
            x = F.random_element(rng)
            assert F.parse(F.to_str(x)) == x


def test_poly_divmod_raises_when_subtraction_does_not_cancel():
    class NonCancelling(scalars.PrimeField):
        """F_5 whose sub returns a instead of zero for a - a."""

        def sub(self, a, b):
            return a if a == b else super().sub(a, b)

    F = NonCancelling(5)
    with pytest.raises(MathIdentityError):
        scalars.poly_divmod(F, [1, 2, 3], [1, 1])
    q, r = scalars.poly_divmod(wb.prime_field(5), [1, 2, 3], [1, 1])
    assert (q, r) == ([4, 3], [2])
