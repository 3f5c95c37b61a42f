import random
from fractions import Fraction

import pytest

import weylbench as wb
from weylbench import scalars
from weylbench.errors import (
    DivisionByZeroError,
    FieldConstructionError,
    InputError,
    MathIdentityError,
    ReducibleModulusError,
)
from weylbench.scalars import RootResult, dth_root, unit_order


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


def test_multiplicative_order_is_the_least_power_that_is_one():
    # residues mod m against stepping powers: n = 1, multiples of the order,
    # other n and non-units (None) all occur
    for m in range(2, 40):
        def mul(a, b):
            return a * b % m
        for x in range(1, m):
            steps = [pow(x, d, m) for d in range(1, m + 1)]
            order = steps.index(1) + 1 if 1 in steps else None
            for n in range(1, 2 * m):
                expected = order if order and n % order == 0 else None
                assert scalars.multiplicative_order(mul, 1, x, n) == expected, (m, x, n)
                assert scalars.power(mul, 1, x, n) == pow(x, n, m)


def test_power_makes_no_product_by_one():
    # a counting monoid: bit_length(n) + popcount(n) - 2 products for n >= 1,
    # none for n = 0, and the value of repeated multiplication mod m
    for m in (2, 7, 12, 97):
        products = []

        def mul(a, b):
            products.append((a, b))
            return a * b % m
        for x in range(m):
            repeated = 1 % m
            for n in range(130):
                products.clear()
                assert scalars.power(mul, 1 % m, x, n) == repeated, (m, x, n)
                expected = n.bit_length() + bin(n).count("1") - 2 if n else 0
                assert len(products) == expected, (m, x, n)
                repeated = repeated * x % m


def test_unit_order_refuses_a_unit_whose_powers_miss_one():
    F7 = wb.prime_field(7)
    F7.mul = lambda a, b: 2     # a faulty mul: every power is 2, none is 1
    with pytest.raises(MathIdentityError, match=r"x\^\(q - 1\) != 1"):
        unit_order(F7, 3)


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
                    # the first root in elements() order, as the scan found it;
                    # x^d = 1 answers 1 before any search
                    assert res.witness == (F.one() if c == F.one() else found[0])
                else:
                    assert res.status == RootResult.NO_SOLUTION
                assert res.count == len(found)


def test_root_count_is_cross_asserted_against_euler(monkeypatch):
    monkeypatch.setattr(scalars, "poly_gcd", lambda F, a, b: [F.one()])
    with pytest.raises(MathIdentityError):
        dth_root(wb.prime_field(7), 1, 3)


def test_dth_root_rational_negative_and_even():
    Q = wb.rationals()
    assert dth_root(Q, Fraction(-8), 3).witness == -2
    assert dth_root(Q, Fraction(-4), 2).status == RootResult.NO_SOLUTION
    assert dth_root(Q, Fraction(4), 2).count == 2
    assert dth_root(Q, Fraction(8), 3).count == 1


def test_dth_root_over_q_cbrt2_finds_the_root_outside_q():
    Q = wb.rationals()
    K = wb.extension_field(Q, [Q.from_int(-2), Q.zero(), Q.zero(), Q.one()])
    # 1/2 has no rational cube root, but a^2/2 = 1/cbrt(2) is one in K; the
    # other two cube roots are not real, so K has no other
    half = K.from_base(Fraction(1, 2))
    res = dth_root(K, half, 3)
    assert (res.status, res.count) == (RootResult.WITNESS, 1)
    assert K.pow(res.witness, 3) == half and res.witness == (0, 0, Fraction(1, 2))
    assert dth_root(K, K.one(), 3).witness == K.one()
    assert dth_root(K, K.from_int(-1), 2).status == RootResult.NO_SOLUTION


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    # strong pseudoprimes to the bases up to 7, up to 23 and up to 37
    pseudoprimes = [3215031751, 3825123056546413051, 318665857834031151167461]
    sample = (list(range(2000)) + [rng.randrange(2**64) for _ in range(300)]
              + [rng.randrange(scalars.MILLER_RABIN_BOUND) for _ in range(300)]
              + [1000000000000000003, 1000000016000000063] + pseudoprimes)
    for n in sample:
        assert scalars.is_prime(n) == sympy.isprime(n), n
    assert not any(scalars.is_prime(n) for n in pseudoprimes)


def test_prime_powers_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    p, q = 1000000007, 1000000009
    sample = ([rng.randrange(1, 10**15) for _ in range(300)]
              + [1, 2, 2**60, 999983**2 * 991, p * p, p * q, 10**18 + 3])
    for n in sample:
        assert scalars.prime_powers(n) == dict(sorted(sympy.factorint(n).items())), n


def test_prime_powers_refuses_a_cofactor_past_the_prime_bound():
    with pytest.raises(InputError, match=str(scalars.MILLER_RABIN_BOUND)):
        scalars.prime_powers(2 * scalars.MILLER_RABIN_BOUND)


def test_is_prime_refuses_integers_past_its_bound():
    with pytest.raises(InputError, match=str(scalars.MILLER_RABIN_BOUND)):
        scalars.is_prime(scalars.MILLER_RABIN_BOUND)


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
