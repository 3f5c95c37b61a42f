import random
import time
from fractions import Fraction as Fr

import pytest

from weylbench import factorization, scalars
from weylbench.errors import MathIdentityError


def test_quartic_with_power_of_two_denominators_splits_fast():
    # t^4 + 189/4 t^3 + 15171/16 t^2 + 2172015/256 t + 149179275/4096: the
    # least integral scale is 8, not the denominator lcm 4096
    p = [Fr(149179275, 4096), Fr(2172015, 256), Fr(15171, 16), Fr(189, 4), Fr(1)]
    g, lam = factorization._to_integer_monic(p)
    assert (lam, g[0]) == (8, 149179275)
    start = time.perf_counter()
    factors = factorization.partial_factor(scalars.rationals(), p)
    assert time.perf_counter() - start < 1.0
    assert factors == [[Fr(5799, 64), Fr(27, 2), 1], [Fr(25725, 64), Fr(135, 4), 1]]


def test_integer_scale_is_least():
    Q = scalars.rationals()
    # t^2 + 1/12 t + 1/18: 12 = 2^2 3 needs 2^2 3, 18 = 2 3^2 needs 2 3
    g, lam = factorization._to_integer_monic([Fr(1, 18), Fr(1, 12), Fr(1)])
    assert lam == 12 and g == [8, 1, 1]
    for smaller in range(1, lam):
        scaled = [c * Fr(smaller) ** (2 - i) for i, c in
                  enumerate([Fr(1, 18), Fr(1, 12), Fr(1)])]
        assert any(c.denominator != 1 for c in scaled)
    assert factorization._to_integer_monic([Q.from_int(3), Q.zero(), Q.one()]) == ([3, 0, 1], 1)


def test_repeated_factor_is_refused():
    Q = scalars.rationals()
    t2_plus_1 = [Fr(1), Fr(0), Fr(1)]
    start = time.perf_counter()
    for square in (scalars.poly_mul(Q, t2_plus_1, t2_plus_1),
                   [Fr(4), Fr(-4), Fr(-3), Fr(2), Fr(1)]):  # (t - 1)^2 (t + 2)^2
        with pytest.raises(MathIdentityError):
            factorization.partial_factor(Q, square)
    assert time.perf_counter() - start < 1.0
    F3 = scalars.prime_field(3)
    F9 = scalars.extension_field(F3, [1, 0, 1])
    one, zero, i = F9.one(), F9.zero(), F9.gen()
    for F, square in [(F3, [2, 2, 1, 1]),          # (t + 1)^2 (t + 2)
                      (F3, [1, 0, 0, 1]),          # (t + 1)^3, f' = 0
                      (F9, [one, zero, zero, F9.neg(i), zero, zero, one])]:  # (t^2 + it + 1)^3
        with pytest.raises(MathIdentityError, match="repeated factor"):
            factorization.partial_factor(F, square)


def _random_monic(rng, degree):
    return [Fr(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)] + [Fr(1)]


def test_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    Q = scalars.rationals()
    rng = random.Random(20261018)
    inputs = [_random_monic(rng, rng.randint(1, 8)) for _ in range(100)]
    for _ in range(40):
        p = [Fr(1)]
        for _ in range(rng.randint(2, 4)):
            p = scalars.poly_mul(Q, p, _random_monic(rng, rng.randint(1, 3)))
        inputs.append(p)
    checked = 0
    for p in inputs:
        if len(scalars.poly_gcd(Q, p, scalars.poly_deriv(Q, p))) != 1:
            continue
        factors = factorization.partial_factor(Q, p)
        expected = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                              t, domain=sympy.QQ).factor_list()[1]
        expected = sorted([Fr(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())]
                          for f, mult in expected for _ in range(mult))
        assert sorted(factors) == expected
        checked += 1
    assert checked >= 130


@pytest.mark.parametrize("modulus, generator, extension", [
    ([-2, 0, 1], "sqrt(2)", "sqrt(2)"),
    ([1, 1, 1], "(-1 + sqrt(-3))/2", "sqrt(-3)"),
], ids=["Q(sqrt2)", "Q(zeta3)"])
def test_factors_over_number_fields_match_sympy(modulus, generator, extension):
    # K[t]/(p) is split as a Q-algebra, one factor gcd(p, 1 - e) per primitive
    # idempotent e: the factors multiply back to p, and their degrees are
    # those of sympy's factorization over K
    sympy = pytest.importorskip("sympy")
    t, alpha = sympy.symbols("t"), sympy.sympify(generator)
    Q = scalars.rationals()
    K = scalars.extension_field(Q, [Fr(c) for c in modulus])
    rng = random.Random(20261022)
    checked = 0
    for _ in range(16):
        p, degree = [K.one()], rng.randint(2, 9)
        while len(p) <= degree:
            k = min(rng.randint(1, 3), degree + 1 - len(p))
            p = scalars.poly_mul(K, p, [(Fr(rng.randint(-3, 3)), Fr(rng.randint(-3, 3)))
                                        for _ in range(k)] + [K.one()])
        if scalars.repeated_factor(K, p) is not None:
            continue
        factors = factorization.partial_factor(K, p)
        product = [K.one()]
        for f in factors:
            assert f[-1] == K.one()
            product = scalars.poly_mul(K, product, f)
        assert product == p
        expr = sum((a + b * alpha) * t**i for i, (a, b) in enumerate(p))
        expected = sympy.factor_list(sympy.expand(expr), t, extension=sympy.sympify(extension))
        assert sorted(len(f) - 1 for f in factors) == sorted(
            sympy.degree(f, t) for f, mult in expected[1] for _ in range(mult))
        checked += 1
    assert checked >= 12
