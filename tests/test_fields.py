"""Oracle tests for finite extension fields: every log/Zech table op against
the polynomial arithmetic it replaced, kept here as the reference, and the
finite-field factorizer behind the modulus certificate against sympy and
against a listing of F9."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylbench as wb
from weylbench import comrings, scalars
from weylbench.errors import DivisionByZeroError, MathIdentityError, ReducibleModulusError

ORACLE = settings(derandomize=True, max_examples=100, deadline=None, database=None)

F2, F3, F5, F7 = (wb.prime_field(p) for p in (2, 3, 5, 7))
F9 = wb.extension_field(F3, [1, 0, 1])
TABLE_FIELDS = {
    "F4": wb.extension_field(F2, [1, 1, 1]),
    "F8": wb.extension_field(F2, [1, 1, 0, 1]),
    "F9": F9,
    "F25": wb.extension_field(F5, [2, 0, 1]),
    "F27": wb.extension_field(F3, [1, 2, 0, 1]),
    "F49": wb.extension_field(F7, [1, 0, 1]),
    "F81": wb.extension_field(F9, [(2, 2), (0, 0), (1, 0)]),   # tower over F9
    "F343": wb.extension_field(F7, [4, 0, 0, 1]),              # 3 is no cube mod 7
}
Q = wb.rationals()
POLY_FIELDS = {
    "F729": wb.extension_field(F3, [2, 1, 0, 0, 0, 0, 1]),
    "Q(sqrt2)": wb.extension_field(Q, [-2, 0, 1]),
    "Q(2^(1/4))": wb.extension_field(Q, [-2, 0, 0, 0, 1]),
}


# -- the polynomial reference ------------------------------------------------

def ref_vec(F, coeffs):
    coeffs = list(coeffs) + [F.base.zero()] * F.degree
    return tuple(coeffs[:F.degree])


def ref_mul(F, a, b):
    B = F.base
    return ref_vec(F, scalars.poly_mod(B, scalars.poly_mul(B, list(a), list(b)),
                                       list(F.modulus)))


def ref_add(F, a, b):
    return tuple(F.base.add(x, y) for x, y in zip(a, b))


def ref_neg(F, a):
    return tuple(F.base.neg(x) for x in a)


def ref_inv(F, a):
    B = F.base
    g, s, _ = scalars.poly_ext_gcd(B, list(a), list(F.modulus))
    assert scalars.poly_deg(g) == 0
    return ref_vec(F, scalars.poly_scal(B, B.inv(g[0]), s))


def ref_pow(F, a, e):
    if e < 0:
        a, e = ref_inv(F, a), -e
    out = F.one()
    for _ in range(e):
        out = ref_mul(F, out, a)
    return out


def ref_unit_order(F, a):
    k, acc = 1, a
    while acc != F.one():
        acc, k = ref_mul(F, acc, a), k + 1
    return k


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS) + ["F729"])
def test_table_ops_equal_polynomial_ops(name):
    # F729 has no table: its ops, pow and unit_order are checked all the same
    F = TABLE_FIELDS.get(name) or POLY_FIELDS[name]
    elems = list(F.elements())
    assert (F.log is None) == (len(elems) > scalars.TABLE_MAX_ELEMENTS)

    @ORACLE
    @given(st.sampled_from(elems), st.sampled_from(elems), st.integers(-40, 40))
    def check(a, b, e):
        assert F.mul(a, b) == ref_mul(F, a, b)
        assert F.add(a, b) == ref_add(F, a, b)
        assert F.sub(a, b) == ref_add(F, a, ref_neg(F, b))
        assert F.neg(a) == ref_neg(F, a)
        if F.is_zero(a):
            with pytest.raises(DivisionByZeroError):
                F.inv(a)
            assert F.pow(a, abs(e)) == (F.one() if e == 0 else F.zero())
        else:
            assert F.inv(a) == ref_inv(F, a)
            assert F.pow(a, e) == ref_pow(F, a, e)
            assert scalars.unit_order(F, a) == ref_unit_order(F, a)

    check()


def field_elements(F):
    if F.is_finite():
        return st.sampled_from(list(F.elements()))
    return st.tuples(*[st.fractions(-9, 9, max_denominator=9)] * F.degree)


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS) + sorted(POLY_FIELDS))
def test_polynomial_mul_is_the_truncated_poly_kernel(name):
    # the class-level mul is the polynomial path even where tables replaced it
    F = TABLE_FIELDS.get(name) or POLY_FIELDS[name]
    assert F.terms == comrings.truncated_poly(F.base, F.modulus).terms

    @ORACLE
    @given(field_elements(F), field_elements(F))
    def check(a, b):
        assert scalars.ExtensionField.mul(F, a, b) == ref_mul(F, a, b)

    check()


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_exp_covers_the_units_once(name):
    F = TABLE_FIELDS[name]
    q = F.cardinality()
    units = F.exp[:q - 1]
    assert len(set(units)) == q - 1
    assert set(units) == set(F.elements()) - {F.zero()}
    assert all(type(x) is tuple and len(x) == F.degree for x in units)


def test_fields_above_the_bound_keep_the_polynomial_path():
    F729 = POLY_FIELDS["F729"]
    assert F729.cardinality() > scalars.TABLE_MAX_ELEMENTS
    assert F729.log is None
    x = F729.gen()
    assert F729.mul(x, F729.inv(x)) == F729.one()
    assert POLY_FIELDS["Q(sqrt2)"].log is None


def test_reducible_moduli_are_refused_with_a_proper_factor():
    # the named factor is the repeated part, else the least irreducible factor
    for base, f, named in [(F3, [2, 0, 1], [1, 1]),                  # (t + 1)(t + 2)
                           (F3, [1, 0, 0, 2, 0, 0, 1], [1, 2, 1]),   # (t + 1)^6 = ((t + 1)^2)^3
                           (F3, [2, 0, 1, 0, 1, 0, 1], [1, 2, 0, 1]),  # two irreducible cubics
                           (F2, [0, 1, 1], [0, 1])]:                 # t(t + 1)
        with pytest.raises(ReducibleModulusError) as err:
            wb.extension_field(base, f)
        g = scalars.repeated_factor(base, f) or scalars.irreducible_factors(base, f)[0]
        assert g == named
        assert 0 < scalars.poly_deg(g) < scalars.poly_deg(f)
        assert scalars.poly_mod(base, f, g) == []
        assert err.value.factor == "[" + ",".join(map(str, g)) + "]"


def test_factorization_and_generator_search_must_agree(monkeypatch):
    monkeypatch.setattr(scalars, "irreducible_factors", lambda F, f: [[F.zero(), F.one()]])
    with pytest.raises(MathIdentityError, match="generator search disagree"):
        wb.extension_field(F3, [1, 0, 1])
    monkeypatch.setattr(scalars, "irreducible_factors", lambda F, f: [list(f)])
    with pytest.raises(MathIdentityError, match="generator search disagree"):
        wb.extension_field(F3, [2, 0, 1])


def test_irreducible_factors_match_sympy_on_small_moduli():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p in (2, 3, 5):
        F = wb.prime_field(p)
        for d in (2, 3, 4):
            for low in itertools.product(range(p), repeat=d):
                f = list(low) + [1]
                _, listed = sympy.Poly(f[::-1], x, modulus=p).factor_list()
                g = scalars.repeated_factor(F, f)
                assert (g is None) == all(e == 1 for _, e in listed), (p, f)
                if g is None:
                    expected = sorted([int(c) % p for c in h.all_coeffs()[::-1]]
                                      for h, _ in listed)
                    assert scalars.irreducible_factors(F, f) == sorted(
                        expected, key=lambda h: (len(h), h)), (p, f)
                else:
                    assert 0 < scalars.poly_deg(g) < d
                    assert scalars.poly_mod(F, f, g) == []


def _monic_polys(F, d):
    return [list(low) + [F.one()] for low in itertools.product(list(F.elements()), repeat=d)]


def test_irreducible_factors_over_F9_have_no_factor_in_a_listing():
    # over F9 = F3[i]/(i^2 + 1): a factor of degree n <= 5 is irreducible when no
    # monic polynomial of degree 1..n/2, listed from the elements of F9, divides it
    small = _monic_polys(F9, 1) + _monic_polys(F9, 2)
    rng = random.Random(9)
    elements, seen = list(F9.elements()), 0
    while seen < 40:
        f = [rng.choice(elements) for _ in range(rng.randint(1, 5))] + [F9.one()]
        if scalars.repeated_factor(F9, f) is not None:
            continue
        seen += 1
        factors = scalars.irreducible_factors(F9, f)
        product = [F9.one()]
        for g in factors:
            product = scalars.poly_mul(F9, product, g)
            assert g[-1] == F9.one()
            assert not any(scalars.poly_mod(F9, g, h) == [] for h in small
                           if 2 * scalars.poly_deg(h) <= scalars.poly_deg(g)), (f, g)
        assert product == f
        assert factors == sorted(factors, key=lambda g: (len(g), [F9.sort_key(c) for c in g]))


# (t^2 + 1)(t^2 + t + 2) over F3: one distinct-degree part of degree 4 for k = 2
TWO_QUADRATICS = [2, 1, 0, 1, 1]


def test_a_part_of_the_wrong_degree_is_refused(monkeypatch):
    original, calls = scalars._equal_degree_factor, []

    def wrong_once(F, f, k):   # t splits off a degree-3 part: not a product of quadratics
        calls.append(f)
        return [F.zero(), F.one()] if len(calls) == 1 else original(F, f, k)

    monkeypatch.setattr(scalars, "_equal_degree_factor", wrong_once)
    with pytest.raises(MathIdentityError, match="not a product of factors of degree 2"):
        scalars.irreducible_factors(F3, TWO_QUADRATICS)


def test_factors_that_do_not_multiply_back_are_refused(monkeypatch):
    # t^2 + 2 = (t + 1)(t + 2) does not divide the part; the degrees still fit
    monkeypatch.setattr(scalars, "_equal_degree_factor", lambda F, f, k: [2, 0, 1])
    with pytest.raises(MathIdentityError, match="do not multiply back"):
        scalars.irreducible_factors(F3, TWO_QUADRATICS)
