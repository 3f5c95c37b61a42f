"""Partial factorization of squarefree monic polynomials over exact fields.

Complete enough for the rings this workbench builds: rational roots and
quadratic/cubic certificates over Q, plus the factorization of divisors of
t^N - 1 into cyclotomic polynomials.  Anything deeper stays a single
uncertified factor; callers decide whether that blocks them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars
from .errors import MathIdentityError
from .scalars import (
    RationalField,
    poly_divmod,
    poly_eval,
    poly_monic,
    poly_mul,
    poly_pow_mod,
    poly_trim,
)

_CYCLO_CACHE = {}
_MAX_CYCLOTOMIC_PROBE = 64


def int_divisors(n):
    """The positive divisors of |n|, ascending."""
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(p):
    """All rational roots of a monic polynomial over Q (exhaustive)."""
    Q = scalars.rationals()
    p = poly_monic(Q, p)
    if not p:
        return []
    roots = []
    if Q.is_zero(p[0]):
        roots.append(Fraction(0))
        while Q.is_zero(p[0]):
            p = p[1:]
    if len(p) <= 1:
        return roots
    denom_lcm = math.lcm(*(c.denominator for c in p))
    ip = [c * denom_lcm for c in p]  # integer coefficients
    lead = int(ip[-1])
    const = int(ip[0])
    if const == 0:
        return roots  # handled above; defensive
    for a in int_divisors(const):
        for b in int_divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * a, b)
                if cand not in roots and Q.is_zero(poly_eval(Q, p, cand)):
                    roots.append(cand)
    roots.sort()
    return roots


def cyclotomic_poly(n):
    """Coefficients of the n-th cyclotomic polynomial over Q, low first."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    Q = scalars.rationals()
    num = [Q.from_int(-1)] + [Q.zero()] * (n - 1) + [Q.one()]  # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = poly_divmod(Q, num, cyclotomic_poly(d))
            if r:
                raise MathIdentityError("cyclotomic division left a remainder")
            num = q
    _CYCLO_CACHE[n] = num
    return num


class Factor:
    def __init__(self, poly, certified):
        self.poly = poly
        self.certified = certified  # certified irreducible

    def __repr__(self):
        return "Factor(deg=%d, certified=%r)" % (len(self.poly) - 1, self.certified)


def _to_integer_monic(p):
    """Substitute t -> s/lam so a monic rational polynomial becomes a monic
    integer one; returns (integer coefficients, lam)."""
    lam = math.lcm(*(c.denominator for c in p))
    n = len(p) - 1
    out = []
    for i, c in enumerate(p):
        scaled = c * lam ** (n - i)
        if scaled.denominator != 1:
            raise MathIdentityError("integer scaling failed")
        out.append(int(scaled))
    return out, lam


def _root_bound(g):
    """Integer bound on |roots| of a monic integer polynomial (Fujiwara)."""
    n = len(g) - 1
    best = 0.0
    for k in range(1, n + 1):
        a = abs(g[n - k])
        if a:
            best = max(best, a ** (1.0 / k))
    return int(2 * best) + 2


def _quadratic_factor(g):
    """A monic integer quadratic factor of a monic integer polynomial with no
    rational roots, or None.  Complete: the search ranges cover every monic
    integer quadratic divisor (Gauss lemma plus root bounds)."""
    n = len(g) - 1
    if n < 4 or g[0] == 0:
        return None
    B = _root_bound(g)
    q_candidates = []
    for q in int_divisors(g[0]):
        if q <= B * B + 1:
            q_candidates.extend((q, -q))
    for p in range(-2 * B, 2 * B + 1):
        for q in q_candidates:
            rem = list(g)
            for k in range(n - 2, -1, -1):
                c = rem[k + 2]
                if c:
                    rem[k + 2] = 0
                    rem[k + 1] -= c * p
                    rem[k] -= c * q
            if rem[0] == 0 and rem[1] == 0:
                return [q, p, 1]
    return None


def _roots_of_unity_order(Q, p):
    """Smallest N <= probe bound with p | t^N - 1, or None."""
    for n in range(1, _MAX_CYCLOTOMIC_PROBE + 1):
        t_n = poly_pow_mod(Q, [Q.zero(), Q.one()], n, p)
        if t_n == [Q.one()]:
            return n
    return None


def partial_factor(F, p):
    """Pairwise-coprime monic factors of a squarefree monic polynomial.

    Over Q: splits off all rational roots, certifies remainders of degree <= 3
    and cyclotomic products.  Over other fields only degree <= 1 is certified.
    Product of the returned factors always equals p.
    """
    p = poly_monic(F, p)
    if len(p) <= 1:
        return []
    if len(p) == 2:
        return [Factor(p, True)]
    if not isinstance(F, RationalField):
        return [Factor(p, False)]

    Q = F
    factors = []
    rest = p
    for r in rational_roots(p):
        lin = [Q.neg(r), Q.one()]
        q, rem = poly_divmod(Q, rest, lin)
        if rem:
            raise MathIdentityError("claimed rational root does not divide")
        factors.append(Factor(lin, True))
        rest = q
    deg = len(rest) - 1
    if deg == 0:
        return factors
    if deg <= 3:
        # no rational roots remain, so quadratics and cubics are irreducible
        factors.append(Factor(rest, True))
        return factors
    n = _roots_of_unity_order(Q, rest)
    if n is not None:
        remaining = rest
        for d in int_divisors(n):
            phi = cyclotomic_poly(d)
            q, rem = poly_divmod(Q, remaining, phi)
            if not rem:
                factors.append(Factor(phi, True))
                remaining = q
            if len(remaining) <= 1:
                break
        if len(remaining) > 1:
            raise MathIdentityError("divisor of t^N-1 did not split into cyclotomics")
        return factors
    # split off monic quadratic factors (complete search after integer scaling)
    remaining = rest
    while len(remaining) - 1 >= 4:
        g, lam = _to_integer_monic(remaining)
        quad = _quadratic_factor(g)
        if quad is None:
            break
        back = [Fraction(quad[0], lam**2), Fraction(quad[1], lam), Fraction(1)]
        factors.append(Factor(back, True))  # no rational roots, so irreducible
        quot, rem = poly_divmod(Q, remaining, back)
        if rem:
            raise MathIdentityError("claimed quadratic factor does not divide")
        remaining = quot
    deg = len(remaining) - 1
    if deg == 0:
        return factors
    # no roots and no quadratic factor: degrees up to 5 are irreducible
    factors.append(Factor(remaining, deg <= 5))
    return factors


def crt_idempotent_polys(F, modulus, factors):
    """For squarefree modulus = f1*...*fk, return polynomials e_i with
    e_i = 1 mod f_i and 0 mod f_j (the CRT idempotents of F[t]/(modulus))."""
    out = []
    for f in factors:
        g, rem = poly_divmod(F, modulus, f)
        if rem:
            raise MathIdentityError("factor does not divide modulus")
        gcd, s, t = scalars.poly_ext_gcd(F, g, f)
        if len(gcd) != 1:
            raise MathIdentityError("factors are not coprime")
        # s*g = 1 mod f, so s*g is the idempotent
        e = poly_divmod(F, poly_mul(F, s, g), modulus)[1]
        out.append(poly_trim(F, e))
    return out
