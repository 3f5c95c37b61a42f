"""Factorization of squarefree monic polynomials over exact fields.

Over Q the factorization is complete and every factor is certified
irreducible, by Zassenhaus's method (Zassenhaus 1969, "On Hensel
factorization I"): the polynomial is scaled to a monic integer polynomial g,
g is split into irreducibles modulo the least odd prime p for which it stays
squarefree, the split is Hensel-lifted to a power of p above twice the
Mignotte bound on the coefficients of a factor of g, and subsets of the
lifted factors are recombined in increasing size, each candidate accepted
only when it divides g exactly over Z.  Over other fields only degree <= 1
is certified; callers decide whether an uncertified factor blocks them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import scalars
from .abgroups import INTEGERS
from .errors import CapExceededError, MathIdentityError
from .scalars import (
    PrimeField,
    RationalField,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_trim,
)


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


class Factor:
    def __init__(self, poly, certified):
        self.poly = poly
        self.certified = certified  # certified irreducible

    def __repr__(self):
        return "Factor(deg=%d, certified=%r)" % (len(self.poly) - 1, self.certified)


def _to_integer_monic(p):
    """Substitute t -> s/lam so a monic rational polynomial becomes a monic
    integer one; returns (integer coefficients, lam).  lam is the least such
    scale: c_i is multiplied by lam^(n-i), so each prime of its denominator
    with exponent v enters lam with exponent ceil(v / (n - i))."""
    n = len(p) - 1
    need = {}
    for i, c in enumerate(p[:-1]):
        for q, v in scalars.prime_powers(c.denominator).items():
            need[q] = max(need.get(q, 0), -(-v // (n - i)))
    lam = math.prod(q**e for q, e in need.items())
    out = []
    for i, c in enumerate(p):
        scaled = c * lam ** (n - i)
        if scaled.denominator != 1:
            raise MathIdentityError("integer scaling failed")
        out.append(int(scaled))
    return out, lam


def _squarefree(F, f):
    return len(poly_gcd(F, f, poly_deriv(F, f))) == 1


def _irreducibles_mod(Fp, f):
    """The monic irreducible factors of a squarefree monic f over F_p."""
    if scalars.is_irreducible(Fp, f):
        return [f]
    h = scalars.nontrivial_factor(Fp, f)
    return _irreducibles_mod(Fp, h) + _irreducibles_mod(Fp, poly_divmod(Fp, f, h)[0])


def _hensel_lift(Fp, g, a, b, m):
    """Monic integer A = a, B = b (mod p) with g = A*B (mod m), for a monic
    integer g = a*b (mod p) with a, b coprime over Fp = F_p and m a power of
    p.  Linear lifting: with s*a + t*b = 1 over F_p, each step corrects A*B
    by the next p-adic digit e of g - A*B."""
    p = Fp.p
    _, s, t = scalars.poly_ext_gcd(Fp, a, b)
    A, B, pj = a, b, p
    while pj < m:
        AB = poly_mul(INTEGERS, A, B)
        e = poly_trim(Fp, [(gi - ci) // pj % p for gi, ci in zip(g, AB)])
        q, da = poly_divmod(Fp, poly_mul(Fp, t, e), a)
        db = poly_add(Fp, poly_mul(Fp, s, e), poly_mul(Fp, q, b))
        A = [x + pj * y for x, y in itertools.zip_longest(A, da, fillvalue=0)]
        B = [x + pj * y for x, y in itertools.zip_longest(B, db, fillvalue=0)]
        pj *= p
    return A, B


def _exact_quotient(g, h):
    """g / h over Z for monic integer h, or None when h does not divide g."""
    r, dh = list(g), len(h) - 1
    q = [0] * (len(g) - dh)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dh]
        for i, hc in enumerate(h):
            r[k + i] -= c * hc
    return None if any(r) else q


RECOMBINATION_CAP = 4096  # subsets of lifted factors tried by _zassenhaus


def _zassenhaus(g):
    """The monic irreducible factors over Z of a squarefree monic integer g
    of degree >= 2; CapExceededError after RECOMBINATION_CAP subset tries."""
    n = len(g) - 1
    p = next(q for q in itertools.count(3, 2)
             if scalars.is_prime(q) and _squarefree(PrimeField(q), [c % q for c in g]))
    Fp = PrimeField(p)
    m = p
    while m * m <= 4 ** (n + 1) * sum(c * c for c in g):  # m > 2 * 2^n * |g|_2
        m *= p
    lifted, cofactor = [], g
    *heads, _ = _irreducibles_mod(Fp, [c % p for c in g])
    for a in heads:
        b = poly_divmod(Fp, [c % p for c in cofactor], a)[0]
        A, cofactor = _hensel_lift(Fp, cofactor, a, b, m)
        lifted.append(A)
    lifted.append([c % m for c in cofactor])
    found, rest, size, tries = [], g, 1, itertools.count(1)
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            if next(tries) > RECOMBINATION_CAP:
                raise CapExceededError("factor recombination over %d modular factors "
                                       "exceeds %d subsets" % (len(lifted), RECOMBINATION_CAP))
            h = [1]
            for i in subset:
                h = [c % m for c in poly_mul(INTEGERS, h, lifted[i])]
            h = [c - m if 2 * c > m else c for c in h]
            q = _exact_quotient(rest, h)
            if q is not None:
                found.append(h)
                rest = q
                lifted = [f for i, f in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [rest]  # no subset of at most half the lifted factors divides


def partial_factor(F, p):
    """Pairwise-coprime monic factors of a squarefree monic polynomial; their
    product is p.

    Over Q these are the irreducible factors, all certified, sorted by
    (degree, coefficients); a polynomial with a repeated factor raises
    MathIdentityError.  Over other fields only degree <= 1 is certified.
    """
    p = poly_monic(F, p)
    if len(p) <= 1:
        return []
    if len(p) == 2:
        return [Factor(p, True)]
    if not isinstance(F, RationalField):
        return [Factor(p, False)]
    if not _squarefree(F, p):
        raise MathIdentityError("polynomial to factor has a repeated factor")
    g, lam = _to_integer_monic(p)
    factors = [Factor([Fraction(c, lam ** (len(h) - 1 - i)) for i, c in enumerate(h)], True)
               for h in _zassenhaus(g)]
    return sorted(factors, key=lambda f: (len(f.poly), f.poly))


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
