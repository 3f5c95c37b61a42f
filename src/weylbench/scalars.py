"""Exact arithmetic in towers of fields: rationals, prime fields F_p, and
simple extensions F[t]/(f) of an already-built field.

Field elements are plain immutable values (Fraction, int, or tuple of base
elements); all operations live on the field object.  Over a finite field
irreducible_factors is the one factorizer: a distinct-degree pass, then
equal-degree splitting (Cantor-Zassenhaus).  An extension of a finite field
or of Q is certified irreducible when it is built: a modulus with a repeated
factor (repeated_factor) or a proper irreducible factor
(factorization.partial_factor) is refused with that factor; over an
extension of Q it is not certified.  Finite extensions with at most
TABLE_MAX_ELEMENTS elements run on log/Zech tables built once; the rest, and
all extensions of Q, multiply with linalg.compile_product over the table
t^(i+j) mod f of power_table, the same table that builds the test ring
comrings.truncated_poly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    DivisionByZeroError,
    FieldConstructionError,
    InfiniteFieldError,
    InputError,
    MathIdentityError,
    ReducibleModulusError,
    UnknownSolvabilityError,
)
from .linalg import compile_product

# Finite fields and rings with at most this many elements are tabulated:
# extension fields on log/Zech tables here, rings in comrings.RingTable.
TABLE_MAX_ELEMENTS = 512


TRIAL_DIVISION_BOUND = 1000


def prime_powers(n):
    """{prime: exponent} of an integer n >= 1, ascending: trial division
    below TRIAL_DIVISION_BOUND, then Pollard-Brent rho down to factors that
    is_prime certifies (and refuses past MILLER_RABIN_BOUND)."""
    out = {}
    for d in range(2, TRIAL_DIVISION_BOUND):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            stack += [f, m // f]
    return dict(sorted(out.items()))


def _rho_factor(n):
    """A proper factor of an odd composite n, by Pollard's rho with Brent's
    cycle search and batched gcds; a new constant c when a batch fails."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:   # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# Miller-Rabin to the prime bases up to 41 is exact below the least strong
# pseudoprime to all of them, 3317044064679887385961981 (about 3.3e24); the
# bases up to 37 alone stop at 318665857834031151167461 (about 3.2e23).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin; n >= MILLER_RABIN_BOUND is refused."""
    if n >= MILLER_RABIN_BOUND:
        raise InputError("primality is decided only below %d" % MILLER_RABIN_BOUND)
    if n < 2 or any(n % a == 0 for a in MILLER_RABIN_BASES):
        return n in MILLER_RABIN_BASES
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_kth_root(n, k):
    """Exact floor of n**(1/k) for n >= 0, k >= 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in (0, 1) or k == 1:
        return n
    hi = 1
    while hi**k <= n:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def power(mul, one, x, n):
    """x^n for n >= 0 in any monoid given by mul and one, by
    square-and-multiply: the one such loop in the package."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def multiplicative_order(mul, one, x, n):
    """The least d >= 1 with x^d = 1, given a multiple n >= 1 of it; None
    when x^n != 1.  For each p^e exactly dividing n, y = x^(n/p^e) has order
    p^k with k <= e, found by raising y to the p-th power until it is one
    (Cohen, GTM 138, section 1.4); the order is the product of the p^k.
    With n = 1 there is no prime, so x itself must be one."""
    d = 1
    for p, e in prime_powers(n).items():
        y = power(mul, one, x, n // p**e)
        for _ in range(e + 1):
            if y == one:
                break
            y, d = power(mul, one, y, p), d * p
        else:
            return None
    return d if d > 1 or x == one else None


# ---------------------------------------------------------------------------
# dense polynomials over an ExactField: coefficient lists, low degree first

def poly_trim(F, p):
    p = list(p)
    while p and F.is_zero(p[-1]):
        p.pop()
    return p


def poly_deg(p):
    return len(p) - 1


def poly_add(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero()
        y = b[i] if i < len(b) else F.zero()
        out.append(F.add(x, y))
    return poly_trim(F, out)


def poly_sub(F, a, b):
    return poly_add(F, a, [F.neg(c) for c in b])


def poly_scal(F, c, a):
    if F.is_zero(c):
        return []
    return poly_trim(F, [F.mul(c, x) for x in a])


def poly_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(F, out)


def poly_divmod(F, a, b):
    b = poly_trim(F, b)
    if not b:
        raise DivisionByZeroError("polynomial division by zero")
    a = poly_trim(F, a)
    q = [F.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        c = F.mul(a[shift + len(b) - 1], inv_lead)
        if F.is_zero(c):
            continue
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(c, bc))
    r = poly_trim(F, a)
    if len(r) >= len(b):
        # each step cancels a leading coefficient in a field, so this is a
        # faulty field operation, not an input
        raise MathIdentityError("long division left a remainder of degree >= the divisor's")
    return poly_trim(F, q), r


def poly_mod(F, a, b):
    return poly_divmod(F, a, b)[1]


def poly_monic(F, a):
    a = poly_trim(F, a)
    if not a:
        return a
    return poly_scal(F, F.inv(a[-1]), a)


def poly_gcd(F, a, b):
    a, b = poly_trim(F, a), poly_trim(F, b)
    while b:
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_ext_gcd(F, a, b):
    """Return (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    r0, r1 = poly_trim(F, a), poly_trim(F, b)
    s0, s1 = [F.one()], []
    t0, t1 = [], [F.one()]
    while r1:
        q, r = poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(F, s0, poly_mul(F, q, s1))
        t0, t1 = t1, poly_sub(F, t0, poly_mul(F, q, t1))
    if not r0:
        return [], s0, t0
    c = F.inv(r0[-1])
    return poly_scal(F, c, r0), poly_scal(F, c, s0), poly_scal(F, c, t0)


def poly_deriv(F, p):
    out = []
    for i in range(1, len(p)):
        out.append(F.mul(F.from_int(i), p[i]))
    return poly_trim(F, out)


def power_table(F, f):
    """The multiplication table of F[t]/(f) for monic f of degree d >= 1:
    table[i][j] is t^(i+j) mod f as a tuple of d coefficients."""
    d, zero = poly_deg(f), F.zero()
    powers, cur = [], (F.one(),) + (zero,) * (d - 1)
    for _ in range(2 * d - 1):
        powers.append(cur)
        lead, cur = cur[-1], (zero,) + cur[:-1]
        if not F.is_zero(lead):     # t^d = -(f_0 + f_1 t + ... + f_(d-1) t^(d-1))
            cur = tuple(F.sub(c, F.mul(lead, m)) for c, m in zip(cur, f))
    return tuple(tuple(powers[i + j] for j in range(d)) for i in range(d))


def poly_pow_mod(F, base, n, modulus):
    return power(lambda a, b: poly_mod(F, poly_mul(F, a, b), modulus), [F.one()], base, n)


def repeated_factor(F, f):
    """A proper monic factor that shows a repeated factor of a monic f of
    degree >= 1: the p-th root h of f = h^p when f' = 0, else gcd(f, f')
    when it is not 1; None when f is squarefree."""
    df = poly_deriv(F, f)
    if not df:                      # f(t) = h(t)^p, h = sum c_(ip)^(q/p) t^i
        p, q = F.characteristic(), F.cardinality()
        return poly_monic(F, [F.pow(c, q // p) for c in f[::p]])
    g = poly_gcd(F, f, df)
    return g if poly_deg(g) > 0 else None


def irreducible_factors(F, f):
    """The monic irreducible factors of a squarefree monic f over a finite
    field F with q elements, sorted by (degree, F.sort_key of the
    coefficients).  One distinct-degree pass: the part of f whose factors
    have degree k is gcd(rest, t^(q^k) - t), and once deg rest < 2(k + 1)
    the rest is irreducible; each part is split by equal-degree splitting.
    Every piece must have a degree divisible by its k, and the factors must
    multiply back to f."""
    q, t = F.cardinality(), [F.zero(), F.one()]
    factors, rest, frob, k = [], f, t, 0
    while 2 * (k + 1) <= poly_deg(rest):
        k += 1
        frob = poly_pow_mod(F, frob, q, rest)          # t^(q^k) mod rest
        pieces = [poly_gcd(F, rest, poly_sub(F, frob, t))]
        rest = poly_divmod(F, rest, pieces[0])[0]
        while pieces:
            g = pieces.pop()
            if poly_deg(g) % k:
                raise MathIdentityError("a part of degree %d is not a product of "
                                        "factors of degree %d" % (poly_deg(g), k))
            if poly_deg(g) == k:
                factors.append(g)
            elif poly_deg(g) > 0:
                h = _equal_degree_factor(F, g, k)
                pieces += [h, poly_divmod(F, g, h)[0]]
    if poly_deg(rest) > 0:
        factors.append(rest)
    product = [F.one()]
    for g in factors:
        product = poly_mul(F, product, g)
    if product != poly_trim(F, f):
        raise MathIdentityError("the irreducible factors do not multiply back to f")
    return sorted(factors, key=lambda g: (len(g), [F.sort_key(c) for c in g]))


def _equal_degree_factor(F, f, k):
    """Split a squarefree f whose irreducible factors all have degree k
    (Cantor-Zassenhaus).  Some a of degree < deg f always splits f; the
    candidates are tried with coefficients among the first m elements of F
    for m = 1, 2, ..., so the search is deterministic and reaches every a
    without listing a large F."""
    q, d = F.cardinality(), poly_deg(f)
    alphabet = []
    for x in F.elements():
        alphabet.append(x)
        for coeffs in itertools.product(alphabet, repeat=d):
            a = poly_trim(F, coeffs)
            if x in coeffs and poly_deg(a) >= 1:
                g = _split_by(F, f, k, q, a)
                if g is not None:
                    return g
    raise MathIdentityError("equal-degree splitting found no factor")


def _split_by(F, f, k, q, a):
    """gcd(f, a^((q^k - 1)/2) - 1) for odd q, gcd(f, trace of a to F_2) for
    even q, when it is a proper factor of f; else None."""
    if q % 2:
        b = poly_sub(F, poly_pow_mod(F, a, (q**k - 1) // 2, f), [F.one()])
    else:
        b, c = [], a
        for _ in range(k * (q.bit_length() - 1)):
            b = poly_add(F, b, c)
            c = poly_mod(F, poly_mul(F, c, c), f)
    g = poly_gcd(F, b, f)
    return g if 0 < poly_deg(g) < poly_deg(f) else None


# ---------------------------------------------------------------------------
# fields


class ExactField:
    """Common interface; subclasses fix the element representation.  Each
    field defines zero, one, from_int, add, neg, mul, inv, is_zero,
    characteristic, cardinality (None if infinite), sort_key, to_str, parse
    and random_element; the operations below are derived from those."""

    kind = None

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b):
        return a == b

    def pow(self, a, n):
        return power(self.mul, self.one(), self.inv(a) if n < 0 else a, abs(n))

    def is_finite(self):
        return self.cardinality() is not None

    def elements(self):
        raise InfiniteFieldError("cannot enumerate an infinite field")


class RationalField(ExactField):
    kind = "rationals"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError("division by zero in Q")
        return Fraction(a.denominator, a.numerator)

    def is_zero(self, a):
        return not a

    def characteristic(self):
        return 0

    def cardinality(self):
        return None

    def sort_key(self, a):
        return a

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return Fraction(s.strip())

    def random_element(self, rng, size=10):
        return Fraction(rng.randint(-size, size), rng.randint(1, size))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "Q"


class PrimeField(ExactField):
    kind = "prime"

    def __init__(self, p):
        if not is_prime(p):
            raise FieldConstructionError("%d is not prime" % p)
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZeroError("division by zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a == 0

    def characteristic(self):
        return self.p

    def cardinality(self):
        return self.p

    def elements(self):
        return iter(range(self.p))

    def sort_key(self, a):
        return a

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return int(s.strip()) % self.p

    def random_element(self, rng, size=10):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return "F%d" % self.p


class ExtensionField(ExactField):
    """F[t]/(modulus) for monic modulus of degree >= 2 over a built field F.

    Elements are coefficient tuples of length deg(modulus), low degree first.
    Over a finite F or Q the modulus is certified irreducible here; a field of
    at most TABLE_MAX_ELEMENTS elements replaces the polynomial methods below
    by table lookups on the instance (see _tabulate).
    """

    kind = "extension"

    def __init__(self, base, modulus):
        modulus = poly_trim(base, list(modulus))
        if len(modulus) < 3:
            raise FieldConstructionError("extension modulus must have degree >= 2")
        if not base.eq(modulus[-1], base.one()):
            raise FieldConstructionError("extension modulus must be monic")
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.terms, self._product, _ = compile_product(base, power_table(base, modulus))
        self._zero = self._vec([])
        self.exp = self.log = None
        if self.cardinality() is not None or isinstance(base, RationalField):
            self._certify()

    def _certify(self):
        """Refuse a reducible modulus, naming its repeated part, else its
        least irreducible factor (factorization.partial_factor, certified
        over finite fields and Q).  On a tabulated field the generator
        search is a second certificate and the two must agree."""
        from .factorization import partial_factor  # it imports this module
        F, f, q = self.base, list(self.modulus), self.cardinality()
        g = repeated_factor(F, f) or partial_factor(F, f)[0].poly
        irreducible = poly_deg(g) == self.degree
        if q is not None and q <= TABLE_MAX_ELEMENTS:
            gen = self._find_generator(q)
            if (gen is not None) != irreducible:
                raise MathIdentityError(
                    "the factorization and the generator search disagree on modulus %s"
                    % self._poly_str(f))
            if gen is not None:
                self._tabulate(gen, q)
        if not irreducible:
            raise ReducibleModulusError(self._poly_str(g))

    def _poly_str(self, coeffs):
        return "[" + ",".join(self.base.to_str(c) for c in coeffs) + "]"

    def _find_generator(self, q):
        """First element of multiplicative order q - 1, by the polynomial
        mul; None when there is none, i.e. the modulus is reducible."""
        one = self.one()
        return next((x for x in self.elements()
                     if multiplicative_order(self.mul, one, x, q - 1) == q - 1), None)

    def _tabulate(self, g, q):
        """Build exp/log for the generator g and a Zech table, then bind
        table versions of mul, add, sub, neg and inv, and an elements
        that yields the table's own tuples, on the instance.

        With n = q - 1 and Z = 2n: log sends g^k to k < n and zero to Z; exp
        holds g^(k mod n) below Z and zero from Z to 2Z, so mul and neg need
        no branch.  a + b = exp[i + zech[j - i]] for i = log a, j = log b,
        also when a or b is zero: zech[d] is log(1 + g^d) for |d| < n, d for
        d = j - Z (a = 0, giving exp[j]) and 0 for d = Z - i (b = 0)."""
        n = q - 1
        Z = 2 * n
        zero, one = self._zero, self.one()
        exp, cur = [], one
        for _ in range(n):
            exp.append(cur)
            cur = self.mul(cur, g)
        log = {x: k for k, x in enumerate(exp)}
        if cur != one or len(log) != n:
            raise MathIdentityError("powers of the generator are not q - 1 distinct units")
        log[zero] = Z
        exp = exp + exp + [zero] * (Z + 1)
        zech = [0] * (2 * Z + 1)
        for d in range(1 - n, n):
            zech[d] = log[self.add(one, exp[d % n])]
        for k in range(n):
            zech[k - Z] = k - Z
        half = n // 2 if self.characteristic() != 2 else 0   # -1 = g^half
        nlog = {x: log[exp[k + half]] for x, k in log.items()}   # log(-x)
        # enumerate the key objects themselves: a dict lookup of the very
        # key object skips the tuple comparison
        keys = {x: x for x in log}
        listed = [keys[x] for x in self.elements()]
        self.exp, self.log = exp, log

        def elements():
            return iter(listed)

        def mul(a, b):
            return exp[log[a] + log[b]]

        def add(a, b):
            i = log[a]
            return exp[i + zech[log[b] - i]]

        def sub(a, b):
            i = log[a]
            return exp[i + zech[nlog[b] - i]]

        def neg(a):
            return exp[log[a] + half]

        def inv(a):
            i = log[a]
            if i == Z:
                raise DivisionByZeroError("division by zero in extension field")
            return exp[n - i]

        self.mul, self.add, self.sub = mul, add, sub
        self.neg, self.inv, self.elements = neg, inv, elements

    def _vec(self, coeffs):
        d = self.degree
        coeffs = list(coeffs) + [self.base.zero()] * d
        return tuple(coeffs[:d])

    def zero(self):
        return self._zero

    def one(self):
        return self._vec([self.base.one()])

    def gen(self):
        return self._vec([self.base.zero(), self.base.one()])

    def from_int(self, n):
        return self._vec([self.base.from_int(n)])

    def from_base(self, c):
        return self._vec([c])

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        return self._product(a, b)

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZeroError("division by zero in extension field")
        g, s, _ = poly_ext_gcd(self.base, list(a), list(self.modulus))
        if poly_deg(g) != 0:
            raise ReducibleModulusError(self._poly_str(g))
        return self._vec(poly_scal(self.base, self.base.inv(g[0]), s))

    def is_zero(self, a):
        return a == self._zero

    def characteristic(self):
        return self.base.characteristic()

    def cardinality(self):
        c = self.base.cardinality()
        return None if c is None else c**self.degree

    def elements(self):
        return (tuple(v) for v in itertools.product(self.base.elements(), repeat=self.degree))

    def sort_key(self, a):
        return tuple(self.base.sort_key(x) for x in a)

    def to_str(self, a):
        return "[" + ",".join(self.base.to_str(x) for x in a) + "]"

    def parse(self, s):
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            # allow bare base-field literals as constants
            return self.from_base(self.base.parse(s))
        parts = split_bracketed(s[1:-1])
        if len(parts) != self.degree:
            raise FieldConstructionError(
                "expected %d coefficients, got %d" % (self.degree, len(parts)))
        return tuple(self.base.parse(p) for p in parts)

    def random_element(self, rng, size=10):
        return tuple(self.base.random_element(rng, size) for _ in range(self.degree))

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.base == self.base
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("extension", self.base, self.modulus))

    def __repr__(self):
        c = self.cardinality()
        if c is not None:
            return "F%d" % c
        return "%r[t]/(deg %d)" % (self.base, self.degree)


def split_bracketed(s, sep=","):
    """Split on sep at bracket nesting level zero."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return [p.strip() for p in parts]


_Q = RationalField()


def rationals():
    return _Q


def prime_field(p):
    return PrimeField(p)


def extension_field(base, modulus_coeffs):
    return ExtensionField(base, modulus_coeffs)


# ---------------------------------------------------------------------------
# multiplicative structure helpers


def unit_order(F, x):
    """Least n >= 1 with x^n = 1 in a finite field; divides |F| - 1."""
    if not F.is_finite():
        raise InfiniteFieldError("unit_order needs a finite field")
    if F.is_zero(x):
        raise DivisionByZeroError("unit_order of zero")
    n = multiplicative_order(F.mul, F.one(), x, F.cardinality() - 1)
    if n is None:
        raise MathIdentityError("a unit x of %r has x^(q - 1) != 1" % F)
    return n


class RootResult:
    WITNESS = "witness"
    NO_SOLUTION = "nosolution"
    UNKNOWN = "unknown"

    def __init__(self, status, witness=None, count=None):
        self.status = status
        self.witness = witness
        self.count = count    # number of d-th roots in the field; None if undecided

    def __repr__(self):
        if self.status == self.WITNESS:
            return "RootResult(witness=%r, count=%r)" % (self.witness, self.count)
        return "RootResult(%s)" % self.status


def _rational_dth_root(c, d):
    num, den = c.numerator, c.denominator
    if num < 0 and d % 2 == 0:
        return RootResult(RootResult.NO_SOLUTION, count=0)
    rn = integer_kth_root(abs(num), d)
    rd = integer_kth_root(den, d)
    if rn**d != abs(num) or rd**d != den:
        return RootResult(RootResult.NO_SOLUTION, count=0)
    root = Fraction(rn, rd)
    if num < 0:
        root = -root
    return RootResult(RootResult.WITNESS, root, 2 if d % 2 == 0 else 1)  # -r != r


def _root_poly(F, c, d):
    """h = gcd(t^d - c, t^q - t) over a finite F with q elements: its roots
    are the x in F with x^d = c, each once.  Its degree is cross-asserted
    against Euler's criterion: g = gcd(d, q - 1) when c^((q-1)/g) = 1, else 0."""
    q, t = F.cardinality(), [F.zero(), F.one()]
    f = [F.neg(c)] + [F.zero()] * (d - 1) + [F.one()]
    h = poly_gcd(F, f, poly_sub(F, poly_pow_mod(F, t, q, f), t))
    g = math.gcd(d, q - 1)
    euler = g if F.eq(F.pow(c, (q - 1) // g), F.one()) else 0
    if poly_deg(h) != euler:
        raise MathIdentityError(
            "gcd(t^%d - %s, t^q - t) has degree %d over %r, Euler's criterion says %d"
            % (d, F.to_str(c), poly_deg(h), F, euler))
    return h


def dth_root(F, c, d):
    """Decide solvability of x^d = c, produce a witness when possible, and
    count the roots in F.

    Complete over Q (perfect-power test; 1 root for odd d, 2 for even d)
    and over finite fields (the roots of h = gcd(t^d - c, t^q - t); the
    witness is 1 when c = 1, else the least root in F.sort_key order, which
    is F.elements() order; the count is deg h, cross-asserted against
    Euler's criterion).  Over extensions of Q the answer may be Unknown, and
    the count is None.
    """
    if F.is_zero(c):
        raise DivisionByZeroError("dth_root of zero")
    if d < 1:
        raise ValueError("d must be >= 1")
    if isinstance(F, RationalField):
        return _rational_dth_root(c, d)
    if F.is_finite():
        h = _root_poly(F, c, d)
        if not poly_deg(h):
            return RootResult(RootResult.NO_SOLUTION, count=0)
        x = F.one() if F.eq(c, F.one()) else min(
            (F.neg(g[0]) for g in irreducible_factors(F, h)), key=F.sort_key)
        if not F.eq(F.pow(x, d), c):
            raise MathIdentityError("a root of gcd(t^d - c, t^q - t) is not a d-th root of c")
        return RootResult(RootResult.WITNESS, x, poly_deg(h))
    if d == 1 or F.eq(c, F.one()):
        return RootResult(RootResult.WITNESS, c)
    # char-0 extension: try constants from the base
    if isinstance(F, ExtensionField):
        base = F.base
        if all(base.is_zero(x) for x in c[1:]) and isinstance(base, RationalField):
            res = _rational_dth_root(c[0], d)
            if res.status == RootResult.WITNESS:
                return RootResult(RootResult.WITNESS, F.from_base(res.witness))
            # no rational root; a root may still exist in the extension
        return RootResult(RootResult.UNKNOWN)
    raise UnknownSolvabilityError("unsupported field for dth_root")
