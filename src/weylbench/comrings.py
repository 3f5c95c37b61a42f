"""Finite-dimensional commutative unital test rings by structure constants,
idempotent decomposition, unit/nilpotent predicates, the unit map {unit: order},
and sparse group-algebra arithmetic RG.

Ring elements are tuples of field elements (coordinates in the canonical
basis).  Ring axioms are verified at construction; the nilradical and the
primitive idempotents, split inside R/nil with no block ring, are computed
on demand and cached.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from array import array

from . import linalg, scalars
from .abgroups import FGAbelianGroup
from .errors import (
    CapExceededError,
    FactorizationIncompleteError,
    InputError,
    MathIdentityError,
    NotEnumerableError,
    RingAxiomError,
    SingularMatrixError,
    WorkbenchError,
)
from .factorization import crt_idempotent_polys, partial_factor
from .scalars import TABLE_MAX_ELEMENTS, poly_trim, power_table, split_bracketed


class TestRing:
    """Commutative unital associative algebra over an ExactField, given by
    structure constants table[i][j] (a coordinate vector) and a unit vector."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    def __init__(self, field, table, one, label=None):
        self.field = field
        self.dim = len(table)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        self.terms, self._product, self._ints = linalg.compile_product(field, self.table)
        self.one = tuple(one)
        self._zero = (field.zero(),) * self.dim
        self.label = label or "ring"
        self._idempotents = None
        self._nilradical = None
        self._nil_quotient = None   # R/nil, kept from the reducedness check
        self._unit_group = None
        self._ring_table = None
        self._blocks = {}           # idempotent -> block(e), built on demand
        self._filtration = None
        self.residue_classes = None, None   # points: (projection, class sizes)
        self._check_axioms()
        count = self.element_count()
        if count is not None and count <= RingTable.MAX_ELEMENTS:
            self.ring_table()

    # -- element helpers ----------------------------------------------------

    def zero(self):
        return self._zero

    def from_field(self, c):
        return self.scal(c, self.one)

    def from_int(self, n):
        return self.from_field(self.field.from_int(n))

    def is_zero(self, x):
        return x == self._zero

    def add(self, x, y):
        F = self.field
        return tuple(F.add(a, b) for a, b in zip(x, y))

    def neg(self, x):
        F = self.field
        return tuple(F.neg(a) for a in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scal(self, c, x):
        F = self.field
        return tuple(F.mul(c, a) for a in x)

    def mul(self, x, y):
        return self._product(x, y)

    def pow_element(self, x, n):
        return scalars.power(self.mul, self.one, x, n)

    def mul_matrix(self, x):
        """Matrix of multiplication-by-x on the canonical basis (columns)."""
        cols = [self.mul(x, self._basis_vec(j)) for j in range(self.dim)]
        return [[col[k] for col in cols] for k in range(self.dim)]

    def _basis_vec(self, i):
        F = self.field
        return tuple(F.one() if k == i else F.zero() for k in range(self.dim))

    def is_unit(self, x):
        return not self.field.is_zero(linalg.det(self.field, self.mul_matrix(x)))

    def is_nilpotent(self, x):
        return self.is_zero(self.pow_element(x, self.dim))

    def inv(self, x):
        try:
            return tuple(linalg.solve(self.field, self.mul_matrix(x), list(self.one)))
        except SingularMatrixError:
            raise InputError("element is not a unit")

    def element_count(self):
        q = self.field.cardinality()
        return None if q is None else q**self.dim

    def elements(self):
        if self.element_count() is None:
            raise NotEnumerableError("ring over an infinite field")
        return (tuple(v) for v in itertools.product(self.field.elements(), repeat=self.dim))

    def sort_key(self, x):
        return tuple(self.field.sort_key(c) for c in x)

    def to_str(self, x):
        if self.dim == 1:
            return self.field.to_str(x[0])
        return "[" + ",".join(self.field.to_str(c) for c in x) + "]"

    def parse(self, s):
        s = s.strip()
        if self.dim == 1:
            return (self.field.parse(s),)
        if not (s.startswith("[") and s.endswith("]")):
            raise InputError("ring element literal must be a bracketed vector")
        parts = split_bracketed(s[1:-1])
        if len(parts) != self.dim:
            raise InputError("ring element needs %d coordinates" % self.dim)
        return tuple(self.field.parse(p) for p in parts)

    # -- construction checks -------------------------------------------------

    def _check_axioms(self):
        F = self.field
        n = self.dim
        shapes_ok = all(len(row) == n and all(len(v) == n for v in row) for row in self.table)
        if len(self.one) != n or not shapes_ok:
            raise RingAxiomError("structure constant dimensions inconsistent")
        for i in range(n):
            for j in range(i, n):
                if self.table[i][j] != self.table[j][i]:
                    raise RingAxiomError("multiplication table is not commutative")
        basis = [self._basis_vec(i) for i in range(n)]
        for i in range(n):
            if self.mul(self.one, basis[i]) != basis[i]:
                raise RingAxiomError("claimed unit does not act as identity")
        ints = self._ints
        if ints is None:   # extension fields: on the field kernel
            def times(i, j, k):   # (e_i e_j) e_k
                return self.mul(self.table[i][j], basis[k])
        else:   # on ints: over Q both sides times D^2, over F_p reduced mod p
            p = F.p if F.kind == "prime" else None

            def times(i, j, k):
                out = [0] * n
                for l, c in ints[i][j]:
                    for m, d in ints[l][k]:
                        out[m] += c * d
                return out if p is None else [v % p for v in out]
        left = {ijk: times(*ijk) for ijk in itertools.product(range(n), repeat=3)}
        for (i, j, k), v in left.items():
            if v != left[j, k, i]:   # e_i (e_j e_k) = (e_j e_k) e_i
                raise RingAxiomError(
                    "multiplication not associative at basis triple (%d,%d,%d)" % (i, j, k))

    # -- nilradical and idempotents ------------------------------------------

    def nilradical(self):
        if self._nilradical is None:
            self._nilradical = tuple(tuple(v) for v in _nilradical_basis(self))
            self._nil_quotient = _verify_nilradical(self, self._nilradical)
        return self._nilradical

    def nil_quotient(self):
        """(R/nil, x -> class of x, a section of it), or None if R is reduced."""
        self.nilradical()
        return self._nil_quotient

    def idempotents(self):
        """Primitive orthogonal idempotents, lexicographically ordered."""
        if self._idempotents is None:
            self._idempotents = tuple(decompose_ring(self))
        return self._idempotents

    def block(self, e):
        """The block ring eR with unit e, built as R/(1-e)R once and kept;
        returns (ring, project, inject): project(x) is the class of x, which
        is that of ex, and inject(b) = e * lift(b) lies in eR."""
        e = tuple(e)
        if e not in self._blocks:
            f = self.sub(self.one, e)
            ring, project, lift = _quotient_ring(
                self, [self.mul(f, self._basis_vec(i)) for i in range(self.dim)],
                "%s|block" % self.label)
            self._blocks[e] = ring, project, lambda b: self.mul(e, lift(b))
        return self._blocks[e]

    def filtration(self):
        """(starts, basis, coords) for a finite connected ring with nilradical
        m != 0: an F-basis adapted to m > m^2 > ... > m^r = 0, whose vectors
        from starts[i] on span m^i, and the coordinates coords[x] in it of
        each RingTable element x, which lies in m^i when coords[x][:starts[i]]
        vanish.  Built once and kept."""
        if self._filtration is None:
            F, m = self.field, self.nilradical()
            powers = [m]   # powers[i] spans m^(i+1)
            while powers[-1]:
                red, pivots = linalg.rref(F, [list(self.mul(x, y)) for x in powers[-1] for y in m])
                powers.append([tuple(v) for v in red[:len(pivots)]])
            # the first independent vectors from m^(r-1) out to R, deepest last
            stack = [v for span in reversed(powers) for v in span]
            stack += [self._basis_vec(i) for i in range(self.dim)]
            basis = [stack[p] for p in linalg.rref(F, [list(c) for c in zip(*stack)])[1]][::-1]
            inv = linalg.inv(F, [list(c) for c in zip(*basis)])
            coords = [tuple(linalg.mat_vec(F, inv, list(x))) for x in self.ring_table().elems]
            starts = [self.dim - len(span) for span in [basis] + powers]
            self._filtration = starts, basis, coords
        return self._filtration

    def unit_group(self):
        """{unit: order} for a finite ring, computed once and kept."""
        if self._unit_group is None:
            self._unit_group = enumerate_units(self)
        return self._unit_group

    def ring_table(self):
        """The index table of a finite ring, built once and kept (at
        construction within RingTable.MAX_ELEMENTS); mul, add and is_unit of
        this ring are then table lookups.  The table holds the ring weakly
        and is valid only while it is alive."""
        if self._ring_table is None:
            self._ring_table = table = RingTable(self)
            self.mul, self.add, self.is_unit = table.element_ops()
        return self._ring_table


_EMPTY = 0xFFFF   # an unfilled RingTable cell; indices stay below 512


class RingTable:
    """Index view of a finite TestRing: its elements, in R.elements() order,
    are numbered 0..|R|-1, and it speaks the ring protocol on those indices
    (zero(), one, is_zero, add, mul, scal by a constant given as the index of
    R.from_field(c), neg, inv, is_unit), so the point layer of points.py runs
    on it.  Cells are filled on first use by the coordinate kernel (TestRing
    mul, add, neg, the determinant test of is_unit); a row, the negatives,
    the sort ranks and per algebra its constants as indices (terms, kept by
    points) are made when first needed.  It holds its ring weakly: the two
    form no reference cycle."""

    MAX_ELEMENTS = TABLE_MAX_ELEMENTS

    def __init__(self, R):
        count = R.element_count()
        if count is None:
            raise NotEnumerableError("ring over an infinite field")
        if count > self.MAX_ELEMENTS:
            raise CapExceededError("ring too large for table form (%d)" % count)
        self.elems = list(R.elements())
        self.index = {e: i for i, e in enumerate(self.elems)}
        self._ring_ref = weakref.ref(R)
        self._blank = array("H", [_EMPTY]) * count   # shared until written
        self._mul = [self._blank] * count
        self._add = [self._blank] * count
        self._neg, self._rank, self.terms = self._blank, None, {}
        self._unit = bytearray(count)    # 0 unknown, 1 not a unit, 2 unit
        self._zero = self.index[R.zero()]
        self.one = self.index[R.one]

    def element_ops(self):
        """mul, add and is_unit on ring elements, through the indices."""
        elems, index, mul, add, unit = (self.elems, self.index, self.mul,
                                        self.add, self.is_unit)
        return ((lambda x, y: elems[mul(index[x], index[y])]),
                (lambda x, y: elems[add(index[x], index[y])]),
                (lambda x: unit(index[x])))

    def _ring(self):
        R = self._ring_ref()
        if R is None:
            raise WorkbenchError("the ring of this RingTable is gone; a table is "
                                 "valid only while its ring is alive")
        return R

    def _fill(self, rows, kernel, a, b):
        """Fill cell (a, b) from the kernel, and (b, a) if row b is written."""
        if rows[a] is self._blank:
            rows[a] = array("H", self._blank)
        c = rows[a][b] = self.index[kernel(self._ring(), self.elems[a], self.elems[b])]
        if rows[b] is not self._blank:
            rows[b][a] = c
        return c

    def zero(self):
        return self._zero

    def is_zero(self, a):
        return a == self._zero

    def add(self, a, b):
        c = self._add[a][b]
        return c if c != _EMPTY else self._fill(self._add, TestRing.add, a, b)

    def mul(self, a, b):
        c = self._mul[a][b]
        return c if c != _EMPTY else self._fill(self._mul, TestRing.mul, a, b)

    scal = mul

    def neg(self, a):
        if self._neg is self._blank:
            self._neg = array("H", self._blank)
        c = self._neg[a]
        if c == _EMPTY:
            c = self._neg[a] = self.index[TestRing.neg(self._ring(), self.elems[a])]
        return c

    def rank(self):
        """Each index's position in the R.sort_key order of the elements."""
        if self._rank is None:   # the inverse of the sorting permutation
            key = self._ring().sort_key
            order = sorted(range(len(self.elems)), key=lambda a: key(self.elems[a]))
            self._rank = sorted(range(len(order)), key=order.__getitem__)
        return self._rank

    def inv(self, a):
        return self.index[TestRing.inv(self._ring(), self.elems[a])]

    def is_unit(self, a):
        if not self._unit[a]:
            self._unit[a] = 1 + TestRing.is_unit(self._ring(), self.elems[a])
        return self._unit[a] == 2


# ---------------------------------------------------------------------------
# constructors


def base_field_ring(F, label=None):
    """F itself, as F[t]/(t)."""
    return truncated_poly(F, [F.zero(), F.one()], label=label or "base")


def dual_numbers(F, n, label=None):
    """F[eps]/(eps^n); n = 1 degenerates to the base field."""
    if n < 1:
        raise InputError("dual number order must be >= 1")
    return truncated_poly(F, [F.zero()] * n + [F.one()], label=label or "dual%d" % n)


def product_ring(R1, R2, label=None):
    if R1.field != R2.field:
        raise InputError("product factors must share the base field")
    F = R1.field
    z1, z2 = (F.zero(),) * R1.dim, (F.zero(),) * R2.dim
    table = ([[v + z2 for v in row] + [z1 + z2] * R2.dim for row in R1.table]
             + [[z1 + z2] * R1.dim + [z1 + v for v in row] for row in R2.table])
    return TestRing(F, table, R1.one + R2.one, label=label or "product")


def group_algebra_finite(F, G, label=None):
    """FG for a finite abelian group G; basis indexed by sorted group elements."""
    if not isinstance(G, FGAbelianGroup) or not G.is_finite():
        raise InputError("group algebra test ring needs a finite group")
    elems = sorted(G.elements())

    def basis(g):   # g as a basis vector
        return tuple(F.one() if h == g else F.zero() for h in elems)

    table = [[basis(G.add(g, h)) for h in elems] for g in elems]
    ring = TestRing(F, table, basis(G.identity()), label=label or "groupalg")
    ring.group_basis = tuple(elems)
    return ring


def truncated_poly(F, modulus, label=None):
    """F[t]/(f) for monic f of degree >= 1."""
    modulus = poly_trim(F, list(modulus))
    if len(modulus) < 2:
        raise InputError("modulus must have degree >= 1")
    if not F.eq(modulus[-1], F.one()):
        raise InputError("modulus must be monic")
    table = power_table(F, modulus)
    return TestRing(F, table, table[0][0], label=label or "trunc")   # t^0 is the unit


# ---------------------------------------------------------------------------
# nilradical


def _nilradical_basis(R):
    F = R.field
    n = R.dim
    p = F.characteristic()
    if p == 0:
        # radical of the trace form B(x, y) = trace(L_{xy})  (Dickson), from
        # the constants: t_l = trace(L_{e_l}) = sum_k c_lk^k and
        # B(e_i, e_j) = sum_l c_ij^l t_l
        def total(values):
            return functools.reduce(F.add, values, F.zero())
        t = [total(c for k, cell in enumerate(row) for m, c in cell if m == k)
             for row in R.terms]
        return linalg.nullspace(F, [[total(F.mul(c, t[l]) for l, c in cell) for cell in row]
                                    for row in R.terms])
    q = F.cardinality()
    if q is None:
        raise FactorizationIncompleteError("positive characteristic needs a finite field")
    qm = q
    while qm < n:
        qm *= q
    # x -> x^(q^m) is F-linear; its kernel is exactly the nilradical
    cols = [R.pow_element(R._basis_vec(i), qm) for i in range(n)]
    M = [[cols[j][k] for j in range(n)] for k in range(n)]
    return linalg.nullspace(F, M)


def _verify_nilradical(R, basis):
    """Check that basis spans a nil ideal with a reduced quotient, and return
    that quotient R/nil (None when R is reduced)."""
    for v in basis:
        if not R.is_nilpotent(v):
            raise MathIdentityError("claimed nilradical vector is not nilpotent")
    if not basis:
        return None
    quot = _quotient_ring(R, basis, "%s/nil" % R.label)
    if _nilradical_basis(quot[0]):
        raise MathIdentityError("quotient by nilradical is not reduced")
    return quot


# ---------------------------------------------------------------------------
# quotients by an ideal subspace


def _quotient_ring(R, ideal_basis, label):
    """R/I for the span I of ideal_basis, checked to be an ideal; returns
    (ring, project, lift).  The quotient's basis is the classes of the
    canonical basis vectors off the pivot columns of I in row echelon form:
    project reduces a vector of R modulo I onto those coordinates, and lift
    puts them back with zeros on the pivot columns."""
    F = R.field
    red, pivots = linalg.rref(F, [list(v) for v in ideal_basis])
    red = red[: len(pivots)]
    free = [c for c in range(R.dim) if c not in pivots]

    # each echelon row off the pivot columns, as (free position, nonzero entry);
    # a row is zero on the other rows' pivots, so x[pivot] is its multiplier
    rows = [[(j, row[c]) for j, c in enumerate(free) if not F.is_zero(row[c])]
            for row in red]

    def reduce_vec(x):
        out = [x[c] for c in free]
        for pc, row in zip(pivots, rows):
            c = x[pc]
            if not F.is_zero(c):
                for j, b in row:
                    out[j] = F.sub(out[j], F.mul(c, b))
        return tuple(out)

    def lift_vec(qx):
        x = [F.zero()] * R.dim
        for c, coord in zip(free, qx):
            x[c] = coord
        return tuple(x)

    # ideal check: basis * ideal stays in the ideal (reduces to zero)
    for i in range(R.dim):
        for v in red:
            prod = R.mul(R._basis_vec(i), tuple(v))
            if any(not F.is_zero(c) for c in reduce_vec(prod)):
                raise MathIdentityError("subspace is not an ideal")
    table = [[reduce_vec(R.table[a][b]) for b in free] for a in free]
    ring = TestRing(F, table, reduce_vec(R.one), label=label)
    return ring, reduce_vec, lift_vec


# ---------------------------------------------------------------------------
# idempotent decomposition


def decompose_ring(R):
    """Primitive orthogonal idempotents of R: those of R/nil, split in place,
    Newton-lifted (e -> 3e^2 - 2e^3, valid in every characteristic)."""
    if R.nil_quotient():
        ring, _, lift = R.nil_quotient()
        idems = [_newton_lift(R, lift(e)) for e in _split_semisimple(ring)]
    else:
        idems = [tuple(e) for e in _split_semisimple(R)]
    _verify_idempotent_family(R, idems)
    return sorted(idems, key=R.sort_key)


def _newton_lift(R, e):
    """Lift an idempotent-mod-nilradical to a true idempotent."""
    three = R.from_int(3)
    two = R.from_int(2)
    for _ in range(64):
        e2 = R.mul(e, e)
        if e2 == e:
            return tuple(e)
        e = R.sub(R.mul(three, e2), R.mul(two, R.mul(e2, e)))
    raise MathIdentityError("idempotent lifting did not converge")


def _verify_idempotent_family(R, idems):
    acc = R.zero()
    for i, e in enumerate(idems):
        if R.is_zero(e) or R.mul(e, e) != tuple(e):
            raise MathIdentityError("family member is not a nonzero idempotent")
        acc = R.add(acc, e)
        for f in idems[i + 1:]:
            if not R.is_zero(R.mul(e, tuple(f))):
                raise MathIdentityError("idempotents are not orthogonal")
    if acc != R.one:
        raise MathIdentityError("idempotents do not sum to 1")


def _split_semisimple(R):
    """Primitive idempotents of a ring assumed reduced, by refining the
    family {1} inside R: a member e is split by the CRT idempotents of the
    factored minimal polynomial of x = e*c over eR.  Over F_q, c runs over a
    basis of the Frobenius-fixed subalgebra B = F_q^k, one coordinate per
    block (Berlekamp), so the factors are linear, a member no c splits is
    primitive, and the family ends with dim B members.  In characteristic 0,
    c runs over the basis of R, and a member is kept once some e*c generates
    eR as a certified field."""
    F = R.field
    finite = F.characteristic() > 0
    gens = [R._basis_vec(i) for i in range(R.dim)]
    if finite:   # B is the kernel of x -> x^q - x
        cols = [R.sub(R.pow_element(b, F.cardinality()), b) for b in gens]
        gens = [tuple(v) for v in linalg.nullspace(F, [list(r) for r in zip(*cols)])]
    family, todo = [], [R.one]
    while todo:
        e = todo.pop()
        d = linalg.rank(F, R.mul_matrix(e))   # dim eR
        for c in gens:
            x = R.mul(e, c)
            mu = _min_poly_of_element(R, x, e, d)
            factors = partial_factor(F, mu)
            if finite and any(len(f.poly) != 2 for f in factors):
                raise MathIdentityError("fixed element minimal polynomial did not split")
            if len(factors) > 1:
                for ep in crt_idempotent_polys(F, mu, [f.poly for f in factors]):
                    f = _eval_poly_at_element(R, ep, x, e)
                    if R.is_zero(f) or R.mul(f, f) != f:
                        raise MathIdentityError("split produced a non-idempotent")
                    todo.append(f)
                break
            if len(mu) - 1 == d and factors[0].certified:
                family.append(e)   # e*c generates eR, a field
                break
        else:
            if not finite:
                raise FactorizationIncompleteError(
                    "cannot certify connectedness of a %d-dimensional block over %r" % (d, F))
            family.append(e)   # no c in B splits e: it is primitive
    if finite and len(family) != len(gens):
        raise MathIdentityError("%d primitive idempotents for a %d-dimensional "
                                "Frobenius-fixed subalgebra" % (len(family), len(gens)))
    return family


def _min_poly_of_element(R, x, e, d):
    """Monic minimal polynomial of x in eR (e idempotent), low first: the
    first kernel vector of the columns e, x, ..., x^d for d >= dim eR (its
    free column is the least dependent power)."""
    powers = [e]
    for _ in range(d):
        powers.append(R.mul(powers[-1], x))
    cols = [[p[k] for p in powers] for k in range(R.dim)]
    return poly_trim(R.field, linalg.nullspace(R.field, cols)[0])


def _eval_poly_at_element(R, poly, x, e):
    """poly(x) in eR, with e as its unit."""
    acc = R.zero()
    power = e
    for c in poly:
        acc = R.add(acc, R.scal(c, power))
        power = R.mul(power, x)
    return acc


# ---------------------------------------------------------------------------
# unit maps


UNIT_ENUMERATION_CAP = 10**6


def enumerate_units(R):
    """The unit map of a finite ring: {unit: multiplicative order}, keyed in
    R.sort_key order.  One R.is_unit test per element; each order comes
    from scalars.multiplicative_order with the multiple n = |R^x|, which
    fails only against Lagrange's theorem."""
    count = R.element_count()
    if count is None:
        raise NotEnumerableError("unit enumeration needs a finite base field")
    if count > UNIT_ENUMERATION_CAP:
        raise CapExceededError("|R| = %d exceeds cap %d" % (count, UNIT_ENUMERATION_CAP))
    units = sorted((v for v in R.elements() if R.is_unit(v)), key=R.sort_key)
    orders = {u: scalars.multiplicative_order(R.mul, R.one, u, len(units)) for u in units}
    if None in orders.values():
        raise MathIdentityError("a unit u of %s has u^|R^x| != 1, against Lagrange's "
                                "theorem" % R.label)
    return orders


# ---------------------------------------------------------------------------
# sparse group algebra RG


class GroupAlgebra:
    """Arithmetic for finitely supported elements of RG; G may be infinite.

    Elements are dicts {group element tuple: nonzero ring element}."""

    def __init__(self, ring, group):
        self.ring = ring
        self.group = group

    def zero(self):
        return {}

    def monomial(self, r, g):
        if self.ring.is_zero(r):
            return {}
        return {self.group.reduce(g): r}

    def scalar(self, r):
        return self.monomial(r, self.group.identity())

    def add(self, x, y):
        out = dict(x)
        for g, r in y.items():
            if g in out:
                s = self.ring.add(out[g], r)
                if self.ring.is_zero(s):
                    del out[g]
                else:
                    out[g] = s
            else:
                out[g] = r
        return out

    def mul(self, x, y):
        out = {}
        for g, r in x.items():
            for h, s in y.items():
                gh = self.group.add(g, h)
                rs = self.ring.mul(r, s)
                if gh in out:
                    rs = self.ring.add(out[gh], rs)
                if self.ring.is_zero(rs):
                    out.pop(gh, None)
                else:
                    out[gh] = rs
        return out

    def is_zero(self, x):
        return not x
