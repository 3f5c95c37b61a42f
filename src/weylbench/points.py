"""Functor-of-points evaluation for the group schemes attached to a grading:
membership of a matrix over a test ring in Aut(A)(R), Stab(R), Diag(R),
Aut(grading)(R); the generic-element centralizer/normalizer tests; the
D(G)-image normalizer test with relation certificates; point enumeration.

The centralizer/normalizer functors quantify over all R-algebras; following
the structure theory they are decided at the single generic algebra RG and
cross-asserted against the direct block/permutation definitions on every
call, so any gap between the two characterizations raises MathIdentityError.
Over a ring with a RingTable, membership, det and inverse, block certificates,
the RG tests and the point search run on its indices, where A's constants are
kept as data (_kernel); points, certificates and shifts stay in ring elements.
Point enumeration is three searches, a DFS over a field's table, the blocks
of a product and a residue field lifted layer by layer, under one checker
(_points_by_shape) that re-verifies whatever they yield.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import abgroups, galg, linalg
from .comrings import GroupAlgebra, RingTable
from .errors import (
    CapExceededError,
    InputError,
    MathIdentityError,
    NotEnumerableError,
    OrderViolationError,
    SingularMatrixError,
)
from .linalg import nonempty_cells, structure_mul


@dataclass(frozen=True)
class PointMatrix:
    algebra: object
    ring: object
    entries: tuple   # entries[k][j] in R; column j is the image of basis j

    def to_str(self):
        R = self.ring
        rows = ["[" + ",".join(R.to_str(x) for x in row) + "]" for row in self.entries]
        return "[" + ",".join(rows) + "]"


def point_matrix(A, R, rows):
    entries = tuple(tuple(tuple(x) for x in row) for row in rows)
    if len(entries) != A.dim or any(len(r) != A.dim for r in entries):
        raise InputError("matrix must be %d x %d" % (A.dim, A.dim))
    return PointMatrix(A, R, entries)


def identity_point(A, R):
    return point_matrix(
        A, R,
        [[R.one if i == j else R.zero() for j in range(A.dim)] for i in range(A.dim)])


DEFAULT_CAP = 10**6   # nodes per listing: the largest search in the tests spends ~420,000


def node_budget(cap):
    """spend(k): k more nodes of one point listing, counted before they are
    built; CapExceededError as soon as the count passes cap."""
    spent = 0

    def spend(k=1):
        nonlocal spent
        spent += k
        if spent > cap:
            raise CapExceededError("point search passed its cap of %d nodes" % cap)
    return spend


# ---------------------------------------------------------------------------
# the index kernel: matrices over a commutative ring, and phi against A's
# product, on RingTable indices when R has a table


def _same(x):
    return x


def _indexed(R):
    """(ring, to, back): R's RingTable with the maps from R's elements to its
    indices and back, or R itself with identity maps when R has no table
    (over Q, above RingTable.MAX_ELEMENTS, or R a table or a stand-in)."""
    T = getattr(R, "_ring_table", None)
    if T is None:
        return R, _same, _same
    return T, T.index.__getitem__, T.elems.__getitem__


def _kernel(A, R):
    """(ring, to, terms, cells) on _indexed(R): A's constants terms[i][j] =
    ((k, c), ...) and their nonempty cells.  On a table each c is the index of
    R.from_field(c), made once per algebra and kept on the table, as data."""
    T, to, _ = _indexed(R)
    if T is R:
        return T, to, A.terms, nonempty_cells(A.terms)
    if A not in T.terms:
        terms = tuple(tuple(tuple((k, to(R.from_field(c))) for k, c in cell)
                            for cell in row) for row in A.terms)
        T.terms[A] = terms, nonempty_cells(terms)
    return (T, to) + T.terms[A]


def _image(cell, cols, zero, is_zero, add, scal):
    """phi(e_i e_j) from phi's columns and the cell ((k, c), ...) of e_i e_j."""
    out = [zero] * len(cols)
    for k, c in cell:
        for t, x in enumerate(cols[k]):
            if not is_zero(x):
                out[t] = add(out[t], scal(c, x))
    return tuple(out)


def _multiplicative(T, terms, cells, cols, pairs):
    """phi(e_i e_j) = phi(e_i) phi(e_j) on each pair (i, j), phi given by its
    columns over T: the one multiplicativity test, T's ops bound once a call."""
    zero, is_zero, add, mul, scal = T.zero(), T.is_zero, T.add, T.mul, T.scal
    for i, j in pairs:
        if (_image(terms[i][j], cols, zero, is_zero, add, scal)
                != structure_mul(cells, cols[i], cols[j], zero, is_zero, add, mul, scal)):
            return False
    return True


def _minors(R, M):
    """det of M on (rows, cols) tuples, by cofactor expansion along the
    first row down to ad - bc, with the minors of 3x3 and up memoized (the
    cofactors of ring_mat_inv share them): no division, so it stays exact
    over rings with zero divisors, where elimination cannot pivot; R is a
    TestRing on elements or its RingTable on indices"""
    memo, one, zero = {}, R.one, R.zero()
    is_zero, add, mul, neg = R.is_zero, R.add, R.mul, R.neg

    def minor(rows, cols, minor):   # passed itself: a closure cell of its own is a cycle
        if len(rows) == 2:   # no memo entry
            (r, s), (c, d) = rows, cols
            return _ad_bc(R, M[r][c], M[r][d], M[s][c], M[s][d])
        if len(rows) < 2:
            return M[rows[0]][cols[0]] if rows else one
        key = (rows, cols)
        if key not in memo:
            acc = zero
            for pos, c in enumerate(cols):
                entry = M[rows[0]][c]
                if not is_zero(entry):
                    term = mul(entry, minor(rows[1:], cols[:pos] + cols[pos + 1:], minor))
                    acc = add(acc, neg(term) if pos % 2 else term)
            memo[key] = acc
        return memo[key]

    return lambda rows, cols: minor(rows, cols, minor)


def _ad_bc(R, a, b, c, d):
    """ad - bc over R, with no product by a zero a or b."""
    ad = R.zero() if R.is_zero(a) else R.mul(a, d)
    return ad if R.is_zero(b) else R.add(ad, R.neg(R.mul(b, c)))


def ring_det(R, M):
    """det M for a matrix over R, on R's table when it has one; a 2x2 is ad - bc."""
    T, to, back = _indexed(R)
    M = M if T is R else [list(map(to, row)) for row in M]
    if len(M) == 2:
        return back(_ad_bc(T, *M[0], *M[1]))
    every = tuple(range(len(M)))
    return back(_minors(T, M)(every, every))


def ring_mat_inv(R, M):
    """M^-1 over R, from one expansion of minors on R's table when it has one;
    InputError when det M is not a unit."""
    T, to, back = _indexed(R)
    n = len(M)
    minor, every = _minors(T, M if T is R else [list(map(to, row)) for row in M]), tuple(range(n))
    d_inv = T.inv(minor(every, every))  # raises InputError when det is not a unit
    return [[back(T.mul(d_inv, T.neg(cof) if (i + j) % 2 else cof)) for j in range(n)
             for cof in [minor(every[:j] + every[j + 1:], every[:i] + every[i + 1:])]]
            for i in range(n)]


# ---------------------------------------------------------------------------
# memberships


def automorphism_membership(phi):
    """det(phi) a unit and phi multiplicative on all basis pairs."""
    T, to, terms, cells = _kernel(phi.algebra, phi.ring)
    return _is_automorphism(T, terms, cells, [list(map(to, row)) for row in phi.entries])


def _is_automorphism(T, terms, cells, rows):
    """automorphism_membership of the point with rows over T, _kernel's ring."""
    if not T.is_unit(ring_det(T, rows)):
        return False
    every = range(len(rows))
    return _multiplicative(T, terms, cells, list(zip(*rows)), itertools.product(every, every))


def _require_automorphism(phi):
    if not automorphism_membership(phi):
        raise InputError("matrix is not an automorphism point")


def stab_membership(gr, phi):
    """Block-diagonal with respect to the homogeneous components."""
    _require_automorphism(phi)
    return _degree_preserving(gr, phi)


def _degree_preserving(gr, phi):
    n, R = gr.algebra.dim, phi.ring
    return all(gr.degrees[k] == gr.degrees[j] or R.is_zero(phi.entries[k][j])
               for k in range(n) for j in range(n))


@dataclass
class DiagResult:
    member: bool
    scalars: dict  # support element -> scalar in R


def diag_membership(gr, phi):
    """Each component block a unit scalar multiple of the identity."""
    _require_automorphism(phi)
    R = phi.ring
    scalars = _scalar_blocks_of(gr, R, phi.entries)
    if scalars is None or not all(R.is_unit(s) for s in scalars.values()):
        return DiagResult(False, {})
    return DiagResult(True, scalars)


@dataclass
class BlockPermResult:
    ok: bool
    certificates: list   # [(idempotent vec, {g: sigma(g)})]
    witness: object = None


def block_permutations(gr, phi):
    """Per primitive idempotent of R, the component permutation realized by
    phi, or failure with a witness."""
    T, to, _ = _indexed(phi.ring)
    return _block_permutations(gr, phi.ring, T, to, [list(map(to, row)) for row in phi.entries])


def _block_permutations(gr, R, T, to, rows):
    """block_permutations of the point with rows over T, to and T from _indexed(R)."""
    if not T.is_unit(ring_det(T, rows)):
        raise InputError("matrix is not invertible over R")
    n = gr.algebra.dim
    certs = []
    for e in R.idempotents():
        sigma, ie = {}, to(e)
        for g in gr.support:
            targets = set()
            for j in gr.components[g]:
                for k in range(n):
                    if not T.is_zero(T.mul(ie, rows[k][j])):
                        targets.add(gr.degrees[k])
            if len(targets) != 1:
                return BlockPermResult(False, [], witness=(e, g, tuple(sorted(targets))))
            h = targets.pop()
            if gr.component_dim(h) != gr.component_dim(g):
                return BlockPermResult(False, [], witness=(e, g, h))
            sigma[g] = h
        if sorted(sigma.values()) != list(gr.support):
            return BlockPermResult(False, [], witness=(e, "not a bijection"))
        certs.append((e, sigma))
    return BlockPermResult(True, certs)


def autgamma_membership(gr, phi):
    return automorphism_membership(phi) and block_permutations(gr, phi).ok


# ---------------------------------------------------------------------------
# tau and diagonal points


def tau_from_character(gr, R, values):
    """Diagonal automorphism from character values on the canonical generators
    of the grading group; values must respect generator orders."""
    G = gr.group
    orders = G.generator_orders()
    if len(values) != len(orders):
        raise InputError("need one unit value per group generator")
    for v, d in zip(values, orders):
        if not R.is_unit(v):
            raise OrderViolationError("character value is not a unit")
        if d and R.pow_element(v, d) != R.one:
            raise OrderViolationError("character value violates generator order %d" % d)
    return character_point(gr, R, {g: g for g in gr.support}, values)


def _diagonal(gr, R, coords, values):
    """[chi(deg i) for each row i], chi(g) = prod_j values[j]^coords[g][j]."""
    chi = {}
    for g in gr.support:
        acc = R.one
        for c, v in zip(coords[g], values):
            if c:
                acc = R.mul(acc, R.pow_element(v, c) if c > 0 else
                            R.pow_element(R.inv(v), -c))
        chi[g] = acc
    return [chi[g] for g in gr.degrees]


def character_point(gr, R, coords, values):
    """Diagonal point scaling component A_g by prod_i values[i]^coords[g][i]."""
    n = gr.algebra.dim
    rows = [[R.zero()] * n for _ in range(n)]
    for i, x in enumerate(_diagonal(gr, R, coords, values)):
        rows[i][i] = x
    return point_matrix(gr.algebra, R, rows)


def sorted_characters(gr, R):
    """(universal group, characters U -> R^x as value tuples) in the sorted
    order of their points, read off the diagonals (the rest is zero) without
    building them."""
    uni = galg.universal_group(gr)
    T, to, _ = _indexed(R)   # on a table an index sorts as its element
    chars = abgroups.enumerate_characters(uni.group, _unit_map_for(R, uni.group))
    return uni, sorted(chars, key=lambda a: tuple(_diagonal(gr, T, uni.deg_u, tuple(map(to, a)))))


def diag_points(gr, R, cap=DEFAULT_CAP):
    """Diag(R) as explicit matrices via characters of the universal group, in
    sorted order, each verified, and counted again by the brute-force oracle
    over a finite ring; one node_budget(cap) pays for |R|, the characters and
    the oracle's candidates, each before they are built."""
    spend = node_budget(cap)
    spend(R.element_count() or 0)
    uni, chars = sorted_characters(gr, R)
    spend(len(chars))
    points = [character_point(gr, R, uni.deg_u, assign) for assign in chars]
    if not all(map(automorphism_membership, points)):
        raise MathIdentityError("character point is not an automorphism")
    brute = _brute_diag_count(gr, R, spend)
    if brute is not None and brute != len(points):
        raise MathIdentityError("diagonal point count %d != brute-force count %d"
                                % (len(points), brute))
    return points


def _unit_map_for(R, U):
    """{unit: order}: all of R^x for a finite ring; over Q, where a finite U
    only meets the torsion units, {1: 1, -1: 2}."""
    if R.element_count() is not None:
        return R.unit_group()
    if R.field.kind == "rationals" and R.dim == 1 and U.rank == 0:
        return {R.one: 1, R.neg(R.one): 2}
    raise NotEnumerableError("unit group is not enumerable for this ring")


def _brute_diag_count(gr, R, spend):
    """Independent oracle: assign unit scalars to the support in order and
    test the multiplicativity equations directly on the structure constants,
    each s_g s_h = s_(g+h) as soon as its last scalar is assigned, spending
    each level's candidates first; None over an infinite ring."""
    supp = list(gr.support)
    if R.element_count() is None:
        return None
    units = list(R.unit_group())
    A, d, at = gr.algebra, gr.degrees, supp.index
    # one scalar equation per nonzero structure cell, as support positions
    cells = sorted({(at(d[i]), at(d[j]), at(gr.group.add(d[i], d[j])))
                    for i in range(A.dim) for j in range(A.dim) if A.terms[i][j]})
    assigned = [()]
    for t in range(len(supp)):   # one more scalar, then the equations it completes
        due = [c for c in cells if max(c) == t]
        spend(len(assigned) * len(units))
        assigned = [s for s in (a + (u,) for a in assigned for u in units)
                    if all(R.mul(s[g], s[h]) == s[gh] for g, h, gh in due)]
    return len(assigned)


# ---------------------------------------------------------------------------
# generic-element tests over RG


def generic_psi(gr, R):
    """Diagonal operator over RG scaling component A_g by the group element g."""
    GA, n = GroupAlgebra(R, gr.group), gr.algebra.dim
    return [[GA.monomial(R.one, gr.degrees[i]) if i == j else GA.zero() for j in range(n)]
            for i in range(n)]


def cent_membership_generic(gr, phi):
    """Commutation with the generic diagonal over RG; must agree with the
    direct stabilizer test (cross-asserted, as is the normalizer half of the
    same lift)."""
    _require_automorphism(phi)
    return _generic_tests(gr, phi, block_permutations(gr, phi))[0]


@dataclass
class NormResult:
    member: bool
    shifts: list        # [(idempotent vec, {g: h})] per block when member
    witness: object = None


def _scalar_blocks_of(gr, R, M):
    """{g: s_g} if M is block-diagonal with scalar blocks, else None.  R is
    any ring with is_zero: the test ring of a point or a GroupAlgebra."""
    n = gr.algebra.dim
    scalars = {}
    for g, idx in gr.components.items():
        s = M[idx[0]][idx[0]]
        for j in range(n):
            for k in range(n):
                e = M[k][j]
                if j in idx and k == j:
                    if e != s:
                        return None
                elif j in idx or k in idx:
                    if not R.is_zero(e):
                        return None
        scalars[g] = s
    return scalars


def norm_membership_generic(gr, phi):
    """Conjugate the generic diagonal by phi once over RG, M = phi^-1 Psi phi;
    membership requires M component-scalar.  M is invertible, so its scalars
    are units, and the proof shape is checked on them: each primitive
    idempotent e cuts every s_g down to e*h with coefficient exactly e.  The
    shifts g -> h per e must be the block permutations of phi, and
    membership must agree with the intersection definition (cross-asserted)."""
    _require_automorphism(phi)
    return _generic_tests(gr, phi, block_permutations(gr, phi))[1]


def _generic_tests(gr, phi, direct):
    """(centralizer member, NormResult) of a verified phi with block
    permutations direct, from one lift to RG, over R's table when it has one:
    Phi Psi == Psi Phi must agree with the stabilizer test, and the conjugate
    Phi^-1 (Psi Phi) with direct."""
    T, to, _ = _indexed(phi.ring)
    rows = [list(map(to, row)) for row in phi.entries]
    GA = GroupAlgebra(T, gr.group)
    Phi = [[GA.scalar(x) for x in row] for row in rows]
    Psi = generic_psi(gr, T)
    PsiPhi = linalg.mat_mul(GA, Psi, Phi)
    commute = linalg.mat_mul(GA, Phi, Psi) == PsiPhi
    if commute != _degree_preserving(gr, phi):
        raise MathIdentityError(
            "generic centralizer test disagrees with the stabilizer test")
    PhiInv = [[GA.scalar(x) for x in row] for row in ring_mat_inv(T, rows)]
    scalars = _scalar_blocks_of(gr, GA, linalg.mat_mul(GA, PhiInv, PsiPhi))
    member = scalars is not None
    shifts = [(e, {g: _idempotent_cut(T, to(e), scalars[g]) for g in gr.support})
              for e in phi.ring.idempotents()] if member else []
    if member != direct.ok or shifts != direct.certificates:
        raise MathIdentityError(
            "generic normalizer test disagrees with the intersection definition")
    return commute, NormResult(member, shifts,
                               None if member else "conjugate is not component-scalar")


def _idempotent_cut(R, e, s):
    """h with e*s = e*h, coefficient exactly e, for a normalizer scalar s in
    RG; any other shape violates the structure theorem."""
    cut = [(h, r) for h, r in ((h, R.mul(e, r)) for h, r in s.items())
           if not R.is_zero(r)]
    if len(cut) != 1 or cut[0][1] != e:
        raise MathIdentityError(
            "normalizer scalar is not e times a group element; proof shape violated")
    return cut[0][0]


@dataclass
class DGroupResult:
    status: str              # 'member' | 'nonmember' | 'indeterminate'
    forced: dict             # support element -> forced group element value
    relation: object = None  # violated relation vector over the support
    relation_value: object = None


def dgroup_norm_membership(gr, phi):
    """Normalizer test against the image of D(G) itself: conjugating the
    generic character by phi forces the value sigma^-1(h) on each support
    element h, read from the shift sigma of the generic normalizer test;
    membership needs those forced values to satisfy every relation of the
    support inside G."""
    direct = automorphism_membership(phi) and block_permutations(gr, phi)
    if not (direct and direct.ok):
        raise InputError("matrix is not a point of the grading automorphism scheme")
    if len(phi.ring.idempotents()) != 1:
        raise InputError("test requires a connected ring")
    G = gr.group
    sub = abgroups.subgroup_generated(G, list(gr.support))
    for gen in G.generators():
        if not sub.contains(gen):
            return DGroupResult("indeterminate", {})
    (_, shift), = _generic_tests(gr, phi, direct)[1].shifts
    forced = {h: g for g, h in shift.items()}
    for row in sub.relations:
        value = G.combine(row, [forced[h] for h in gr.support])
        if value != G.identity():
            return DGroupResult("nonmember", forced, relation=tuple(row),
                                relation_value=value)
    return DGroupResult("member", forced)


# ---------------------------------------------------------------------------
# brute-force enumeration over finite rings


def _enumeration_plan(A):
    """Column ordering with derivations: returns (steps, checks) where steps
    are ('enum', j) or ('derive', j, i, jj, inv_coeff) and checks[s] lists the
    multiplicativity constraints first fully determined after step s.
    Built once per algebra, from the nonzero pattern of A.terms, and kept on
    A.enumeration_plan."""
    if A.enumeration_plan is not None:
        return A.enumeration_plan
    cells = {(i, j): cell for i, row in enumerate(A.terms) for j, cell in enumerate(row)}
    steps, unknown, derived_from = [], set(range(A.dim)), set()
    while unknown:
        found = ("enum", min(unknown))
        for (i, jj), cell in cells.items():
            if (i not in unknown and jj not in unknown and (i, jj) not in derived_from
                    and len(cell) == 1 and cell[0][0] in unknown):
                found = ("derive", cell[0][0], i, jj, A.field.inv(cell[0][1]))
                derived_from.add((i, jj))
                break
        steps.append(found)
        unknown.discard(found[1])
    stage_of = {step[1]: s for s, step in enumerate(steps)}
    checks = [[] for _ in steps]
    for (i, j), cell in cells.items():
        if (i, j) not in derived_from:
            checks[max(stage_of[c] for c in {i, j}.union(k for k, _ in cell))].append((i, j))
    A.enumeration_plan = (steps, checks)
    return A.enumeration_plan


def _derivations(A, cols):
    """d(Delta)_ab = Delta(e_a e_b) - Delta(e_a) e_b - e_a Delta(e_b) on the
    Delta with entries cols, (l, j) the e_l coefficient of Delta(e_j), built
    once per column set and kept on A.derivations: (cols, d, kernel), kernel
    spanning ker d, the derivations."""
    if cols not in A.derivations:
        F, n, c = A.field, A.dim, A.table
        d = [[F.sub(F.sub(c[a][b][j] if l == k else F.zero(),
                          c[l][b][k] if j == a else F.zero()),
                    c[a][l][k] if j == b else F.zero()) for l, j in cols]
             for a, b, k in itertools.product(range(n), repeat=3)]
        A.derivations[cols] = cols, d, linalg.nullspace(F, d)
    return A.derivations[cols]


def _back_substitute(F, system, b):
    """The solution of d Delta = b over F, from _derivations, that is zero on
    the free columns of d, or None when there is none."""
    try:
        return linalg.solve(F, system[1], b)
    except SingularMatrixError:
        return None


def _span(T, scalars, directions, start):
    """start plus every combination of directions with coefficients in
    scalars; vectors over T, a TestRing or its RingTable."""
    out = [start]
    for d in directions:
        multiples = [tuple(T.mul(s, x) for x in d) for s in scalars]
        out = [tuple(map(T.add, v, w)) for v in out for w in multiples]
    return out


def enumerate_points(gr, R, which="aut", cap=DEFAULT_CAP):
    """Exhaustive, deterministic list of points over a finite ring.

    which: 'aut' | 'stab' | 'autgamma'.  Each point set is searched in its own
    block shape (_points_by_shape), with constraint pruning and column
    derivation, and every survivor is re-verified exactly, on rows over
    _indexed(R) that sort as the points do; each point is built once, here.
    The search visits at most cap nodes (node_budget)."""
    found = sorted(rows for _, shaped in _points_by_shape(gr, R, which, node_budget(cap))
                   for rows in shaped)
    back = _indexed(R)[2]
    return [PointMatrix(gr.algebra, R, tuple(tuple(map(back, row)) for row in rows))
            for rows in found]


def _points_by_shape(gr, R, which, spend):
    """(shape, points) per searched shape, each point as its rows over T,
    _kernel's ring: R's table when it has one, else R itself.  A shape is one
    support permutation per primitive idempotent e of R, as position tuples
    over gr.support: 'aut' is the one unshaped search (the empty shape),
    'stab' the all-identity shape, and 'autgamma' every tuple of admissible
    permutations: on each connected block eR a point of Aut Gamma induces
    one, which preserves the product pattern and is additive on it.

    The schemes are affine, so a point over R = e1 R x ... x em R is a sum of
    block points (_block_points), and a point over a connected R that is not
    reduced lifts from its residue field (_lifted_points); only a field is
    searched directly (_field_points), so only there are shapes built.  Each
    search yields (shape, fibres), one fibre per shape on a field, per
    product of block shapes, and per residue point; the nonempty fibres are
    cosets of the kernel of shape and of reduction, both homomorphisms, so
    they must all have one size.  Whichever search found them, every point is
    re-verified here and a shaped point must carry block certificates equal
    to its shape.  spend is the one node_budget of the search, shared by its
    blocks and residue."""
    if R.element_count() is None:
        raise NotEnumerableError("cannot enumerate points over an infinite ring")
    if which not in ("aut", "stab", "autgamma"):
        raise InputError("unknown point set %r" % which)
    if len(R.idempotents()) > 1:
        searches = _block_points(gr, R, which, spend)
    elif R.nil_quotient():
        searches = _lifted_points(gr, R, which, spend)
    else:
        shapes = ([(perm,) for perm in galg.admissible_permutations(gr)] if which == "autgamma"
                  else [(tuple(range(len(gr.support))),)] if which == "stab" else [()])
        searches = ((shape, [_field_points(gr, R, shape, spend)]) for shape in shapes)
    T, to, terms, cells = _kernel(gr.algebra, R)
    fibre_sizes = set()
    for shape, fibres in searches:
        fibre_sizes.update(map(len, fibres))
        if len(fibre_sizes - {0}) > 1:
            raise MathIdentityError("point fibres have sizes %s, not one coset size"
                                    % sorted(fibre_sizes - {0}))
        certs = [(e, dict(zip(gr.support, (gr.support[i] for i in perm))))
                 for e, perm in zip(R.idempotents(), shape)]
        points = [rows for fibre in fibres for rows in fibre]
        for rows in points:
            if not _is_automorphism(T, terms, cells, rows):
                raise MathIdentityError("fast enumeration produced a non-automorphism")
            if certs and _block_permutations(gr, R, T, to, rows).certificates != certs:
                raise MathIdentityError(
                    "shaped enumeration point certifies another block permutation")
        yield shape, points


def _field_points(gr, R, shape, spend):
    """The points of one shape over a field R, as rows over its table, by a
    DFS over the columns in the order of _enumeration_plan: entry (k, j) is
    zero unless the shape's permutation sends deg j to deg k, a derived
    column must keep those zeros, and each node spends 1."""
    A, n = gr.algebra, gr.algebra.dim
    T, to, terms, cells = _kernel(A, R)
    steps, checks = _enumeration_plan(A)
    steps = [step[:4] + (to(R.from_field(step[4])),) if step[0] == "derive" else step
             for step in steps]
    zero, mul, scal = T.zero(), T.mul, T.scal
    ops = zero, T.is_zero, T.add   # structure_mul's, then mul and scal
    # the one table the search reads: a field past the table size is refused
    full, zero_only = range(len(R.ring_table().elems)), {zero}
    sigma = dict(zip(gr.support, (gr.support[i] for i in shape[0]))) if shape else None
    allowed = [[zero_only if shape and sigma[gr.degrees[j]] != gr.degrees[k] else full
                for k in range(n)] for j in range(n)]
    bounds = [[(t, s) for t, s in enumerate(col) if s is not full] for col in allowed]
    survivors = []

    def dfs(stage, cols, dfs):   # passed itself: a closure cell of its own is a cycle
        spend()
        if stage == len(steps):
            rows = tuple(zip(*cols))
            if T.is_unit(ring_det(T, rows)):
                survivors.append(rows)
            return
        step = steps[stage]
        if step[0] == "enum":
            j = step[1]
            for cand in itertools.product(*allowed[j]):
                cols[j] = cand
                if _multiplicative(T, terms, cells, cols, checks[stage]):
                    dfs(stage + 1, cols, dfs)
            cols[j] = None
        else:
            _, k, i, jj, ic = step
            cols[k] = tuple(mul(ic, x)
                            for x in structure_mul(cells, cols[i], cols[jj], *ops, mul, scal))
            if (all(cols[k][t] in s for t, s in bounds[k])
                    and _multiplicative(T, terms, cells, cols, checks[stage])):
                dfs(stage + 1, cols, dfs)
            cols[k] = None

    dfs(0, [None] * n, dfs)
    return survivors


def _block_points(gr, R, which, spend):
    """R = e1 R x ... x em R: each block eR searched on its own and its points
    moved into eR on _indexed(R); then one fibre per product of block shapes,
    the sums of one point per block, spent before they are built, with the
    block shapes concatenated."""
    T, to, _ = _indexed(R)
    n = gr.algebra.dim

    def on_T(ring, inject):   # a block's listing, each entry moved to eR on T
        back = _indexed(ring)[2]
        entry = functools.cache(lambda x: to(inject(back(x))))
        return [(shape, [tuple(tuple(map(entry, row)) for row in rows) for rows in found])
                for shape, found in _points_by_shape(gr, ring, which, spend)]

    for found in itertools.product(*(on_T(ring, inject) for ring, _, inject
                                     in map(R.block, R.idempotents()))):
        blocks = [points for _, points in found]
        spend(math.prod(map(len, blocks)))
        yield sum((shape for shape, _ in found), ()), [[
            tuple(tuple(functools.reduce(T.add, (p[k][j] for p in parts)) for j in range(n))
                  for k in range(n)) for parts in itertools.product(*blocks)]]


def _lifted_points(gr, R, which, spend):
    """A connected R that is not reduced: the same point set searched over
    its residue field R/m, m = nil, and each residue point rho lifted through
    the square-zero layers m^i/m^(i+1) of R.filtration(), one fibre per rho;
    the lifts of a node are spent before they are built."""
    A, n = gr.algebra, gr.algebra.dim
    T, to, terms, cells = _kernel(A, R)
    ring, _, section = R.nil_quotient()
    bar, _, bar_back = _indexed(ring)
    lifted = functools.cache(lambda x: to(section(bar_back(x))))
    F, (starts, basis, coords), back = A.field, R.filtration(), _indexed(R)[2]
    units = [to(u) for u in basis]
    scalars = {c: to(R.from_field(c)) for c in F.elements()}
    minus_one = to(R.neg(R.one))
    system = _derivations(A, tuple((l, j) for l in range(n) for j in range(n)
                                   if which == "aut" or gr.degrees[l] == gr.degrees[j]))
    zero, add, mul, scal = T.zero(), T.add, T.mul, T.scal
    ops = zero, T.is_zero, add   # structure_mul's and _image's, then mul and scal

    def times(rho, parts):
        # rho Delta, Delta the sum of the vec (x) u_t over (t, vec) in parts,
        # vec over the columns of the system; entries of T, flat by column
        delta = [[zero] * n for _ in range(n)]
        for t, vec in parts:
            for (l, j), v in zip(system[0], vec):
                delta[l][j] = add(delta[l][j], mul(scalars[v], units[t]))
        return tuple(x for col in zip(*linalg.mat_mul(T, rho, delta)) for x in col)

    def lift(nodes, i, rho, rho_inv):
        # the lifts modulo m^(i+1) of the layer-i nodes, points modulo m^i over
        # the residue point of rho, flat by column; E: the coordinates of rho^-1
        # times their residual phi(e_a) phi(e_b) - phi(e_a e_b), per (a, b, k)
        layer, children = range(starts[i], starts[i + 1]), []
        directions = [times(rho, [(t, v)]) for t in layer for v in system[2]]
        for phi in nodes:
            cols = [phi[j * n:(j + 1) * n] for j in range(n)]
            E = [coords(back(functools.reduce(add, map(mul, row, e))))
                 for a in range(n) for b in range(n)
                 for e in [[add(x, mul(minus_one, y)) for x, y in zip(
                     structure_mul(cells, cols[a], cols[b], *ops, mul, scal),
                     _image(terms[a][b], cols, *ops, scal))]] for row in rho_inv]
            if any(not F.is_zero(c) for x in E for c in x[:starts[i]]):
                raise MathIdentityError("a node at layer %d has a residual outside m^%d" % (i, i))
            parts = [(t, _back_substitute(F, system, [x[t] for x in E])) for t in layer]
            if all(x is not None for _, x in parts):
                spend(len(scalars) ** len(directions))
                children += _span(T, scalars.values(), directions,
                                  tuple(map(add, phi, times(rho, parts))))
        return children

    for shape, found in _points_by_shape(gr, ring, which, spend):
        fibres = []
        for rho in found:
            up, down = ([[lifted(x) for x in row] for row in M]
                        for M in (rho, ring_mat_inv(bar, rho)))
            nodes = [tuple(up[k][j] for j in range(n) for k in range(n))]
            for i in range(1, len(starts) - 1):
                nodes = lift(nodes, i, up, down)
            fibres.append([tuple(phi[k::n] for k in range(n)) for phi in nodes])
        yield shape, fibres
