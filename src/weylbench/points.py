"""Functor-of-points evaluation for the group schemes attached to a grading:
membership of a matrix over a test ring in Aut(A)(R), Stab(R), Diag(R),
Aut(grading)(R); the generic-element centralizer/normalizer tests; the
D(G)-image normalizer test with relation certificates; point enumeration.

The centralizer/normalizer functors quantify over all R-algebras; following
the structure theory they are decided at the single generic algebra RG and
cross-asserted against the direct block/permutation definitions on every
call, so any gap between the two characterizations raises MathIdentityError.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import abgroups, galg, linalg
from .comrings import GroupAlgebra, RingTable
from .errors import (
    CapExceededError,
    InputError,
    MathIdentityError,
    NotEnumerableError,
    OrderViolationError,
)
from .linalg import structure_mul


@dataclass(frozen=True)
class PointMatrix:
    algebra: object
    ring: object
    entries: tuple   # entries[k][j] in R; column j is the image of basis j

    def column(self, j):
        return [self.entries[k][j] for k in range(self.algebra.dim)]

    def to_str(self):
        R = self.ring
        rows = ["[" + ",".join(R.to_str(x) for x in row) + "]" for row in self.entries]
        return "[" + ",".join(rows) + "]"

    def sort_key(self):
        R = self.ring
        return tuple(R.sort_key(x) for row in self.entries for x in row)


def point_matrix(A, R, rows):
    entries = tuple(tuple(tuple(x) for x in row) for row in rows)
    if len(entries) != A.dim or any(len(r) != A.dim for r in entries):
        raise InputError("matrix must be %d x %d" % (A.dim, A.dim))
    return PointMatrix(A, R, entries)


def identity_point(A, R):
    return point_matrix(
        A, R,
        [[R.one if i == j else R.zero() for j in range(A.dim)] for i in range(A.dim)])


# ---------------------------------------------------------------------------
# matrices over a commutative ring


def ring_det(R, M):
    # cofactor expansion with memoized minors: no division, so it stays
    # exact over rings with zero divisors, where elimination cannot pivot;
    # R is a TestRing on elements or its RingTable on indices
    n = len(M)
    memo = {}

    def minor(r, cols):
        if r == n:
            return R.one
        key = (r, cols)
        if key in memo:
            return memo[key]
        acc = R.zero()
        sign = True
        for pos, c in enumerate(cols):
            entry = M[r][c]
            if not R.is_zero(entry):
                sub = minor(r + 1, cols[:pos] + cols[pos + 1:])
                term = R.mul(entry, sub)
                acc = R.add(acc, term if sign else R.neg(term))
            sign = not sign
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def ring_mat_inv(R, M):
    n = len(M)
    d = ring_det(R, M)
    d_inv = R.inv(d)  # raises InputError when det is not a unit
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != j]
            cols = [c for c in range(n) if c != i]
            sub = [[M[r][c] for c in cols] for r in rows]
            cof = ring_det(R, sub) if sub else R.one
            if (i + j) % 2:
                cof = R.neg(cof)
            out[i][j] = R.mul(d_inv, cof)
    return out


def algebra_mul_over_ring(A, R, x, y):
    """Product in A tensor R of coordinate vectors x, y over R."""
    return structure_mul(A.terms, x, y, R.zero(), R.is_zero, R.add, R.mul, R.scal)


def apply_point(phi, vec):
    """Apply phi to an F-coefficient vector of the algebra."""
    R = phi.ring
    n = phi.algebra.dim
    out = [R.zero()] * n
    for j, c in enumerate(vec):
        if phi.algebra.field.is_zero(c):
            continue
        for k in range(n):
            e = phi.entries[k][j]
            if not R.is_zero(e):
                out[k] = R.add(out[k], R.scal(c, e))
    return tuple(out)


# ---------------------------------------------------------------------------
# memberships


def automorphism_membership(phi):
    """det(phi) a unit and phi multiplicative on all basis pairs."""
    A, R = phi.algebra, phi.ring
    if not R.is_unit(ring_det(R, [list(r) for r in phi.entries])):
        return False
    cols = [phi.column(j) for j in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = apply_point(phi, A.table[i][j])
            rhs = algebra_mul_over_ring(A, R, cols[i], cols[j])
            if lhs != rhs:
                return False
    return True


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
    R = phi.ring
    if not R.is_unit(ring_det(R, [list(r) for r in phi.entries])):
        raise InputError("matrix is not invertible over R")
    n = gr.algebra.dim
    certs = []
    for e in R.idempotents():
        sigma = {}
        for g in gr.support:
            targets = set()
            for j in gr.components[g]:
                for k in range(n):
                    if not R.is_zero(R.mul(e, phi.entries[k][j])):
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
    if not automorphism_membership(phi):
        return False
    return block_permutations(gr, phi).ok


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


def character_point(gr, R, coords, values):
    """Diagonal point scaling component A_g by prod_i values[i]^coords[g][i];
    one scalar per support element."""
    chi = {}
    for g in gr.support:
        acc = R.one
        for c, v in zip(coords[g], values):
            if c:
                acc = R.mul(acc, R.pow_element(v, c) if c > 0 else
                            R.pow_element(R.inv(v), -c))
        chi[g] = acc
    n = gr.algebra.dim
    rows = [[R.zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = chi[gr.degrees[i]]
    return point_matrix(gr.algebra, R, rows)


def diag_points(gr, R, cap=10**6, cross_check=True):
    """Diag(R) as explicit matrices via characters of the universal group.
    A finite R with more than cap elements is refused before its units are
    scanned; cap also bounds the brute-force cross-check."""
    count = R.element_count()
    if count is not None and count > cap:
        raise CapExceededError("|R| = %d exceeds cap %d" % (count, cap))
    uni = galg.universal_group(gr)
    U = uni.group
    units = _unit_map_for(R, U)
    chars = abgroups.enumerate_characters(U, units)
    points = []
    for assign in chars:
        pt = character_point(gr, R, uni.deg_u, assign)
        if not automorphism_membership(pt):
            raise MathIdentityError("character point is not an automorphism")
        points.append(pt)
    points.sort(key=lambda p: p.sort_key())
    if cross_check and R.element_count() is not None:
        brute = _brute_diag_count(gr, R, cap)
        if brute is not None and brute != len(points):
            raise MathIdentityError(
                "diagonal point count %d != brute-force count %d"
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


def _brute_diag_count(gr, R, cap):
    """Independent oracle: iterate unit scalar assignments on the support and
    test the multiplicativity equations directly on the structure constants."""
    supp = list(gr.support)
    count = R.element_count()
    if count is None or count ** len(supp) > cap:
        return None
    units = list(R.unit_group())
    G = gr.group
    A = gr.algebra
    F = A.field
    # one scalar equation per nonzero structure cell
    cells = []
    for i in range(A.dim):
        for j in range(A.dim):
            if any(not F.is_zero(c) for c in A.table[i][j]):
                cells.append((gr.degrees[i], gr.degrees[j],
                              G.add(gr.degrees[i], gr.degrees[j])))
    cells = sorted(set(cells))
    total = 0
    for assign in itertools.product(units, repeat=len(supp)):
        scal = dict(zip(supp, assign))
        if all(R.mul(scal[g], scal[h]) == scal[gh] for (g, h, gh) in cells):
            total += 1
    return total


# ---------------------------------------------------------------------------
# generic-element tests over RG


def generic_psi(gr, R):
    """Diagonal operator over RG scaling component A_g by the group element g."""
    GA = GroupAlgebra(R, gr.group)
    n = gr.algebra.dim
    M = [[GA.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        M[i][i] = GA.monomial(R.one, gr.degrees[i])
    return M


def _ga_from_ring_matrix(GA, M):
    return [[GA.scalar(x) for x in row] for row in M]


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
    permutations direct, from one lift to RG: Phi Psi == Psi Phi must agree
    with the stabilizer test, and the conjugate Phi^-1 (Psi Phi) with direct."""
    R = phi.ring
    GA = GroupAlgebra(R, gr.group)
    Phi = _ga_from_ring_matrix(GA, phi.entries)
    Psi = generic_psi(gr, R)
    PsiPhi = linalg.mat_mul(GA, Psi, Phi)
    commute = linalg.mat_mul(GA, Phi, Psi) == PsiPhi
    if commute != _degree_preserving(gr, phi):
        raise MathIdentityError(
            "generic centralizer test disagrees with the stabilizer test")
    PhiInv = _ga_from_ring_matrix(GA, ring_mat_inv(R, phi.entries))
    scalars = _scalar_blocks_of(gr, GA, linalg.mat_mul(GA, PhiInv, PsiPhi))
    member = scalars is not None
    shifts = [(e, {g: _idempotent_cut(R, e, scalars[g]) for g in gr.support})
              for e in R.idempotents()] if member else []
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
    Built once per algebra and kept on A.enumeration_plan."""
    if A.enumeration_plan is not None:
        return A.enumeration_plan
    F = A.field
    n = A.dim
    supp = {}
    for i in range(n):
        for j in range(n):
            supp[(i, j)] = tuple(k for k in range(n)
                                 if not F.is_zero(A.table[i][j][k]))
    steps = []
    unknown = set(range(n))
    derived_from = set()
    while unknown:
        found = None
        for (i, jj) in sorted(supp):
            if i in unknown or jj in unknown or (i, jj) in derived_from:
                continue
            s = supp[(i, jj)]
            if len(s) == 1 and s[0] in unknown:
                k = s[0]
                found = ("derive", k, i, jj, F.inv(A.table[i][jj][k]))
                derived_from.add((i, jj))
                break
        if found is None:
            j = min(unknown)
            found = ("enum", j)
        steps.append(found)
        unknown.discard(found[1])
    stage_of = {col: s for s, step in enumerate(steps) for col in [step[1]]}
    checks = [[] for _ in steps]
    for (i, j), s in supp.items():
        if (i, j) in derived_from:
            continue
        need = {i, j} | set(s)
        stage = max(stage_of[c] for c in need)
        checks[stage].append((i, j))
    A.enumeration_plan = (steps, checks)
    return A.enumeration_plan


def _estimated_nodes(A, R):
    steps, _ = _enumeration_plan(A)
    count = R.element_count()
    if count is None:
        return None
    nodes = 1
    for step in steps:
        if step[0] == "enum":
            nodes *= count**A.dim
            if nodes > 10**12:
                return nodes
    return nodes


def enumerate_points(gr, R, which="aut", cap=10**8):
    """Exhaustive, deterministic list of points over a finite ring.

    which: 'aut' | 'stab' | 'autgamma'.  Each point set is searched in its own
    block shape (_points_by_shape), with constraint pruning and column
    derivation, and every survivor is re-verified exactly."""
    points = [p for _, found in _points_by_shape(gr, R, which, cap) for p in found]
    points.sort(key=lambda p: p.sort_key())
    return points


def _points_by_shape(gr, R, which, cap):
    """(shape, points) per searched shape.  A shape is one support
    permutation per primitive idempotent e of R, as position tuples over
    gr.support: 'aut' is the one unshaped search (the empty shape), 'stab'
    the all-identity shape, and 'autgamma' every tuple of admissible
    permutations: on each connected block eR a point of Aut Gamma induces
    one, which preserves the product pattern and is additive on it.  Each
    shaped point must carry block certificates equal to its shape.

    The schemes are affine, so a point over R = e1 R x ... x em R is a sum of
    block points, one per eR searched on its own, with their shapes
    concatenated.  On a connected R entry (k, j) is zero unless sigma sends
    deg j to deg k; if R is not reduced, each shape is searched once per
    point rho of the same set over the field R/nil, entry (k, j) confined to
    the class over rho[k][j].  The classes are cosets of nil, so each holds
    |R|/|R/nil| elements, and the nonempty fibres, over (shape, rho) in a
    block and over shapes in a product, are cosets of the kernel of
    reduction and shape, both homomorphisms, so they must all have one size."""
    A = gr.algebra
    nodes = _estimated_nodes(A, R)
    if nodes is None:
        raise NotEnumerableError("cannot enumerate points over an infinite ring")
    if nodes > cap:
        raise CapExceededError("estimated enumeration size %d exceeds cap %d"
                               % (nodes, cap))
    if which == "aut":
        shapes = [()]
    elif which == "stab":
        shapes = [(tuple(range(len(gr.support))),)]
    elif which == "autgamma":
        shapes = [(perm,) for perm in galg.admissible_permutations(gr)]
    else:
        raise InputError("unknown point set %r" % which)
    table = R.ring_table()
    steps, checks = _enumeration_plan(A)
    n = A.dim
    terms = tuple(tuple(tuple((k, table.index[R.from_field(c)]) for k, c in cell)
                        for cell in row) for row in A.terms)
    zero, add, mul, is_zero = table.zero(), table.add, table.mul, table.is_zero
    full, zero_only, fibre_sizes = range(len(table.elems)), {zero}, set()
    split = len(R.idempotents()) > 1
    if split:
        blocks = [R.block(e) for e in R.idempotents()]
        searches = [(sum((shape for shape, _ in found), ()),
                     itertools.product(*(block_points for _, block_points in found)))
                    for found in itertools.product(*(list(_points_by_shape(gr, ring, which, cap))
                                                     for ring, _, _ in blocks))]
    elif R.nil_quotient():
        ring, project, _ = R.nil_quotient()
        bar = ring.ring_table()
        fibres = [set() for _ in bar.elems]
        for x, elem in enumerate(table.elems):
            fibres[bar.index[project(elem)]].add(x)
        size = len(full) // len(fibres)
        if any(len(f) != size for f in fibres):
            raise MathIdentityError("residue classes have sizes %s, not |R|/|R/nil| = %d"
                                    % (sorted({len(f) for f in fibres}), size))
        searches = [(shape, [[[bar.index[x] for x in row] for row in p.entries] for p in found])
                    for shape, found in _points_by_shape(gr, ring, which, cap)]
    else:
        searches = [(shape, [None]) for shape in shapes]

    def product(x, y):
        return structure_mul(terms, x, y, zero, is_zero, add, mul, mul)

    def check_ok(cols, i, j):
        # phi(e_i e_j) == phi(e_i) phi(e_j) on table indices
        lhs = [zero] * n
        for k, c in terms[i][j]:
            for t, x in enumerate(cols[k]):
                if not is_zero(x):
                    lhs[t] = add(lhs[t], mul(x, c))
        return tuple(lhs) == product(cols[i], cols[j])

    def dfs(stage, cols):
        if stage == len(steps):
            rows = [[cols[j][k] for j in range(n)] for k in range(n)]
            if table.is_unit(ring_det(table, rows)):
                survivors.append([[table.elems[x] for x in row] for row in rows])
            return
        step = steps[stage]
        if step[0] == "enum":
            j = step[1]
            for cand in itertools.product(*cells[j]):
                cols[j] = cand
                if all(check_ok(cols, a, b) for (a, b) in checks[stage]):
                    dfs(stage + 1, cols)
            cols[j] = None
        else:
            _, k, i, jj, inv_c = step
            ic = table.index[R.from_field(inv_c)]
            cols[k] = tuple(mul(ic, x) for x in product(cols[i], cols[jj]))
            if (all(cols[k][t] in s for t, s in bounds[k])
                    and all(check_ok(cols, a, b) for (a, b) in checks[stage])):
                dfs(stage + 1, cols)
            cols[k] = None

    for shape, found in searches:
        certs = [(e, dict(zip(gr.support, (gr.support[i] for i in perm))))
                 for e, perm in zip(R.idempotents(), shape)]
        if split:   # one point per block, summed into R
            survivors = [[[functools.reduce(R.add, (inject(p.entries[k][j]) for (_, _, inject), p
                                                    in zip(blocks, parts)))
                           for j in range(n)] for k in range(n)] for parts in found]
            fibre_sizes.add(len(survivors))
        else:
            survivors = []
            for rho in found:
                cells = [[zero_only if certs and certs[0][1][gr.degrees[j]] != gr.degrees[k]
                          else full if rho is None else fibres[rho[k][j]]
                          for k in range(n)] for j in range(n)]
                bounds = [[(t, s) for t, s in enumerate(col) if s is not full]
                          for col in cells]
                before = len(survivors)
                dfs(0, [None] * n)
                fibre_sizes.add(len(survivors) - before)
        if len(fibre_sizes - {0}) > 1:
            raise MathIdentityError("point fibres have sizes %s, not one coset size"
                                    % sorted(fibre_sizes - {0}))
        points = []
        for rows in survivors:
            pt = point_matrix(A, R, rows)
            if not automorphism_membership(pt):
                raise MathIdentityError("fast enumeration produced a non-automorphism")
            if certs and block_permutations(gr, pt).certificates != certs:
                raise MathIdentityError(
                    "shaped enumeration point certifies another block permutation")
            points.append(pt)
        yield shape, points


# ---------------------------------------------------------------------------
# point-wise normalizer (for comparing with the scheme-level test)


def pointwise_normalizer(points, dpoints):
    """Elements of `points` normalizing the set `dpoints` by conjugation."""
    R = points[0].ring if points else None
    dset = {p.entries for p in dpoints}
    out = []
    for p in points:
        M = [list(r) for r in p.entries]
        Minv = ring_mat_inv(R, M)
        ok = True
        for d in dpoints:
            conj = linalg.mat_mul(R, linalg.mat_mul(R, M, d.entries), Minv)
            if tuple(tuple(r) for r in conj) not in dset:
                ok = False
                break
        if ok:
            out.append(p)
    return out
