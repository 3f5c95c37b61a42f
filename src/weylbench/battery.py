"""Cross-assertion battery: on a set of automorphism points over a test ring,
run the generic centralizer test against the direct stabilizer test and the
generic normalizer test against the intersection definition.  Any mismatch
raises MathIdentityError from inside the membership functions themselves.

Small point groups are enumerated exhaustively; large or infinite ones are
sampled from built candidates (diagonal characters, monomial witnesses,
base-field points, blockwise mixes, random invertibles where all products in
A vanish), each distinct one verified once, by _sampled_points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import galg, linalg, points as pts, weyl
from .comrings import RingTable, base_field_ring
from .errors import (
    FactorizationIncompleteError,
    MathIdentityError,
    NotEnumerableError,
)

# Enumerate a point group when _enumerable(gr, R, ENUM_BUDGET); keep it whole
# up to POINT_CAP points, else stride-sample it.  Groups that are not
# enumerated are sampled towards SAMPLE_TARGET points.
ENUM_BUDGET = 200_000
POINT_CAP = 384
SAMPLE_TARGET = 110
# Sizes of the sample's sources, read by the helpers of _sampled_points.
DIAG_FULL_CAP = 1500
DIAG_KEEP = 64
TORSION_CAP = 96
RANDOM_UNITS = 4
RANDOM_INVERTIBLES = 40
BASE_FIELD_BUDGET = 20_000
BLOCKWISE_COMBINATIONS = 48


@dataclass
class BatteryResult:
    mode: str              # 'enumerated' | 'sampled'
    evaluations: int
    distinct_points: int
    cent_checked: int
    norm_checked: int
    warn_nonsmooth: bool


def diag_scheme_nonsmooth(gr):
    """True when the diagonal scheme has infinitesimal points: the base-field
    characteristic divides a torsion order of the universal group."""
    p = gr.algebra.field.characteristic()
    if p == 0:
        return False
    U = galg.universal_group(gr).group
    return any(d % p == 0 for d in U.torsion)


def theorem_battery(gr, R, seed=0x5EED):
    points, mode, evaluations = battery_points(gr, R, seed)
    warn = False
    nonsmooth = None
    checked = 0
    for p in points:   # each already verified by battery_points
        in_stab, res = pts._generic_tests(gr, p, pts.block_permutations(gr, p))
        checked += 1
        if res.member and not in_stab:
            if nonsmooth is None:
                nonsmooth = diag_scheme_nonsmooth(gr)
            if nonsmooth:
                warn = True
    return BatteryResult(mode, evaluations, len(points), checked, checked, warn)


def _enumerable(gr, R, budget):
    """The battery's rule for enumerating Aut(A)(R): R finite, within the
    table size, and |R|^(dim A * the enum steps of A's enumeration plan) at
    most budget.  The table size is the battery's own bound: the search runs
    past it on a product or local ring, but the battery samples such rings,
    which keeps every battery mode; a field past it cannot be searched."""
    count, (steps, _) = R.element_count(), pts._enumeration_plan(gr.algebra)
    enums = sum(step[0] == "enum" for step in steps)
    return (count is not None and count <= RingTable.MAX_ELEMENTS
            and count ** (gr.algebra.dim * enums) <= budget)


def battery_points(gr, R, seed=0x5EED):
    """(distinct automorphism points, mode, evaluation count).

    Full enumeration when _enumerable at ENUM_BUDGET and the point group is
    small; very large point groups are stride-sampled from the enumeration."""
    if _enumerable(gr, R, ENUM_BUDGET):
        enumerated = pts.enumerate_points(gr, R, "aut")
        if len(enumerated) <= POINT_CAP:
            return enumerated, "enumerated", len(enumerated)
        stride = max(1, len(enumerated) // max(SAMPLE_TARGET, 128))
        sampled = enumerated[::stride]
        return sampled, "sampled", len(sampled)
    sampled = _sampled_points(gr, R, seed)
    return sampled, "sampled", max(SAMPLE_TARGET, len(sampled))


def _sampled_points(gr, R, seed):
    """Candidates from the sources below, closed under a few products; the
    sources and products only build them, and each distinct one is verified
    once, here."""
    rng = random.Random(seed)
    A = gr.algebra
    sources = [pts.identity_point(A, R), *_diagonal_sample(gr, R, rng),
               *_monomial_sample(gr, R), *_base_field_sample(gr, R)]
    if _all_products_zero(A):
        sources += _random_invertibles(gr, R, rng)
    pool = _blockwise_combinations(gr, R, {p.entries for p in sources}, rng)

    base = sorted(pool)
    seen = set(pool)
    products = 0
    while len(seen) < SAMPLE_TARGET and products < 4 * SAMPLE_TARGET and len(base) > 1:
        prod = linalg.mat_mul(R, rng.choice(base), rng.choice(base))
        ent = tuple(tuple(r) for r in prod)
        products += 1
        if ent not in seen:
            seen.add(ent)
            base.append(ent)
    out = [pts.PointMatrix(A, R, e) for e in sorted(seen)]
    for p in out:
        if not pts.automorphism_membership(p):
            raise MathIdentityError("sampled point is not an automorphism")
    return out


def _all_products_zero(A):
    F = A.field
    return all(F.is_zero(c) for row in A.table for cell in row for c in cell)


def _diagonal_sample(gr, R, rng):
    """Unverified diagonal candidates: over a ring of at most DIAG_FULL_CAP
    elements, DIAG_KEEP strided from sorted_characters, only those built."""
    count = R.element_count()
    if count is not None and count <= DIAG_FULL_CAP:
        try:
            uni, chars = pts.sorted_characters(gr, R)
        except (NotEnumerableError, FactorizationIncompleteError):
            return []
        kept = chars[::max(1, len(chars) // DIAG_KEEP)][:DIAG_KEEP]
        return [pts.character_point(gr, R, uni.deg_u, assign) for assign in kept]
    # large or infinite ring: torsion units cover torsion generators of the
    # universal group; free generators get a few random units
    uni = galg.universal_group(gr)
    U = uni.group
    torsion_units = _torsion_units(R)
    pools = []
    for d in U.generator_orders():
        if d:
            pools.append([u for u in torsion_units
                          if R.pow_element(u, d) == R.one])
        else:
            pools.append(_random_units(R, rng))
    assigns = [[]]
    for pool in pools:
        assigns = [a + [v] for a in assigns for v in pool]
        if len(assigns) > 64:
            assigns = assigns[:64]
    return [pts.character_point(gr, R, uni.deg_u, assign) for assign in assigns]


def _torsion_units(R):
    """Finite-order units found structurally: the closure of +-1 and the
    group-algebra monomials, {+-g}, each of order dividing 2 exp G."""
    seeds = {R.one, R.neg(R.one)}
    basis = getattr(R, "group_basis", None)
    if basis is not None:
        for idx in range(len(basis)):
            vec = [R.field.zero()] * R.dim
            vec[idx] = R.field.one()
            seeds.add(tuple(vec))
    closed = set(seeds)
    frontier = list(seeds)
    while frontier and len(closed) < TORSION_CAP:
        x = frontier.pop()
        for y in list(closed):
            z = R.mul(x, y)
            if z not in closed:
                closed.add(z)
                frontier.append(z)
    return sorted(closed)


def _random_units(R, rng):
    out = []
    tries = 0
    while len(out) < RANDOM_UNITS and tries < 60:
        tries += 1
        vec = tuple(R.field.random_element(rng, 5) for _ in range(R.dim))
        if R.is_unit(vec) and vec not in out:
            out.append(vec)
    if R.one not in out:
        out.append(R.one)
    return out


def _monomial_sample(gr, R):
    """Monomial witnesses from the thin solver over the base field."""
    if not gr.is_thin():
        return []
    return [weyl.monomial_point(gr, t.system, t.witness, R)
            for t in weyl.thin_systems(gr) if t.status == "solvable"]


def _base_field_sample(gr, R):
    """Automorphism points over the base field embedded into R."""
    base = base_field_ring(gr.algebra.field)
    if not _enumerable(gr, base, BASE_FIELD_BUDGET):
        return []
    out = []
    for p in pts.enumerate_points(gr, base, "aut")[:64]:
        rows = [[R.from_field(x[0]) for x in row] for row in p.entries]
        out.append(pts.point_matrix(gr.algebra, R, rows))
    return out


def _random_invertibles(gr, R, rng):
    """Random matrices with a unit determinant: the points, when every product
    in A is zero."""
    A = gr.algebra
    n = A.dim
    out = []
    tries = 0
    while len(out) < RANDOM_INVERTIBLES and tries < 10 * RANDOM_INVERTIBLES:
        tries += 1
        rows = [[tuple(R.field.random_element(rng, 5) for _ in range(R.dim))
                 for _ in range(n)] for _ in range(n)]
        if R.is_unit(pts.ring_det(R, rows)):
            out.append(pts.point_matrix(A, R, rows))
    return out


def _blockwise_combinations(gr, R, pool, rng):
    """For disconnected R, mix pool points blockwise: sum of e_i * p_i."""
    idems = R.idempotents()
    if len(idems) < 2 or len(pool) < 2:
        return pool
    base = sorted(pool)
    out = set(pool)
    n = gr.algebra.dim
    for _ in range(BLOCKWISE_COMBINATIONS):
        acc = [[R.zero()] * n for _ in range(n)]
        for e in idems:
            choice = rng.choice(base)
            for i in range(n):
                for j in range(n):
                    acc[i][j] = R.add(acc[i][j], R.mul(e, choice[i][j]))
        out.add(tuple(tuple(r) for r in acc))
    return out
