"""Weyl groups of gradings: admissible support permutations, the exact thin
solver (closure mode needs no root extraction, only base-field arithmetic),
rational-point Weyl groups, and exact-sequence checks at points.

A grading is thin when every nonzero component is 1-dimensional; then every
point of the grading automorphism scheme over a field is monomial, and the
multiplicativity conditions become a system of monomial equations in the
component scalars, solved by Smith reduction of the exponent lattice.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import points as pts
from .abgroups import smith_normal_form
from .comrings import base_field_ring
from .errors import (
    CapExceededError,
    InputError,
    MathIdentityError,
    NonThinError,
    UnknownSolvabilityError,
)
from .scalars import RootResult, count_dth_roots, dth_root


# ---------------------------------------------------------------------------
# permutations of the support (tuples: position i -> position p[i])


def perm_identity(n):
    return tuple(range(n))


def perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def close_permutations(perms, n):
    out = set(perms)
    out.add(perm_identity(n))
    frontier = list(out)
    while frontier:
        p = frontier.pop()
        for q in list(out) + [perm_inverse(p)]:
            for r in (perm_compose(p, q), perm_compose(q, p), perm_inverse(p)):
                if r not in out:
                    out.add(r)
                    frontier.append(r)
    return out


@dataclass(frozen=True)
class PermGroup:
    support: tuple    # sorted support labels (group elements)
    elements: tuple   # sorted permutation tuples
    generators: tuple

    @property
    def order(self):
        return len(self.elements)

    def perm_str(self, p):
        labels = [self.support[i] for i in range(len(p))]
        return cycles_str(p, labels, self._label_str)

    def _label_str(self, label):
        if len(label) == 0:
            return "0"
        if len(label) == 1:
            return str(label[0])
        return "(" + ",".join(str(c) for c in label) + ")"

    def generators_str(self):
        return ",".join(self.perm_str(p) for p in self.generators)


def cycles_str(p, labels, label_str):
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append("(" + " ".join(label_str(labels[k]) for k in cyc) + ")")
    return "".join(out) if out else "()"


def perm_group_from(element_set, support):
    n = len(support)
    elements = sorted(set(element_set))
    for p in elements:
        if perm_inverse(p) not in element_set:
            raise MathIdentityError("permutation set is not closed under inverse")
        for q in elements:
            if perm_compose(p, q) not in element_set:
                raise MathIdentityError("permutation set is not closed under product")
    gens = []
    have = {perm_identity(n)}
    for p in elements:
        if p in have:
            continue
        gens.append(p)
        have = close_permutations(have | {p}, n)
        if len(have) == len(elements):
            break
    return PermGroup(tuple(support), tuple(elements), tuple(gens))


# ---------------------------------------------------------------------------
# admissible permutations and the thin constraint system


def admissible_permutations(gr):
    """Support permutations preserving component dimensions and the zero
    pattern, and additive on the product pattern."""
    supp = list(gr.support)
    n = len(supp)
    index = {g: i for i, g in enumerate(supp)}
    pat = set(gr.pattern)
    G = gr.group
    out = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for i, g in enumerate(supp):
            if gr.component_dim(g) != gr.component_dim(supp[perm[i]]):
                ok = False
                break
        if not ok:
            continue
        sigma = {g: supp[perm[index[g]]] for g in supp}
        for g in supp:
            for h in supp:
                if ((g, h) in pat) != ((sigma[g], sigma[h]) in pat):
                    ok = False
                    break
                if (g, h) in pat:
                    if sigma[G.add(g, h)] != G.add(sigma[g], sigma[h]):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(perm)
    return out


@dataclass
class ThinSystem:
    sigma: tuple          # permutation tuple over the sorted support
    support: tuple
    rows: list            # exponent rows over the unknown scalars
    consts: list          # nonzero field constants, one per row
    reduced: list         # [(d_i, c_i)] power equations after Smith reduction
    V: list               # unimodular change of unknowns
    field: object


def _component_constant(gr, g, h):
    """Scalar c with x_g * x_h = c * x_{g+h} for a thin grading."""
    A, G = gr.algebra, gr.group
    i = gr.components[g][0]
    j = gr.components[h][0]
    k = gr.components[G.add(g, h)][0]
    return A.table[i][j][k]


def thin_constraints(gr, sigma):
    """One monomial constraint per product pair: the scalars of a monomial
    map phi(x_g) = lambda_g x_{sigma(g)} must satisfy
    lambda_g lambda_h c(sigma g, sigma h) = c(g, h) lambda_{g h}."""
    if not gr.is_thin():
        raise NonThinError("constraint system needs a thin grading")
    supp = list(gr.support)
    index = {g: i for i, g in enumerate(supp)}
    smap = {g: supp[sigma[index[g]]] for g in supp}
    F = gr.algebra.field
    G = gr.group
    rows, consts = [], []
    for (g, h) in gr.pattern:
        row = [0] * len(supp)
        row[index[g]] += 1
        row[index[h]] += 1
        row[index[G.add(g, h)]] -= 1
        c = F.div(_component_constant(gr, g, h),
                  _component_constant(gr, smap[g], smap[h]))
        rows.append(row)
        consts.append(c)
    reduced, V = _smith_reduce(F, rows, consts, len(supp))
    return ThinSystem(tuple(sigma), tuple(supp), rows, consts, reduced, V, F)


def _smith_reduce(F, rows, consts, s):
    if not rows:
        return [], [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    D, U, V = smith_normal_form(rows)
    m = len(rows)
    reduced = []
    for i in range(m):
        d = D[i][i] if i < min(m, s) else 0
        c = F.one()
        for l, u in enumerate(U[i]):
            if u:
                c = F.mul(c, F.pow(consts[l], u))
        reduced.append((d, c))
    return reduced, V


@dataclass
class SolveResult:
    status: str                 # 'solvable' | 'unsolvable' | 'unknown'
    witness: dict = None        # support label -> field scalar
    obstruction: tuple = None   # (d, c) of the failing power equation


def thin_solve(system, mode="closure"):
    """closure: solvability over an algebraic closure (after reduction, only
    zero-exponent equations with constant != 1 obstruct).  field: decided via
    d-th root extraction over the grading's own field."""
    F = system.field
    if mode == "closure":
        for d, c in system.reduced:
            if d == 0 and not F.eq(c, F.one()):
                return SolveResult("unsolvable", obstruction=(d, c))
        return SolveResult("solvable")
    if mode != "field":
        raise InputError("mode must be closure or field")
    s = len(system.support)
    mu = [F.one()] * s
    for i, (d, c) in enumerate(system.reduced):
        if d == 0:
            if not F.eq(c, F.one()):
                return SolveResult("unsolvable", obstruction=(d, c))
            continue
        res = dth_root(F, c, d)
        if res.status == RootResult.NO_SOLUTION:
            return SolveResult("unsolvable", obstruction=(d, c))
        if res.status == RootResult.UNKNOWN:
            return SolveResult("unknown", obstruction=(d, c))
        if i < s:
            mu[i] = res.witness
    witness = {}
    for j, g in enumerate(system.support):
        acc = F.one()
        for t in range(s):
            e = system.V[j][t]
            if e:
                acc = F.mul(acc, F.pow(mu[t], e))
        witness[g] = acc
    _verify_thin_witness(system, witness, F)
    return SolveResult("solvable", witness=witness)


def _verify_thin_witness(system, witness, F):
    for row, c in zip(system.rows, system.consts):
        acc = F.one()
        for e, g in zip(row, system.support):
            if e:
                acc = F.mul(acc, F.pow(witness[g], e))
        if not F.eq(acc, c):
            raise MathIdentityError("thin witness does not satisfy the raw system")


def thin_solution_count(system, F):
    """Number of scalar solutions over F; None when infinite or undecidable."""
    s = len(system.support)
    constrained = set()
    total = 1
    for i, (d, c) in enumerate(system.reduced):
        if d == 0:
            if not F.eq(c, F.one()):
                return 0
            continue
        cnt = count_dth_roots(F, c, d)
        if cnt is None:
            return None
        if cnt == 0:
            return 0
        total *= cnt
        if i < s:
            constrained.add(i)
    free = s - len(constrained)
    if free:
        q = F.cardinality()
        if q is None:
            return None
        total *= (q - 1) ** free
    return total


# ---------------------------------------------------------------------------
# Weyl groups


def weyl_closure(gr):
    """The constant Weyl group scheme value: admissible permutations whose
    thin system solves over the algebraic closure."""
    if not gr.is_thin():
        raise NonThinError(
            "closure-mode Weyl groups are computed for thin gradings only")
    solvable = []
    for sigma in admissible_permutations(gr):
        system = thin_constraints(gr, sigma)
        if thin_solve(system, "closure").status == "solvable":
            solvable.append(tuple(sigma))
    return perm_group_from(set(solvable), gr.support)


def weyl_over_field(gr, cap=10**8):
    """Image of the grading automorphisms over the base field in Sym(supp)."""
    if gr.is_thin():
        solvable = []
        for sigma in admissible_permutations(gr):
            system = thin_constraints(gr, sigma)
            res = thin_solve(system, "field")
            if res.status == "unknown":
                raise UnknownSolvabilityError(
                    "cannot decide rational solvability for a permutation")
            if res.status == "solvable":
                solvable.append(tuple(sigma))
        return perm_group_from(set(solvable), gr.support)
    F = gr.algebra.field
    if not F.is_finite():
        raise NonThinError(
            "non-thin Weyl groups need a finite base field for enumeration")
    return _weyl_from_field_points(gr, cap)[2]


def _weyl_from_field_points(gr, cap):
    """(points, perms, W(F)): the points of Aut Gamma over the base field, the
    support permutation of each, read from its one block certificate (a
    field has one block), and the group W(F) of those permutations."""
    points = pts.enumerate_points(gr, base_field_ring(gr.algebra.field), "autgamma", cap=cap)
    index = {g: i for i, g in enumerate(gr.support)}
    perms = []
    for p in points:
        cert = pts.block_permutations(gr, p)
        if not cert.ok or len(cert.certificates) != 1:
            raise MathIdentityError("field point without a unique permutation")
        sigma = cert.certificates[0][1]
        perms.append(tuple(index[sigma[g]] for g in gr.support))
    return points, perms, perm_group_from(set(perms), gr.support)


def monomial_point(gr, system, witness, R):
    """PointMatrix over R for a thin monomial solution (scalars in the base)."""
    n = gr.algebra.dim
    supp = list(system.support)
    index = {g: i for i, g in enumerate(supp)}
    rows = [[R.zero()] * n for _ in range(n)]
    for g in supp:
        j = gr.components[g][0]
        target = supp[system.sigma[index[g]]]
        k = gr.components[target][0]
        rows[k][j] = R.from_field(witness[g])
    return pts.point_matrix(gr.algebra, R, rows)


@dataclass
class SesReport:
    aut_count: object
    stab_count: object
    weyl_order: int
    product_ok: bool
    weyl_in_closure: bool
    verified_field_ok: bool = None


def ses_check(gr, cap=10**8):
    """Kernel-image count |Aut| = |Stab| * |W| at base-field points, plus the
    containment of the rational Weyl group in the closure Weyl group."""
    F = gr.algebra.field
    if gr.is_thin():
        aut = 0
        stab = None
        w = weyl_over_field(gr)
        for sigma in admissible_permutations(gr):
            system = thin_constraints(gr, sigma)
            cnt = thin_solution_count(system, F)
            if cnt is None:
                raise CapExceededError("infinite point counts in the exact sequence")
            aut += cnt
            if tuple(sigma) == perm_identity(len(gr.support)):
                stab = cnt
    else:
        if not F.is_finite():
            raise CapExceededError("non-thin exact-sequence check needs a finite field")
        points, perms, w = _weyl_from_field_points(gr, cap)
        aut = len(points)
        stab = sum(1 for p in points if pts.stab_membership(gr, p))
        # exactness: every sigma in W(F) has exactly |Stab(F)| preimages
        if set(Counter(perms).values()) != {stab}:
            raise MathIdentityError("a Weyl group element has other than |Stab| preimages")
    closure = weyl_closure(gr) if gr.is_thin() else None
    in_closure = True
    if closure is not None:
        in_closure = set(w.elements) <= set(closure.elements)
    return SesReport(aut, stab, w.order, aut == stab * w.order, in_closure)
