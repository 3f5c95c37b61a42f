"""Weyl groups of gradings: admissible support permutations, the exact thin
solver, rational-point Weyl groups, and exact-sequence checks at points.

A grading is thin when every nonzero component is 1-dimensional; then every
point of the grading automorphism scheme over a field is monomial, and the
multiplicativity conditions become a system of monomial equations in the
component scalars, solved by Smith reduction of the exponent lattice.  Over
each admissible sigma the solutions are empty or a torsor under the diagonal
group, so one solved system per sigma gives the closure Weyl group, W(F) and
the size of every fibre of Aut -> W.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import points as pts
from .comrings import base_field_ring
from .errors import (
    CapExceededError,
    MathIdentityError,
    NonThinError,
    UnknownSolvabilityError,
)
from .galg import admissible_permutations, universal_group
from .scalars import RootResult, dth_root


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

    def generators_str(self):
        return ",".join(cycles_str(p, self.support) for p in self.generators)


def label_str(label):
    """A support label (a group element as a coordinate tuple) as printed."""
    if len(label) == 0:
        return "0"
    if len(label) == 1:
        return str(label[0])
    return "(" + ",".join(str(c) for c in label) + ")"


def cycles_str(p, labels):
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
# the thin constraint system


@dataclass
class ThinSystem:
    sigma: tuple          # permutation tuple over the sorted support
    support: tuple
    rows: tuple           # exponent rows over the unknown scalars (universal group's)
    consts: list          # nonzero field constants, one per row
    reduced: list         # [(d_i, c_i)] power equations after Smith reduction
    V: list               # unimodular change of unknowns
    field: object


@dataclass
class SolveResult:
    system: ThinSystem
    closure: bool               # solvable over an algebraic closure
    status: str                 # over the field: 'solvable' | 'unsolvable' | 'unknown'
    count: object = None        # solutions over the field; None when infinite or undecided
    witness: dict = None        # support label -> field scalar

    @property
    def sigma(self):
        return self.system.sigma


def _component_constant(gr, g, h):
    """Scalar c with x_g * x_h = c * x_{g+h} for a thin grading."""
    A, G = gr.algebra, gr.group
    i = gr.components[g][0]
    j = gr.components[h][0]
    k = gr.components[G.add(g, h)][0]
    return A.table[i][j][k]


def thin_systems(gr):
    """One solved system per admissible permutation sigma, kept on the grading.

    The scalars of a monomial map phi(x_g) = lambda_g x_{sigma(g)} must satisfy
    lambda_g lambda_h c(sigma g, sigma h) = c(g, h) lambda_{g h} on each product
    pair: the universal group's relation rows with constants that depend on
    sigma.  The Smith form of those rows, kept on the universal group,
    reduces every system to power equations mu_i^(d_i) = c_i."""
    if gr.thin is None:
        if not gr.is_thin():
            raise NonThinError("constraint system needs a thin grading")
        F, supp, uni = gr.algebra.field, gr.support, universal_group(gr)
        D, U, V = uni.snf[:3]
        diag = [D[i][i] if i < len(supp) else 0 for i in range(len(D))]
        systems = []
        for sigma in admissible_permutations(gr):
            smap = {g: supp[sigma[i]] for i, g in enumerate(supp)}
            consts = [F.div(_component_constant(gr, g, h),
                            _component_constant(gr, smap[g], smap[h]))
                      for (g, h) in gr.pattern]
            reduced = [(d, _monomial(F, consts, u)) for d, u in zip(diag, U)]
            systems.append(thin_solve(
                ThinSystem(tuple(sigma), supp, uni.rows, consts, reduced, V, F)))
        gr.thin = tuple(systems)
    return gr.thin


def _monomial(F, values, exponents):
    acc = F.one()
    for x, e in zip(values, exponents):
        if e:
            acc = F.mul(acc, F.pow(x, e))
    return acc


def thin_solve(system):
    """Solve one reduced system once.  Over an algebraic closure only a
    zero-exponent equation with constant != 1 obstructs; over the system's
    own field each mu_i^(d_i) = c_i needs a d_i-th root.  A witness is
    checked against the raw system, and the count of solutions over the field
    is the product of the root counts times (q - 1) per free unknown."""
    F = system.field
    for d, c in system.reduced:
        if d == 0 and c != F.one():
            return SolveResult(system, False, "unsolvable", 0)
    s = len(system.support)
    mu = [F.one()] * s
    count, free = 1, s
    for i, (d, c) in enumerate(system.reduced):
        if d == 0:
            continue
        res = dth_root(F, c, d)
        if res.status == RootResult.NO_SOLUTION:
            return SolveResult(system, True, "unsolvable", 0)
        if res.status == RootResult.UNKNOWN:
            return SolveResult(system, True, "unknown")
        mu[i] = res.witness
        count = None if count is None or res.count is None else count * res.count
        free -= 1
    if free and count is not None:
        q = F.cardinality()
        count = None if q is None else count * (q - 1) ** free
    lam = [_monomial(F, mu, V_row) for V_row in system.V]
    for row, c in zip(system.rows, system.consts):
        if _monomial(F, lam, row) != c:
            raise MathIdentityError("thin witness does not satisfy the raw system")
    return SolveResult(system, True, "solvable", count, dict(zip(system.support, lam)))


# ---------------------------------------------------------------------------
# Weyl groups


def weyl_closure(gr):
    """The constant Weyl group scheme value: admissible permutations whose
    thin system solves over the algebraic closure."""
    if not gr.is_thin():
        raise NonThinError(
            "closure-mode Weyl groups are computed for thin gradings only")
    return perm_group_from({t.sigma for t in thin_systems(gr) if t.closure}, gr.support)


def field_fibres(gr, cap=pts.DEFAULT_CAP):
    """{sigma: fibre size, or None where it is infinite}: the points of
    Aut Gamma over the base field counted per support permutation sigma,
    over the sigma with a nonempty fibre, which make up W(F).  A thin grading
    reads them off its solved systems; any other is searched by shape over
    the base field (a field has one block), at most cap nodes."""
    if gr.is_thin():
        systems = thin_systems(gr)
        if any(t.status == "unknown" for t in systems):
            raise UnknownSolvabilityError(
                "cannot decide rational solvability for a permutation")
        return {t.sigma: t.count for t in systems if t.status == "solvable"}
    F = gr.algebra.field
    if not F.is_finite():
        raise NonThinError(
            "non-thin Weyl groups need a finite base field for enumeration")
    return {sigma: len(found) for (sigma,), found in pts._points_by_shape(
        gr, base_field_ring(F), "autgamma", pts.node_budget(cap)) if found}


def weyl_over_field(gr, cap=pts.DEFAULT_CAP):
    """Image of the grading automorphisms over the base field in Sym(supp)."""
    return perm_group_from(set(field_fibres(gr, cap)), gr.support)


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


def ses_check(gr, cap=pts.DEFAULT_CAP):
    """Kernel-image count |Aut| = |Stab| * |W| at base-field points, with
    exactness in the middle (every sigma in W(F) has exactly |Stab(F)|
    preimages), plus the containment of the rational Weyl group in the
    closure Weyl group.  |Stab(F)| is the fibre over sigma = id: a field has
    one idempotent, so the shaped `stab` search is that fibre's search."""
    fibres = field_fibres(gr, cap)
    if None in fibres.values():
        raise CapExceededError("infinite point counts in the exact sequence")
    w = perm_group_from(set(fibres), gr.support)
    stab = fibres.get(perm_identity(len(gr.support)))
    if set(fibres.values()) != {stab}:
        raise MathIdentityError("a Weyl group element has other than |Stab| preimages")
    aut = sum(fibres.values())
    in_closure = not gr.is_thin() or set(w.elements) <= set(weyl_closure(gr).elements)
    return SesReport(aut, stab, w.order, aut == stab * w.order, in_closure)
