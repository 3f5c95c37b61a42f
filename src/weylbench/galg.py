"""Finite-dimensional nonassociative algebras by structure constants and
gradings given as degree labelings of a homogeneous basis.

No axioms are imposed on the multiplication (not even associativity); the
grading axiom A_g * A_h inside A_{g+h} is verified directly on basis pairs,
and independently through the generic character (multiplicativity of the
degree-twist operator on A tensor FG); the two must agree.  algebra_over is
the one map of structure constants into another field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .abgroups import FGAbelianGroup, Presentation, group_from_presentation
from .comrings import GroupAlgebra, base_field_ring
from .errors import GradingAxiomError, InputError, MathIdentityError
from .linalg import compile_product


class Algebra:
    """Structure-constant algebra over an ExactField; no symmetry assumed."""

    def __init__(self, fld, table, basis_names=None, label=None):
        self.field = fld
        self.dim = len(table)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        for row in self.table:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise InputError("structure constant dimensions inconsistent")
        self.terms, self._product, _ = compile_product(fld, self.table)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            "b%d" % i for i in range(self.dim))
        self.label = label or "algebra"
        self.enumeration_plan = None  # points._enumeration_plan, built on first use
        self.derivations = {}         # points._derivations, per column set

    def mul(self, x, y):
        return self._product(x, y)

    def __repr__(self):
        return "Algebra(%s, dim=%d)" % (self.label, self.dim)


def build_algebra(F, n, table, basis_names=None, label=None):
    if len(table) != n:
        raise InputError("table size does not match the declared dimension")
    return Algebra(F, table, basis_names, label)


@dataclass
class Grading:
    algebra: Algebra
    group: FGAbelianGroup
    degrees: tuple                    # one group element per basis index
    components: dict = field(init=False)   # g -> tuple of basis indices
    support: tuple = field(init=False)     # sorted support elements
    pattern: tuple = field(init=False)     # sorted (g, h) with A_g A_h != 0
    label: str = "grading"
    universal: object = field(default=None, init=False, repr=False, compare=False)
    thin: object = field(default=None, init=False, repr=False, compare=False)  # weyl.thin_systems

    def __post_init__(self):
        comp = {}
        for i, g in enumerate(self.degrees):
            comp.setdefault(g, []).append(i)
        self.components = {g: tuple(idx) for g, idx in comp.items()}
        self.support = tuple(sorted(self.components))
        self.pattern = tuple(sorted(_nonzero_pairs(self)))

    def component_dim(self, g):
        return len(self.components.get(g, ()))

    def is_thin(self):
        return all(len(ix) == 1 for ix in self.components.values())


def _nonzero_pairs(gr):
    terms, comps = gr.algebra.terms, gr.components.items()
    return {(g, h) for g, gi in comps for h, hi in comps
            if any(terms[i][j] for i in gi for j in hi)}


def grading_axiom_witness(A, G, labels):
    """None if labels define a grading; else a witness (i, j, k)."""
    labels = [G.reduce(l) for l in labels]
    for i in range(A.dim):
        for j in range(A.dim):
            target = G.add(labels[i], labels[j])
            for k, _ in A.terms[i][j]:
                if labels[k] != target:
                    return (i, j, k)
    return None


def build_grading(A, G, labels, label=None):
    if len(labels) != A.dim:
        raise InputError("need one degree label per basis vector")
    witness = grading_axiom_witness(A, G, labels)
    if witness is not None:
        i, j, k = witness
        raise GradingAxiomError(
            witness,
            "product %s*%s hits %s outside the expected component"
            % (A.basis_names[i], A.basis_names[j], A.basis_names[k]))
    if not verify_grading_generic(A, G, labels):
        raise MathIdentityError("the generic character refutes a grading the "
                                "basis-pair check accepts")
    return Grading(A, G, tuple(G.reduce(l) for l in labels), label=label or "grading")


def verify_grading_generic(A, G, labels):
    """Check the grading axiom through the generic character: the operator
    x_i -> x_i * deg(i) on A tensor FG is multiplicative iff labels grade A."""
    labels = [G.reduce(l) for l in labels]
    R = base_field_ring(A.field)
    GA = GroupAlgebra(R, G)
    F = A.field
    n = A.dim

    def psi_of_vector(vec_ga):
        return [GA.mul(vec_ga[k], GA.monomial(R.one, labels[k])) for k in range(n)]

    for i in range(n):
        for j in range(n):
            prod = A.table[i][j]
            prod_ga = [GA.scalar(R.from_field(prod[k])) for k in range(n)]
            lhs = psi_of_vector(prod_ga)
            shift = GA.monomial(R.one, G.add(labels[i], labels[j]))
            rhs = [GA.mul(prod_ga[k], shift) for k in range(n)]
            if lhs != rhs:
                return False
    return True


@dataclass
class UniversalGroup:
    group: FGAbelianGroup
    deg_u: dict        # support element (in G) -> element of U
    fold: object       # callable U element -> G element
    regraded: Grading  # same algebra regraded by U
    rows: tuple        # relation rows over the support, one per pair of gr.pattern
    snf: tuple         # their Smith form, abgroups.smith_normal_form


def universal_group(gr):
    """Free abelian group on the support modulo one relation per product pair,
    with the relabeling and the fold map back to G.  Computed and checked
    once per grading, then kept on it."""
    if gr.universal is None:
        gr.universal = _universal_group(gr)
    return gr.universal


def _universal_group(gr):
    supp = list(gr.support)
    index = {g: i for i, g in enumerate(supp)}
    G = gr.group
    rows = []
    for (g, h) in gr.pattern:
        gh = G.add(g, h)
        row = [0] * len(supp)
        row[index[g]] += 1
        row[index[h]] += 1
        row[index[gh]] -= 1
        rows.append(row)
    rows = tuple(tuple(r) for r in rows)
    pres = Presentation(len(supp), rows)
    U, projection, lift, snf = group_from_presentation(pres)
    deg_u = {g: projection[index[g]] for g in supp}
    fold_gens = [G.combine(coeffs, supp) for coeffs in lift]

    def fold(u):
        return G.combine(u, fold_gens)

    labels = [deg_u[gr.degrees[i]] for i in range(gr.algebra.dim)]
    regraded = build_grading(gr.algebra, U, labels, label="%s|universal" % gr.label)
    for g in supp:
        if fold(deg_u[g]) != g:
            raise InputError("universal degree map does not fold back")
    return UniversalGroup(U, deg_u, fold, regraded, rows, snf)


def algebra_over(A, K):
    """The structure constants of A read in the field K: A itself when K is
    A's field, embedded by K.from_base when K is built over it, and reduced
    from Q when every denominator stays invertible in K."""
    F = A.field
    if K == F:
        return A
    if getattr(K, "base", None) == F:
        move, label = K.from_base, "%s@%r" % (A.label, K)
    elif F.kind == "rationals":
        def move(c):
            den = K.from_int(c.denominator)
            if K.is_zero(den):
                raise InputError("denominator is not invertible in the target field")
            return K.mul(K.from_int(c.numerator), K.inv(den))
        label = "%s mod %r" % (A.label, K)
    else:
        raise InputError("no canonical map between the two base fields")
    table = [[tuple(move(c) for c in cell) for cell in row] for row in A.table]
    return Algebra(K, table, A.basis_names, label=label)


def grading_over(gr, K):
    """gr with its algebra moved into K by algebra_over; gr itself when K is
    already its field."""
    A = algebra_over(gr.algebra, K)
    return gr if A is gr.algebra else build_grading(A, gr.group, gr.degrees, label=gr.label)


extend_scalars = grading_over   # scalar extension is the from_base case


def admissible_permutations(gr):
    """Support permutations, as position tuples over gr.support, preserving
    component dimensions and the zero pattern, and additive on the product
    pattern."""
    supp, G, pat = gr.support, gr.group, set(gr.pattern)
    out = []
    for perm in itertools.permutations(range(len(supp))):
        sigma = dict(zip(supp, (supp[i] for i in perm)))
        if all(gr.component_dim(g) == gr.component_dim(sigma[g]) for g in supp) and all(
                ((g, h) in pat) == ((sigma[g], sigma[h]) in pat)
                and ((g, h) not in pat or sigma[G.add(g, h)] == G.add(sigma[g], sigma[h]))
                for g in supp for h in supp):
            out.append(perm)
    return out
