"""Finite-dimensional nonassociative algebras by structure constants and
gradings given as degree labelings of a homogeneous basis.

No axioms are imposed on the multiplication (not even associativity); the
grading axiom A_g * A_h inside A_{g+h} is verified directly on basis pairs,
and independently through the generic character (multiplicativity of the
degree-twist operator on A tensor FG).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abgroups import FGAbelianGroup, Presentation, group_from_presentation
from .comrings import GroupAlgebra, base_field_ring, sparse_terms, structure_mul
from .errors import GradingAxiomError, InputError


class Algebra:
    """Structure-constant algebra over an ExactField; no symmetry assumed."""

    def __init__(self, fld, table, basis_names=None, label=None):
        self.field = fld
        self.dim = len(table)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        for row in self.table:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise InputError("structure constant dimensions inconsistent")
        self.terms = sparse_terms(fld, self.table)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            "b%d" % i for i in range(self.dim))
        self.label = label or "algebra"
        self.enumeration_plan = None  # points._enumeration_plan, built on first use

    def mul(self, x, y):
        F = self.field
        return structure_mul(self.terms, x, y, F.zero(), F.is_zero, F.add, F.mul, F.mul)

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
    A, G = gr.algebra, gr.group
    F = A.field
    pairs = set()
    for g, gi in gr.components.items():
        for h, hi in gr.components.items():
            hit = False
            for i in gi:
                for j in hi:
                    if any(not F.is_zero(c) for c in A.table[i][j]):
                        hit = True
                        break
                if hit:
                    break
            if hit:
                pairs.add((g, h))
    return pairs


def grading_axiom_witness(A, G, labels):
    """None if labels define a grading; else a witness (i, j, k)."""
    F = A.field
    labels = [G.reduce(l) for l in labels]
    for i in range(A.dim):
        for j in range(A.dim):
            target = G.add(labels[i], labels[j])
            for k in range(A.dim):
                if not F.is_zero(A.table[i][j][k]) and labels[k] != target:
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
    pres = Presentation(len(supp), tuple(tuple(r) for r in rows))
    U, projection, lift = group_from_presentation(pres)
    deg_u = {g: projection[index[g]] for g in supp}

    fold_gens = []
    for coeffs in lift:
        acc = G.identity()
        for c, g in zip(coeffs, supp):
            acc = G.add(acc, G.scale(c, g))
        fold_gens.append(acc)

    def fold(u):
        acc = G.identity()
        for c, gen in zip(u, fold_gens):
            acc = G.add(acc, G.scale(c, gen))
        return acc

    labels = [deg_u[gr.degrees[i]] for i in range(gr.algebra.dim)]
    regraded = build_grading(gr.algebra, U, labels, label="%s|universal" % gr.label)
    for g in supp:
        if fold(deg_u[g]) != g:
            raise InputError("universal degree map does not fold back")
    return UniversalGroup(U, deg_u, fold, regraded)


def extend_scalars(gr, K, label=None):
    """Read the same structure constants in a field K built over the base."""
    A = gr.algebra
    F = A.field
    emb = _embedding(F, K)
    table = [[tuple(emb(c) for c in cell) for cell in row] for row in A.table]
    AK = Algebra(K, table, A.basis_names, label="%s@%r" % (A.label, K))
    return build_grading(AK, gr.group, gr.degrees, label=label or gr.label)


def grading_over(gr, K):
    """Move a grading to another field: identity, scalar extension, or (from
    the rationals) reduction of the structure constants when denominators
    stay invertible."""
    A = gr.algebra
    if K == A.field:
        return gr
    if getattr(K, "base", None) == A.field:
        return extend_scalars(gr, K)
    if A.field.characteristic() == 0 and A.field.kind == "rationals":
        def reduce_c(c):
            num = K.from_int(c.numerator)
            den = K.from_int(c.denominator)
            if K.is_zero(den):
                raise InputError("denominator is not invertible in the target field")
            return K.mul(num, K.inv(den))
        table = [[tuple(reduce_c(c) for c in cell) for cell in row] for row in A.table]
        AK = Algebra(K, table, A.basis_names, label="%s mod %r" % (A.label, K))
        return build_grading(AK, gr.group, gr.degrees, label=gr.label)
    raise InputError("no canonical map between the two base fields")


def _embedding(F, K):
    if K == F:
        return lambda c: c
    if getattr(K, "base", None) is not None and K.base == F:
        return lambda c: K.from_base(c)
    raise InputError("target field is not built over the base field")


def product_pattern(gr):
    """(nonzero pairs, zero pairs) over the support."""
    nonzero = set(gr.pattern)
    zero = []
    for g in gr.support:
        for h in gr.support:
            if (g, h) not in nonzero:
                zero.append((g, h))
    return tuple(gr.pattern), tuple(sorted(zero))
