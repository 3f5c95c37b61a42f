import random

import pytest

import weylbench as wb
from weylbench import galg
from weylbench.abgroups import cyclic_group
from weylbench.errors import GradingAxiomError, MathIdentityError

from conftest import cubic_grading, para_hurwitz_grading, trivial_grading, zero_mult_grading


def test_fixture_gradings_build(Q, F3):
    g24 = zero_mult_grading(Q)
    assert g24.support == ((2,), (3,))
    assert g24.pattern == ()
    g26 = para_hurwitz_grading(F3)
    assert g26.support == ((1,), (2,))
    assert set(g26.pattern) == {((1,), (1,)), ((2,), (2,))}
    g34 = cubic_grading(Q)
    # every component product is nonzero
    assert set(g34.pattern) == {(g, h) for g in g34.support for h in g34.support}


def test_grading_axiom_violation_witness(F3):
    gr = para_hurwitz_grading(F3)
    A = gr.algebra
    with pytest.raises(GradingAxiomError) as err:
        wb.build_grading(A, cyclic_group(3), [(1,), (1,)])
    assert err.value.witness == (0, 0, 1)  # e1*e1 = e2 lands in degree 2


def test_build_grading_cross_asserts_the_generic_check(F3, monkeypatch):
    # a direct check that wrongly passes is caught by the generic character
    A = para_hurwitz_grading(F3).algebra
    monkeypatch.setattr(galg, "grading_axiom_witness", lambda A, G, labels: None)
    with pytest.raises(MathIdentityError):
        wb.build_grading(A, cyclic_group(3), [(1,), (1,)])


def test_generic_and_direct_check_agree_on_fixtures(Q, F3):
    for gr in (zero_mult_grading(Q), para_hurwitz_grading(F3), cubic_grading(Q),
               trivial_grading(F3)):
        A, G = gr.algebra, gr.group
        assert galg.grading_axiom_witness(A, G, gr.degrees) is None
        assert wb.verify_grading_generic(A, G, gr.degrees)


def test_generic_and_direct_check_agree_randomized(Q, F3):
    rng = random.Random(424242)
    fixtures = [zero_mult_grading(Q), para_hurwitz_grading(F3), cubic_grading(Q)]
    for gr in fixtures:
        A, G = gr.algebra, gr.group
        elems = list(G.elements())
        for _ in range(70):
            labels = [rng.choice(elems) for _ in range(A.dim)]
            direct = galg.grading_axiom_witness(A, G, labels) is None
            generic = wb.verify_grading_generic(A, G, labels)
            assert direct == generic


def test_universal_groups(Q, F3):
    assert galg.universal_group(zero_mult_grading(Q)).group.group_str() == "Z^2"
    assert galg.universal_group(cubic_grading(Q)).group.group_str() == "Z/3"
    assert galg.universal_group(para_hurwitz_grading(F3)).group.group_str() == "Z/3"
    assert galg.universal_group(trivial_grading(F3)).group.group_str() == "1"


def test_universal_group_is_computed_once_per_grading(F3):
    gr = para_hurwitz_grading(F3)
    first = wb.universal_group(gr)
    assert wb.universal_group(gr) is first
    assert gr == galg.Grading(gr.algebra, gr.group, gr.degrees, label=gr.label)
    assert "universal" not in repr(gr)


def test_universal_regrading_preserves_structure(Q, F3):
    for gr in (zero_mult_grading(Q), para_hurwitz_grading(F3), cubic_grading(Q)):
        uni = galg.universal_group(gr)
        re = uni.regraded
        # same components, same pattern through the degree bijection
        assert sorted(re.components.values()) == sorted(gr.components.values())
        mapped = {(uni.deg_u[g], uni.deg_u[h]) for (g, h) in gr.pattern}
        assert set(re.pattern) == mapped
        for g in gr.support:
            assert uni.fold(uni.deg_u[g]) == g


def test_extend_scalars(F3, F9, Q):
    gr = para_hurwitz_grading(F3)
    gr9 = galg.extend_scalars(gr, F9)
    assert gr9.algebra.field == F9
    assert gr9.support == gr.support
    assert gr9.pattern == gr.pattern
    grq = cubic_grading(Q)
    K = wb.extension_field(Q, [Q.one(), Q.one(), Q.one()])  # t^2+t+1
    grk = galg.extend_scalars(grq, K)
    assert grk.support == grq.support
    assert grk.pattern == grq.pattern


def test_grading_over_reduction(Q, F7, F2):
    grq = cubic_grading(Q)
    gr7 = galg.grading_over(grq, F7)
    assert gr7.algebra.field == F7
    assert gr7.pattern == grq.pattern
    # mod 2 the structure constant 2 vanishes and the pattern shrinks
    gr2 = galg.grading_over(grq, F2)
    assert len(gr2.pattern) < len(grq.pattern)


def test_generic_check_on_free_universal_regrading(Q):
    # regrading the zero-multiplication fixture by its universal group Z^2
    # routes the generic verification through FG with free G
    gr = zero_mult_grading(Q)
    uni = galg.universal_group(gr)
    re = uni.regraded
    assert re.group.group_str() == "Z^2"
    assert wb.verify_grading_generic(re.algebra, re.group, re.degrees)


def test_grading_over_rejects_bad_denominator(F3):
    one_third = wb.rationals().parse("1/3")
    Q = wb.rationals()
    v = (one_third, Q.zero())
    z = (Q.zero(), Q.zero())
    A = wb.build_algebra(Q, 2, [[v, z], [z, z]], ["a", "b"])
    gr = wb.build_grading(A, cyclic_group(2), [(0,), (0,)])
    with pytest.raises(Exception):
        galg.grading_over(gr, F3)
