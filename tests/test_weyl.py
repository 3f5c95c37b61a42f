import time
from collections import Counter

import pytest

import weylbench as wb
from weylbench import abgroups, comrings, galg, weyl
from weylbench import points as pts
from weylbench.errors import MathIdentityError, NonThinError
from weylbench.scalars import RootResult, dth_root

from conftest import (cubic_grading, para_hurwitz_grading, trivial_grading,
                      truncated_power_grading, zero_mult_grading)


def test_admissible_permutations(Q, F3):
    g24 = zero_mult_grading(Q)
    assert len(weyl.admissible_permutations(g24)) == 2
    g34 = cubic_grading(Q)
    adm = weyl.admissible_permutations(g34)
    # identity component is fixed: only id and the swap of degrees 1, 2
    assert adm == [(0, 1, 2), (0, 2, 1)]
    g26 = para_hurwitz_grading(F3)
    assert len(weyl.admissible_permutations(g26)) == 2


def _system(gr, sigma):
    return next(t.system for t in weyl.thin_systems(gr) if t.sigma == sigma)


def test_thin_constraint_reduction(Q):
    g34 = cubic_grading(Q)
    system = _system(g34, (0, 2, 1))
    nontrivial = [(d, c) for d, c in system.reduced
                  if d != 0 or c != Q.one()]
    # elimination leaves a single cube equation with constant 1/2 (or 2)
    cubes = [(d, c) for d, c in nontrivial if d == 3]
    assert len(cubes) == 1
    c = cubes[0][1]
    assert c in (Q.parse("1/2"), Q.parse("2"))
    ident = _system(g34, (0, 1, 2))
    cubes = [(d, c) for d, c in ident.reduced if d == 3]
    assert cubes and all(c == Q.one() for _, c in cubes)


def test_thin_solve_modes(Q, F7):
    g34 = cubic_grading(Q)
    res = weyl.thin_solve(_system(g34, (0, 2, 1)))
    assert res.closure
    assert res.status == "unsolvable"
    assert weyl.thin_solve(_system(g34, (0, 1, 2))).status == "solvable"
    # mod 7: 1/2 = 4 is not a cube (confirmed by exhaustion in scalars tests)
    g34_7 = galg.grading_over(g34, F7)
    sys7 = _system(g34_7, (0, 2, 1))
    res = weyl.thin_solve(sys7)
    assert res.status == "unsolvable"
    assert [x for x in F7.elements() if F7.pow(x, 3) == 4] == []


def test_thin_witness_is_checked(F7, Q):
    g34_7 = galg.grading_over(cubic_grading(Q), F7)
    system = _system(g34_7, (0, 1, 2))
    res = weyl.thin_solve(system)
    assert res.status == "solvable" and res.witness is not None
    R = comrings.base_field_ring(F7)
    from weylbench import points as pts
    p = weyl.monomial_point(g34_7, system, res.witness, R)
    assert pts.autgamma_membership(g34_7, p)


def test_weyl_closure_fixtures(Q, F3):
    assert weyl.weyl_closure(cubic_grading(Q)).order == 2
    assert weyl.weyl_closure(zero_mult_grading(Q)).order == 2
    assert weyl.weyl_closure(para_hurwitz_grading(F3)).order == 2
    with pytest.raises(NonThinError):
        weyl.weyl_closure(trivial_grading(F3))


def test_weyl_over_field_fixtures(Q, F3, F7):
    assert weyl.weyl_over_field(cubic_grading(Q)).order == 1
    assert weyl.weyl_over_field(galg.grading_over(cubic_grading(Q), F7)).order == 1
    assert weyl.weyl_over_field(zero_mult_grading(F3)).order == 2
    assert weyl.weyl_over_field(para_hurwitz_grading(F3)).order == 2
    # non-thin over a finite field goes through brute enumeration
    assert weyl.weyl_over_field(trivial_grading(F3)).order == 1


def test_swap_on_cubic_over_a_large_prime_solves_without_a_scan(Q):
    # the cube root of 1/2 came from a scan of F_q, linear in q
    F = wb.prime_field(10000141)
    gr = galg.grading_over(cubic_grading(Q), F)
    start = time.perf_counter()
    assert weyl.weyl_over_field(gr).order == 2
    res = weyl.ses_check(gr)
    assert (res.aut_count, res.stab_count, res.weyl_order) == (6, 3, 2)
    assert time.perf_counter() - start < 2.0


def test_weyl_generator_labels(Q):
    wc = weyl.weyl_closure(zero_mult_grading(Q))
    assert wc.generators_str() == "(2 3)"
    wc34 = weyl.weyl_closure(cubic_grading(Q))
    assert wc34.generators_str() == "(1 2)"


def test_closure_reached_at_verified_finite_fields(Q, F3, F7):
    # each thin fixture admits a finite field where the rational Weyl group
    # equals the closure Weyl group
    g24 = zero_mult_grading(F3)
    assert set(weyl.weyl_over_field(g24).elements) == \
        set(weyl.weyl_closure(g24).elements)
    g26 = para_hurwitz_grading(F3)
    assert set(weyl.weyl_over_field(g26).elements) == \
        set(weyl.weyl_closure(g26).elements)
    g34_7 = galg.grading_over(cubic_grading(Q), F7)
    F343 = wb.extension_field(F7, [F7.from_int(-2), F7.zero(), F7.zero(), F7.one()])
    g34_343 = galg.extend_scalars(g34_7, F343)
    assert set(weyl.weyl_over_field(g34_343).elements) == \
        set(weyl.weyl_closure(g34_343).elements)
    assert weyl.weyl_over_field(g34_343).order == 2


def test_rational_points_monotone_under_extension(F3, F9):
    for fix in (zero_mult_grading, para_hurwitz_grading):
        gr = fix(F3)
        big = galg.extend_scalars(gr, F9)
        small_w = set(weyl.weyl_over_field(gr).elements)
        big_w = set(weyl.weyl_over_field(big).elements)
        assert small_w <= big_w


def test_ses_check_fixtures(Q, F3, F7):
    res = weyl.ses_check(para_hurwitz_grading(F3))
    assert (res.aut_count, res.stab_count, res.weyl_order) == (2, 1, 2)
    assert res.product_ok and res.weyl_in_closure
    res = weyl.ses_check(zero_mult_grading(F3))
    assert (res.aut_count, res.stab_count, res.weyl_order) == (8, 4, 2)
    assert res.product_ok
    res = weyl.ses_check(galg.grading_over(cubic_grading(Q), F7))
    assert res.stab_count == 3 and res.product_ok
    res = weyl.ses_check(cubic_grading(Q))  # finite counts over Q
    assert (res.aut_count, res.stab_count, res.weyl_order) == (1, 1, 1)
    res = weyl.ses_check(trivial_grading(F3))
    assert res.product_ok


def test_thin_counts_match_enumeration_small_fields(F2, F3, F4, F5, F7):
    from weylbench import points as pts
    fields = [F2, F3, F4, F5, F7]
    for F in fields:
        for fix in (zero_mult_grading, para_hurwitz_grading, cubic_grading):
            if F.kind == "extension":
                base = fix(wb.prime_field(F.characteristic()))
                gr = galg.extend_scalars(base, F)
            else:
                gr = fix(F)
            thin = sum(t.count for t in weyl.thin_systems(gr))
            brute = len(pts.enumerate_points(
                gr, comrings.base_field_ring(F), "autgamma"))
            assert thin == brute, (F, fix.__name__)


def test_thin_fibres_match_enumerated_permutations(F2, F3, F4, F5, F7):
    # per sigma, not only in total: |fibre(sigma)| from the solved system equals
    # the number of enumerated points whose block certificate reads sigma
    from weylbench import points as pts
    for F in (F2, F3, F4, F5, F7):
        for fix in (zero_mult_grading, para_hurwitz_grading, cubic_grading):
            if F.kind == "extension":
                gr = galg.extend_scalars(fix(wb.prime_field(F.characteristic())), F)
            else:
                gr = fix(F)
            index = {g: i for i, g in enumerate(gr.support)}
            perms = Counter()
            for p in pts.enumerate_points(gr, comrings.base_field_ring(F), "autgamma"):
                (_, sigma), = pts.block_permutations(gr, p).certificates
                perms[tuple(index[sigma[g]] for g in gr.support)] += 1
            assert Counter({t.sigma: t.count for t in weyl.thin_systems(gr)}) == perms, \
                (F, fix.__name__)


def test_thin_ses_check_refuses_a_wrong_fibre(F3):
    gr = zero_mult_grading(F3)
    ident = weyl.perm_identity(len(gr.support))
    t = next(t for t in weyl.thin_systems(gr) if t.sigma != ident)
    t.count += 1
    with pytest.raises(MathIdentityError):
        weyl.ses_check(gr)


def test_non_thin_ses_check_refuses_a_wrong_stab_count(monkeypatch, F2):
    # zero algebra on a, b, c, d graded by Z/3 in degrees 1, 1, 2, 2:
    # Stab = GL2(F2) x GL2(F2) and W(F2) swaps the two components
    z = (F2.zero(),) * 4
    A = wb.build_algebra(F2, 4, [[z] * 4 for _ in range(4)], ["a", "b", "c", "d"])
    gr = wb.build_grading(A, abgroups.cyclic_group(3), [(1,), (1,), (2,), (2,)])
    res = weyl.ses_check(gr)
    assert not gr.is_thin() and res.product_ok
    assert (res.aut_count, res.stab_count, res.weyl_order) == (72, 36, 2)
    ident = weyl.perm_identity(len(gr.support))
    points_by_shape = pts._points_by_shape

    def corrupted(gr, R, which, cap):
        for (sigma,), found in points_by_shape(gr, R, which, cap):
            yield (sigma,), found + found[:1] if sigma != ident else found

    monkeypatch.setattr(pts, "_points_by_shape", corrupted)
    with pytest.raises(MathIdentityError, match="other than"):
        weyl.ses_check(gr)


def test_thin_systems_are_solved_once_per_grading(monkeypatch, F3):
    calls = []
    solve = weyl.thin_solve
    monkeypatch.setattr(weyl, "thin_solve", lambda system: calls.append(1) or solve(system))
    gr = para_hurwitz_grading(F3)
    weyl.weyl_over_field(gr)
    assert len(calls) == len(weyl.admissible_permutations(gr))
    weyl.weyl_over_field(gr)
    weyl.weyl_closure(gr)
    weyl.ses_check(gr)
    assert len(calls) == len(weyl.admissible_permutations(gr))


def test_perm_group_subgroup_checks():
    support = ((0,), (1,), (2,))
    g = weyl.perm_group_from({(0, 1, 2), (0, 2, 1)}, support)
    assert g.order == 2
    with pytest.raises(Exception):
        weyl.perm_group_from({(1, 2, 0)}, support)  # not closed


def test_klein_four_graded_zero_algebra(F5):
    # thin grading by Z/2 + Z/2 with zero multiplication: the closure Weyl
    # group is all of Sym(4); exercises multi-coordinate support labels
    from weylbench.abgroups import FGAbelianGroup
    V4 = FGAbelianGroup((2, 2), 0)
    z = (F5.zero(),) * 4
    table = [[z] * 4 for _ in range(4)]
    A = wb.build_algebra(F5, 4, table, ["a", "b", "c", "d"], label="klein")
    gr = wb.build_grading(A, V4, [(0, 0), (1, 0), (0, 1), (1, 1)], label="G_klein")
    wc = weyl.weyl_closure(gr)
    assert wc.order == 24
    wf = weyl.weyl_over_field(gr)
    assert wf.order == 24
    res = weyl.ses_check(gr)
    assert res.aut_count == 24 * 4**4 and res.stab_count == 4**4
    assert res.product_ok
    # labels print as coordinate pairs inside cycles
    assert "(" in wc.generators_str() and "," in wc.generators_str()


def test_integer_graded_weyl_is_trivial(F3):
    gr = truncated_power_grading(F3)
    assert weyl.weyl_closure(gr).order == 1
    assert weyl.weyl_over_field(gr).order == 1
    res = weyl.ses_check(gr)
    assert res.product_ok and res.aut_count == 2


def test_ses_check_refuses_infinite_counts(Q):
    from weylbench.errors import CapExceededError
    with pytest.raises(CapExceededError):
        weyl.ses_check(zero_mult_grading(Q))
