import functools
import itertools
import random
import re
import time
from fractions import Fraction

import pytest

import weylbench as wb
from weylbench import battery, comrings, galg, linalg, points as pts
from weylbench.abgroups import cyclic_group
from weylbench.comrings import base_field_ring, dual_numbers, product_ring
from weylbench.errors import InputError, MathIdentityError, OrderViolationError

from conftest import (cubic_grading, para_hurwitz_grading, trivial_grading,
                      truncated_power_grading, zero_mult_grading)


def swap_point(gr, R):
    return pts.point_matrix(gr.algebra, R,
                            [[R.zero(), R.one], [R.one, R.zero()]])


def test_automorphism_membership(Q, F3):
    g26 = para_hurwitz_grading(F3)
    R3 = base_field_ring(F3)
    assert pts.automorphism_membership(swap_point(g26, R3))
    assert pts.automorphism_membership(pts.identity_point(g26.algebra, R3))
    g34 = cubic_grading(Q)
    Rq = base_field_ring(Q)
    # u -> 2u would need 2^3 = 1
    bad = pts.point_matrix(g34.algebra, Rq, [
        [Rq.one, Rq.zero(), Rq.zero()],
        [Rq.zero(), Rq.from_int(2), Rq.zero()],
        [Rq.zero(), Rq.zero(), Rq.from_int(4)]])
    assert not pts.automorphism_membership(bad)


def test_stab_and_diag_membership(Q, F3):
    g24 = zero_mult_grading(Q)
    Rq = base_field_ring(Q)
    d57 = pts.point_matrix(g24.algebra, Rq,
                           [[Rq.from_int(5), Rq.zero()], [Rq.zero(), Rq.from_int(7)]])
    assert pts.stab_membership(g24, d57)
    res = pts.diag_membership(g24, d57)
    assert res.member
    assert res.scalars[(2,)] == Rq.from_int(5)
    assert res.scalars[(3,)] == Rq.from_int(7)
    sw = swap_point(g24, Rq)
    assert not pts.stab_membership(g24, sw)
    assert not pts.diag_membership(g24, sw).member
    with pytest.raises(InputError):
        pts.stab_membership(g24, pts.point_matrix(g24.algebra, Rq,
                                                  [[Rq.zero()] * 2] * 2))


def test_tau_from_character(Q, F3, F7):
    g34_7 = galg.grading_over(cubic_grading(Q), F7)
    R7 = base_field_ring(F7)
    tau = pts.tau_from_character(g34_7, R7, [(2,)])
    assert tau.entries == (((1,), (0,), (0,)), ((0,), (2,), (0,)), ((0,), (0,), (4,)))
    assert pts.automorphism_membership(tau)
    assert pts.stab_membership(g34_7, tau)
    with pytest.raises(OrderViolationError):
        pts.tau_from_character(g34_7, R7, [(3,)])  # 3^3 = 6 != 1 mod 7
    # dual numbers in characteristic 3: 1 + eps has order 3
    g26 = para_hurwitz_grading(F3)
    D = dual_numbers(F3, 2)
    tau = pts.tau_from_character(g26, D, [(F3.one(), F3.one())])
    assert pts.diag_membership(g26, tau).member
    # a negative degree takes a power of the inverse value
    z = (Q.zero(), Q.zero())
    A = wb.build_algebra(Q, 2, [[z, z], [z, z]], ["x", "y"], label="zeromult")
    gZ = wb.build_grading(A, wb.FGAbelianGroup((), 1), [(2,), (-1,)])
    tau = pts.tau_from_character(gZ, base_field_ring(Q), [(Q.from_int(3),)])
    assert tau.entries == (((9,), (0,)), ((0,), (Fraction(1, 3),)))


def test_battery_warns_only_for_normalizer_points_outside_stab(F2):
    # F2[Z/2] graded by Z/2: U = Z/2, so Diag is not smooth in characteristic
    # 2, but the unit spans a fixed component, so no point permutes components
    one, u = (F2.one(), F2.zero()), (F2.zero(), F2.one())
    A = wb.build_algebra(F2, 2, [[one, u], [u, one]], ["one", "u"], label="F2C2")
    gr = wb.build_grading(A, cyclic_group(2), [(0,), (1,)])
    assert battery.diag_scheme_nonsmooth(gr)
    res = wb.theorem_battery(gr, dual_numbers(F2, 2))
    assert res.distinct_points > 1 and not res.warn_nonsmooth


def test_block_permutations_connected(F3):
    g26 = para_hurwitz_grading(F3)
    R3 = base_field_ring(F3)
    res = pts.block_permutations(g26, swap_point(g26, R3))
    assert res.ok and len(res.certificates) == 1
    e, sigma = res.certificates[0]
    assert sigma == {(1,): (2,), (2,): (1,)}


def test_block_permutations_per_idempotent(Q):
    # product ring with different permutations in the two blocks
    g24 = zero_mult_grading(Q)
    Rq = base_field_ring(Q)
    R = product_ring(Rq, Rq)
    one1 = (Q.one(), Q.zero())
    one2 = (Q.zero(), Q.one())
    zero = R.zero()
    phi = pts.point_matrix(g24.algebra, R, [[one1, one2], [one2, one1]])
    res = pts.block_permutations(g24, phi)
    assert res.ok and len(res.certificates) == 2
    perms = {tuple(sorted(sig.items())) for _, sig in res.certificates}
    ident = ((((2,), (2,)), ((3,), (3,))))
    swapped = ((((2,), (3,)), ((3,), (2,))))
    assert perms == {tuple(ident), tuple(swapped)}
    # non-monomial automorphism fails with a witness
    tri = pts.point_matrix(g24.algebra, Rq,
                           [[Rq.one, Rq.one], [Rq.zero(), Rq.one]])
    res = pts.block_permutations(g24, tri)
    assert not res.ok and res.witness is not None


def test_cent_norm_on_swap_examples(Q, F3):
    g24 = zero_mult_grading(Q)
    Rq = base_field_ring(Q)
    sw = swap_point(g24, Rq)
    assert pts.autgamma_membership(g24, sw)
    res = pts.norm_membership_generic(g24, sw)
    assert res.member
    shift = res.shifts[0][1]
    assert shift == {(2,): (3,), (3,): (2,)}
    assert not pts.cent_membership_generic(g24, sw)

    g26 = para_hurwitz_grading(F3)
    R3 = base_field_ring(F3)
    sw26 = swap_point(g26, R3)
    assert not pts.cent_membership_generic(g26, sw26)
    res = pts.norm_membership_generic(g26, sw26)
    assert res.member
    assert res.shifts[0][1] == {(1,): (2,), (2,): (1,)}


def test_dgroup_norm_membership(Q, F3):
    g24 = zero_mult_grading(Q)
    Rq = base_field_ring(Q)
    res = pts.dgroup_norm_membership(g24, swap_point(g24, Rq))
    assert res.status == "nonmember"
    assert res.relation == (3, 0)
    assert res.forced == {(2,): (3,), (3,): (2,)}
    g26 = para_hurwitz_grading(F3)
    R3 = base_field_ring(F3)
    res = pts.dgroup_norm_membership(g26, swap_point(g26, R3))
    assert res.status == "member"
    assert res.forced == {(1,): (2,), (2,): (1,)}
    # any diagonal character point is a member
    d = pts.diag_points(g24, base_field_ring(wb.prime_field(3)))
    g24f3 = zero_mult_grading(wb.prime_field(3))
    for p in pts.diag_points(g24f3, base_field_ring(wb.prime_field(3))):
        assert pts.dgroup_norm_membership(g24f3, p).status == "member"


def test_dgroup_norm_membership_verifies_the_point_once(monkeypatch, Q, F3):
    calls = []
    for name in ("automorphism_membership", "block_permutations"):
        fn = getattr(pts, name)
        monkeypatch.setattr(pts, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    for gr, R in ((zero_mult_grading(Q), base_field_ring(Q)),
                  (para_hurwitz_grading(F3), base_field_ring(F3))):
        calls.clear()
        pts.dgroup_norm_membership(gr, swap_point(gr, R))
        assert sorted(calls) == ["automorphism_membership", "block_permutations"]


def test_battery_verifies_each_point_once(monkeypatch, Q, F3):
    calls = []
    for name in ("automorphism_membership", "block_permutations"):
        fn = getattr(pts, name)
        monkeypatch.setattr(pts, name, lambda *a, fn=fn, name=name:
                            calls.append((name, a[-1].ring, a[-1].entries)) or fn(*a))
    gr, R = para_hurwitz_grading(F3), dual_numbers(F3, 2)
    residue = R.nil_quotient()[0]
    res = battery.theorem_battery(gr, R)   # enumerated: verified in enumerate_points
    assert res.mode == "enumerated"
    # each point over R once, and each point over R/nil once, in the residue
    # search of the one enumerate_points call
    verified = [(ring, entries) for name, ring, entries in calls
                if name == "automorphism_membership"]
    assert len(verified) == len(set(verified))
    rings = [ring for ring, _ in verified]
    assert len(rings) == rings.count(R) + rings.count(residue)
    assert rings.count(R) == res.distinct_points
    assert rings.count(residue) == len(pts.enumerate_points(gr, residue, "aut")) == 2
    assert [name for name, _, _ in calls].count("block_permutations") == res.distinct_points
    # whatever battery_points did, the loop itself only reads block certificates
    find = battery.battery_points
    monkeypatch.setattr(battery, "battery_points",
                        lambda *a: (find(*a), calls.clear())[0])
    for gr, R, mode in ((zero_mult_grading(Q), base_field_ring(Q), "sampled"),
                        (para_hurwitz_grading(F3), R, "enumerated")):
        res = battery.theorem_battery(gr, R)
        assert res.mode == mode
        assert res.cent_checked == res.norm_checked == res.distinct_points
        assert [name for name, _, _ in calls] == ["block_permutations"] * res.distinct_points
    # sampled cells: each distinct point is verified exactly once, in
    # diag_points or in the final loop of _sampled_points; over F3[eps]/eps^3
    # diagonal points that the stride dropped come back as products
    monkeypatch.setattr(battery, "battery_points", find)
    verify = pts.automorphism_membership
    keys = []
    monkeypatch.setattr(pts, "automorphism_membership",
                        lambda phi: keys.append((phi.ring, phi.entries)) or verify(phi))
    sample, sampled = battery._sampled_points, []
    monkeypatch.setattr(battery, "_sampled_points",
                        lambda *a: sampled.append(sample(*a)) or sampled[-1])
    F7 = wb.prime_field(7)
    for gr, R in ((zero_mult_grading(Q), product_ring(base_field_ring(Q), base_field_ring(Q))),
                  (galg.grading_over(cubic_grading(Q), F7),
                   comrings.group_algebra_finite(F7, cyclic_group(3))),
                  (zero_mult_grading(F3), dual_numbers(F3, 3))):
        keys.clear()
        sampled.clear()
        res = battery.theorem_battery(gr, R)
        assert res.mode == "sampled" and len(sampled) == 1
        assert len(keys) == len(set(keys))
        assert {(R, p.entries) for p in sampled[0]} <= set(keys)


def test_sampled_large_ring_character_point_is_verified(monkeypatch, Q):
    # over Q[eps]/eps^2 the diagonal candidates are character points that
    # diag_points never saw: a singular one must fail the final check
    def singular(gr, R, coords, values):
        return pts.point_matrix(gr.algebra, R, [[R.zero()] * gr.algebra.dim] * gr.algebra.dim)
    monkeypatch.setattr(pts, "character_point", singular)
    with pytest.raises(MathIdentityError, match="sampled point is not an automorphism"):
        battery.theorem_battery(zero_mult_grading(Q), dual_numbers(Q, 2))


def test_sampled_blockwise_mix_is_verified(monkeypatch, Q):
    # a "blockwise" mix over the first block twice misses the second block
    R = product_ring(base_field_ring(Q), base_field_ring(Q))
    e1 = R.idempotents()[0]
    monkeypatch.setattr(R, "idempotents", lambda: (e1, e1))
    with pytest.raises(MathIdentityError, match="sampled point is not an automorphism"):
        battery.theorem_battery(zero_mult_grading(Q), R)


@pytest.mark.parametrize("ring, units", [
    (lambda Q: comrings.group_algebra_finite(Q, cyclic_group(2)), "group"),
    (lambda Q: comrings.group_algebra_finite(Q, cyclic_group(3)), "group"),
    (lambda Q: comrings.group_algebra_finite(Q, cyclic_group(6)), "group"),
    (lambda Q: dual_numbers(Q, 2), "signs"),
    (lambda Q: product_ring(base_field_ring(Q), base_field_ring(Q)), "signs"),
], ids=["QC2", "QC3", "QC6", "Q-eps2", "QxQ"])
def test_torsion_units_are_the_signed_group_elements(Q, ring, units):
    R = ring(Q)
    expected = {R.one, R.neg(R.one)}
    if units == "group":
        for i in range(R.dim):
            g = tuple(Q.one() if k == i else Q.zero() for k in range(R.dim))
            expected |= {g, R.neg(g)}
    assert battery._torsion_units(R) == sorted(expected, key=R.sort_key)


def test_diag_points_counts(Q, F3, F7):
    F3r = base_field_ring(F3)
    g26 = para_hurwitz_grading(F3)
    assert len(pts.diag_points(g26, F3r)) == 1
    assert len(pts.diag_points(g26, dual_numbers(F3, 2))) == 3
    assert len(pts.diag_points(zero_mult_grading(F3), F3r)) == 4
    g34 = cubic_grading(Q)
    assert len(pts.diag_points(g34, base_field_ring(Q))) == 1
    g34_7 = galg.grading_over(g34, F7)
    assert len(pts.diag_points(g34_7, base_field_ring(F7))) == 3


def test_enumerate_points_counts(F3):
    g26 = para_hurwitz_grading(F3)
    F3r = base_field_ring(F3)
    assert len(pts.enumerate_points(g26, F3r, "aut")) == 2
    assert len(pts.enumerate_points(g26, dual_numbers(F3, 2), "aut")) == 6
    g24 = zero_mult_grading(F3)
    assert len(pts.enumerate_points(g24, F3r, "autgamma")) == 8
    assert len(pts.enumerate_points(g24, F3r, "stab")) == 4


# The benchmark's enumerate cells: (fixture, p) -> rings, restated here.
ENUM_CELLS = {
    (zero_mult_grading, 2): ("F", "eps2", "eps3", "FxF"),
    (para_hurwitz_grading, 2): ("F", "eps2", "eps3", "FxF"),
    (cubic_grading, 2): ("F", "eps2", "FxF"),
    (trivial_grading, 2): ("F", "eps2", "eps3", "FxF"),
    (zero_mult_grading, 3): ("F", "eps2", "FxF"),
    (para_hurwitz_grading, 3): ("F", "eps2", "eps3", "FxF"),
    (cubic_grading, 3): ("F",),
    (trivial_grading, 3): ("F", "eps2", "eps3", "FxF"),
    (zero_mult_grading, 5): ("F",),
    (para_hurwitz_grading, 5): ("F", "eps2", "eps3", "FxF"),
    (cubic_grading, 5): ("F",),
    (trivial_grading, 5): ("F", "eps2", "eps3", "FxF"),
    (zero_mult_grading, 7): ("F",),
    (para_hurwitz_grading, 7): ("F", "eps2", "FxF"),
    (trivial_grading, 7): ("F", "eps2", "FxF"),
}


def _enum_cases():
    for (fix, p), names in ENUM_CELLS.items():
        F = wb.prime_field(p)
        base = base_field_ring(F)
        rings = {"F": base, "eps2": dual_numbers(F, 2), "eps3": dual_numbers(F, 3),
                 "FxF": product_ring(base, base)}
        for name in names:
            yield "%s/F%d/%s" % (fix.__name__, p, name), fix(F), rings[name]
    F3 = wb.prime_field(3)
    R = product_ring(dual_numbers(F3, 2), base_field_ring(F3))
    for fix in (para_hurwitz_grading, trivial_grading):
        yield "%s/F3/eps2xF" % fix.__name__, fix(F3), R


def test_shaped_search_matches_filtered_aut():
    # reference: all of Aut(A)(R), filtered by the two membership tests
    for label, gr, R in _enum_cases():
        aut = pts.enumerate_points(gr, R, "aut")
        reference = {"stab": [p for p in aut if pts.stab_membership(gr, p)],
                     "autgamma": [p for p in aut if pts.block_permutations(gr, p).ok]}
        for which, ref in reference.items():
            shaped = pts.enumerate_points(gr, R, which)
            assert (sorted(p.to_str() for p in shaped)
                    == sorted(p.to_str() for p in ref)), (label, which)
    assert len(R.idempotents()) == 2 and len(R.idempotents()[0]) == 3   # eps2 x F


def test_aut_enumeration_is_complete_by_brute_force(F2, F3):
    # oracle: every 2 x 2 matrix over R that passes automorphism_membership,
    # then stab_membership or autgamma_membership, on each non-reduced test
    # ring and each reduced product with |R|^4 <= 10^4; F2[C2] = F2[x]/x^2,
    # x = g + 1, is one whose basis 1, g is not adapted to its filtration,
    # and F2[x, y]/(x, y)^2 one whose square-zero layer has two coordinates
    F2r, F3r = base_field_ring(F2), base_field_ring(F3)
    one, x, y, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    xy = comrings.TestRing(F2, [[one, x, y], [x, zero, zero], [y, zero, zero]], one)
    rings = {"F2[eps]/eps^2": dual_numbers(F2, 2), "F2[eps]/eps^3": dual_numbers(F2, 3),
             "F3[eps]/eps^2": dual_numbers(F3, 2),
             "F2[C2]": comrings.group_algebra_finite(F2, cyclic_group(2)),
             "F2[x, y]/(x, y)^2": xy,
             "F2[eps]/eps^2 x F2": product_ring(dual_numbers(F2, 2), F2r),
             "F2 x F2": product_ring(F2r, F2r), "F3 x F3": product_ring(F3r, F3r)}
    for name, R in rings.items():
        assert R.element_count() ** 4 <= 10**4
        assert R.nil_quotient() is not None or len(R.idempotents()) == 2
        elems = list(R.elements())
        for fix in (zero_mult_grading, para_hurwitz_grading, trivial_grading):
            gr = fix(R.field)
            brute = {"aut": set(), "stab": set(), "autgamma": set()}
            for a, b, c, d in itertools.product(elems, repeat=4):
                phi = pts.point_matrix(gr.algebra, R, [[a, b], [c, d]])
                if pts.automorphism_membership(phi):
                    brute["aut"].add(phi.entries)
                    if pts.stab_membership(gr, phi):
                        brute["stab"].add(phi.entries)
                    if pts.autgamma_membership(gr, phi):
                        brute["autgamma"].add(phi.entries)
            for which, ref in brute.items():
                found = [p.entries for p in pts.enumerate_points(gr, R, which)]
                assert len(found) == len(set(found)) and set(found) == ref, (name, fix, which)


def test_fibre_sizes_over_the_residue_ring_are_cross_asserted(monkeypatch, F2, F3):
    # residue classes must be cosets of nil, checked before any search.
    # GL_2(F2[eps]/eps^2) has 16 points over each of the 6 points of GL_2(F2);
    # a projection that sends eps to the class of 1 instead of 0 breaks that.
    # Sending 1+eps of F3[eps]/eps^2 to the class of 0 would empty fibres
    # alike (para-Hurwitz: 2 points instead of 6, if unchecked).
    for gr, R, count, moved, to_one, sizes in (
            (zero_mult_grading(F2), dual_numbers(F2, 2), 96, (0, 1), True, "[1, 3]"),
            (para_hurwitz_grading(F3), dual_numbers(F3, 2), 6, (1, 1), False, "[2, 3, 4]")):
        assert len(pts.enumerate_points(gr, R, "aut")) == count
        residue, project, lift = R.nil_quotient()
        target = residue.one if to_one else residue.zero()
        misplaced = lambda x: target if x == moved else project(x)
        monkeypatch.setattr(R, "nil_quotient", lambda: (residue, misplaced, lift))
        with pytest.raises(MathIdentityError, match=re.escape("classes have sizes " + sizes)):
            pts.enumerate_points(gr, R, "aut")
        monkeypatch.undo()
    # a lifting that drops one lift over its first residue point: that fibre
    # comes up short.  Over F3[eps]/eps^2, para-Hurwitz has 2 residue points
    # with 3 points over each, and zero_mult 4 with 9 in Stab and 8 with 9 in
    # Aut Gamma.
    R = dual_numbers(F3, 2)
    span, dropped = pts._span, []

    def dropping(*args):
        lifts = span(*args)
        if not dropped:
            dropped.append(lifts.pop())
        return lifts

    for fix, which, count in ((para_hurwitz_grading, "aut", 6),
                              (zero_mult_grading, "stab", 36),
                              (zero_mult_grading, "autgamma", 72)):
        gr = fix(F3)
        assert len(pts.enumerate_points(gr, R, which)) == count
        monkeypatch.setattr(pts, "_span", dropping)
        dropped.clear()
        with pytest.raises(MathIdentityError, match="point fibres"):
            pts.enumerate_points(gr, R, which)
        assert dropped
        monkeypatch.undo()
    # over F3 x F3, zero_mult has 4 points per shape in each block; a block
    # search that loses one point of its swap fibre leaves product shape
    # fibres of 16 and 12 points
    F3r = base_field_ring(F3)
    R, gr = product_ring(F3r, F3r), zero_mult_grading(F3)
    assert len(pts.enumerate_points(gr, R, "autgamma")) == 64
    first = R.block(R.idempotents()[0])[0]
    points_by_shape, ident = pts._points_by_shape, (tuple(range(len(gr.support))),)

    def losing(gr, ring, which, cap):
        for shape, found in points_by_shape(gr, ring, which, cap):
            yield shape, found[1:] if ring is first and shape != ident else found

    monkeypatch.setattr(pts, "_points_by_shape", losing)
    with pytest.raises(MathIdentityError, match=r"point fibres have sizes \[12, 16\]"):
        pts.enumerate_points(gr, R, "autgamma")


def test_a_wrong_particular_lift_is_caught_below_the_next_layer(monkeypatch, F3):
    # Delta: e1 -> e1, e2 -> 0, entry (0, 0), is no derivation of para-Hurwitz
    # (Delta(e1 e1) = 0, but Delta(e1) e1 + e1 Delta(e1) = 2 e2), so adding it
    # to each particular solution leaves the children of a layer-1 node over
    # F3[eps]/eps^3 a residual outside m^2; over F3[eps]/eps^2 its lifts are
    # the points, and their verification refuses them
    gr = para_hurwitz_grading(F3)
    honest = pts._back_substitute

    def corrupted(F, system, b):
        x = honest(F, system, b)
        if x is not None:
            x[system[0].index((0, 0))] = F.add(x[system[0].index((0, 0))], F.one())
        return x

    for order, count, message in ((3, 18, r"node at layer 2 has a residual outside m\^2"),
                                  (2, 6, "non-automorphism")):
        R = dual_numbers(F3, order)
        assert len(pts.enumerate_points(gr, R, "aut")) == count
        monkeypatch.setattr(pts, "_back_substitute", corrupted)
        with pytest.raises(MathIdentityError, match=message):
            pts.enumerate_points(gr, R, "aut")
        monkeypatch.undo()


def test_lifting_agrees_across_presentations_of_one_ring(F3, F9):
    # F3[C3] = F3[eps]/eps^3 by g -> 1 + eps, whose canonical basis 1, g, g^2
    # is not adapted to the filtration: the point sets must correspond.
    # F3[t]/((t^2+1)^2), residue field F9, is F9[eps]/eps^2 as a ring, so
    # the points of A and of A over F9 must be as many.
    one, zero, two = F3.one(), F3.zero(), F3.from_int(2)
    C3, E3 = comrings.group_algebra_finite(F3, cyclic_group(3)), dual_numbers(F3, 3)
    images = [E3.one, (one, one, zero), (one, two, one)]   # 1, g, g^2

    def move(x):
        return functools.reduce(E3.add, (E3.scal(c, image) for c, image in zip(x, images)))

    T = comrings.truncated_poly(F3, [one, zero, two, zero, one])
    E9 = dual_numbers(F9, 2)
    assert T.nil_quotient()[0].dim == 2 and len(T.idempotents()) == 1
    for fix, counts in ((para_hurwitz_grading, (18, 9, 18)), (trivial_grading, (18, 18, 18))):
        gr, gr9 = fix(F3), galg.extend_scalars(fix(F3), F9)
        for which, count in zip(("aut", "stab", "autgamma"), counts):
            moved = {tuple(tuple(move(x) for x in row) for row in p.entries)
                     for p in pts.enumerate_points(gr, C3, which)}
            assert moved == {p.entries for p in pts.enumerate_points(gr, E3, which)}
            assert len(pts.enumerate_points(gr, T, which)) == count, (fix, which)
            assert len(pts.enumerate_points(gr9, E9, which)) == count, (fix, which)


def test_lifting_lists_points_the_fibre_walk_was_slow_on(F3, F5, F7):
    # with the cap lifted: each residue point is lifted layer by layer,
    # never searched for among the elements of its residue classes
    for gr, R, count in ((cubic_grading(F7), dual_numbers(F7, 3), 3),
                         (cubic_grading(F5), dual_numbers(F5, 2), 2)):
        start = time.perf_counter()
        assert len(pts.enumerate_points(gr, R, "aut", cap=10**30)) == count
        assert time.perf_counter() - start < 1.0
    assert len(pts.enumerate_points(zero_mult_grading(F3), dual_numbers(F3, 2), "aut",
                                    cap=10**30)) == 3888


def test_residue_search_serves_the_callers_point_set(monkeypatch, F3):
    # over F3[eps]/eps^2 the residue field is searched for stab or autgamma
    # itself: 4 and 8 residue points verified, not all 48 of GL_2(F3)
    gr, R = zero_mult_grading(F3), dual_numbers(F3, 2)
    residue = R.nil_quotient()[0]
    verify, rings = pts.automorphism_membership, []
    monkeypatch.setattr(pts, "automorphism_membership",
                        lambda phi: rings.append(phi.ring) or verify(phi))
    for which, residue_points, count in (("stab", 4, 36), ("autgamma", 8, 72)):
        rings.clear()
        assert len(pts.enumerate_points(gr, R, which)) == count
        assert (rings.count(residue), rings.count(R)) == (residue_points, count)
        assert len(rings) == residue_points + count


def test_shaped_search_refuses_a_wrong_certificate(monkeypatch, F3):
    gr = zero_mult_grading(F3)
    R = product_ring(dual_numbers(F3, 2), base_field_ring(F3))
    assert pts.enumerate_points(gr, R, "autgamma")
    honest = pts.block_permutations
    swapped = {(2,): (3,), (3,): (2,)}

    def lying(gr, p):
        (e, sigma), *rest = honest(gr, p).certificates
        other = swapped if sigma != swapped else {g: g for g in gr.support}
        return pts.BlockPermResult(True, [(e, other)] + rest)

    monkeypatch.setattr(pts, "block_permutations", lying)
    for which in ("stab", "autgamma"):
        with pytest.raises(MathIdentityError):
            pts.enumerate_points(gr, R, which)


def test_enumerated_point_sets_are_groups(F3):
    g26 = para_hurwitz_grading(F3)
    R = dual_numbers(F3, 2)
    for which in ("aut", "stab", "autgamma"):
        plist = pts.enumerate_points(g26, R, which)
        entries = {p.entries for p in plist}
        for a in plist:
            Minv = pts.ring_mat_inv(R, [list(r) for r in a.entries])
            assert tuple(tuple(r) for r in Minv) in entries
            for b in plist:
                prod = linalg.mat_mul(R, [list(r) for r in a.entries],
                                      [list(r) for r in b.entries])
                assert tuple(tuple(r) for r in prod) in entries


def test_cross_assertions_over_ring_battery(F3):
    # every automorphism point over small rings: cent==stab, norm==autgamma
    # (the membership functions raise MathIdentityError on any disagreement)
    g26 = para_hurwitz_grading(F3)
    for R in (base_field_ring(F3), dual_numbers(F3, 2),
              product_ring(base_field_ring(F3), base_field_ring(F3))):
        for p in pts.enumerate_points(g26, R, "aut"):
            pts.cent_membership_generic(g26, p)
            pts.norm_membership_generic(g26, p)


def pointwise_normalizer(points, dpoints):
    """Elements of `points` normalizing the set `dpoints` by conjugation."""
    dset = {p.entries for p in dpoints}
    out = []
    for p in points:
        R, M = p.ring, [list(r) for r in p.entries]
        Minv = pts.ring_mat_inv(R, M)
        if all(tuple(tuple(r) for r in linalg.mat_mul(R, linalg.mat_mul(R, M, d.entries), Minv))
               in dset for d in dpoints):
            out.append(p)
    return out


def test_smooth_case_normalizer_equality(F5):
    # over F5 the diagonal scheme of the zero-multiplication grading is a
    # torus; scheme-normalizer points must equal the naive group normalizer
    gr = zero_mult_grading(F5)
    R = base_field_ring(F5)
    aut = pts.enumerate_points(gr, R, "aut")
    assert len(aut) == 480
    generic = [p for p in aut if pts.norm_membership_generic(gr, p).member]
    dpts = pts.diag_points(gr, R)
    assert len(dpts) == 16
    naive = pointwise_normalizer(aut, dpts)
    assert len(generic) == len(naive) == 32
    assert {p.entries for p in generic} == {p.entries for p in naive}


def test_generic_psi_entries(Q, F3):
    g24 = zero_mult_grading(Q)
    R = base_field_ring(Q)
    Psi = pts.generic_psi(g24, R)
    GA = comrings.GroupAlgebra(R, g24.group)
    assert Psi[0][0] == GA.monomial(R.one, (2,))
    assert Psi[1][1] == GA.monomial(R.one, (3,))
    assert GA.is_zero(Psi[0][1])
    triv = trivial_grading(F3)
    R3 = base_field_ring(F3)
    Psi = pts.generic_psi(triv, R3)
    GA3 = comrings.GroupAlgebra(R3, triv.group)
    assert Psi[0][0] == GA3.monomial(R3.one, ())


def test_cent_holds_on_diagonal_over_rationals(Q):
    g24 = zero_mult_grading(Q)
    Rq = base_field_ring(Q)
    d57 = pts.point_matrix(g24.algebra, Rq,
                           [[Rq.from_int(5), Rq.zero()], [Rq.zero(), Rq.from_int(7)]])
    assert pts.cent_membership_generic(g24, d57)
    assert pts.norm_membership_generic(g24, d57).member


def test_diag_points_not_enumerable_over_rationals(Q):
    # free universal group over the rationals has infinitely many characters
    from weylbench.errors import NotEnumerableError
    g24 = zero_mult_grading(Q)
    with pytest.raises(NotEnumerableError):
        pts.diag_points(g24, base_field_ring(Q))


def test_integer_graded_algebra_full_stack(F3):
    gr = truncated_power_grading(F3)
    assert gr.support == ((0,), (1,), (2,))
    R = base_field_ring(F3)
    aut = pts.enumerate_points(gr, R, "aut")
    assert len(aut) == 6          # unit fixed, x -> a x + b x^2 with a != 0
    autg = pts.enumerate_points(gr, R, "autgamma")
    stab = pts.enumerate_points(gr, R, "stab")
    assert len(autg) == len(stab) == 2   # only monomial maps preserve degrees
    for p in aut:
        pts.cent_membership_generic(gr, p)    # RG with an infinite G
        pts.norm_membership_generic(gr, p)
    from weylbench import galg
    assert galg.universal_group(gr).group.group_str() == "Z^1"


def test_mixed_blockwise_membership(Q):
    # over Q x Q: monomial in one block, non-monomial in the other
    g24 = zero_mult_grading(Q)
    Rq = base_field_ring(Q)
    R = product_ring(Rq, Rq)
    e1 = (Q.one(), Q.zero())
    e2 = (Q.zero(), Q.one())
    one = R.one
    zero = R.zero()
    # block 1: swap; block 2: upper triangular (not monomial)
    phi = pts.point_matrix(g24.algebra, R,
                           [[e2, one], [e1, e2]])
    assert pts.automorphism_membership(phi)
    assert not pts.autgamma_membership(g24, phi)
    res = pts.norm_membership_generic(g24, phi)   # cross-asserted inside
    assert not res.member


def test_normalizer_shifts_are_cross_asserted_per_block(monkeypatch, Q):
    # a swap in one block of Q x Q: the certificate of the other block is
    # replaced by the swap, so only the shifts can see the disagreement
    g24 = zero_mult_grading(Q)
    Rq = base_field_ring(Q)
    R = product_ring(Rq, Rq)
    e1, e2 = (Q.one(), Q.zero()), (Q.zero(), Q.one())
    phi = pts.point_matrix(g24.algebra, R, [[e2, e1], [e1, e2]])
    honest = pts.block_permutations(g24, phi)
    assert honest.ok and pts.norm_membership_generic(g24, phi).member
    swapped = {(2,): (3,), (3,): (2,)}
    wrong = [(e, swapped) for e, _ in honest.certificates]
    assert wrong != honest.certificates
    monkeypatch.setattr(pts, "block_permutations",
                        lambda gr, p: pts.BlockPermResult(True, wrong))
    with pytest.raises(MathIdentityError):
        pts.norm_membership_generic(g24, phi)


def test_diag_count_for_free_universal_group_over_finite_field(F3):
    # universal group Z^1: the diagonal points biject with the units
    gr = truncated_power_grading(F3)
    dp = pts.diag_points(gr, base_field_ring(F3))
    assert len(dp) == 2


def test_cross_assertions_with_nilpotents_and_blocks(F3):
    # one block with nilpotents, one reduced block: the blockwise normalizer
    # test and the per-idempotent permutation certificates must still agree
    g26 = para_hurwitz_grading(F3)
    R = product_ring(dual_numbers(F3, 2), base_field_ring(F3))
    assert len(R.idempotents()) == 2
    plist = pts.enumerate_points(g26, R, "aut")
    assert len(plist) == 12   # 6 points over the dual block times 2 over F3
    for p in plist:
        pts.cent_membership_generic(g26, p)
        res = pts.norm_membership_generic(g26, p)
        if res.member:
            assert len(res.shifts) == 2
