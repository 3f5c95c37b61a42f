"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random

import pytest

import weylbench as wb
from weylbench import abgroups, battery, comrings, galg, linalg, weyl, points as pts
from weylbench.abgroups import cyclic_group, smith_normal_form
from weylbench.cli import run_command
from weylbench.comrings import (
    TestRing,
    base_field_ring,
    decompose_ring,
    dual_numbers,
    group_algebra_finite,
    product_ring,
)
from weylbench.deck import parse_deck

from conftest import (
    battery_rings,
    cubic_grading,
    para_hurwitz_grading,
    trivial_grading,
    zero_mult_grading,
)


def _fixture_instances():
    Q = wb.rationals()
    F3 = wb.prime_field(3)
    F5 = wb.prime_field(5)
    F7 = wb.prime_field(7)
    F9 = wb.extension_field(F3, [F3.one(), F3.zero(), F3.one()])
    return [
        ("zero_mult/Q", zero_mult_grading(Q)),
        ("zero_mult/F3", zero_mult_grading(F3)),
        ("zero_mult/F5", zero_mult_grading(F5)),
        ("para_hurwitz/F3", para_hurwitz_grading(F3)),
        ("para_hurwitz/F9", galg.extend_scalars(para_hurwitz_grading(F3), F9)),
        ("cubic/Q", cubic_grading(Q)),
        ("cubic/F7", galg.grading_over(cubic_grading(Q), F7)),
        ("trivial/F3", trivial_grading(F3)),
    ]


def test_criterion_1_centralizer_normalizer_battery():
    """cent==stab and norm==autGamma on every battery point, zero tolerance."""
    total_points = 0
    cells = 0
    for name, gr in _fixture_instances():
        F = gr.algebra.field
        for R in battery_rings(F):
            res = battery.theorem_battery(gr, R)
            # cross-assertions live inside the membership calls and raise on
            # any disagreement; reaching here means 100% agreement
            assert res.cent_checked == res.distinct_points
            assert res.norm_checked == res.distinct_points
            if res.mode == "sampled":
                assert res.evaluations >= 100
            total_points += res.distinct_points
            cells += 1
    print("ACCEPTANCE 1: PASS cent==stab and norm==autGamma on %d points "
          "across %d fixture/ring cells" % (total_points, cells))


def test_criterion_2_cubic_example_values():
    Q = wb.rationals()
    F7 = wb.prime_field(7)
    g34 = cubic_grading(Q)
    assert weyl.weyl_closure(g34).order == 2
    ses_q = weyl.ses_check(g34)
    assert ses_q.aut_count == 1            # Aut(grading)(Q) trivial
    assert weyl.weyl_over_field(g34).order == 1
    assert galg.universal_group(g34).group.group_str() == "Z/3"
    assert len(pts.diag_points(g34, base_field_ring(Q))) == 1
    g34_7 = galg.grading_over(g34, F7)
    assert len(pts.diag_points(g34_7, base_field_ring(F7))) == 3
    print("ACCEPTANCE 2: PASS cubic fixture: closure Weyl C2, rational points "
          "trivial, U=Z/3, |Diag(Q)|=1, |Diag(F7)|=3")


def test_criterion_3_normalizer_strictness_certificate():
    Q = wb.rationals()
    g24 = zero_mult_grading(Q)
    Rq = base_field_ring(Q)
    sw = pts.point_matrix(g24.algebra, Rq,
                          [[Rq.zero(), Rq.one], [Rq.one, Rq.zero()]])
    assert pts.autgamma_membership(g24, sw)
    assert pts.norm_membership_generic(g24, sw).member
    res = pts.dgroup_norm_membership(g24, sw)
    assert res.status == "nonmember"
    assert res.relation == (3, 0)
    # the CLI report prints the impossibility certificate
    import os
    deck_path = os.path.join(os.path.dirname(__file__), "..", "src",
                             "weylbench", "decks", "ex24.deck")
    with open(deck_path, "r", encoding="utf-8") as fh:
        deck = parse_deck(fh.read())
    rep = run_command(deck, ["member", "swap", "in", "Gamma", "set=dGnorm"])
    assert "relation=(3,0)" in rep.lines
    print("ACCEPTANCE 3: PASS swap is a grading automorphism and a generic "
          "normalizer member but not a D(G)-normalizer; certificate (3,0)")


def test_criterion_4_para_hurwitz_counts_and_warning():
    F3 = wb.prime_field(3)
    g26 = para_hurwitz_grading(F3)
    F3r = base_field_ring(F3)
    D = dual_numbers(F3, 2)
    assert len(pts.enumerate_points(g26, F3r, "aut")) == 2
    assert len(pts.enumerate_points(g26, D, "aut")) == 6
    assert len(pts.diag_points(g26, F3r)) == 1      # cross-checked inside
    assert len(pts.diag_points(g26, D)) == 3
    sw = pts.point_matrix(g26.algebra, F3r,
                          [[F3r.zero(), F3r.one], [F3r.one, F3r.zero()]])
    assert pts.norm_membership_generic(g26, sw).member
    res = battery.theorem_battery(g26, F3r)
    assert res.warn_nonsmooth
    import os
    deck_path = os.path.join(os.path.dirname(__file__), "..", "src",
                             "weylbench", "decks", "ex26.deck")
    with open(deck_path, "r", encoding="utf-8") as fh:
        deck = parse_deck(fh.read())
    rep = run_command(deck, ["member", "swap", "in", "Gamma", "set=normDiag"])
    assert any(line.startswith("WARN ") for line in rep.lines)
    print("ACCEPTANCE 4: PASS |Aut(F3)|=2, |Aut(F3[eps])|=6, |Diag(F3)|=1, "
          "|Diag(F3[eps])|=3; non-smooth normalizer tension flagged as WARN")


def test_criterion_5_exact_sequence_and_closure_fields():
    Q = wb.rationals()
    F3 = wb.prime_field(3)
    F5 = wb.prime_field(5)
    F7 = wb.prime_field(7)
    F9 = wb.extension_field(F3, [F3.one(), F3.zero(), F3.one()])
    checks = 0
    for gr in (zero_mult_grading(F3), zero_mult_grading(F5),
               para_hurwitz_grading(F3),
               galg.extend_scalars(para_hurwitz_grading(F3), F9),
               galg.grading_over(cubic_grading(Q), F7),
               trivial_grading(F3)):
        res = weyl.ses_check(gr)
        assert res.product_ok and res.weyl_in_closure
        checks += 1
    # each thin fixture reaches its closure Weyl group at a computed field
    g24 = zero_mult_grading(F3)
    assert set(weyl.weyl_over_field(g24).elements) == set(weyl.weyl_closure(g24).elements)
    g26 = para_hurwitz_grading(F3)
    assert set(weyl.weyl_over_field(g26).elements) == set(weyl.weyl_closure(g26).elements)
    g34_7 = galg.grading_over(cubic_grading(Q), F7)
    F343 = wb.extension_field(F7, [F7.from_int(-2), F7.zero(), F7.zero(), F7.one()])
    g34_343 = galg.extend_scalars(g34_7, F343)
    assert set(weyl.weyl_over_field(g34_343).elements) == \
        set(weyl.weyl_closure(g34_343).elements)
    print("ACCEPTANCE 5: PASS exact sequence verified at points on %d "
          "fixtures; closure Weyl groups reached over verified finite fields"
          % checks)


def test_criterion_6_thin_solver_vs_enumeration():
    F4 = wb.extension_field(wb.prime_field(2),
                            [wb.prime_field(2).one()] * 3)
    fields = [wb.prime_field(2), wb.prime_field(3), F4,
              wb.prime_field(5), wb.prime_field(7)]
    pairs = 0
    for F in fields:
        for fix in (zero_mult_grading, para_hurwitz_grading, cubic_grading):
            if F.kind == "extension":
                gr = galg.extend_scalars(fix(wb.prime_field(F.characteristic())), F)
            else:
                gr = fix(F)
            thin = sum(t.count for t in weyl.thin_systems(gr))
            brute = len(pts.enumerate_points(gr, base_field_ring(F), "autgamma"))
            assert thin == brute, (F, fix.__name__, thin, brute)
            pairs += 1
    print("ACCEPTANCE 6: PASS thin-solver point counts equal brute-force "
          "enumeration on %d fixture/field pairs" % pairs)


def _random_basis_change_check(R, rng):
    F = R.field
    n = R.dim
    while True:
        P = [[F.from_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if not F.is_zero(linalg.det(F, P)):
            break
    Pinv = linalg.inv(F, P)

    def to_new(vec):
        return tuple(linalg.mat_vec(F, Pinv, list(vec)))

    def to_old(vec):
        return tuple(linalg.mat_vec(F, P, list(vec)))

    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            fi = to_old(tuple(F.one() if k == i else F.zero() for k in range(n)))
            fj = to_old(tuple(F.one() if k == j else F.zero() for k in range(n)))
            table[i][j] = to_new(R.mul(fi, fj))
    changed = TestRing(F, table, to_new(R.one))
    mapped = {to_old(e) for e in decompose_ring(changed)}
    return mapped == set(R.idempotents())


def test_criterion_7_idempotent_decomposition():
    Q = wb.rationals()
    F3 = wb.prime_field(3)
    F7 = wb.prime_field(7)
    C6 = cyclic_group(6)
    RQ = group_algebra_finite(Q, C6)
    R7 = group_algebra_finite(F7, C6)
    R3 = dual_numbers(F3, 2)
    assert len(RQ.idempotents()) == 4
    assert len(R7.idempotents()) == 6
    assert len(R3.idempotents()) == 1
    rng = random.Random(0xACCE97)
    changes = 0
    for R, reps in ((RQ, 20), (R7, 20), (R3, 10)):
        for _ in range(reps):
            assert _random_basis_change_check(R, rng)
            changes += 1
    assert changes == 50
    print("ACCEPTANCE 7: PASS block counts 4/6/1 and decomposition unchanged "
          "under %d random basis changes" % changes)


def test_criterion_8_grading_check_equivalence():
    Q = wb.rationals()
    F3 = wb.prime_field(3)
    rng = random.Random(0xACCE98)
    fixtures = [zero_mult_grading(Q), para_hurwitz_grading(F3), cubic_grading(Q)]
    runs = 0
    for gr in fixtures:
        A, G = gr.algebra, gr.group
        elems = list(G.elements())
        agree_true = 0
        for _ in range(200):
            labels = [rng.choice(elems) for _ in range(A.dim)]
            direct = galg.grading_axiom_witness(A, G, labels) is None
            generic = wb.verify_grading_generic(A, G, labels)
            assert direct == generic
            agree_true += direct
            runs += 1
        assert 0 < agree_true  # some sampled labelings are valid gradings
    print("ACCEPTANCE 8: PASS direct and generic grading checks agree on "
          "%d randomized labelings" % runs)


def test_criterion_9_smith_normal_form_random():
    rng = random.Random(0xACCE99)
    for _ in range(500):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        M = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        # postconditions (U M V = D, unimodularity, chain) verified inside
        D, U, V, _, _ = smith_normal_form(M)
    print("ACCEPTANCE 9: PASS Smith normal form postconditions on 500 random "
          "matrices up to 8x8")


def test_criterion_10_diag_point_counts():
    Q = wb.rationals()
    finite_fixtures = [(name, gr) for name, gr in _fixture_instances()
                       if gr.algebra.field.is_finite()]
    checked = skipped = 0
    for name, gr in finite_fixtures:
        F = gr.algebra.field
        for R in battery_rings(F):
            supp = len(gr.support)
            count = R.element_count()
            if count is not None and count ** supp <= 300_000:
                pts.diag_points(gr, R, cap=300_000)
                checked += 1
            else:
                skipped += 1
    assert checked >= 20
    print("ACCEPTANCE 10: PASS diagonal point counts match exhaustive "
          "diagonal membership on %d finite fixture/ring pairs "
          "(%d pairs beyond the enumeration cap)" % (checked, skipped))
