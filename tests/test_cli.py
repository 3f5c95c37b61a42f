import contextlib
import io
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbench import galg
from weylbench.cli import COMMANDS, main, run_command
from weylbench.deck import parse_deck, tokenize
from weylbench.errors import DeckError

DECKS = os.path.join(os.path.dirname(__file__), "..", "src", "weylbench", "decks")


def load(name):
    with open(os.path.join(DECKS, name), "r", encoding="utf-8") as fh:
        return fh.read()


def run(deck_text, argv, **kw):
    return run_command(parse_deck(deck_text), argv, **kw)


def test_parse_bundled_decks():
    for name in ("ex24.deck", "ex26.deck", "ex34.deck", "triv.deck"):
        deck = parse_deck(load(name))
        assert deck.gradings


def test_deck_roundtrip():
    for name in ("ex24.deck", "ex26.deck", "ex34.deck", "triv.deck"):
        deck = parse_deck(load(name))
        text = deck.canonical_text()
        deck2 = parse_deck(text)
        assert deck2.canonical_text() == text
        tight = load(name).replace(" = ", "=")
        loose = re.sub(r"\s*=\s*", " = ", tight)
        assert tight != load(name) != loose
        for variant in (tight, loose):
            assert parse_deck(variant).canonical_text() == text
        assert sorted(deck2.all_names()) == sorted(deck.all_names())
        for gname, gr in deck.gradings.items():
            gr2 = deck2.gradings[gname]
            assert gr2.degrees == gr.degrees
            assert gr2.algebra.table == gr.algebra.table


def test_deck_errors_have_line_numbers():
    bad = "field Q = rationals\ngroup C3 = Z/3\nfrobnicate x = 1\n"
    with pytest.raises(DeckError) as err:
        parse_deck(bad)
    assert "line 3" in str(err.value)


def test_deck_grading_axiom_violation_cites_witness():
    bad = """
field F3 = prime 3
group C3 = Z/3
algebra A over F3 dim 2 basis e1,e2
mul e1 e1 = e2
mul e2 e2 = e1
grading Gamma on A by C3 deg e1=1 deg e2=1
"""
    with pytest.raises(DeckError) as err:
        parse_deck(bad)
    assert "witness (e1,e1)" in str(err.value)


def test_universal_golden():
    rep = run(load("ex34.deck"), ["universal", "Gamma"])
    assert rep.text() == "U=Z/3\n"
    rep = run(load("ex24.deck"), ["universal", "Gamma"])
    assert rep.text() == "U=Z^2\n"


def test_weyl_goldens():
    rep = run(load("ex34.deck"), ["weyl", "Gamma"])
    assert rep.text() == "weyl.mode=closure\nweyl.order=2\nweyl.generators=(1 2)\n"
    rep = run(load("ex34.deck"), ["weyl", "Gamma", "over", "Q"])
    assert rep.text() == "weyl.mode=rational\nweyl.order=1\nweyl.generators=\n"
    rep = run(load("ex24.deck"), ["weyl", "Gamma"])
    assert rep.text() == "weyl.mode=closure\nweyl.order=2\nweyl.generators=(2 3)\n"


@pytest.mark.parametrize("modulus, out", [
    ("[-2,0,0,1]", "weyl.order=2\nweyl.generators=(1 2)\n"),
    ("[1,1,1]", "weyl.order=1\nweyl.generators=\n"),
], ids=["Q(cbrt2)", "Q(zeta3)"])
def test_ex34_weyl_over_number_fields(tmp_path, capsys, modulus, out):
    # u -> c u^2 swaps the degrees 1 and 2 exactly when c^3 = 1/2, which has a
    # root in Q(cbrt 2) and none in Q(zeta3)
    deck = tmp_path / "ex34.deck"
    deck.write_text(load("ex34.deck") + "field K = extend Q %s\n" % modulus)
    assert main(["--deck", str(deck), "weyl", "Gamma", "over", "K"]) == 0
    assert capsys.readouterr().out == "weyl.mode=rational\n" + out


def test_support_golden():
    rep = run(load("ex24.deck"), ["support", "Gamma"])
    assert rep.text() == "support.size=2\nsupport=2;3\n"


def test_member_goldens():
    rep = run(load("ex24.deck"), ["member", "swap", "in", "Gamma", "set=autGamma"])
    assert rep.lines[0] == "member=true"
    assert rep.lines[1] == "block e0 perm=(2 3)"
    rep = run(load("ex24.deck"), ["member", "swap", "in", "Gamma", "set=dGnorm"])
    assert rep.lines == ["member=false", "forced 2=3", "forced 3=2",
                         "relation=(3,0)", "relation.value=3"]
    rep = run(load("ex26.deck"), ["member", "swap", "in", "Gamma", "set=normDiag"])
    assert rep.lines[0] == "member=true"
    assert rep.lines[1] == "block e0 shift=(1->2,2->1)"
    assert rep.lines[2].startswith("WARN ")
    rep = run(load("ex26.deck"), ["member", "swap", "in", "Gamma", "set=centDiag"])
    assert rep.lines == ["member=false"]
    rep = run(load("ex26.deck"), ["member", "swapeps", "in", "Gamma", "set=autGamma"])
    assert rep.lines[0] == "member=true"


@pytest.mark.parametrize("rows, ring, message", [
    ("[[1,0],[0,0]]", "Qr", "matrix is not a point of the grading automorphism scheme"),
    ("[[1,1],[0,1]]", "Qr", "matrix is not a point of the grading automorphism scheme"),
    ("[[[0,1],[1,0]],[[1,0],[0,1]]]", "QxQ", "test requires a connected ring"),
], ids=["singular", "triangular", "swap-on-one-block"])
def test_dgroup_refusals_keep_their_messages(tmp_path, capsys, rows, ring, message):
    deck = tmp_path / "ex24x.deck"
    deck.write_text(load("ex24.deck") + "map m on A over %s = %s\n" % (ring, rows))
    assert main(["--deck", str(deck), "member", "m", "in", "Gamma", "set=dGnorm"]) == 2
    assert capsys.readouterr().out == "error=input: %s\n" % message


def test_points_and_idempotents_goldens():
    rep = run(load("ex26.deck"), ["points", "Gamma", "over", "F3r", "set=aut"])
    assert rep.lines[0] == "points.count=2"
    rep = run(load("ex26.deck"), ["points", "Gamma", "over", "F3eps", "set=diag"])
    assert rep.lines[0] == "points.count=3"
    rep = run(load("ex26.deck"), ["idempotents", "F3eps"])
    assert rep.lines == ["idempotents.count=1", "idempotent.0=[1,0]"]


def test_ses_golden():
    rep = run(load("ex24.deck"), ["ses", "Gamma", "over", "F3"])
    assert rep.lines == ["ses.aut=8", "ses.stab=4", "ses.weyl.order=2",
                         "ses.identity=ok", "ses.weyl_in_closure=ok"]


def test_verify_theorem_golden():
    rep = run(load("ex26.deck"), ["verify-theorem", "Gamma", "over", "F3eps"])
    assert rep.lines[0] == "points.mode=enumerated"
    assert rep.lines[1] == "points.count=6"
    assert rep.lines[2] == "cent==stab: ok (6/6)"
    assert rep.lines[3] == "norm==autGamma: ok (6/6)"
    assert rep.lines[4].startswith("WARN ")


def test_verify_theorem_samples_over_rings_past_the_table_size():
    # the battery enumerates only rings within the table size (512 elements),
    # so over F521 and F521[eps]/eps^2 it samples, and its base-field source,
    # F521 itself, is empty
    deck = ("field F521 = prime 521\ngroup T = 1\nalgebra A over F521 dim 1 basis e\n"
            "mul e e = e\ngrading Gamma on A by T deg e=0\n"
            "ring R = base F521\nring D = dual F521 2\n")
    for ring in ("R", "D"):
        rep = run(deck, ["verify-theorem", "Gamma", "over", ring])
        assert rep.lines == ["points.mode=sampled", "points.count=1",
                             "cent==stab: ok (1/1)", "norm==autGamma: ok (1/1)"]


def test_reports_are_deterministic():
    for argv in (["weyl", "Gamma"], ["support", "Gamma"], ["universal", "Gamma"]):
        a = run(load("ex34.deck"), argv).text()
        b = run(load("ex34.deck"), argv).text()
        assert a == b


def test_cli_process_exit_codes(tmp_path):
    deck = tmp_path / "t.deck"
    deck.write_text(load("ex34.deck"))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    out = subprocess.run(
        [sys.executable, "-m", "weylbench", "--deck", str(deck), "universal", "Gamma"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout == "U=Z/3\n"
    out = subprocess.run(
        [sys.executable, "-m", "weylbench", "--deck", str(deck), "universal", "Nope"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert out.stdout.startswith("error=input:")
    bad = tmp_path / "bad.deck"
    bad.write_text("field Q = rationals\nbogus\n")
    out = subprocess.run(
        [sys.executable, "-m", "weylbench", "--deck", str(bad), "check"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert "line 2" in out.stdout


def test_tower_extension_field_in_deck():
    # s^2 - (t+1) over F9 = F3[t]/(t^2+1); t+1 generates F9* so it is not a
    # square and the modulus is irreducible
    text = """
field F3 = prime 3
field F9 = extend F3 [1,0,1]
field F81 = extend F9 [[2,2],[0,0],[1,0]]
"""
    deck = parse_deck(text)
    F81 = deck.fields["F81"]
    assert F81.cardinality() == 81
    s = F81.gen()
    assert F81.mul(s, F81.inv(s)) == F81.one()  # inversion exercises Euclid
    for x in list(F81.elements())[:20]:
        if not F81.is_zero(x):
            assert F81.mul(x, F81.inv(x)) == F81.one()


def test_points_command_rejects_infinite_ring():
    deck = parse_deck(load("ex24.deck"))
    from weylbench.errors import InputError
    with pytest.raises(InputError):
        run_command(deck, ["points", "Gamma", "over", "Qr", "set=aut"])


def test_check_all_bundled_decks():
    for name in ("ex24.deck", "ex26.deck", "ex34.deck", "triv.deck"):
        rep = run(load(name), ["check"])
        assert rep.lines[0] == "ok=true"


def test_weyl_over_extension_field_golden():
    rep = run(load("ex26.deck"), ["weyl", "Gamma", "over", "F9"])
    assert rep.lines == ["weyl.mode=rational", "weyl.order=2",
                        "weyl.generators=(1 2)"]


def test_cap_flag_limits_enumeration():
    from weylbench.errors import CapExceededError
    with pytest.raises(CapExceededError):
        run(load("ex26.deck"), ["points", "Gamma", "over", "F3eps", "set=aut"],
            cap=2)


def test_ex34_searches_run_under_the_default_cap(tmp_path, capsys):
    # each visits at most a few hundred nodes, though |R|^dim per enum step
    # of the plan is 1.38e10 over F7e and 1.63e15 over F7ex
    deck = tmp_path / "ex34.deck"
    deck.write_text(load("ex34.deck") + "ring F7e = dual F7 2\nring F7b = base F7\n"
                    "ring F7ex = product F7e F7b\n")
    for ring, which, count in (("F7e", "aut", 3), ("F7e", "autgamma", 3),
                               ("F7ex", "stab", 9), ("F7ex", "aut", 9)):
        assert main(["--deck", str(deck), "points", "Gamma", "over", ring,
                     "set=" + which]) == 0
        assert capsys.readouterr().out.startswith("points.count=%d\n" % count)


def test_ex34_points_over_a_product_past_the_table_size(tmp_path, capsys):
    # F7 x F7[eps]/eps^3 has 2401 elements, past the table size: its blocks
    # are searched on their own tables and the points summed on R itself
    deck = tmp_path / "ex34.deck"
    deck.write_text(load("ex34.deck") + "ring F7e3 = dual F7 3\nring F7x = product F7r F7e3\n")
    for which in ("aut", "stab", "autgamma"):
        start = time.perf_counter()
        assert main(["--deck", str(deck), "points", "Gamma", "over", "F7x",
                     "set=" + which]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.startswith("points.count=9\n")


def test_ex26_shaped_points_over_a_field_times_a_local_ring(tmp_path, capsys, monkeypatch):
    # F3 x F3[eps]/eps^3 runs all three searches: the blocks, the F3 block by
    # its DFS, and F3[eps]/eps^3 lifted from its residue field F3 through two
    # layers; admissible permutations are built only by the two field searches
    deck = tmp_path / "ex26.deck"
    deck.write_text(load("ex26.deck") + "ring F3e3 = dual F3 3\nring F3x = product F3r F3e3\n")
    admissible, calls = galg.admissible_permutations, []
    monkeypatch.setattr(galg, "admissible_permutations",
                        lambda gr: calls.append(gr) or admissible(gr))
    for which, count, built in (("autgamma", 36, 2), ("stab", 9, 0)):
        calls.clear()
        assert main(["--deck", str(deck), "points", "Gamma", "over", "F3x",
                     "set=" + which]) == 0
        out = capsys.readouterr().out
        assert out.startswith("points.count=%d\n" % count)
        assert len(out.splitlines()) == count + 1 and len(calls) == built


def test_points_over_a_field_past_the_table_size_exit_2(tmp_path, capsys):
    # the DFS ranges over the field's table, so F521 is refused
    deck = tmp_path / "f521.deck"
    deck.write_text("field F521 = prime 521\ngroup T = 1\nalgebra A over F521 dim 1 basis e\n"
                    "mul e e = e\ngrading Gamma on A by T deg e=0\nring R = base F521\n")
    assert main(["--deck", str(deck), "points", "Gamma", "over", "R", "set=aut"]) == 2
    assert capsys.readouterr().out == "error=input: ring too large for table form (521)\n"


def test_gl3_search_is_refused_at_the_cap_it_passes(tmp_path, capsys):
    # all products zero in dimension 3 over F5: Aut is GL_3(F5), 1,488,000
    # points from about 2e6 DFS nodes; refused after 100,000 of them (~1 s)
    deck = tmp_path / "zero3.deck"
    deck.write_text("field F5 = prime 5\ngroup T = 1\nalgebra A over F5 dim 3 basis a,b,c\n"
                    "grading Gamma on A by T deg a=0 deg b=0 deg c=0\nring F5r = base F5\n")
    start = time.perf_counter()
    code = main(["--deck", str(deck), "--cap", "100000",
                 "points", "Gamma", "over", "F5r", "set=aut"])
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert capsys.readouterr().out == "error=input: point search passed its cap of 100000 nodes\n"


def test_block_product_search_is_refused_quickly_at_the_default_cap(tmp_path, capsys):
    # all products zero in dimension 3 over F3 x F3: GL_3(F3) has 11,232
    # points per block, so 11,232^2 > 10^6 sums are spent before any is built
    deck = tmp_path / "zero3x.deck"
    deck.write_text("field F3 = prime 3\ngroup T = 1\nalgebra A over F3 dim 3 basis a,b,c\n"
                    "grading Gamma on A by T deg a=0 deg b=0 deg c=0\nring F3r = base F3\n"
                    "ring F3x = product F3r F3r\n")
    start = time.perf_counter()
    code = main(["--deck", str(deck), "points", "Gamma", "over", "F3x", "set=aut"])
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert capsys.readouterr().out == "error=input: point search passed its cap of 1000000 nodes\n"


def test_diag_points_over_a_ring_past_the_cap_exits_2(tmp_path, capsys):
    # |R| = 3^12 > cap: refused before the 531,441-element unit scan
    deck = tmp_path / "big.deck"
    deck.write_text(load("triv.deck") + "ring F3eps12 = dual F3 12\n")
    start = time.perf_counter()
    code = main(["--deck", str(deck), "--cap", "20000",
                 "points", "Gamma", "over", "F3eps12", "set=diag"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().out == "error=input: point search passed its cap of 20000 nodes\n"


def test_diag_is_listed_at_its_spend_and_refused_one_node_short(tmp_path, capsys):
    # ex34 over F7[C3]: |R| = 343 before the unit scan, 27 characters, then
    # the oracle's candidates, 216, 216 * 216 and 1 * 216: 47,458 nodes
    deck = tmp_path / "f7c3.deck"
    deck.write_text(load("ex34.deck") + "ring F7C3 = groupalg F7 C3\n")
    for cap, code, head in (
            ("47458", 0, "points.count=27\n"),
            ("47457", 2, "error=input: point search passed its cap of 47457 nodes\n")):
        assert main(["--deck", str(deck), "--cap", cap,
                     "points", "Gamma", "over", "F7C3", "set=diag"]) == code
        assert capsys.readouterr().out.startswith(head)


@pytest.mark.parametrize("cap, message", [
    ([], "point search passed its cap of 1000000 nodes"),
    (["--cap", "100000000"], "out of memory; lower --cap")], ids=["default-cap", "cap-1e8"])
def test_lift_search_exits_2_within_400_mb(tmp_path, cap, message):
    # all products zero in dimension 3 over F3[eps]/eps^2: each spent lift
    # node is a built point, about 260 bytes.  Under a 400 MB address-space
    # limit the default cap refuses the search (about 4 s and 270 MB), and a
    # cap of 10^8 runs out of memory (about 6 s), which exits 2 as well
    deck = tmp_path / "zero3e.deck"
    deck.write_text("field F3 = prime 3\ngroup T = 1\nalgebra A over F3 dim 3 basis a,b,c\n"
                    "grading Gamma on A by T deg a=0 deg b=0 deg c=0\nring F3e = dual F3 2\n")
    limited = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
               "from weylbench.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", limited, "--deck", str(deck)] + cap +
        ["points", "Gamma", "over", "F3e", "set=aut"],
        capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 20.0
    assert (out.returncode, out.stdout, out.stderr) == (2, "error=input: %s\n" % message, "")


EX24_HEAD = ("field Q = rationals\ngroup C6 = Z/6\nalgebra A over Q dim 2 basis u,v\n"
             "# the zero algebra\n")


@pytest.mark.parametrize("text, line", [
    ("field F = prime x\n", 1),
    ("group G = Z/q\n", 1),
    ("field F3 = prime 3\nalgebra A over F3 dim 2 basis e1,e2\nmul e1 e1 = 1/0 e2\n", 3),
    ("field Q = rationals\nalgebra A over Q dim 1 basis e\nmul e e = 1/0 e\n", 3),
    ("field Q = rationals\ngroup G = Z^-2\n", 2),
    ("field Q =\n", 1),
    ("field Q = rationals\nring R =\n", 2),
    ("field F = prime 3 3\n", 1),
    ("field 3F = prime 3\n", 1),
    ("field F9 = extend F3 [1,0,1]\n", 1),
    ("field F3 = prime 3\nfield F9 = extend F3 [1,0,1\n", 2),
    ("group G = Z/3\ngroup G = Z/2\n", 2),
    ("group G-1 = Z/3\n", 1),
    ("field F3 = prime 3\nring R = base F3 F3\n", 2),
    ("field F3 = prime 3\nring R = dual F3 two\n", 2),
    ("field F3 = prime 3\nalgebra A over F3 dim x basis a\n", 2),
    ("field F3 = prime 3\nalgebra A xx F3 yy 2 zz e1,e2\n", 2),
    ("field F3 = prime 3\nmul a a = a\n", 2),
    ("field F3 = prime 3\nalgebra A over F3 dim 1 basis a\nmul a a a\n", 3),
    (EX24_HEAD + "grading Gamma of A with C6 deg u=2 deg v=3\n", 5),
    (EX24_HEAD + "grading Gamma on A by C6 deg u=2 deg v 3\n", 5),
    (EX24_HEAD + "grading Gamma on A by C6 deg u=2 deg v=3\n"
     "ring Qr = base Q\nmap m on A over Qr = [[1,0],[0,1]] extra\n", 7),
    (EX24_HEAD + "ring Qr = base Q\nmap m on A over Qr = [[1,0],[0,1]]]\n", 6),
], ids=["prime-x", "group-Zq", "F3-one-over-zero", "Q-one-over-zero", "negative-rank",
        "field-empty-rhs", "ring-empty-rhs", "field-trailing-token", "field-bad-name",
        "field-unknown-base", "field-unclosed-bracket", "group-redeclared", "group-bad-name",
        "ring-trailing-token", "ring-non-integer", "algebra-non-integer",
        "algebra-wrong-keywords", "mul-outside-algebra", "mul-without-equals",
        "grading-wrong-keywords", "grading-deg-without-equals",
        "map-trailing-token", "map-unbalanced-bracket"])
def test_bad_deck_literal_exits_2_with_line(tmp_path, capsys, text, line):
    deck = tmp_path / "bad.deck"
    deck.write_text(text)
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out.startswith("error=input: line %d: " % line)


def test_deck_with_a_large_prime_field_checks_at_once(tmp_path, capsys):
    deck = tmp_path / "big.deck"
    deck.write_text("field F = prime 1000000000000000003\n")
    start = time.perf_counter()
    assert main(["--deck", str(deck), "check"]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.startswith("ok=true\n")


@pytest.mark.parametrize("den, count", [
    ("1000000000000000003", 1),
    ("1000000014000000049", 2),
    ("1000000016000000063", 1),
], ids=["prime", "prime-squared", "two-primes"])
def test_idempotents_with_a_large_denominator_answer_at_once(tmp_path, capsys, den, count):
    # t^2 = 1/den splits over Q exactly when den is a square
    deck = tmp_path / "trunc.deck"
    deck.write_text("field Q = rationals\nring R = trunc Q [-1/%s,0,1]\n" % den)
    start = time.perf_counter()
    assert main(["--deck", str(deck), "idempotents", "R"]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out.startswith("idempotents.count=%d\n" % count)


@pytest.mark.parametrize("n, why", [
    ("1000000016000000063", "1000000016000000063 is not prime"),
    ("3317044064679887385961981", "primality is decided only below 3317044064679887385961981"),
], ids=["composite", "past-bound"])
def test_large_prime_field_refusal_exits_2_with_line(tmp_path, capsys, n, why):
    deck = tmp_path / "bad.deck"
    deck.write_text("field Q = rationals\nfield F = prime %s\n" % n)
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out == "error=input: line 2: %s\n" % why


@pytest.mark.parametrize("data, line", [
    (b"field F3 = prime 3\n\xff\xfe bad\n", 2),
    (b"field F3 = prime 3\r\n# ok\r\ngroup G = Z/3 \xc3\n", 3),
], ids=["bad-start-byte", "truncated-sequence-crlf"])
def test_deck_that_is_not_utf8_exits_2_with_line(tmp_path, capsys, data, line):
    deck = tmp_path / "bad.deck"
    deck.write_bytes(data)
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out == "error=input: line %d: deck is not valid UTF-8\n" % line


def test_deck_map_moves_the_algebra_into_the_ring_field():
    deck = parse_deck(load("ex26.deck") + "map swap9 on A over F9r = [[0,1],[1,0]]\n")
    assert deck.maps["swap9"].algebra.label == "A@F9"
    rep = run_command(deck, ["member", "swap9", "in", "Gamma", "set=autGamma"])
    assert rep.lines == ["member=true", "block e0 perm=(1 2)"]


def test_deck_map_over_a_ring_with_no_field_map_exits_2(tmp_path, capsys):
    deck = tmp_path / "t.deck"
    deck.write_text(load("ex26.deck") + "field F5 = prime 5\nring F5r = base F5\n"
                    "map bad on A over F5r = [[0,1],[1,0]]\n")
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out == (
        "error=input: line 16: map ring field does not match the algebra field\n")


def test_deck_map_ring_name_written_against_the_equals_sign(tmp_path, capsys):
    # the ring name is the text before the first '=', as in "ring R=base Q"
    text = ("field Q = rationals\nring R=base Q\nalgebra A over Q dim 1 basis e\n"
            "mul e e = e\nmap m on A over R=[[1]]\n")
    deck = tmp_path / "t.deck"
    deck.write_text(text)
    assert main(["--deck", str(deck), "check"]) == 0
    assert "maps=1\n" in capsys.readouterr().out
    spaced = parse_deck(text.replace("R=[[1]]", "R = [[1]]")).maps["m"]
    tight = parse_deck(text).maps["m"]
    assert (tight.ring.label, tight.entries) == (spaced.ring.label, spaced.entries)


def test_duplicate_mul_line_exits_2_with_its_line(tmp_path, capsys):
    text = ("field Q = rationals\nalgebra A over Q dim 2 basis a,b\n"
            "mul a a = a\nmul a b = b\nmul b a = b\n")
    deck = tmp_path / "t.deck"
    deck.write_text(text)
    assert main(["--deck", str(deck), "check"]) == 0   # (a, b) and (b, a) are two pairs
    capsys.readouterr()
    deck.write_text(text + "# a comment\nmul a b = 0\n")
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out == (
        "error=input: line 7: duplicate mul line for a b (first at line 4)\n")


@pytest.mark.parametrize("basis", ["a, b", "a,b extra", "a,", ",b", "a,,b"])
def test_algebra_header_refuses_stray_basis_tokens(tmp_path, capsys, basis):
    # a space after a comma once left the basis a and "" and dropped b
    deck = tmp_path / "t.deck"
    deck.write_text("field Q = rationals\nalgebra A over Q dim 2 basis %s\n" % basis)
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out.startswith("error=input: line 2: ")


def test_mul_line_with_a_tight_equals_sign(tmp_path, capsys):
    text = "field Q = rationals\nalgebra A over Q dim 1 basis e\nmul e e = e\n"
    spaced = parse_deck(text).algebras["A"].table
    for tight in ("mul e e=e", "mul e e =e", "mul e e= e"):
        assert parse_deck(text.replace("mul e e = e", tight)).algebras["A"].table == spaced
    deck = tmp_path / "t.deck"
    deck.write_text(text.replace("mul e e = e", "mul e e = e extra"))
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out.startswith("error=input: line 3: ")
    for bad in ("mul e e e = e", "mul e = e", "mul e e e"):
        with pytest.raises(DeckError, match="bad mul line"):
            parse_deck(text.replace("mul e e = e", bad))


SQRT2_DECK = """field Q = rationals
field K = extend Q [-2,0,1]
ring Kr = base K
ring KK = product Kr Kr
ring T = trunc K [-1,0,1]
ring D = dual K 2
ring DK = product D Kr
"""


@pytest.mark.parametrize("ring, code, out", [
    ("Kr", 0, "idempotents.count=1\nidempotent.0=[1,0]\n"),
    ("KK", 0, "idempotents.count=2\nidempotent.0=[[0,0],[1,0]]\nidempotent.1=[[1,0],[0,0]]\n"),
    ("T", 0, "idempotents.count=2\nidempotent.0=[[1/2,0],[-1/2,0]]\n"
             "idempotent.1=[[1/2,0],[1/2,0]]\n"),
    ("DK", 0, "idempotents.count=2\nidempotent.0=[[0,0],[0,0],[1,0]]\n"
              "idempotent.1=[[1,0],[0,0],[0,0]]\n"),
])
def test_idempotents_over_q_sqrt2(tmp_path, capsys, ring, code, out):
    # a ring over K = Q(sqrt 2) is split as a Q-algebra, so a reduced ring
    # with two blocks lists both; dim eR is a rank, never a trace read as an int
    deck = tmp_path / "k.deck"
    deck.write_text(SQRT2_DECK)
    assert main(["--deck", str(deck), "idempotents", ring]) == code
    assert capsys.readouterr().out == out


def test_second_degree_for_a_basis_name_is_refused():
    # the second deg once overwrote the first, grading a different algebra
    with pytest.raises(DeckError, match="line 5: second degree for 'u'"):
        parse_deck(EX24_HEAD + "grading Gamma on A by C6 deg u=2 deg v=3 deg u=1\n")


@pytest.mark.parametrize("text", [
    "field F7 = prime 7\nring R = trunc F7 [1 2, 0, 1]\n",
    "field Q = rationals\nfield K = extend Q [-2, 0 1]\n",
], ids=["trunc-entry-split", "extend-entry-split"])
def test_space_inside_a_literal_entry_exits_2_with_line(tmp_path, capsys, text):
    # the space was dropped: [1 2, 0, 1] read as [12,0,1]
    deck = tmp_path / "bad.deck"
    deck.write_text(text)
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out.startswith(
        "error=input: line 2: space inside a literal entry")


def test_spaces_next_to_brackets_and_commas_are_dropped():
    assert tokenize("ring R = trunc F3 [ 1 , 0 ,1 ]") == [
        "ring", "R", "=", "trunc", "F3", "[1,0,1]"]
    tight = "field F3 = prime 3\nring R = trunc F3 [1,0,1]\n"
    assert parse_deck(tight.replace("[1,0,1]", "[ 1 , 0 ,1 ]")).canonical_text() == tight
    assert parse_deck(tight).canonical_text() == tight


def test_bracket_literals_ignore_inner_spaces():
    tight = ("field F3 = prime 3\nfield F9 = extend F3 [1,0,1]\nring T = trunc F3 [0,0,1]\n"
             "algebra A over F3 dim 2 basis a,b\nmap m on A over T = [[[1,0],[0,0]],[[0,0],[1,0]]]\n")
    loose = re.sub(r"\[.*\]", lambda m: m.group().replace(",", " , ").replace("]", " ] "), tight)
    assert loose.count(" ") > tight.count(" ") + 20
    a, b = parse_deck(tight), parse_deck(loose)
    assert a.canonical_text() == b.canonical_text() == tight
    assert a.fields["F9"] == b.fields["F9"]
    assert a.rings["T"].table == b.rings["T"].table
    assert a.maps["m"].entries == b.maps["m"].entries


# every command form, its slots filled from ex24.deck, with one token too many
SLOTS = {"GRADING": "Gamma", "FIELD": "F3", "RING": "F3r", "MAP": "swap3"}


@pytest.mark.parametrize("form", list(COMMANDS) + ["ses GRADING set=aut"])
def test_trailing_command_tokens_exit_2(capsys, form):
    argv = [SLOTS.get(w, w.split("|")[0]) for w in form.split()]
    if "set=aut" not in argv:
        argv.append("junk")
    assert main(["--deck", os.path.join(DECKS, "ex24.deck")] + argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error=input: expected end of line"), out
    assert out.endswith(", got %r\n" % ("set" if "set=aut" in argv else "junk"))


@pytest.mark.parametrize("flag, value", [("--cap", "abc")])
def test_bad_flag_value_exits_2(tmp_path, capsys, flag, value):
    deck = tmp_path / "t.deck"
    deck.write_text(load("ex34.deck"))
    assert main(["--deck", str(deck), flag, value, "weyl", "Gamma"]) == 2
    assert capsys.readouterr().out.startswith("error=input: " + flag)


def test_mode_flag_is_unknown(capsys):
    # `weyl GRADING over FIELD` asks the rational question
    argv = ["--deck", os.path.join(DECKS, "ex34.deck"), "--mode", "rational", "weyl", "Gamma"]
    assert main(argv) == 2
    assert capsys.readouterr().out == "error=input: unknown flag --mode\n"


@pytest.mark.parametrize("argv, message", [
    (["member", "swap", "in"], "expected GRADING, got end of line"),
    (["member", "swap", "set=aut"], "expected in, got 'set'"),
    (["member", "swap", "in", "Nope"], "unknown grading 'Nope'"),
], ids=["member-in-without-grading", "member-without-in", "member-unknown-grading"])
def test_bad_command_args_exits_2(capsys, argv, message):
    assert main(["--deck", os.path.join(DECKS, "ex24.deck")] + argv) == 2
    assert capsys.readouterr().out == "error=input: %s\n" % message


@pytest.mark.parametrize("modulus", ["[2,0,1]", "[2,0,1,0,1,0,1]"],
                         ids=["t2-minus-1", "two-cubics-above-bound"])
def test_reducible_modulus_exits_2_with_line(tmp_path, capsys, modulus):
    deck = tmp_path / "bad.deck"
    deck.write_text("field F3 = prime 3\nfield K = extend F3 %s\n" % modulus)
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out.startswith(
        "error=input: line 2: extension modulus is reducible, it has the factor [")


@pytest.mark.parametrize("modulus, factor", [("[4,0,0,0,1]", "[2,-2,1]"),
                                             ("[1,0,2,0,1]", "[1,0,1]")],
                         ids=["t4-plus-4", "t2-plus-1-squared"])
def test_reducible_modulus_over_q_exits_2_with_line(tmp_path, capsys, modulus, factor):
    # t^4 + 4 = (t^2 - 2t + 2)(t^2 + 2t + 2); (t^2 + 1)^2 shows as gcd(f, f')
    deck = tmp_path / "bad.deck"
    deck.write_text("field Q = rationals\nfield K = extend Q %s\n" % modulus)
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out == (
        "error=input: line 2: extension modulus is reducible, it has the factor %s\n"
        % factor)


def test_tower_modulus_is_certified(tmp_path, capsys):
    # t^2 - 2 splits over K = Q(sqrt 2), with the factor t - sqrt 2; t^2 - 3
    # stays irreducible, giving Q(sqrt 2, sqrt 3)
    deck = tmp_path / "tower.deck"
    deck.write_text("field Q = rationals\nfield K = extend Q [-2,0,1]\n"
                    "field L = extend K [-3,0,1]\n")
    assert main(["--deck", str(deck), "check"]) == 0
    deck.write_text(deck.read_text().replace("[-3,0,1]", "[-2,0,1]"))
    capsys.readouterr()
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out == (
        "error=input: line 3: extension modulus is reducible, it has the factor [[0,-1],[1,0]]\n")


def test_irreducible_modulus_over_q_is_accepted(tmp_path):
    deck = tmp_path / "quartic.deck"
    deck.write_text("field Q = rationals\nfield K = extend Q [-2,0,0,0,1]\n")
    assert main(["--deck", str(deck), "check"]) == 0


# The Swinnerton-Dyer polynomial of sqrt 2, 3, 5, 7, 11 (degree 32, low first):
# irreducible, yet 16 quadratic factors mod every prime, so certifying it
# would try about 39,000 subsets of lifted factors.
SWINNERTON_DYER_5 = [
    2000989041197056, 0, -44660812492570624, 0, 183876928237731840, 0,
    -255690851718529024, 0, 172580952324702208, 0, -65892492886671360, 0,
    15459151516270592, 0, -2349014746136576, 0, 239210760462336, 0,
    -16665641517056, 0, 801918722048, 0, -26625650688, 0, 602397952, 0,
    -9028096, 0, 84864, 0, -448, 0, 1]


def test_modulus_over_q_past_the_recombination_cap_exits_2_with_line(tmp_path, capsys):
    deck = tmp_path / "sd5.deck"
    deck.write_text("field Q = rationals\nfield K = extend Q [%s]\n"
                    % ",".join(map(str, SWINNERTON_DYER_5)))
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out == (
        "error=input: line 2: factor recombination over 16 modular factors "
        "exceeds 4096 subsets\n")


BUNDLED ={name: load(name) for name in ("ex24.deck", "ex26.deck", "ex34.deck", "triv.deck")}
MUTANT_COMMANDS = (["check"], ["support", "Gamma"], ["universal", "Gamma"], ["weyl", "Gamma"])


@st.composite
def mutated_decks(draw):
    """A bundled deck with one line mutated: a token dropped or duplicated,
    or one integer replaced by a small one."""
    lines = BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    numbers = list(re.finditer(r"-?\d+", lines[i]))
    op = draw(st.sampled_from(["drop", "duplicate", "integer"]))
    if op == "integer" and numbers:
        m = draw(st.sampled_from(numbers))
        lines[i] = lines[i][:m.start()] + str(draw(st.integers(-3, 12))) + lines[i][m.end():]
    elif lines[i].split():
        toks = lines[i].split()
        k = draw(st.integers(0, len(toks) - 1))
        toks[k:k + 1] = [] if op == "drop" else [toks[k]] * 2
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutants") / "mutant.deck")


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(mutated_decks())
def test_mutated_decks_exit_0_or_2(mutant_path, text):
    # in-process, so an uncaught exception (a traceback) fails the test itself
    with open(mutant_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for argv in MUTANT_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--deck", mutant_path] + argv)
        assert code in (0, 2), (text, argv, out.getvalue())
        assert "error=identity" not in out.getvalue(), (text, argv)
