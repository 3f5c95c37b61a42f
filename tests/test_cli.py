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

from weylbench.cli import main, run_command
from weylbench.deck import parse_deck
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


def test_mode_flag_selects_rational():
    rep = run(load("ex34.deck"), ["weyl", "Gamma"], mode="rational")
    assert rep.lines[0] == "weyl.mode=rational"
    assert rep.lines[1] == "weyl.order=1"


def test_cap_flag_limits_enumeration():
    from weylbench.errors import CapExceededError
    with pytest.raises(CapExceededError):
        run(load("ex26.deck"), ["points", "Gamma", "over", "F3eps", "set=aut"],
            cap=2)


def test_diag_points_over_a_ring_past_the_cap_exits_2(tmp_path, capsys):
    # |R| = 3^12 > cap: refused before the 531,441-element unit scan
    deck = tmp_path / "big.deck"
    deck.write_text(load("triv.deck") + "ring F3eps12 = dual F3 12\n")
    start = time.perf_counter()
    code = main(["--deck", str(deck), "--cap", "20000",
                 "points", "Gamma", "over", "F3eps12", "set=diag"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().out == "error=input: |R| = 531441 exceeds cap 20000\n"


@pytest.mark.parametrize("text, line", [
    ("field F = prime x\n", 1),
    ("group G = Z/q\n", 1),
    ("field F3 = prime 3\nalgebra A over F3 dim 2 basis e1,e2\nmul e1 e1 = 1/0 e2\n", 3),
    ("field Q = rationals\nalgebra A over Q dim 1 basis e\nmul e e = 1/0 e\n", 3),
    ("field Q = rationals\ngroup G = Z^-2\n", 2),
    ("field Q =\n", 1),
    ("field Q = rationals\nring R =\n", 2),
], ids=["prime-x", "group-Zq", "F3-one-over-zero", "Q-one-over-zero", "negative-rank",
        "field-empty-rhs", "ring-empty-rhs"])
def test_bad_deck_literal_exits_2_with_line(tmp_path, capsys, text, line):
    deck = tmp_path / "bad.deck"
    deck.write_text(text)
    assert main(["--deck", str(deck), "check"]) == 2
    assert capsys.readouterr().out.startswith("error=input: line %d: " % line)


@pytest.mark.parametrize("flag, value", [("--cap", "abc"), ("--mode", "bogus")])
def test_bad_flag_value_exits_2(tmp_path, capsys, flag, value):
    deck = tmp_path / "t.deck"
    deck.write_text(load("ex34.deck"))
    assert main(["--deck", str(deck), flag, value, "weyl", "Gamma"]) == 2
    assert capsys.readouterr().out.startswith("error=input: " + flag)


@pytest.mark.parametrize("argv", [
    ["member", "swap", "in"],
    ["member", "swap", "set=aut"],
    ["member", "swap", "in", "Nope"],
], ids=["member-in-without-grading", "member-without-in", "member-unknown-grading"])
def test_bad_command_args_exits_2(capsys, argv):
    assert main(["--deck", os.path.join(DECKS, "ex24.deck")] + argv) == 2
    assert capsys.readouterr().out == "error=input: missing in GRADING\n"


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
