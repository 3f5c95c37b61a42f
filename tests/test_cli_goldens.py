"""Every bundled-deck CLI report, pinned byte for byte.

The matrix, per deck: `check`; per grading `support`, `universal`, `weyl`,
`ses`, and `weyl`/`ses over` each field; per grading and ring `points` with
each point set and `verify-theorem`; per map `member` with each set; per ring
`idempotents`.  Each command runs in-process through `cli.main` and is
recorded as a `$ DECK COMMAND` header, its output and an `exit=N` line.

After a change that is meant to alter a report, rewrite the goldens with
`PYTHONPATH=src python tests/test_cli_goldens.py` and review the diff.
"""

import contextlib
import io
import os

from weylbench.cli import main
from weylbench.deck import parse_deck

HERE = os.path.dirname(os.path.abspath(__file__))
DECKS = os.path.join(HERE, "..", "src", "weylbench", "decks")
GOLDENS = os.path.join(HERE, "cli_goldens.txt")
POINT_SETS = ("aut", "stab", "autgamma", "diag")
MEMBER_SETS = ("aut", "stab", "diag", "autGamma", "centDiag", "normDiag", "dGnorm")


def commands(deck):
    yield ["check"]
    for g in deck.gradings:
        for cmd in ("support", "universal", "weyl", "ses"):
            yield [cmd, g]
        for f in deck.fields:
            yield ["weyl", g, "over", f]
            yield ["ses", g, "over", f]
        for r in deck.rings:
            for s in POINT_SETS:
                yield ["points", g, "over", r, "set=" + s]
            yield ["verify-theorem", g, "over", r]
        for m in deck.maps:
            for s in MEMBER_SETS:
                yield ["member", m, "in", g, "set=" + s]
    for r in deck.rings:
        yield ["idempotents", r]


def transcript():
    out = []
    for name in sorted(os.listdir(DECKS)):
        path = os.path.join(DECKS, name)
        with open(path, encoding="utf-8") as fh:
            deck = parse_deck(fh.read())
        for argv in commands(deck):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["--deck", path] + argv)
            out.append("$ %s %s\n%sexit=%d\n" % (name, " ".join(argv), buf.getvalue(), code))
    return "".join(out)


def test_bundled_deck_reports_match_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        expected = fh.read()
    assert sum(line.startswith("$ ") for line in expected.splitlines()) == 143
    assert transcript() == expected


if __name__ == "__main__":
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        fh.write(transcript())
