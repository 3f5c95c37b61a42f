"""Command dispatch and deterministic plain-text reports.

Exit codes: 0 ok, 1 mathematical identity failure, 2 input error.
"""

from __future__ import annotations

import sys

from . import battery as battery_mod
from . import galg, points as pts, weyl
from .deck import match, parse_deck, tokenize
from .errors import DeckError, InputError, MathIdentityError, WorkbenchError

WARN_NONSMOOTH = ("WARN diagonal scheme has infinitesimal points in this "
                  "characteristic; its rational-point normalizer can differ "
                  "from the naive normalizer of rational points")


class Report:
    def __init__(self):
        self.lines = []

    def add(self, line):
        self.lines.append(line)

    def kv(self, key, value):
        self.lines.append("%s=%s" % (key, value))

    def text(self):
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def run_command(deck, tokens, cap=10**8, mode=None):
    """Tokenize the command tokens once, match them against COMMANDS and run
    the handler on the resolved deck objects."""
    report = Report()
    pattern, values = match(COMMANDS, tokenize(" ".join(tokens)), deck)
    COMMANDS[pattern](deck, report, cap, mode, *values)
    return report


def _cmd_check(deck, report, cap, mode):
    report.kv("ok", "true")
    report.kv("fields", len(deck.fields))
    report.kv("groups", len(deck.groups))
    report.kv("rings", len(deck.rings))
    report.kv("algebras", len(deck.algebras))
    report.kv("gradings", len(deck.gradings))
    report.kv("maps", len(deck.maps))


def _cmd_support(deck, report, cap, mode, gr):
    report.kv("support.size", len(gr.support))
    report.kv("support", ";".join(gr.group.element_str(g) for g in gr.support))


def _cmd_universal(deck, report, cap, mode, gr):
    uni = galg.universal_group(gr)
    report.kv("U", uni.group.group_str())


def _cmd_weyl(deck, report, cap, mode, gr, fld=None):
    if fld is not None or mode == "rational":
        if fld is not None:
            gr = galg.grading_over(gr, fld)
        group = weyl.weyl_over_field(gr, cap=cap)
        report.kv("weyl.mode", "rational")
    else:
        group = weyl.weyl_closure(gr)
        report.kv("weyl.mode", "closure")
    report.kv("weyl.order", group.order)
    report.kv("weyl.generators", group.generators_str())


def _cmd_points(deck, report, cap, mode, gr, ring, which):
    gr = galg.grading_over(gr, ring.field)
    if which == "diag":
        plist = pts.diag_points(gr, ring, cap=cap)
    else:
        plist = pts.enumerate_points(gr, ring, which, cap=cap)
    report.kv("points.count", len(plist))
    for i, p in enumerate(plist):
        report.kv("point.%d" % i, p.to_str())


def _cmd_member(deck, report, cap, mode, phi, gr, which):
    gr = galg.grading_over(gr, phi.ring.field)
    if gr.algebra.table != phi.algebra.table:
        raise InputError("map and grading algebras differ")
    gr = galg.Grading(phi.algebra, gr.group, gr.degrees, label=gr.label)
    R = phi.ring
    if which == "aut":
        report.kv("member", str(pts.automorphism_membership(phi)).lower())
    elif which == "stab":
        report.kv("member", str(pts.stab_membership(gr, phi)).lower())
    elif which == "diag":
        res = pts.diag_membership(gr, phi)
        report.kv("member", str(res.member).lower())
        if res.member:
            for g in gr.support:
                report.add("scalar %s=%s" % (gr.group.element_str(g),
                                             R.to_str(res.scalars[g])))
    elif which == "autGamma":
        ok = pts.autgamma_membership(gr, phi)
        report.kv("member", str(ok).lower())
        if ok:
            cert = pts.block_permutations(gr, phi)
            _emit_block_certs(report, gr, R, cert.certificates)
    elif which == "centDiag":
        report.kv("member", str(pts.cent_membership_generic(gr, phi)).lower())
    elif which == "normDiag":
        res = pts.norm_membership_generic(gr, phi)
        report.kv("member", str(res.member).lower())
        if res.member:
            for i, (e, shift) in enumerate(res.shifts):
                pairs = ",".join("%s->%s" % (gr.group.element_str(g),
                                             gr.group.element_str(shift[g]))
                                 for g in gr.support)
                report.add("block e%d shift=(%s)" % (i, pairs))
            if not pts.stab_membership(gr, phi) and battery_mod.diag_scheme_nonsmooth(gr):
                report.add(WARN_NONSMOOTH)
    elif which == "dGnorm":
        res = pts.dgroup_norm_membership(gr, phi)
        if res.status == "indeterminate":
            report.kv("member", "indeterminate")
        else:
            report.kv("member", "true" if res.status == "member" else "false")
            for h in gr.support:
                report.add("forced %s=%s" % (gr.group.element_str(h),
                                             gr.group.element_str(res.forced[h])))
            if res.status == "nonmember":
                report.kv("relation", "(%s)" % ",".join(str(c) for c in res.relation))
                report.kv("relation.value",
                          gr.group.element_str(res.relation_value))


def _emit_block_certs(report, gr, R, certs):
    supp = list(gr.support)
    index = {g: i for i, g in enumerate(supp)}
    for i, (e, sigma) in enumerate(certs):
        perm = tuple(index[sigma[g]] for g in supp)
        report.add("block e%d perm=%s" % (i, weyl.cycles_str(perm, supp, weyl.label_str)))


def _cmd_idempotents(deck, report, cap, mode, R):
    idems = R.idempotents()
    report.kv("idempotents.count", len(idems))
    for i, e in enumerate(idems):
        report.kv("idempotent.%d" % i, R.to_str(e))


def _cmd_ses(deck, report, cap, mode, gr, fld=None):
    if fld is not None:
        gr = galg.grading_over(gr, fld)
    res = weyl.ses_check(gr, cap=cap)
    report.kv("ses.aut", res.aut_count)
    report.kv("ses.stab", res.stab_count)
    report.kv("ses.weyl.order", res.weyl_order)
    report.kv("ses.identity", "ok" if res.product_ok else "FAIL")
    report.kv("ses.weyl_in_closure", "ok" if res.weyl_in_closure else "FAIL")
    if not (res.product_ok and res.weyl_in_closure):
        raise MathIdentityError("exact sequence check failed at points")


def _cmd_verify(deck, report, cap, mode, gr, ring):
    gr = galg.grading_over(gr, ring.field)
    res = battery_mod.theorem_battery(gr, ring)
    report.kv("points.mode", res.mode)
    report.kv("points.count", res.distinct_points)
    report.add("cent==stab: ok (%d/%d)" % (res.cent_checked, res.distinct_points))
    report.add("norm==autGamma: ok (%d/%d)" % (res.norm_checked, res.distinct_points))
    if res.warn_nonsmooth:
        report.add(WARN_NONSMOOTH)


# Each command form, mapped to its handler; the handler gets the slot values.
COMMANDS = {
    "check": _cmd_check,
    "support GRADING": _cmd_support,
    "universal GRADING": _cmd_universal,
    "weyl GRADING": _cmd_weyl,
    "weyl GRADING over FIELD": _cmd_weyl,
    "points GRADING over RING set = aut|stab|autgamma|diag": _cmd_points,
    "member MAP in GRADING set = aut|stab|diag|autGamma|centDiag|normDiag|dGnorm":
        _cmd_member,
    "idempotents RING": _cmd_idempotents,
    "ses GRADING": _cmd_ses,
    "ses GRADING over FIELD": _cmd_ses,
    "verify-theorem GRADING over RING": _cmd_verify,
}

USAGE = ("usage: weylbench --deck FILE [--cap N] [--mode closure|rational] COMMAND ...\n"
         "\ncommands:\n" + "".join("  %s\n" % form for form in COMMANDS))


def _decode_deck(data):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; count lines as parse_deck does
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise DeckError(line_no, "deck is not valid UTF-8")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    flags = {"cap": 10**8, "mode": None, "deck": None}
    tokens = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            key = tok[2:]
            if key not in flags:
                print("error=input: unknown flag %s" % tok)
                return 2
            if i + 1 >= len(argv):
                print("error=input: flag %s needs a value" % tok)
                return 2
            flags[key] = argv[i + 1]
            i += 2
        else:
            tokens.append(tok)
            i += 1
    if not tokens:
        print(USAGE.rstrip())
        return 2
    try:
        cap = int(flags["cap"])
    except ValueError:
        print("error=input: --cap needs an integer, got %r" % flags["cap"])
        return 2
    if flags["mode"] not in (None, "closure", "rational"):
        print("error=input: --mode must be closure or rational")
        return 2
    try:
        if flags["deck"] is None:
            raise InputError("missing --deck FILE")
        with open(flags["deck"], "rb") as fh:
            deck = parse_deck(_decode_deck(fh.read()))
        report = run_command(deck, tokens, cap=cap, mode=flags["mode"])
    except MathIdentityError as exc:
        print("error=identity: %s" % exc)
        return 1
    except (WorkbenchError, OSError) as exc:
        print("error=input: %s" % exc)
        return 2
    sys.stdout.write(report.text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
