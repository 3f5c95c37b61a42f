"""Per-layer tracing for the benchmark, installed from outside the package.

Tracer.install() replaces weylbench's public entry points with wrappers that
record, for each layer function, its call count and self time (its duration
minus the time its traced children cover).  Ordinary functions also record a
span (name, start, end, parent span, op id) kept in memory and written out at
the end of the run.  The hot kernels are only aggregated per op as a count
plus self time.  Three functions also count distinct (object, input) keys.

scalar_microbench() times the field kinds' mul/add/is_zero directly: with
tens of millions of calls per pass they cannot be wrapped.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import defaultdict

import weylbench as wb
from weylbench import (abgroups, battery, comrings, factorization, galg,
                       linalg, weyl)
from weylbench import points as pts
from workloads import RINGS_SEED, random_invertible

# (metric prefix, owner, attribute)
SPANNED = [
    ("points.automorphism_membership", pts, "automorphism_membership"),
    ("points.RingTable.init", pts.RingTable, "__init__"),
    ("points.enumerate_points", pts, "enumerate_points"),
    ("points.ring_mat_inv", pts, "ring_mat_inv"),
    ("points.stab_membership", pts, "stab_membership"),
    ("points.block_permutations", pts, "block_permutations"),
    ("points.cent_membership_generic", pts, "cent_membership_generic"),
    ("points.norm_membership_generic", pts, "norm_membership_generic"),
    ("points.diag_points", pts, "diag_points"),
    ("comrings.TestRing.init", comrings.TestRing, "__init__"),
    ("comrings.TestRing.block", comrings.TestRing, "block"),
    ("comrings.enumerate_units", comrings, "enumerate_units"),
    ("comrings.decompose_ring", comrings, "decompose_ring"),
    ("linalg.solve", linalg, "solve"),
    ("linalg.rref", linalg, "rref"),
    ("factorization.partial_factor", factorization, "partial_factor"),
    ("galg.universal_group", galg, "universal_group"),
    ("abgroups.smith_normal_form", abgroups, "smith_normal_form"),
    ("abgroups.enumerate_characters", abgroups, "enumerate_characters"),
    ("weyl.thin_solve", weyl, "thin_solve"),
    ("weyl.ses_check", weyl, "ses_check"),
    ("battery.theorem_battery", battery, "theorem_battery"),
    ("battery.battery_points", battery, "battery_points"),
]

HOT = [
    ("comrings.TestRing.mul", comrings.TestRing, "mul"),
    ("comrings.TestRing.is_unit", comrings.TestRing, "is_unit"),
    ("comrings.GroupAlgebra.mul", comrings.GroupAlgebra, "mul"),
    ("points.ring_det", pts, "ring_det"),
    ("linalg.det", linalg, "det"),
]

# distinct_ratio keys: the (object, input) a call depends on.  Objects are
# keyed by identity and kept alive, so an id is never reused within a run.
KEYED = {
    "points.automorphism_membership":
        lambda phi: ((phi.algebra, phi.ring), phi.entries),
    "points.RingTable.init": lambda table, R: ((R,), None),
    "galg.universal_group": lambda gr: ((gr,), None),
}

MUL_KINDS = ("base", "dual2", "dual3", "product", "groupalg", "block", "other")


def ring_kind(R):
    label = R.label
    if label in MUL_KINDS:
        return label
    return "block" if label.endswith("|block") else "other"


def metric_names():
    """Every per-layer metric this module reports, with its unit."""
    out = {}
    for name, _, _ in SPANNED + HOT:
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
        if name in KEYED:
            out[name + ".distinct_ratio"] = "ratio"
        if name == "comrings.TestRing.mul":
            for kind in MUL_KINDS:
                out["%s.self_s.%s" % (name, kind)] = "s"
    for field in SCALAR_FIELDS:
        for op in ("mul", "add", "is_zero"):
            out["scalars.%s.%s_ns" % (field, op)] = "ns"
    return out


class Tracer:
    def __init__(self):
        self.op = None
        self.origin = time.perf_counter()
        self.stack = []                        # [child seconds, span index]
        self.spans = []                        # (name, start, end, parent, op)
        self.totals = defaultdict(lambda: [0, 0.0])    # name -> calls, self_s
        self.per_op = defaultdict(lambda: [0, 0.0])    # (op, name) of HOT
        self.mul_kind = defaultdict(float)
        self.keys = defaultdict(set)
        self.alive = {}
        self._saved = []

    def install(self):
        for name, owner, attr in SPANNED + HOT:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr),
                                                hot=(name, owner, attr) in HOT))

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        targets = [owner]
        if not isinstance(owner, type):
            # also rebind names imported with "from module import fn"
            targets = [m for n, m in list(sys.modules.items())
                       if (n == "weylbench" or n.startswith("weylbench."))
                       and getattr(m, attr, None) is original]
        for target in targets:
            self._saved.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _wrap(self, name, fn, hot):
        stack, spans, totals = self.stack, self.spans, self.totals
        per_op, keyed, perf = self.per_op, KEYED.get(name), time.perf_counter
        is_mul = name == "comrings.TestRing.mul"

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if hot:
                frame = [0.0, parent]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                self_s = dur - frame[0]
                rec = totals[name]
                rec[0] += 1
                rec[1] += self_s
                if hot:
                    rec = per_op[(self.op, name)]
                    rec[0] += 1
                    rec[1] += self_s
                    if is_mul:
                        self.mul_kind[ring_kind(args[0])] += self_s
                else:
                    spans[frame[1]] = (name, t0 - self.origin, t1 - self.origin,
                                       parent, self.op)
                if keyed is not None:
                    objs, inp = keyed(*args, **kwargs)
                    for obj in objs:
                        self.alive[id(obj)] = obj
                    self.keys[name].add((tuple(id(o) for o in objs), inp))

        return wrapper

    def metrics(self):
        out = {}
        for name, _, _ in SPANNED + HOT:
            calls, self_s = self.totals.get(name, (0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            if name in KEYED:
                out[name + ".distinct_ratio"] = (
                    len(self.keys[name]) / calls if calls else 0.0)
        for kind in MUL_KINDS:
            out["comrings.TestRing.mul.self_s." + kind] = self.mul_kind.get(kind, 0.0)
        return out

    def distinct_counts(self):
        return {name: len(keys) for name, keys in self.keys.items()}

    def dump(self):
        """The in-memory trace as a JSON-ready dict."""
        return {
            "spans": self.spans,
            "hot_per_op": [[op, name, c, s] for (op, name), (c, s)
                           in self.per_op.items()],
            "distinct": self.distinct_counts(),
        }


# ---------------------------------------------------------------------------
# scalar microbench

SCALAR_FIELDS = ("Q", "Fp", "Fq")


def _scalar_operands():
    """Operands drawn from the workloads' rings.

    Q: entries of the rings workload's first QC6 basis change P and of P^-1.
    Fp: all of F5, a battery and enumerate field.  Fq: all of F9, the field of
    battery's para_hurwitz/F9 cells."""
    Q = wb.rationals()
    P = random_invertible(Q, 6, random.Random(RINGS_SEED))
    q_elems = [x for row in P + linalg.inv(Q, P) for x in row]
    F5 = wb.prime_field(5)
    F3 = wb.prime_field(3)
    F9 = wb.extension_field(F3, [F3.one(), F3.zero(), F3.one()])
    return {"Q": (Q, q_elems), "Fp": (F5, list(F5.elements())),
            "Fq": (F9, list(F9.elements()))}


def _ns_per_call(fn, args_list, repeats=5, target_calls=30_000):
    rounds = max(1, target_calls // len(args_list))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for args in args_list:
                fn(*args)
        samples.append((time.perf_counter() - t0) / (rounds * len(args_list)))
    return statistics.median(samples) * 1e9


def scalar_microbench():
    out = {}
    for field, (F, elems) in _scalar_operands().items():
        pairs = [(a, b) for a in elems for b in reversed(elems)][:400]
        singles = [(a,) for a in elems]
        out["scalars.%s.mul_ns" % field] = _ns_per_call(F.mul, pairs)
        out["scalars.%s.add_ns" % field] = _ns_per_call(F.add, pairs)
        out["scalars.%s.is_zero_ns" % field] = _ns_per_call(F.is_zero, singles)
    return out
