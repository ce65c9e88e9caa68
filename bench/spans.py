"""Span tracing for the benchmark's traced run.

The tracer wraps public qfermat functions and methods from outside the
package: it replaces class attributes, and for module functions every
binding of the same object in any qfermat module (the defining module, the
package namespace, and copies made by `from ... import` such as the CLI
handlers' imports).  A span holds a name, start, end, parent span and op id;
spans live in flat arrays in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from fractions import Fraction
from math import comb
from statistics import median
from time import perf_counter

import checks

# (module, attribute path, span name).  Span names are "<layer>.<what>".
TARGETS = (
    ("qfermat.cyclo", "Cyclotomic.__mul__", "cyclo.mul"),
    ("qfermat.cyclo", "Cyclotomic.__rmul__", "cyclo.mul"),
    ("qfermat.cyclo", "Cyclotomic.inverse", "cyclo.inverse"),
    ("qfermat.cyclo", "CycloField.zeta", "cyclo.zeta"),
    ("qfermat.qalgebra", "multiply", "qalgebra.multiply"),
    ("qfermat.qalgebra", "normal_order", "qalgebra.normal_order"),
    ("qfermat.qalgebra", "is_central", "qalgebra.is_central"),
    ("qfermat.qalgebra", "normalizing_automorphism", "qalgebra.normalizing_automorphism"),
    ("qfermat.koszulcy", "ExtElement.__mul__", "koszulcy.ext_mul"),
    ("qfermat.koszulcy", "frobenius_bruteforce", "koszulcy.bruteforce"),
    ("qfermat.koszulcy", "frobenius_closedform", "koszulcy.closedform"),
    ("qfermat.koszulcy", "compare_frobenius", "koszulcy.compare_frobenius"),
    ("qfermat.koszulcy", "cy_criterion", "koszulcy.cy_criterion"),
    ("qfermat.koszulcy", "is_twist_realizable", "koszulcy.is_twist_realizable"),
    ("qfermat.koszulcy", "dehomogenize", "koszulcy.dehomogenize"),
    ("qfermat.hilb1", "hilb1", "hilb1.classify"),
    ("qfermat.hilb1", "face_complex", "hilb1.face_complex"),
    ("qfermat.expr", "parse_poly", "expr.parse"),
    ("qfermat.expr", "lower", "expr.lower"),
    ("qfermat.expr", "print_poly", "expr.print"),
    ("qfermat.expr", "parse_params", "expr.parse_params"),
    ("qfermat.census", "run_census", "census.scan"),
    ("qfermat.census", "find_witness", "census.witness"),
    ("qfermat.cli", "main", "cli.main"),
)


def _coords(x) -> tuple:
    coords = getattr(x, "coords", None)
    if coords is None:
        coords = checks.json_coords(x.to_json())
    return tuple(coords)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self, max_spans: int = 3_000_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # 1 when a span of the same name is open
        self.dropped = 0
        self.op_id = -1
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------

    def _wrap(self, span: str, fn, before=None):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if len(tr.name) >= tr.max_spans:
                tr.dropped += 1
                return fn(*args, **kwargs)
            i = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op.append(tr.op_id)
            tr.nested.append(1 if tr._open[nid] else 0)
            tr.end.append(0.0)
            tr._stack.append(i)
            tr._open[nid] += 1
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = perf_counter()
                tr._open[nid] -= 1
                tr._stack.pop()

        return wrapper

    def _count_mul(self, args):
        a, b = args
        roots = checks.root_coords(a.field.conductor)
        self.counters["cyclo.mul_calls"] += 1
        if isinstance(b, (int, Fraction)):
            b_root = b in (1, -1)
        else:
            b_root = _coords(b) in roots
        if b_root or _coords(a) in roots:
            self.counters["cyclo.root_muls"] += 1

    def _count_multiply(self, args):
        f, g = args
        self.counters["qalgebra.term_pairs"] += len(f.terms) * len(g.terms)

    def _count_bruteforce(self, args):
        n = args[0].n
        self.counters["koszulcy.pairs_checked"] += comb(2 * n, n)

    def _count_scan(self, args):
        n = args[0]
        self.counters["census.matrices_covered"] += n ** (n * (n - 1) // 2)

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "cyclo.mul": self._count_mul,
            "qalgebra.multiply": self._count_multiply,
            "koszulcy.bruteforce": self._count_bruteforce,
            "census.scan": self._count_scan,
        }
        for modname, path, span in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(span, orig, hooks.get(span)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(span, orig, hooks.get(span))
            for other_name, other in list(sys.modules.items()):
                if other_name == "qfermat" or other_name.startswith("qfermat."):
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            self._patch(other, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans) and self seconds."""
        count = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {s: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for s in self.names}
        for i in range(count):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if not self.nested[i]:
                row["incl_s"] += dur[i]
        # koszulcy self time under the brute force route, cyclo children excluded
        under = array("b", bytes(count))
        brute = self._ids.get("koszulcy.bruteforce", -2)
        bf_self = 0.0
        for i in range(count):
            p = self.parent[i]
            under[i] = self.name[i] == brute or (p >= 0 and under[p])
            if under[i] and self.names[self.name[i]].startswith("koszulcy."):
                bf_self += dur[i] - child[i]
        out["koszulcy.bruteforce_self"] = {"self_s": bf_self}
        return out

    def durations(self, span: str) -> list[float]:
        nid = self._ids.get(span)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.name))
            if self.name[i] == nid and not self.nested[i]
        ]

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i] - t0:.7f}\t"
                    f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t{self.op[i]}\n"
                )


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics the spans and counters give (seconds are traced time)."""
    s = tracer.summary()

    def get(span, key):
        return s.get(span, {}).get(key, 0)

    c = tracer.counters
    mul_calls = get("cyclo.mul", "calls")
    scans = tracer.durations("census.scan")
    return {
        "cyclo.mul_calls": (mul_calls, "count"),
        "cyclo.mul_self_s": (get("cyclo.mul", "self_s"), "s"),
        "cyclo.root_mul_frac": (c["cyclo.root_muls"] / mul_calls if mul_calls else 0.0, "ratio"),
        "cyclo.inverse_calls": (get("cyclo.inverse", "calls"), "count"),
        "cyclo.inverse_self_s": (get("cyclo.inverse", "self_s"), "s"),
        "cyclo.zeta_calls": (get("cyclo.zeta", "calls"), "count"),
        "cyclo.zeta_self_s": (get("cyclo.zeta", "self_s"), "s"),
        "qalgebra.multiply_calls": (get("qalgebra.multiply", "calls"), "count"),
        "qalgebra.multiply_self_s": (get("qalgebra.multiply", "self_s"), "s"),
        "qalgebra.term_pairs": (c["qalgebra.term_pairs"], "count"),
        "qalgebra.is_central_s": (get("qalgebra.is_central", "incl_s"), "s"),
        "qalgebra.normal_order_s": (get("qalgebra.normal_order", "incl_s"), "s"),
        "koszulcy.bruteforce_s": (get("koszulcy.bruteforce", "incl_s"), "s"),
        "koszulcy.bruteforce_self_s": (get("koszulcy.bruteforce_self", "self_s"), "s"),
        "koszulcy.ext_mul_calls": (get("koszulcy.ext_mul", "calls"), "count"),
        "koszulcy.pairs_checked": (c["koszulcy.pairs_checked"], "count"),
        "koszulcy.closedform_s": (get("koszulcy.closedform", "incl_s"), "s"),
        "hilb1.classify_s": (get("hilb1.classify", "incl_s"), "s"),
        "hilb1.face_complex_s": (get("hilb1.face_complex", "incl_s"), "s"),
        "expr.parse_s": (get("expr.parse", "incl_s"), "s"),
        "expr.lower_s": (get("expr.lower", "incl_s"), "s"),
        "expr.print_s": (get("expr.print", "incl_s"), "s"),
        "expr.parse_params_s": (get("expr.parse_params", "incl_s"), "s"),
        "census.scan_s": (median(scans) if scans else 0.0, "s"),
        "census.witness_s": (get("census.witness", "incl_s"), "s"),
        "census.matrices_covered": (c["census.matrices_covered"], "count"),
        "census.matrices_per_s": (
            c["census.matrices_covered"] / sum(scans) if scans else 0.0,
            "1/s",
        ),
    }
