"""Self-test of the benchmark: each checker passes a right answer and fails a wrong one.

Run as `python3 bench/run.py --self-test`.  Right answers come from one real
(small) call into qfermat, or are built from the pinned census tallies; each
wrong answer changes one field, and the op loop must count it as failed.
It also checks that BENCHMARK.json names exactly the metrics the benchmark
emits.
"""

from __future__ import annotations

import copy
import json
import random

import checks
import spans
import workloads as wl


def _fake(kind: str, answer, check) -> wl.Op:
    return wl.Op(kind, lambda: copy.deepcopy(answer), check)


def _root_json(m: int, k: int, scale: int = 1) -> dict:
    return {"conductor": m, "coords": [str(scale * c) for c in checks.zeta_coords(m, k)]}


def cases(lib: wl.Lib):
    """(name, op giving the right answer, function making it wrong)."""
    census = checks.CensusChecker()
    first = census.first_index(5, frozenset({"cy", "generic"}))
    scan = {
        **checks.CENSUS5,
        "alternative_readings": {"generic_and_zero_column_sums": 3000},
        "all_generic_cy_have_zero_column_sums": False,
        "implication_counterexamples": [checks.CENSUS5_FIRST_COUNTEREXAMPLE],
        "witnesses": [{"n": 5, "exponents": checks.matrix_at(5, first)}],
    }
    yield "census scan", _fake("scan", scan, census.scan), lambda a: {**a, "count_cy": 78124}
    witness = {"n": 5, "exponents": checks.matrix_at(5, first)}
    pair = frozenset({"cy", "generic"})
    yield (
        "census witness",
        _fake("witness", witness, lambda r: census.witness(5, pair, r)),
        lambda a: {"n": 5, "exponents": checks.matrix_at(5, first + 1)},
    )
    unsat = frozenset({"generic", "full"})
    yield (
        "census unsatisfiable witness",
        _fake("witness", None, lambda r: census.witness(5, unsat, r)),
        lambda a: {"n": 5, "exponents": checks.matrix_at(5, 0)},
    )
    rng = random.Random("self-test")
    yield (
        "frobenius",
        wl.frobenius_op(lib, wl.random_exps(rng, 4)),
        lambda a: {**a, "ratio": _root_json(8, 0)},
    )
    yield (
        "algebra",
        wl.algebra_op(lib, wl.algebra_spec(rng, 3)),
        lambda a: {**a, "central_fermat": False},
    )
    spec = wl.cli_spec(rng, "check-cy", True)
    yield "cli exit code", wl.cli_inprocess_op(lib, spec), lambda a: (1 - a[0], a[1])
    yield (
        "cli json field",
        wl.cli_inprocess_op(lib, spec),
        lambda a: (a[0], json.dumps({**json.loads(a[1]), "column_sums": [9] * len(spec.exps)})),
    )
    spec = wl.cli_spec(rng, "frobenius", True)
    yield (
        "cli frobenius json",
        wl.cli_inprocess_op(lib, spec),
        lambda a: (a[0], json.dumps({**json.loads(a[1]), "agree_mod_scalar": False})),
    )


def metric_names_match(root, end_to_end, extra_layer) -> bool:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    emitted = set(spans.layer_metrics(spans.Tracer())) | set(extra_layer)
    return e2e == set(end_to_end) and layer == emitted


def main(root, run_op, end_to_end, extra_layer) -> int:
    """Print one line per checker; 0 when every wrong answer was counted as failed."""
    lib = wl.Lib(with_cli=True)
    ok = True
    for name, op, corrupt in cases(lib):
        _, answer, err = run_op(op)
        wrong = wl.Op(op.kind, lambda a=answer: corrupt(a), op.check)
        _, _, wrong_err = run_op(wrong)
        passed = err is None and wrong_err is not None
        ok &= passed
        print(f"self-test {name}: right answer {'passes' if err is None else 'FAILS: ' + err}; "
              f"wrong answer {'counted as failed' if wrong_err else 'NOT DETECTED'}")
    names_ok = metric_names_match(root, end_to_end, extra_layer)
    ok &= names_ok
    print(f"self-test BENCHMARK.json metric names: {'match' if names_ok else 'MISMATCH'}")
    print("self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1
