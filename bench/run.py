"""qfermat benchmark: four seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload {census,frobenius,algebra,cli,all}
                         --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-test

Run it from anywhere; it imports qfermat from the src/ directory next to
bench/ and refuses to run if that copy is missing or another one wins.

With --trace 0 one client runs the workload's ops in a closed loop (the next
op starts when the previous one returns) for whole rounds until --seconds
have passed, checks every answer, and reports the end-to-end metrics; on
frobenius and algebra the op times are corrected for the host's speed (see
reference()).  BENCHMARK.json lists census, frobenius and algebra; cli runs
when named.  With
--trace 1 it runs a fixed prefix of the same op stream twice, untraced and
then with span wrappers installed, and reports per-layer metrics plus the
tracing overhead.  The last line of stdout is one JSON object; the lines
before it name every metric with its unit.  Result and span files go to
bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
PROBE_REPEATS = 5
PROBE_TIMEOUT_S = 170
# Rounds of the op stream the traced run replays (untraced, then traced).
TRACE_ROUNDS = {"census": 1, "frobenius": 2, "algebra": 5, "cli": 1}
# Workloads whose op times are corrected for host speed (see reference()).
HOST_CORRECTED = ("frobenius", "algebra")
# Reference time the corrected op times are scaled to: about the median of
# reference() on a 2-vCPU 2.1 GHz Xeon virtual machine under Python 3.11.
REF_NOMINAL_S = 0.0015

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
EXTRA_LAYER = {
    "census.scan_1w_s": "s",
    "census.parallel_efficiency": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.handler_ms": "ms",
    "trace.overhead": "ratio",
    "trace.ops": "count",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_checkout():
    """Import qfermat from this checkout's src/ and nowhere else."""
    if not (SRC / "qfermat" / "__init__.py").is_file():
        raise BenchError(f"no src/qfermat package next to {Path(__file__).parent.name}/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qfermat

    path = Path(qfermat.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise BenchError(f"qfermat resolved to {path}, not to this checkout")
    return qfermat


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (or 'none')."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_op(op: wl.Op):
    """(seconds, result, failure reason or None); raising counts as failing."""
    t0 = perf_counter()
    try:
        res = op.run()
    except Exception as exc:  # noqa: BLE001 - every error is a failed op
        return perf_counter() - t0, None, f"{op.kind}: raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    try:
        err = op.check(res)
    except Exception as exc:  # noqa: BLE001 - a malformed answer fails its check
        err = f"{op.kind}: malformed answer ({type(exc).__name__}: {exc})"
    return dt, res, err


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no qfermat code.

    On a shared host the interpreter's speed drifts by up to a third over
    seconds to minutes, and the drift is common to all pure-Python code: a
    fixed input set re-timed in fresh processes took 0.6-1.1 s.  Timing this
    loop before every op and dividing the op times by it removes the drift
    from workloads whose ops are pure Python.  numpy scans do not follow the
    drift, so census times are not corrected.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(1, i)
    table: dict[int, int] = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i
    return perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    idx = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


# -- set-up ----------------------------------------------------------------------------


def timed_setup(workload: str, workers: int) -> tuple[float, wl.Lib]:
    """Seconds for imports, interning and warm-ups, and the loaded modules."""
    t0 = perf_counter()
    import_checkout()
    lib = wl.setup(workload, random.Random("warmup"), workers)
    return perf_counter() - t0, lib


def setup_probe(workload: str) -> None:
    """Child side of measure_setup: one set-up in a fresh interpreter."""
    elapsed, _ = timed_setup(workload, min(2, nproc()))
    print(json.dumps({"setup_s": elapsed, "qfermat": sys.modules["qfermat"].__file__}))


def measure_setup(workload: str, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters, each checked to import this src/."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["qfermat"]).resolve() != Path(sys.modules["qfermat"].__file__).resolve():
            raise BenchError(f"set-up probe imported {probe['qfermat']}")
        samples.append(probe["setup_s"])
    return samples


def op_stream(workload: str, lib: wl.Lib, rng, workers: int, inprocess_cli: bool = False):
    """Endless generator of rounds (lists of ops) for a workload."""
    checker = checks.CensusChecker()
    env = wl.cli_subprocess_env(str(SRC))
    while True:
        if workload == "census":
            yield wl.census_round(rng, lib, checker, workers)
        elif workload == "frobenius":
            yield wl.frobenius_round(rng, lib)
        elif workload == "algebra":
            yield wl.algebra_round(rng, lib)
        elif inprocess_cli:
            yield [wl.cli_inprocess_op(lib, s) for s in wl.cli_specs(rng)]
        else:
            yield [wl.cli_op(s, env, str(ROOT)) for s in wl.cli_specs(rng)]


# -- timed run ------------------------------------------------------------------------------


def latency_metrics(lat: list[float]) -> dict:
    tail_v, tail_p = tail(lat)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail_v,
        "tail_percentile": tail_p,
    }


def timed_run(workload: str, seed: int, seconds: float, workers: int) -> dict:
    # This process counts as one fresh set-up unless an earlier workload
    # already imported qfermat here.
    fresh = "qfermat" not in sys.modules
    own_s, lib = timed_setup(workload, workers)
    setup_samples = [own_s] * fresh + measure_setup(workload, SETUP_REPEATS - fresh)
    stream = op_stream(workload, lib, random.Random(f"{workload}:{seed}"), workers)
    corrected = workload in HOST_CORRECTED
    lat, kinds, rounds, failures, refs = [], [], [], [], []
    scan_s, covered = 0.0, 0
    t_start = perf_counter()
    while perf_counter() - t_start < seconds:
        round_no = len(set(rounds))
        for op in next(stream):
            if corrected:
                refs.append(reference())
            dt, res, err = run_op(op)
            lat.append(dt)
            kinds.append(op.kind)
            rounds.append(round_no)
            if err:
                failures.append(err)
            if op.kind == "scan":
                scan_s += dt
                covered += res["total"] if res else 0
    wall = perf_counter() - t_start
    if corrected:
        # Each op is scaled by the mean of the reference times just before
        # and just after it: the drift moves within a second, so a nearer
        # reading corrects a long op better than a median over its round.
        refs.append(reference())
        adjusted = [dt * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1]) for i, dt in enumerate(lat)]
    else:
        adjusted = lat
    raw = latency_metrics(lat)
    shown = latency_metrics(adjusted)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": shown["ops_per_s"],
        "latency_p50_ms": shown["latency_p50_ms"],
        "latency_tail_ms": shown["latency_tail_ms"],
        "peak_rss_mb": peak_rss_mb(),
    }
    by_kind = {
        k: {"ops": kinds.count(k), "p50_ms": 1000.0 * statistics.median([d for d, kk in zip(adjusted, kinds) if kk == k])}
        for k in sorted(set(kinds))
    }
    notes = {
        "setup_samples_s": setup_samples,
        "host_corrected": corrected,
        "tail_percentile": shown["tail_percentile"],
        "samples": len(lat),
        "wall_s": wall,
        "failed_frac": len(failures) / len(lat),
        "by_kind": by_kind,
        "failures": failures[:20],
        "latencies_ms": [round(1000.0 * d, 4) for d in lat],
        "kinds": kinds,
        "rounds": rounds,
    }
    if corrected:
        notes["reference_ms"] = [round(1000.0 * r, 4) for r in refs]
        notes["uncorrected"] = {k: raw[k] for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")}
    if workload == "census":
        notes["matrices_per_s"] = covered / scan_s if scan_s else 0.0
    return {
        "attempted": len(lat),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "notes": notes,
    }


# -- traced run -----------------------------------------------------------------------------


def _python_ms(code: str) -> float:
    """Median wall ms of a fresh interpreter running `code` with this src/ on the path."""
    env = wl.cli_subprocess_env(str(SRC))
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S)
        times.append(1000.0 * (perf_counter() - t0))
    return statistics.median(times)


def cli_probes(lib: wl.Lib, seed: int) -> tuple[dict, int, list[str]]:
    """The cli layer: a bare interpreter, `import qfermat.cli` on top of it, and
    the median of one seeded round of in-process `cli.main` calls (stdout
    captured, every answer checked).  Returns metrics, ops run and failures."""
    if lib.cli is None:
        lib.cli = importlib.import_module("qfermat.cli")
    ops = [wl.cli_inprocess_op(lib, s) for s in wl.cli_specs(random.Random(f"cli:{seed}"))]
    times, failures = [], []
    for op in ops:
        dt, _, err = run_op(op)
        times.append(dt)
        failures += [err] if err else []
    interpreter = _python_ms("pass")
    metrics = {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": _python_ms("import qfermat.cli") - interpreter,
        "cli.handler_ms": 1000.0 * statistics.median(times),
    }
    return metrics, len(ops), failures


def traced_run(workload: str, seed: int, workers: int) -> dict:
    _, lib = timed_setup(workload, workers)
    stream = op_stream(workload, lib, random.Random(f"{workload}:{seed}"), workers, inprocess_cli=True)
    ops = [op for _ in range(TRACE_ROUNDS[workload]) for op in next(stream)]
    failures = []
    untraced = []
    for op in ops:
        dt, _, err = run_op(op)
        untraced.append(dt)
        failures += [err] if err else []
    tracer = spans.Tracer()
    tracer.install()
    traced = []
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            dt, _, err = run_op(op)
            traced.append(dt)
            failures += [err] if err else []
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    extra = dict.fromkeys(EXTRA_LAYER, 0.0)
    extra["trace.overhead"] = sum(traced) / sum(untraced)
    extra["trace.ops"] = len(ops)
    extra["trace.spans"] = len(tracer.name)
    if workload == "census":
        t0 = perf_counter()
        report = lib.census.run_census(5, workers=1)
        extra["census.scan_1w_s"] = perf_counter() - t0
        bad = checks.CensusChecker().scan(report.to_json_dict())
        failures += [f"scan_1w: {bad}"] if bad else []
        extra["census.parallel_efficiency"] = extra["census.scan_1w_s"] / (
            workers * metrics["census.scan_s"][0]
        )
    probe_ops = 0
    # BENCHMARK.json does not list cli, so its layer is also measured with
    # algebra, whose queries parse the same kinds of documents.
    if workload in ("algebra", "cli"):
        cli_metrics, probe_ops, cli_failures = cli_probes(lib, seed)
        extra.update(cli_metrics)
        failures += cli_failures
    for name, value in extra.items():
        metrics[name] = (value, EXTRA_LAYER[name])

    calls = {name: row["calls"] for name, row in tracer.summary().items() if "calls" in row}

    def layer_calls(layer: str) -> int:
        return sum(c for n, c in calls.items() if n.startswith(layer + "."))

    isolation = {}
    if workload == "census":
        isolation["no cyclo/qalgebra/koszulcy calls"] = not any(
            layer_calls(x) for x in ("cyclo", "qalgebra", "koszulcy")
        )
    if workload in ("frobenius", "algebra"):
        isolation["no census scans"] = layer_calls("census") == 0
    if workload == "frobenius":
        isolation["cyclo.root_mul_frac >= 0.9"] = metrics["cyclo.root_mul_frac"][0] >= 0.9
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write(span_file)
    return {
        "attempted": 2 * len(ops) + probe_ops,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": {
            "untraced_s": sum(untraced),
            "traced_s": sum(traced),
            "spans_dropped": tracer.dropped,
            "span_file": str(span_file.relative_to(ROOT)),
            "isolation": isolation,
            "calls": calls,
            "failures": failures[:20],
        },
    }


# -- reporting ---------------------------------------------------------------------------------


def env_info(workload: str, seed: int, workers: int) -> dict:
    import numpy
    import qfermat

    return {
        "workload": workload,
        "seed": seed,
        "qfermat": qfermat.__file__,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "census_workers": workers,
        "model": "closed loop, one client",
    }


def report(workload: str, result: dict) -> None:
    env = result["env"]
    print(f"== {workload}  seed {env['seed']}  git {env['git_sha'][:12]}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  census workers {env['census_workers']}")
    print(f"   qfermat from {env['qfermat']}")
    for name, m in result["metrics"].items():
        print(f"   {name:28s} {m['value']:>14.6g} {m['unit']}")
    notes = result["notes"]
    if "tail_percentile" in notes:
        print(f"   latency_tail_ms is p{notes['tail_percentile']:.1f} of {notes['samples']} samples")
        if "matrices_per_s" in notes:
            print(f"   {'matrices_per_s':28s} {notes['matrices_per_s']:>14.6g} 1/s")
        print(f"   {'failed_frac':28s} {notes['failed_frac']:>14.6g} ratio")
        if notes["host_corrected"]:
            ref = statistics.median(notes["reference_ms"])
            print(f"   times above are scaled to a {1000 * REF_NOMINAL_S:g} ms reference loop; "
                  f"it took {ref:.4g} ms here (median of {len(notes['reference_ms'])} readings)")
            for name, value in notes["uncorrected"].items():
                print(f"   {'uncorrected ' + name:28s} {value:>14.6g} {END_TO_END[name]}")
    for claim, ok in notes.get("isolation", {}).items():
        print(f"   isolation: {claim}: {'confirmed' if ok else 'VIOLATED'}")
    for f in notes["failures"]:
        print(f"   FAILED {f}")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workers = min(2, nproc())
    if trace:
        result = traced_run(workload, seed, workers)
    else:
        result = timed_run(workload, seed, seconds, workers)
    result["env"] = env_info(workload, seed, workers)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(workload, result)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", choices=wl.WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe)
            return 0
        if args.self_test:
            import selftest

            import_checkout()

            return selftest.main(ROOT, run_op, END_TO_END, EXTRA_LAYER)
        if not args.workload:
            ap.error("--workload is required")
        names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, res in results.items() for k, m in res["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
