"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/steady.py --workloads census frobenius --seeds 1 2 3 4 5 \
        [--seconds 30] [--out bench/out/steady.json] [--baseline FILE]

Runs bench/run.py once per workload and seed, one run at a time, and reports
for every end-to-end metric the median and the quartile spread
(Q3 - Q1) / median, with `statistics.quantiles(values, n=4)`, next to the
metric's bound from BENCHMARK.json.  With --baseline (an earlier --out
file) it also reports how far each median moved in the worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def run_one(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", default=str(ROOT / "bench" / "out" / "steady.json"))
    ap.add_argument("--baseline")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    out = {}
    for w in args.workloads:
        runs = [run_one(w, s, seconds) for s in args.seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print(f"{w}: a run reported failures")
        out[w] = {"seeds": args.seeds, "values": {}, "summary": {}}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, spr = spread(values)
            row = {"median": med, "spread": spr, "bound": m["bound"]}
            if w in base:
                old = base[w]["summary"][name]["median"]
                sign = 1 if m["better"] == "lower" else -1
                row["worse_by"] = sign * (med - old) / old
            out[w]["values"][name] = values
            out[w]["summary"][name] = row
            moved = f"  worse by {row['worse_by']:+.3f}" if "worse_by" in row else ""
            print(f"{w:10s} {name:16s} median {med:12.5g}  spread {spr:.3f}  bound {m['bound']}{moved}")
        sys.stdout.flush()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
