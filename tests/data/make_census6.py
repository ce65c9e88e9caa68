"""Write tests/data/census6.json: the n = 6 census report from the CLI and from
`run_census`, and the first witness of every predicate set.

    PYTHONPATH=src python tests/data/make_census6.py

The file records `qfermat census --n 6 --output json` (argv, exit code,
stdout, stderr), `run_census(6, witness_limit=40)` as its JSON dict, and
`find_witness(6, s)` for the seven non-empty subsets s of {cy, generic, full}.
tests/test_census.py compares all of them byte for byte, so regenerate the
file only when a change of output is intended.  It was recorded with the
all-representative scan, which takes minutes at n = 6.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import combinations
from pathlib import Path

OUT = Path(__file__).with_name("census6.json")

CLI_ARGV = ["census", "--n", "6", "--output", "json"]
WITNESS_LIMIT = 40
PREDICATE_SETS = [
    list(s) for size in (1, 2, 3) for s in combinations(("cy", "generic", "full"), size)
]


def record_cli(argv: list[str]) -> dict:
    from qfermat.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def record_witness(predicates: list[str]) -> dict:
    from qfermat.census import find_witness

    params = find_witness(6, predicates)
    return {"predicates": predicates, "witness": None if params is None else params.to_json()}


def main() -> None:
    from qfermat.census import run_census

    blob = {
        "cli": record_cli(CLI_ARGV),
        "witness_limit": WITNESS_LIMIT,
        "report": run_census(6, witness_limit=WITNESS_LIMIT).to_json_dict(),
        "find_witness": [record_witness(s) for s in PREDICATE_SETS],
    }
    OUT.write_text(json.dumps(blob, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {OUT}\n")


if __name__ == "__main__":
    main()
