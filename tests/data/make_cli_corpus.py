"""Write tests/data/cli_corpus.json: argv, exit code, stdout and stderr of a
fixed set of `qfermat` invocations, run in process through `cli.main`.

    PYTHONPATH=src python tests/data/make_cli_corpus.py

tests/test_cli_corpus.py replays every entry and asserts the same bytes, so
regenerate the file only when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

OUT = Path(__file__).with_name("cli_corpus.json")

TWIST5 = '{"n":5,"twist":[1,2,3,4,0]}'
SKEW5 = '{"n":5,"twist":[1,0,0,0,0]}'
GENERIC4 = '{"n":4,"exponents":[[0,0,0,0],[0,0,1,3],[0,3,0,1],[0,1,3,0]]}'
ENTRIES5 = '{"n":5,"entries":[{"i":1,"j":2,"e":1}]}'
ENTRIES3 = '{"n":3,"entries":[{"i":1,"j":2,"e":1},{"i":2,"j":3,"e":1},{"i":1,"j":3,"e":2}]}'
EXPS3 = '{"n":3,"exponents":[[0,1,2],[2,0,1],[1,2,0]]}'
TWIST4 = '{"n":4,"twist":[0,1,1,3]}'
# three maximal faces at n = 40; the subset sweep would visit 2^40 subsets
ONE_RELATION40 = '{"n":40,"entries":[{"i":1,"j":2,"e":1}]}'
# refused when n is read: every form builds an n x n matrix, here 10^10 cells
HUGE_N = '{"n":100000,"entries":[]}'
GOOD_DOCS = (TWIST5, SKEW5, GENERIC4, ENTRIES5, ENTRIES3, EXPS3, TWIST4)

BAD_DOCS = (
    "{not json",
    "[1, 2, 3]",
    '{"twist":[0,1,2]}',
    '{"n":3,"twist":[0,1,2],"extra":1}',
    '{"n":3,"twist":[0,1,2],"exponents":[[0,0,0],[0,0,0],[0,0,0]]}',
    '{"n":3}',
    '{"n":3,"exponents":[[0,1,0],[1,0,0],[0,0,0]]}',
    '{"n":3,"exponents":[[0,1],[2,0]]}',
    '{"n":3,"twist":[0,1]}',
    '{"n":3,"twist":[0,true,2]}',
    '{"n":"3","twist":[0,1,2]}',
    '{"n":3,"entries":[{"i":1,"j":1,"e":1}]}',
    '{"n":3,"entries":[{"i":1,"j":2,"e":1},{"i":2,"j":1,"e":2}]}',
    '{"n":3,"entries":[{"i":1,"j":4,"e":1}]}',
    '{"n":3,"entries":[{"i":1,"j":2}]}',
    '{"n":3,"entries":[{"i":1,"j":2,"e":1,"k":0}]}',
    '{"n":1,"exponents":[[0]]}',
    "/nonexistent/params.json",
)

# one integer literal a digit past the interpreter's conversion limit per field
LONG = "7" * 4301
LONG_DOCS = (
    f'{{"n":{LONG},"twist":[0,1,2]}}',
    f'{{"n":3,"twist":[0,-{LONG},2]}}',
    f'{{"n":2,"exponents":[[0,1],[{LONG},0]]}}',
    f'{{"n":3,"entries":[{{"i":1,"j":2,"e":{LONG}}}]}}',
)

POLYS = (
    "x2*x1",
    "x1^5 + x2^5 + x3^5 + x4^5 + x5^5",
    "x1*x2*x3*x4*x5",
    "-x3*x1 + 2*x1*x3",
    "w*x2*x1 - w^2*x1*x2",
    "(1 - w)^2*x4*x2^3",
    "(2/5*w^3 + 1)*x5*x1 + 3/7",
    "(w + w^4)*(w^2 - 1/2)*x2*x2",
    "-(1)*x1",
    "7",
    "x1 - x1",
    "0*x3",
    "((w)^3)^2*x1*x3",
    "- 1/3*x5^2*x4 + (-w + 2)*x4*x5^2",
    "((w + w^4)*(w^2 - 1/2))*x2*x2",
    "(1/2)^3*x1^3*x1^2 + w^0 + w^12*x4",
    "(3 - w*w^2 + 2/4*(1 + w)^2)*x5*x3*x2",
)

BAD_POLYS = (
    "",
    "x9",
    "x0",
    "x",
    "x1 x2",
    "x1^0",
    "x1^",
    "1/0*x1",
    "(1 + w",
    "2*",
    "x1 +",
    "x1 ? x2",
    "w^x1",
    "(x1)",
    "x1*2",
    "--x1",
    "(1 + )*x1",
    "(2 * )",
    "(w^)*x1",
    "(1/)",
    "(" * 2000 + "1" + ")" * 2000 + "*x1",
)


def poly_arg(text: str) -> list[str]:
    # argparse reads a separate value that starts with '-' as an option.
    return [f"--poly={text}"] if text.startswith("-") else ["--poly", text]


def corpus() -> list[list[str]]:
    out: list[list[str]] = []

    def both(*argv):
        out.append(list(argv))
        out.append(list(argv) + ["--output", "json"])

    for doc in GOOD_DOCS:
        for cmd in ("check-cy", "twist-check", "frobenius"):
            both(cmd, doc)
    for doc in (TWIST5, GENERIC4, ENTRIES3, TWIST4):
        for algebra in ("A", "B"):
            both("hilb1", "--algebra", algebra, doc)
    both("hilb1", EXPS3)
    for doc, invert in ((TWIST5, "2"), (GENERIC4, "1"), (ENTRIES3, "3"), (EXPS3, "2")):
        both("patch", "--invert", invert, doc)
    for invert in ("0", "6", "-1"):
        out.append(["patch", "--invert", invert, TWIST5])
    for poly in POLYS:
        both("eval", *poly_arg(poly), SKEW5)
        out.append(["central", *poly_arg(poly), TWIST5])
    for poly in POLYS[:5]:
        out.append(["eval", "--algebra", "A", *poly_arg(poly), ENTRIES5])
        out.append(["central", "--algebra", "A", *poly_arg(poly), ENTRIES5, "--output", "json"])
    for conductor in ("10", "15", "3", "7", "-5"):
        out.append(["eval", "--poly", "w*x2*x1 + w^3", "--conductor", conductor, SKEW5])
        out.append(["central", "--poly", "x1^5", "--conductor", conductor, TWIST5])
    both("eval", "--poly", "x3*x1*x2", "--conductor", "8", GENERIC4)
    for poly in BAD_POLYS:
        out.append(["eval", *poly_arg(poly), SKEW5])
    out.append(["central", "--poly", "x1*x6", TWIST5])
    for doc in BAD_DOCS:
        out.append(["check-cy", doc])
    for cmd in ("twist-check", "frobenius", "hilb1"):
        out.append([cmd, BAD_DOCS[0]])
        out.append([cmd, BAD_DOCS[-1]])
    out.append(["eval", "--poly", "x1", BAD_DOCS[6]])
    for n in ("3", "4", "5"):
        both("census", "--n", n)
    both("census", "--n", "4", "--witness-limit", "0")
    out.append(["census", "--n", "5", "--witness-limit", "7", "--workers", "2", "--output", "json"])
    for n in ("7", "2", "1"):
        out.append(["census", "--n", n])
    out.append(["census", "--n", "3", "--workers", "0"])
    for doc in LONG_DOCS:
        out.append(["check-cy", doc])
    for algebra in ("A", "B"):
        out.append(["hilb1", "--algebra", algebra, ONE_RELATION40])
    both("check-cy", HUGE_N)
    return out


def record(argv: list[str]) -> dict:
    from qfermat.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def main() -> None:
    entries = [record(argv) for argv in corpus()]
    OUT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(entries)} entries to {OUT}\n")


if __name__ == "__main__":
    main()
