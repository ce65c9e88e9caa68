"""Seeded inputs and operations of the four benchmark workloads.

Every workload is a stream of rounds.  A round has a fixed composition (for
example one n = 5 scan, one unsatisfiable witness query and seven satisfiable
ones), and the seed only picks the concrete inputs and their order, so the
proportions of the mix never depend on the seed.  An operation calls the
public qfermat API through module attributes looked up at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import checks

WORKLOADS = ("census", "frobenius", "algebra", "cli")
CLI_COMMANDS = ("check-cy", "twist-check", "patch", "eval", "central", "hilb1", "frobenius")
CLI_TIMEOUT_S = 60

# Predicate spellings accepted by find_witness, keyed by canonical predicate.
_SPELLINGS = {
    "cy": ("cy", "is_cy", "CY"),
    "generic": ("generic", "is_generic", " Generic "),
    "full": ("full", "is_full", "full-face", "twist-realizable", "twist_realizable"),
}
_SAT_CLASSES = (("cy",), ("generic",), ("full",), ("cy", "generic"), ("cy", "full"))
_UNSAT_CLASS = ("generic", "full")


@dataclass
class Op:
    """One closed-loop operation: `run` is timed, `check` is not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


class Lib:
    """The qfermat modules of this checkout, imported on demand."""

    def __init__(self, with_cli: bool):
        for name in ("cyclo", "qalgebra", "koszulcy", "hilb1", "census", "expr"):
            # import_module, not attribute access: the package re-exports a
            # function named hilb1 that shadows the submodule attribute.
            setattr(self, name, importlib.import_module(f"qfermat.{name}"))
        self.cli = importlib.import_module("qfermat.cli") if with_cli else None


# -- random inputs --------------------------------------------------------------


def random_exps(rng, n: int) -> list[list[int]]:
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = rng.randrange(n)
            mat[i][j], mat[j][i] = e, (-e) % n
    return mat


def random_doc(rng, n: int) -> tuple[list[list[int]], str]:
    """A parameter document in one of the three README forms, and its matrix."""
    form = rng.randrange(3)
    if form == 0:
        d = [rng.randrange(n) for _ in range(n)]
        exps = [[(d[i] - d[j]) % n for j in range(n)] for i in range(n)]
        return exps, json.dumps({"n": n, "twist": d})
    exps = random_exps(rng, n)
    if form == 1:
        return exps, json.dumps({"n": n, "exponents": exps})
    entries = [
        {"i": i + 1, "j": j + 1, "e": exps[i][j]}
        for i in range(n)
        for j in range(i + 1, n)
        if exps[i][j]
    ]
    return exps, json.dumps({"n": n, "entries": entries})


def random_word(rng, n: int, length: int) -> list[int]:
    return [rng.randrange(1, n + 1) for _ in range(length)]


def word_text(word) -> str:
    return "*".join(f"x{g}" for g in word)


def _coeff_text(rng, n: int) -> str:
    k = rng.randrange(1, n)
    w = "w" if k == 1 else f"w^{k}"
    return rng.choice(
        (
            str(rng.choice((2, 3, 5))),
            f"{rng.choice((1, 3, 5))}/{rng.choice((2, 4, 7))}",
            w,
            f"({rng.choice((2, 3))}/{rng.choice((5, 7))}*{w} + {rng.choice((1, 2))})",
            f"(1 - {w})^2",
        )
    )


def random_poly_text(rng, n: int, terms: int) -> str:
    """A sum of terms with rational and cyclotomic coefficients and unordered words."""
    out = []
    for t in range(terms):
        factors = []
        for _ in range(rng.randrange(1, 4)):
            g, p = rng.randrange(1, n + 1), rng.randrange(1, 3)
            factors.append(f"x{g}" if p == 1 else f"x{g}^{p}")
        body = f"{_coeff_text(rng, n)}*{'*'.join(factors)}"
        if t == 0:
            out.append(body)
        else:
            out.append(("+ " if rng.random() < 0.5 else "- ") + body)
    return " ".join(out)


# -- census ---------------------------------------------------------------------------


def _spell(rng, preds) -> list[str]:
    names = [rng.choice(_SPELLINGS[p]) for p in preds]
    if rng.random() < 0.3:
        names.append(rng.choice(_SPELLINGS[rng.choice(preds)]))
    rng.shuffle(names)
    return names


def census_scan_op(lib: Lib, checker: checks.CensusChecker, workers: int) -> Op:
    return Op(
        "scan",
        lambda: lib.census.run_census(5, workers=workers).to_json_dict(),
        checker.scan,
    )


def census_witness_op(lib: Lib, checker: checks.CensusChecker, rng, preds) -> Op:
    names = _spell(rng, preds)

    def run():
        found = lib.census.find_witness(5, names)
        return None if found is None else found.to_json()

    return Op("witness", run, lambda res: checker.witness(5, frozenset(preds), res))


def census_round(rng, lib: Lib, checker, workers: int) -> list[Op]:
    # Nine ops.  The one-predicate queries take about 0.15-0.2 s, the
    # two-predicate ones about 0.3 s, the scan and the unsatisfiable query
    # seconds.  Three fast ops, four two-predicate ones and two slow ones put
    # the median inside the two-predicate cluster, away from the gap below it.
    ops = [census_scan_op(lib, checker, workers), census_witness_op(lib, checker, rng, _UNSAT_CLASS)]
    ops += [census_witness_op(lib, checker, rng, c) for c in _SAT_CLASSES + _SAT_CLASSES[-2:]]
    rng.shuffle(ops)
    return ops


# -- frobenius ----------------------------------------------------------------------------


def frobenius_op(lib: Lib, exps) -> Op:
    n = len(exps)

    def run():
        params = lib.qalgebra.validate_params(n, exps)
        return lib.koszulcy.compare_frobenius(params).to_json_dict()

    return Op(f"n{n}", run, lambda res: checks.frobenius(exps, res))


def frobenius_round(rng, lib: Lib) -> list[Op]:
    # n = 3 makes five equal shares, so the median falls inside the n = 5
    # group instead of between the n = 5 and n = 6 groups.
    sizes = [3, 4, 5, 6, 7]
    rng.shuffle(sizes)
    return [frobenius_op(lib, random_exps(rng, n)) for n in sizes]


# -- algebra ----------------------------------------------------------------------------------


# One algebra query examines one parameter matrix.  A query of a single
# product (a few ms) let host preemptions of 10-40 ms decide the latency
# tail; with ALGEBRA_PAIRS products a query lasts about 85 ms.
ALGEBRA_PAIRS = 40


@dataclass
class AlgebraSpec:
    exps: list
    doc: str
    pairs: list = field(default_factory=list)
    words: list = field(default_factory=list)


def algebra_spec(rng, n: int) -> AlgebraSpec:
    exps, doc = random_doc(rng, n)
    return AlgebraSpec(
        exps,
        doc,
        [(random_poly_text(rng, n, 3), random_poly_text(rng, n, 3)) for _ in range(ALGEBRA_PAIRS)],
        [random_word(rng, n, 5) for _ in range(ALGEBRA_PAIRS)],
    )


def algebra_op(lib: Lib, spec: AlgebraSpec) -> Op:
    n = len(spec.exps)

    def product(params, f_text: str, g_text: str) -> dict:
        ex, qa = lib.expr, lib.qalgebra
        ast_f = ex.parse_poly(f_text, n, n)
        f_a = ex.lower(ast_f, params, "A")
        prod = qa.multiply(ex.lower(ast_f, params, "B"), ex.lower(ex.parse_poly(g_text, n, n), params, "B"))
        text = ex.print_poly(prod)
        return {
            "f_a": f_a.to_json(),
            "prod": prod.to_json(),
            "roundtrip": ex.lower(ex.parse_poly(text, n, n), params, "B") == prod,
            "central": qa.is_central(prod),
        }

    def run():
        ex, qa = lib.expr, lib.qalgebra
        params = ex.parse_params(spec.doc)
        mono = ex.lower(ex.parse_poly(word_text(spec.words[0]), n, n), params, "B")
        return {
            "params": params.to_json(),
            "products": [product(params, f, g) for f, g in spec.pairs],
            "central_fermat": qa.is_central(qa.fermat_element(params)),
            "central_pog": qa.is_central(qa.product_of_generators(params)),
            "nu": qa.normalizing_automorphism(mono).to_json(),
            "orders": [qa.normal_order(params, w) for w in spec.words],
            "hilb1": lib.hilb1.hilb1(params, "A").to_json_dict(),
        }

    return Op(f"n{n}", run, lambda res: checks.algebra(spec, res))


def algebra_round(rng, lib: Lib) -> list[Op]:
    sizes = [3, 4, 5, 6]
    rng.shuffle(sizes)
    return [algebra_op(lib, algebra_spec(rng, n)) for n in sizes]


# -- cli ------------------------------------------------------------------------------------------


@dataclass
class CliSpec:
    command: str
    exps: list
    doc: str
    as_json: bool
    words: list = field(default_factory=list)
    coeffs: list = field(default_factory=list)
    invert: int = 0

    def argv(self) -> list[str]:
        args = [self.command, self.doc]
        if self.command in ("central", "eval"):
            terms = []
            for c, w in zip(self.coeffs, self.words):
                body = word_text(w) if abs(c) == 1 else f"{abs(c)}*{word_text(w)}"
                sign = "-" if c < 0 else "+"
                terms.append(f"{sign} {body}" if terms else ("-" if c < 0 else "") + body)
            args += ["--poly", " ".join(terms)]
        if self.command == "patch":
            args += ["--invert", str(self.invert)]
        if self.as_json:
            args += ["--output", "json"]
        return args


def cli_spec(rng, command: str, as_json: bool) -> CliSpec:
    n = rng.randrange(3, 6)
    exps, doc = random_doc(rng, n)
    spec = CliSpec(command, exps, doc, as_json)
    if command == "patch":
        spec.invert = rng.randrange(1, n + 1)
    elif command == "central":
        kind = rng.randrange(3)
        if kind == 0:  # the Fermat element, always central
            spec.words = [[g] * n for g in range(1, n + 1)]
        elif kind == 1:  # x1*...*xn, central iff every column sum is 0
            spec.words = [list(range(1, n + 1))]
        else:
            spec.words = [random_word(rng, n, 4)]
        spec.coeffs = [1] * len(spec.words)
    elif command == "eval":
        seen = set()
        while len(spec.words) < 3:
            w = random_word(rng, n, rng.randrange(2, 5))
            md = checks.bubble_order(exps, w)[1]
            if md not in seen:
                seen.add(md)
                spec.words.append(w)
                spec.coeffs.append(rng.choice((1, -1, 2, -3)))
    return spec


def cli_subprocess_env(src: str) -> dict:
    """The environment of a CLI op: this checkout's src/ only, default workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("QFERMAT_WORKERS", None)
    return env


def cli_op(spec: CliSpec, env: dict, cwd: str) -> Op:
    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "qfermat.cli", *spec.argv()],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    return Op(spec.command, run, lambda res: checks.cli(spec, *res))


def cli_inprocess_op(lib: Lib, spec: CliSpec) -> Op:
    """The same request through cli.main in this process, stdout captured."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(spec.argv())
        return code, out.getvalue()

    return Op(spec.command, run, lambda res: checks.cli(spec, *res))


def cli_specs(rng) -> list[CliSpec]:
    specs = [cli_spec(rng, c, j) for c in CLI_COMMANDS for j in (False, True)]
    rng.shuffle(specs)
    return specs


# -- set-up ------------------------------------------------------------------------------------------


def conductors(workload: str) -> list[int]:
    sizes = {"census": [5], "frobenius": [3, 4, 5, 6, 7], "algebra": [3, 4, 5, 6], "cli": [3, 4, 5]}
    return sorted({m for n in sizes[workload] for m in (n, 2 * n)})


def setup(workload: str, rng, workers: int) -> Lib:
    """Imports, field interning, and one untimed warm-up op of each kind."""
    lib = Lib(with_cli=workload == "cli")
    for m in conductors(workload):
        lib.cyclo.CycloField(m)
    if workload == "census":
        # The warm-up scan is n = 4 split into four blocks, so it starts a
        # pool of `workers` processes like an n = 5 scan but takes
        # milliseconds, not seconds.
        lib.census.run_census(4, workers=workers, block_size=1024)
        warm = [census_witness_op(lib, checks.CensusChecker(), rng, ("cy",))]
    elif workload == "frobenius":
        warm = frobenius_round(rng, lib)
    elif workload == "algebra":
        warm = algebra_round(rng, lib)
    else:
        warm = [cli_inprocess_op(lib, cli_spec(rng, c, False)) for c in CLI_COMMANDS]
    for op in warm:
        op.run()
    return lib
