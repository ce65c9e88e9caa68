"""Command-line entry points.

Exit codes: 0 = computed and any decided predicate is true; 1 = computed but
the predicate is false (e.g. not Calabi-Yau); 2 = input error; 3 = capacity
error; 4 = internal error (a failed self-check such as the Frobenius pairing
verification or the census partition count, or an inadmissible face that
hilb1 built itself).  All diagnostics go to standard error; reports go to
standard output.  Each subcommand is one row of _COMMANDS: its handler takes
the argparse namespace and returns (payload, text lines, verdict), and main
alone prints the report and maps the verdict to the exit code (None: the
command only reports and decides nothing).
JSON output is byte-deterministic for a fixed input, whatever the worker count.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import CapacityError, run_census
from .expr import lower, parse_params, parse_poly, print_poly
from .hilb1 import InadmissibleFaceError, hilb1
from .koszulcy import compare_frobenius, cy_criterion, dehomogenize, is_twist_realizable
from .qalgebra import ALGEBRA_A, ALGEBRA_B, QuantumParams, is_central

__all__ = ["build_parser", "entry", "main"]

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _load_params(source: str) -> QuantumParams:
    # A JSON object or array is a document (parse_params refuses an array);
    # anything else names a file.
    text = source
    if not source.lstrip().startswith(("{", "[")):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_params(text)


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


# -- per-command handlers: each returns (payload, text lines, verdict) -----------


def _cmd_check_cy(args):
    report = cy_criterion(_load_params(args.params))
    lines = [
        f"is_cy: {_fmt_bool(report.is_cy)}",
        f"column_sums: {list(report.column_sums)}",
        f"common_value: {report.common_value}",
        "serre_scalars: " + ", ".join(s.basis_string() for s in report.serre_twist.scalars),
        f"twist_is_scalar: {_fmt_bool(report.twist_is_scalar)}",
    ]
    if report.twist_vector is not None:
        lines.append(f"twist_vector: {list(report.twist_vector)}")
    return report.to_json_dict(), lines, report.is_cy


def _cmd_hilb1(args):
    report = hilb1(_load_params(args.params), args.algebra)
    lines = [
        f"algebra: {report.algebra}",
        f"is_full: {_fmt_bool(report.complex.is_full)}",
        f"discrete: {_fmt_bool(report.discrete)}",
        f"total_points: {report.total_points}",
    ]
    for comp in report.components:
        head = (
            f"face {list(comp.face)}: {comp.kind}, dimension {comp.dimension}, "
            f"shift {list(comp.shift)}"
        )
        if comp.point_count is not None:
            head += f", {comp.point_count} points (orbit length {comp.orbit_length})"
        lines.append(head)
        if comp.equation is not None:
            lines.append(f"  cut by {comp.equation}")
        if comp.points is not None:
            for pt in comp.points:
                coords = ", ".join(c.basis_string() for c in pt)
                lines.append(f"  ({coords})")
    return report.to_json_dict(), lines, None


def _cmd_census(args):
    report = run_census(args.n, workers=args.workers, witness_limit=args.witness_limit)
    lines = [
        f"n: {report.n}",
        f"total: {report.total}",
        f"count_cy: {report.count_cy}",
        f"count_generic: {report.count_generic}",
        f"count_generic_and_cy: {report.count_generic_and_cy}",
        "all_generic_cy_have_zero_column_sums: "
        + _fmt_bool(report.all_generic_cy_have_zero_column_sums),
    ]
    if report.n4_dichotomy_holds is not None:
        lines.append(f"n4_dichotomy_holds: {_fmt_bool(report.n4_dichotomy_holds)}")
    if report.alternative_readings is not None:
        lines.append(f"alternative_readings: {report.alternative_readings}")
    for w in report.witnesses:
        lines.append(f"witness: {[list(r) for r in w.exps]}")
    # Written before the report is printed, so an unwritable path leaves
    # stdout empty.
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("predicate,count\n")
            for name, count in report.csv_counts():
                fh.write(f"{name},{count}\n")
    # The verdict is the claims made for this n: the zero-column-sum
    # implication at n=5, the dichotomy at n=4; other n are vacuous.
    ok = (report.n != 5 or report.all_generic_cy_have_zero_column_sums) and (
        report.n4_dichotomy_holds is not False
    )
    return report.to_json_dict(), lines, ok


def _parse_poly_flag(args, params: QuantumParams):
    conductor = params.n if args.conductor is None else args.conductor
    ast = parse_poly(args.poly, params.n, conductor)
    return lower(ast, params, args.algebra)


def _cmd_central(args):
    poly = _parse_poly_flag(args, _load_params(args.params))
    central = is_central(poly)
    canonical = print_poly(poly)
    lines = [f"central: {_fmt_bool(central)}", f"poly: {canonical}"]
    return {"central": central, "poly": canonical}, lines, central


def _cmd_frobenius(args):
    comparison = compare_frobenius(_load_params(args.params))
    lines = [
        f"agree_mod_scalar: {_fmt_bool(comparison.agree_mod_scalar)}",
        f"ratio: {comparison.ratio.basis_string() if comparison.ratio is not None else None}",
        "bruteforce: " + ", ".join(c.basis_string() for c in comparison.bruteforce),
        "closedform: " + ", ".join(c.basis_string() for c in comparison.closedform),
    ]
    return comparison.to_json_dict(), lines, comparison.agree_mod_scalar


def _cmd_twist_check(args):
    twist = is_twist_realizable(_load_params(args.params))
    realizable = twist is not None
    vector = list(twist) if realizable else None
    lines = [f"realizable: {_fmt_bool(realizable)}", f"twist: {vector}"]
    return {"realizable": realizable, "twist": vector}, lines, realizable


def _cmd_patch(args):
    patch = dehomogenize(_load_params(args.params), args.invert)
    lines = [
        f"order: {patch.order}",
        f"generators: {patch.num_generators}",
        f"exponents: {[list(r) for r in patch.exps]}",
        f"note: {patch.note}",
    ]
    return patch.to_json(), lines, None


def _cmd_eval(args):
    poly = _parse_poly_flag(args, _load_params(args.params))
    canonical = print_poly(poly)
    return {"canonical": canonical, "poly": poly.to_json()}, [canonical], None


# -- the command table ------------------------------------------------------------


def _arg(name: str, **kwargs):
    """An argument spec: the name and keywords of one add_argument call."""
    return name, kwargs


_DOCUMENT = _arg(
    "params",
    help="parameter document: a file path or inline JSON "
    '(e.g. \'{"n":5,"twist":[1,2,3,4,0]}\')',
)
_OUTPUT = _arg(
    "--output", choices=("text", "json"), default="text", help="report format (default: text)"
)


def _algebra(default: str):
    return _arg("--algebra", choices=(ALGEBRA_B, ALGEBRA_A), default=default)


def _polynomial(poly_help=None):
    return (
        _arg("--poly", required=True, help=poly_help),
        _algebra(ALGEBRA_B),
        _arg("--conductor", type=int, default=None),
    )


# (name, help, handler, arguments in usage order); every command ends with --output.
_COMMANDS = (
    ("check-cy", "decide the Calabi-Yau column-sum criterion", _cmd_check_cy, _DOCUMENT),
    ("hilb1", "classify point modules", _cmd_hilb1, _DOCUMENT, _algebra(ALGEBRA_A)),
    (
        "census",
        "exhaustive scan of all matrices for one n",
        _cmd_census,
        _arg("--n", type=int, required=True),
        _arg("--workers", type=int, default=1, help="parallel workers (default: 1)"),
        _arg("--witness-limit", type=int, default=3),
        _arg("--csv", default=None, help="also write per-predicate counts as CSV"),
    ),
    (
        "central",
        "test centrality of a polynomial",
        _cmd_central,
        _DOCUMENT,
        *_polynomial("polynomial expression, e.g. 'x1*x2'"),
    ),
    ("frobenius", "compare the two Frobenius automorphism routes", _cmd_frobenius, _DOCUMENT),
    ("twist-check", "recognize twisted-coordinate-ring parameters", _cmd_twist_check, _DOCUMENT),
    (
        "patch",
        "dehomogenized chart commutation exponents",
        _cmd_patch,
        _DOCUMENT,
        _arg("--invert", type=int, required=True, help="1-based inverted generator"),
    ),
    ("eval", "parse, normal-order, and print a polynomial", _cmd_eval, _DOCUMENT, *_polynomial()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfermat",
        description=(
            "Exact tools for quantum Fermat algebras: Calabi-Yau test, "
            "point-module classification, Frobenius comparison, parameter census."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, *arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for arg, kwargs in (*arguments, _OUTPUT):
            p.add_argument(arg, **kwargs)
    return parser


def main(argv=None) -> int:
    """Run one command line, mapping failures to the exit-code contract."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has written its usage error (status 2) or help (status 0).
        return EXIT_INPUT if exc.code else EXIT_TRUE
    try:
        payload, lines, verdict = args.handler(args)
        _emit(payload, args.output == "json", lines)
        return EXIT_TRUE if verdict is None or verdict else EXIT_FALSE
    except CapacityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPACITY
    except MemoryError:
        # Out of memory is a capacity fault, never "predicate false".
        sys.stderr.write("error: out of memory\n")
        return EXIT_CAPACITY
    except (RuntimeError, InadmissibleFaceError) as exc:
        # Internal self-checks (FrobeniusPairingError, the census partition
        # count) raise RuntimeError, and hilb1 raises InadmissibleFaceError
        # only on faces it built itself; none of these may read as
        # "predicate false" or "bad input".
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
