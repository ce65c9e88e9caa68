"""Command-line entry points.

Exit codes: 0 = computed and any decided predicate is true; 1 = computed but
the predicate is false (e.g. not Calabi-Yau); 2 = input error; 3 = capacity
error; 4 = internal error (a failed self-check such as the Frobenius pairing
verification or the census partition count, or an inadmissible face that
hilb1 built itself).  All diagnostics go to standard error; reports go to
standard output.  Each subcommand's handler receives the argparse namespace.
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


# -- per-command handlers -------------------------------------------------------


def _cmd_check_cy(args) -> int:
    params = _load_params(args.params)
    report = cy_criterion(params)
    payload = report.to_json_dict()
    lines = [
        f"is_cy: {_fmt_bool(report.is_cy)}",
        f"column_sums: {list(report.column_sums)}",
        f"common_value: {report.common_value}",
        "serre_scalars: " + ", ".join(s.basis_string() for s in report.serre_twist.scalars),
        f"twist_is_scalar: {_fmt_bool(report.twist_is_scalar)}",
    ]
    if report.twist_vector is not None:
        lines.append(f"twist_vector: {list(report.twist_vector)}")
    _emit(payload, args.output == "json", lines)
    return EXIT_TRUE if report.is_cy else EXIT_FALSE


def _cmd_hilb1(args) -> int:
    params = _load_params(args.params)
    report = hilb1(params, args.algebra)
    payload = report.to_json_dict()
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
    _emit(payload, args.output == "json", lines)
    return EXIT_TRUE


def _cmd_census(args) -> int:
    report = run_census(args.n, workers=args.workers, witness_limit=args.witness_limit)
    payload = report.to_json_dict()
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
    _emit(payload, args.output == "json", lines)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("predicate,count\n")
            for name, count in report.csv_counts():
                fh.write(f"{name},{count}\n")
    # Exit reflects the claims made for this n: the zero-column-sum
    # implication lives at n=5, the dichotomy at n=4; other n are vacuous.
    ok = True
    if report.n == 5:
        ok = report.all_generic_cy_have_zero_column_sums
    if report.n4_dichotomy_holds is not None:
        ok = ok and report.n4_dichotomy_holds
    return EXIT_TRUE if ok else EXIT_FALSE


def _parse_poly_flag(args, params: QuantumParams):
    conductor = params.n if args.conductor is None else args.conductor
    ast = parse_poly(args.poly, params.n, conductor)
    return lower(ast, params, args.algebra)


def _cmd_central(args) -> int:
    params = _load_params(args.params)
    poly = _parse_poly_flag(args, params)
    central = is_central(poly)
    canonical = print_poly(poly)
    payload = {"central": central, "poly": canonical}
    _emit(payload, args.output == "json", [f"central: {_fmt_bool(central)}", f"poly: {canonical}"])
    return EXIT_TRUE if central else EXIT_FALSE


def _cmd_frobenius(args) -> int:
    params = _load_params(args.params)
    comparison = compare_frobenius(params)
    payload = comparison.to_json_dict()
    lines = [
        f"agree_mod_scalar: {_fmt_bool(comparison.agree_mod_scalar)}",
        f"ratio: {comparison.ratio.basis_string() if comparison.ratio is not None else None}",
        "bruteforce: " + ", ".join(c.basis_string() for c in comparison.bruteforce),
        "closedform: " + ", ".join(c.basis_string() for c in comparison.closedform),
    ]
    _emit(payload, args.output == "json", lines)
    return EXIT_TRUE if comparison.agree_mod_scalar else EXIT_FALSE


def _cmd_twist_check(args) -> int:
    params = _load_params(args.params)
    twist = is_twist_realizable(params)
    payload = {
        "realizable": twist is not None,
        "twist": list(twist) if twist is not None else None,
    }
    lines = [
        f"realizable: {_fmt_bool(twist is not None)}",
        f"twist: {list(twist) if twist is not None else None}",
    ]
    _emit(payload, args.output == "json", lines)
    return EXIT_TRUE if twist is not None else EXIT_FALSE


def _cmd_patch(args) -> int:
    params = _load_params(args.params)
    patch = dehomogenize(params, args.invert)
    payload = patch.to_json()
    lines = [
        f"order: {patch.order}",
        f"generators: {patch.num_generators}",
        f"exponents: {[list(r) for r in patch.exps]}",
        f"note: {patch.note}",
    ]
    _emit(payload, args.output == "json", lines)
    return EXIT_TRUE


def _cmd_eval(args) -> int:
    params = _load_params(args.params)
    poly = _parse_poly_flag(args, params)
    canonical = print_poly(poly)
    payload = {"canonical": canonical, "poly": poly.to_json()}
    _emit(payload, args.output == "json", [canonical])
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfermat",
        description=(
            "Exact tools for quantum Fermat algebras: Calabi-Yau test, "
            "point-module classification, Frobenius comparison, parameter census."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params_arg(p):
        p.add_argument(
            "params",
            help="parameter document: a file path or inline JSON "
            '(e.g. \'{"n":5,"twist":[1,2,3,4,0]}\')',
        )

    def add_output_flag(p):
        p.add_argument(
            "--output",
            choices=("text", "json"),
            default="text",
            help="report format (default: text)",
        )

    p = sub.add_parser("check-cy", help="decide the Calabi-Yau column-sum criterion")
    p.set_defaults(handler=_cmd_check_cy)
    add_params_arg(p)
    add_output_flag(p)

    p = sub.add_parser("hilb1", help="classify point modules")
    p.set_defaults(handler=_cmd_hilb1)
    add_params_arg(p)
    p.add_argument("--algebra", choices=(ALGEBRA_B, ALGEBRA_A), default=ALGEBRA_A)
    add_output_flag(p)

    p = sub.add_parser("census", help="exhaustive scan of all matrices for one n")
    p.set_defaults(handler=_cmd_census)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel workers (default: 1)",
    )
    p.add_argument("--witness-limit", type=int, default=3)
    p.add_argument("--csv", default=None, help="also write per-predicate counts as CSV")
    add_output_flag(p)

    p = sub.add_parser("central", help="test centrality of a polynomial")
    p.set_defaults(handler=_cmd_central)
    add_params_arg(p)
    p.add_argument("--poly", required=True, help="polynomial expression, e.g. 'x1*x2'")
    p.add_argument("--algebra", choices=(ALGEBRA_B, ALGEBRA_A), default=ALGEBRA_B)
    p.add_argument("--conductor", type=int, default=None)
    add_output_flag(p)

    p = sub.add_parser("frobenius", help="compare the two Frobenius automorphism routes")
    p.set_defaults(handler=_cmd_frobenius)
    add_params_arg(p)
    add_output_flag(p)

    p = sub.add_parser("twist-check", help="recognize twisted-coordinate-ring parameters")
    p.set_defaults(handler=_cmd_twist_check)
    add_params_arg(p)
    add_output_flag(p)

    p = sub.add_parser("patch", help="dehomogenized chart commutation exponents")
    p.set_defaults(handler=_cmd_patch)
    add_params_arg(p)
    p.add_argument("--invert", type=int, required=True, help="1-based inverted generator")
    add_output_flag(p)

    p = sub.add_parser("eval", help="parse, normal-order, and print a polynomial")
    p.set_defaults(handler=_cmd_eval)
    add_params_arg(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--algebra", choices=(ALGEBRA_B, ALGEBRA_A), default=ALGEBRA_B)
    p.add_argument("--conductor", type=int, default=None)
    add_output_flag(p)

    return parser


def main(argv=None) -> int:
    """Run one command line, mapping failures to the exit-code contract."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has written its usage error (status 2) or help (status 0).
        return EXIT_INPUT if exc.code else EXIT_TRUE
    try:
        return args.handler(args)
    except CapacityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPACITY
    except RecursionError:
        # RecursionError subclasses RuntimeError; the recursive-descent
        # parser raises it on input nested too deeply, which is an input fault.
        sys.stderr.write("error: input nested too deeply to parse\n")
        return EXIT_INPUT
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
