"""Command line surface: exit codes, JSON/text renderers, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfermat
from qfermat import census, hilb1, koszulcy
from qfermat.cli import (
    EXIT_CAPACITY,
    EXIT_FALSE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_TRUE,
    build_parser,
    main,
)

from _util import corrupt_pair

TWIST5 = '{"n":5,"twist":[1,2,3,4,0]}'
GENERIC4 = '{"n":4,"exponents":[[0,0,0,0],[0,0,1,3],[0,3,0,1],[0,1,3,0]]}'
SKEW5 = '{"n":5,"twist":[1,0,0,0,0]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--output", "json")
    return code, json.loads(out)


# ------------------------------------------------------------------ check-cy


def test_check_cy_accepts_the_twist_example(capsys):
    code, blob = run_json(capsys, "check-cy", TWIST5)
    assert code == EXIT_TRUE
    assert blob["is_cy"] is True
    assert blob["column_sums"] == [0, 0, 0, 0, 0]
    assert blob["twist_vector"] == [0, 1, 2, 3, 4]


def test_check_cy_rejects_a_single_relation_matrix(capsys):
    doc = '{"n":5,"entries":[{"i":1,"j":2,"e":1}]}'
    code, blob = run_json(capsys, "check-cy", doc)
    assert code == EXIT_FALSE
    assert blob["is_cy"] is False
    assert blob["column_sums"] == [4, 1, 0, 0, 0]


def test_check_cy_text_and_json_carry_the_same_verdict(capsys):
    code_t, text = run(capsys, "check-cy", TWIST5)
    code_j, blob = run_json(capsys, "check-cy", TWIST5)
    assert code_t == code_j == EXIT_TRUE
    assert "is_cy" in text and "true" in text
    assert blob["is_cy"] is True


def test_params_can_come_from_a_file(capsys, tmp_path):
    path = tmp_path / "params.json"
    path.write_text(TWIST5, encoding="utf-8")
    code, blob = run_json(capsys, "check-cy", str(path))
    assert code == EXIT_TRUE and blob["is_cy"] is True


# ----------------------------------------------------------------- exit codes


def test_missing_file_is_an_input_error(capsys):
    code = main(["check-cy", "/nonexistent/params.json"])
    capsys.readouterr()
    assert code == EXIT_INPUT


def test_malformed_document_is_an_input_error(capsys):
    code = main(["check-cy", '{"n":3,"exponents":[[0,1,0],[1,0,0],[0,0,0]]}'])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "sum to 0" in err


def test_long_json_array_is_a_document_not_a_file_name(capsys):
    # Not a file-name error that echoes the 5000-digit argument; the corpus
    # holds the short `[1, 2, 3]` case.
    code = main(["check-cy", " [" + "7" * 5000 + "]"])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: top level: expected a JSON object\n"


def test_census_capacity_exit(capsys):
    code = main(["census", "--n", "7"])
    capsys.readouterr()
    assert code == EXIT_CAPACITY
    for n, estimate in (
        ("70", "70^2346 ≈ 4.0e4328"),
        ("1000000", "1000000^499998500001 ≈ 1.0e2999991000006"),
    ):
        code = main(["census", "--n", n])
        assert code == EXIT_CAPACITY
        assert f"error: n={n} needs {estimate} representatives" in capsys.readouterr().err


def test_frobenius_pairing_failure_is_an_internal_error(capsys, monkeypatch):
    corrupted = corrupt_pair(koszulcy._blade_products, (0b0011, 0b1100), 4)
    monkeypatch.setattr(koszulcy, "_blade_products", corrupted)
    code = main(["frobenius", GENERIC4])
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "FrobeniusPairingError" in err and "0b11, 0b1100" in err
    assert err == (
        "error: internal: FrobeniusPairingError: "
        "pairing identity failed on blades 0b11, 0b1100\n"
    )


def test_frobenius_overlapping_pair_failure_is_an_internal_error(capsys, monkeypatch):
    # blades sharing generator 2 must multiply to zero
    corrupted = corrupt_pair(koszulcy._blade_products, (0b0011, 0b0110), 4)
    monkeypatch.setattr(koszulcy, "_blade_products", corrupted)
    code = main(["frobenius", GENERIC4])
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == (
        "error: internal: FrobeniusPairingError: "
        "pairing identity failed on blades 0b11, 0b110\n"
    )


def test_frobenius_capacity_exit(capsys):
    code = main(["frobenius", '{"n":13,"twist":[0,0,0,0,0,0,0,0,0,0,0,0,0]}'])
    out, err = capsys.readouterr()
    assert code == EXIT_CAPACITY
    assert out == ""
    assert err == (
        "error: n=13 needs C(26, 13) = 10400600 blade products, "
        "beyond the supported bound n <= 12\n"
    )


def test_overlong_integer_literal_is_an_input_error(capsys):
    code = main(["eval", "--poly", "1" * 5000 + "*x1", SKEW5])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: at position 0: integer literal of 5000 digits is too long\n"


def test_census_partition_failure_is_an_internal_error(capsys, monkeypatch):
    real = census._blocks
    monkeypatch.setattr(census, "_blocks", lambda total, size: real(total, size)[:-1])
    code = main(["census", "--n", "4"])
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "scanned 0 of 4 CY representatives" in err


def test_inadmissible_face_in_hilb1_is_an_internal_error(capsys, monkeypatch):
    # hilb1 only asks for shift automorphisms of faces it built itself, so an
    # InadmissibleFaceError there is a failed invariant, not bad input.
    def broken(params, face, base):
        raise hilb1.InadmissibleFaceError(f"face {tuple(face)} has a nonvanishing triangle")

    monkeypatch.setattr(hilb1, "shift_automorphism", broken)
    code = main(["hilb1", GENERIC4])
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: internal: InadmissibleFaceError: face (")


def test_census_small_n_is_an_input_error(capsys):
    code = main(["census", "--n", "2"])
    capsys.readouterr()
    assert code == EXIT_INPUT


def test_bad_poly_is_an_input_error(capsys):
    code = main(["central", "--poly", "x9", TWIST5])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "x9" in err


@pytest.mark.parametrize("command", ["eval", "central"])
def test_conductor_zero_is_an_input_error(capsys, command):
    code = main([command, "--poly", "x2*x1", "--conductor", "0", SKEW5])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert "conductor must be a positive multiple of n" in err


def test_deeply_nested_poly_is_an_input_error(capsys):
    deep = "(" * 2000 + "1" + ")" * 2000 + "*x1"
    code = main(["central", "--poly", deep, TWIST5])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: at position 100: parentheses nested more than 100 deep\n"


def test_deeply_nested_document_is_an_input_error(capsys):
    # the JSON decoder recurses once per '[', and that stays an input fault
    code = main(["check-cy", "[" * 100000])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: input nested too deeply to parse\n"


def test_recursion_error_outside_the_parsers_is_an_internal_error(capsys, monkeypatch):
    # only the parsers turn deep nesting into an input error; a RecursionError
    # anywhere else is a bug and must not read as bad input
    def runaway(params):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("qfermat.cli.cy_criterion", runaway)
    code = main(["check-cy", TWIST5])
    out, err = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal: RecursionError: maximum recursion depth exceeded\n"


def test_out_of_memory_is_a_capacity_error(capsys, monkeypatch):
    # Running out of memory anywhere, simulated here in parse_params, must
    # never read as "predicate false".  (The real parse_params refuses this
    # n with a CapacityError before it allocates anything.)
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr("qfermat.cli.parse_params", exhausted)
    code = main(["check-cy", '{"n":100000,"entries":[]}'])
    out, err = capsys.readouterr()
    assert code == EXIT_CAPACITY
    assert out == ""
    assert err == "error: out of memory\n"


# ------------------------------------------------------------------ centrality


def test_product_of_generators_is_central_on_the_twist_example(capsys):
    code, blob = run_json(
        capsys, "central", "--poly", "x1*x2*x3*x4*x5", TWIST5
    )
    assert code == EXIT_TRUE
    assert blob["central"] is True


def test_noncentral_polynomial_exits_false(capsys):
    code, blob = run_json(capsys, "central", "--poly", "x1", SKEW5)
    assert code == EXIT_FALSE
    assert blob["central"] is False


# ---------------------------------------------------------------- twist-check


def test_twist_check_recognizes_twists(capsys):
    code, blob = run_json(capsys, "twist-check", TWIST5)
    assert code == EXIT_TRUE
    assert blob["realizable"] is True
    assert blob["twist"] == [0, 1, 2, 3, 4]


def test_twist_check_rejects_generic_parameters(capsys):
    code, blob = run_json(capsys, "twist-check", GENERIC4)
    assert code == EXIT_FALSE
    assert blob["realizable"] is False


# --------------------------------------------------------------------- hilb1


def test_hilb1_quotient_counts_points(capsys):
    code, blob = run_json(capsys, "hilb1", "--algebra", "A", GENERIC4)
    assert code == EXIT_TRUE
    assert blob["discrete"] is True
    assert blob["total_points"] == 24
    assert len(blob["components"]) == 6


def test_hilb1_ambient_lists_faces(capsys):
    code, blob = run_json(capsys, "hilb1", "--algebra", "B", TWIST5)
    assert code == EXIT_TRUE
    assert blob["discrete"] is False
    assert blob["components"][0]["kind"] == "projective-space"


# ----------------------------------------------------------------- frobenius


def test_frobenius_reports_agreement(capsys):
    code, blob = run_json(capsys, "frobenius", GENERIC4)
    assert code == EXIT_TRUE
    assert blob["agree_mod_scalar"] is True
    assert blob["ratio"] is not None


# --------------------------------------------------------------------- patch


def test_patch_emits_the_chart_matrix(capsys):
    code, blob = run_json(capsys, "patch", "--invert", "2", TWIST5)
    assert code == EXIT_TRUE
    assert blob["order"] == 5
    assert len(blob["exponents"]) == 4
    assert "note" in blob


def test_patch_bad_chart_is_an_input_error(capsys):
    code = main(["patch", "--invert", "9", TWIST5])
    capsys.readouterr()
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------- eval


def test_eval_normal_orders_the_expression(capsys):
    code, out = run(capsys, "eval", "--poly", "x2*x1", SKEW5)
    assert code == EXIT_TRUE
    assert "x1*x2" in out


def test_poly_starting_with_minus_must_be_attached_with_equals(capsys):
    code, out = run(capsys, "eval", "--poly=-x1", SKEW5)
    assert (code, out) == (EXIT_TRUE, "-x1\n")
    assert main(["eval", "--poly", "-x1", SKEW5]) == EXIT_INPUT
    assert "argument --poly: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["shiny", SKEW5], "invalid choice: 'shiny'"),
        (["patch", SKEW5], "the following arguments are required: --invert"),
        (["census"], "the following arguments are required: --n"),
    ],
)
def test_usage_errors_return_the_input_exit_code(capsys, argv, message):
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qfermat") and message in captured.err


def test_help_returns_success(capsys):
    assert main(["--help"]) == EXIT_TRUE
    assert capsys.readouterr().out.startswith("usage: qfermat")


def test_eval_json_round_trips_through_the_parser(capsys):
    code, blob = run_json(capsys, "eval", "--poly", "x2*x1 + 2*x3^2", SKEW5)
    assert code == EXIT_TRUE
    from qfermat.expr import lower, parse_poly, parse_params

    p = parse_params(SKEW5)
    reparsed = lower(parse_poly(blob["canonical"], 5, 5), p, "B")
    direct = lower(parse_poly("x2*x1 + 2*x3^2", 5, 5), p, "B")
    assert reparsed == direct


def test_eval_at_a_thousand_generators(capsys):
    # A well-formed, unnested input: not "input nested too deeply to parse".
    code = main(["eval", '{"n":1000,"entries":[]}', "--poly", "x1000^1000", "--algebra", "A"])
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_TRUE, "")
    assert out.count("^1000") == 999 and "x1000" not in out


# -------------------------------------------------------------------- census


def test_census_four_generators(capsys):
    code, blob = run_json(capsys, "census", "--n", "4")
    assert code == EXIT_TRUE
    assert blob["total"] == 4096
    assert blob["count_generic_and_cy"] == 192
    assert blob["n4_dichotomy_holds"] is True


def test_census_csv_sidecar(capsys, tmp_path):
    out_csv = tmp_path / "counts.csv"
    code, _ = run_json(capsys, "census", "--n", "3", "--csv", str(out_csv))
    assert code == EXIT_TRUE
    rows = out_csv.read_text(encoding="utf-8").strip().splitlines()
    assert rows[0].startswith("predicate")
    assert any(line.startswith("total,27") for line in rows[1:])


def test_census_csv_to_an_unwritable_path_prints_no_report(capsys, tmp_path):
    # The CSV is written before the report, so a bad path leaves stdout empty.
    code = main(["census", "--n", "3", "--csv", str(tmp_path / "missing" / "counts.csv")])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_census_json_is_byte_identical_across_runs(capsys):
    _, first = run(capsys, "census", "--n", "3", "--output", "json")
    _, second = run(capsys, "census", "--n", "3", "--output", "json")
    assert first == second


def test_check_cy_json_is_byte_identical_across_runs(capsys):
    _, first = run(capsys, "check-cy", TWIST5, "--output", "json")
    _, second = run(capsys, "check-cy", TWIST5, "--output", "json")
    assert first == second


# ------------------------------------------------------------ command table


def test_every_subcommand_is_documented_and_recorded():
    """build_parser's subcommands are exactly the rows of the README command
    table, and the corpus holds a report from each in text and in JSON."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = set(sub.choices)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | does | headline predicate |", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert sorted(row[3:].split("`")[0].split()[0] for row in rows) == sorted(commands)
    corpus = json.loads(
        (Path(__file__).parent / "data" / "cli_corpus.json").read_text(encoding="utf-8")
    )
    recorded = {
        (e["argv"][0], ("--output", "json") in zip(e["argv"], e["argv"][1:]))
        for e in corpus
        if e["argv"] and e["code"] in (EXIT_TRUE, EXIT_FALSE)
    }
    assert recorded >= {(c, as_json) for c in commands for as_json in (False, True)}


# ------------------------------------------------------------- import cost


def test_only_scans_load_numpy():
    """Importing the package, running every non-census command and every
    witness search without generic leaves numpy unloaded; the census loads
    it."""
    code = f"""
import contextlib, io, sys
import qfermat, qfermat.cli
from qfermat.census import find_witness
assert "numpy" not in sys.modules, "import"
commands = [
    ["check-cy", {TWIST5!r}],
    ["twist-check", {TWIST5!r}],
    ["patch", "--invert", "2", {TWIST5!r}],
    ["eval", "--poly", "x2*x1", {TWIST5!r}],
    ["central", "--poly", "x1*x2", {TWIST5!r}],
    ["hilb1", {GENERIC4!r}],
    ["frobenius", {GENERIC4!r}],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        qfermat.cli.main(argv)
    assert "numpy" not in sys.modules, argv[0]
for wanted in (["cy"], ["full"], ["cy", "full"]):
    assert find_witness(6, wanted) is not None
    assert "numpy" not in sys.modules, wanted
with contextlib.redirect_stdout(io.StringIO()):
    qfermat.cli.main(["census", "--n", "3"])
assert "numpy" in sys.modules, "census"
"""
    env = dict(os.environ)
    src = str(Path(qfermat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
