"""Exhaustive enumeration: canonical order, tallies, witnesses, oracles."""

import json
import random
from itertools import combinations, product
from math import comb
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfermat import _scan
from qfermat import census as census_module
from qfermat._scan import lift
from qfermat.census import (
    CENSUS_MAX_N,
    CENSUS_MIN_N,
    CapacityError,
    EXPECTED_GENERIC_CY_N5,
    find_witness,
    index_to_params,
    run_census,
    total_count,
)
from qfermat.cli import main
from qfermat.hilb1 import face_complex, hilb1
from qfermat.koszulcy import column_sums, cy_criterion, is_twist_realizable

import _oracles
from _util import params_st


# ------------------------------------------------------------ canonical order


def test_total_count_formula():
    assert total_count(3) == 27
    assert total_count(4) == 4096
    assert total_count(5) == 9765625
    assert total_count(6) == 6 ** 15


@given(st.integers(3, 6), st.data())
def test_index_round_trip(n, data):
    index = data.draw(st.integers(0, total_count(n) - 1))
    p = index_to_params(n, index)
    assert _oracles.index_of(p.exps) == index


def test_enumeration_follows_the_index_order():
    stream = _oracles.enumerate_params(3)
    for expected_index in range(27):
        p = next(stream)
        assert _oracles.index_of(p.exps) == expected_index
        assert p == index_to_params(3, expected_index)


def test_first_matrix_is_commutative():
    p = index_to_params(5, 0)
    assert all(e == 0 for row in p.exps for e in row)


def test_last_index_has_all_top_digits():
    p = index_to_params(3, 26)
    assert p.exponent(1, 2) == 2 and p.exponent(1, 3) == 2 and p.exponent(2, 3) == 2


@given(params_st(min_n=3, max_n=6))
def test_every_matrix_has_an_index(p):
    assert index_to_params(p.n, _oracles.index_of(p.exps)) == p


# ------------------------------------------------------------------- tallies


def test_three_generator_tallies(census3):
    assert census3.total == 27
    assert census3.count_cy == 9
    assert census3.count_generic == 18
    assert census3.count_generic_and_cy == 0
    assert census3.all_generic_cy_have_zero_column_sums
    assert census3.implication_counterexamples == ()
    assert census3.n4_dichotomy_holds is None
    assert census3.alternative_readings is None


def test_four_generator_tallies(census4):
    assert census4.total == 4096
    assert census4.count_cy == 256
    assert census4.count_generic == 1344
    assert census4.count_generic_and_cy == 192
    assert census4.n4_dichotomy_holds is True
    assert census4.dichotomy_counterexamples == ()


def test_tallies_match_naive_cyclotomic_sweep(census3, census4):
    for report, n in ((census3, 3), (census4, 4)):
        naive = _oracles.census_counts_bruteforce(n)
        assert report.total == naive["total"]
        assert report.count_cy == naive["count_cy"]
        assert report.count_generic == naive["count_generic"]
        assert report.count_generic_and_cy == naive["count_generic_and_cy"]


def test_tallies_match_the_scalar_second_pass(census3, census4):
    for report, n in ((census3, 3), (census4, 4)):
        scalar = _oracles.census_scalar_counts(n)
        assert scalar["total"] == report.total
        assert scalar["count_cy"] == report.count_cy
        assert scalar["count_generic"] == report.count_generic
        assert scalar["count_generic_and_cy"] == report.count_generic_and_cy


def test_tallies_are_worker_count_invariant():
    """n = 6 has 46,656 CY representatives: 12 blocks of 4096, so the merge
    sees many blocks and workers > 1 start a pool.  The default block size
    scans them in one block."""
    one_block = json.dumps(run_census(6).to_json_dict())
    for workers in (1, 2, 8):
        other = run_census(6, workers=workers, block_size=4096).to_json_dict()
        assert json.dumps(other) == one_block


def test_pool_starts_no_more_workers_than_blocks(monkeypatch):
    """n = 5 has 125 CY representatives: 4 blocks of 32, so 8 requested
    workers start 4 processes."""
    started = []
    real_pool = census_module.Pool

    def counting_pool(*args, **kwargs):
        pool = real_pool(*args, **kwargs)
        started.append(len(pool._pool))
        return pool

    monkeypatch.setattr(census_module, "Pool", counting_pool)
    report = run_census(5, workers=8, block_size=32).to_json_dict()
    assert started == [4]
    assert report == run_census(5).to_json_dict()


@pytest.mark.parametrize(
    "n, witness_limit", [(3, 0), (3, 3), (4, 3), (4, 7), (4, 30), (5, 3), (5, 40)]
)
def test_report_matches_the_raw_sweep(n, witness_limit):
    """The twist-quotient report, lifted from the representatives, is byte
    for byte the report of a sweep over every matrix."""
    report = run_census(n, witness_limit=witness_limit).to_json_dict()
    assert json.dumps(report) == json.dumps(_oracles.raw_census_json(n, witness_limit))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_report_matches_the_representative_scan(n):
    """Tallies, counterexamples and witnesses from the CY stream and the
    vertex peel equal those of a scan of every representative."""
    scan = _oracles.representative_scan(n, 40)
    report = run_census(n, witness_limit=40)
    twists = n ** (n - 1)
    assert report.count_cy == scan["cy"] * twists
    assert report.count_generic == scan["generic"] * twists
    assert report.count_generic_and_cy == scan["both"] * twists
    assert list(report.implication_counterexamples) == scan["implication_bad_indices"]
    assert list(report.dichotomy_counterexamples) == scan["dichotomy_bad_indices"]
    assert [_oracles.index_of(w.exps) for w in report.witnesses] == scan["witness_indices"]


def _column_sums(n, digits):
    # Column sums mod n of counter digit rows, one pair at a time.
    sums = np.zeros((len(digits), n), dtype=np.int64)
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        sums[:, j] += digits[:, k]
        sums[:, i] -= digits[:, k]
    return sums % n


@pytest.mark.parametrize("n, length", [(3, 1), (4, 4), (5, 125), (6, 46656)])
def test_cy_stream_lists_the_cy_representatives_in_order(n, length):
    """The CY stream has n^C(n-2,2) rows, each a zero-first-row matrix with
    zero column sums, in strictly increasing canonical index; for n <= 5 it
    is exactly the CY rows of the representative scan."""
    assert length == n ** comb(n - 2, 2)
    rows = _scan.stream_rows(n, "cy", 0, length)
    assert rows.shape == (length, n * (n - 1) // 2)
    assert not rows[:, : n - 1].any()
    assert not _column_sums(n, rows).any()
    index = rows @ (n ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64))
    assert (np.diff(index) > 0).all()
    if n <= 5:
        assert np.array_equal(rows, _oracles.representative_scan(n, 0)["cy_rows"])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_witness_streams_list_their_representatives_in_order(n):
    """The nonzero stream is exactly the representatives with every lower
    digit nonzero, and the cy-nonzero stream the CY representatives whose
    free digits e_bc (1 < b < c < n) are nonzero, in index order; a chunk of
    a stream is the same slice of the whole stream."""
    reps = _oracles.representative_digits(n, 0, n ** comb(n - 1, 2))
    nonzero = reps[(reps[:, n - 1 :] != 0).all(axis=1)]
    cy = _oracles.representative_scan(n, 0)["cy_rows"]
    free = [k for k, (b, c) in enumerate(combinations(range(n), 2)) if 0 < b and c < n - 1]
    cy_nonzero = cy[(cy[:, free] != 0).all(axis=1)]
    streams = (("nonzero", nonzero), ("cy", None), ("cy-nonzero", cy_nonzero))
    for stream, expected in streams:
        length = _scan.stream_length(n, stream)
        rows = _scan.stream_rows(n, stream, 0, length)
        if expected is not None:
            assert np.array_equal(rows, expected)
        assert np.array_equal(_scan.stream_rows(n, stream, length // 3, length), rows[length // 3 :])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hyperplane_inclusion_exclusion_agrees(n):
    """Generic and generic-and-CY counts by inclusion-exclusion over the
    triangle hyperplanes, lifted by the n^(n-1) twists."""
    counts = _oracles.hyperplane_class_counts(n)
    report = run_census(n)
    assert report.count_generic == counts["generic"] * n ** (n - 1)
    assert report.count_generic_and_cy == counts["generic_and_cy"] * n ** (n - 1)


def _predicates(exps, sums):
    return (
        len(set(sums)) == 1,
        _oracles.generic_bruteforce(exps),
        _oracles.admissible_bruteforce(exps, range(1, len(exps) + 1)),
    )


def test_twist_classes_lift_exactly_at_six_generators():
    """Member by member, on a seeded sample of n = 6 representatives (index 0,
    random ones, and CY ones built by solving for the last column): cy,
    generic and full are constant on each class of 6^5 twists, a CY class
    has zero column sums on exactly 1/6 of it, the representative has the
    smallest index, and the scanner's lift lists exactly the class."""
    n = 6
    rng = random.Random(20140915)
    width = (n - 1) * (n - 2) // 2
    samples = [_oracles.exps_from_digits(n, [0] * (n * (n - 1) // 2))]
    for k in range(19):
        exps = _oracles.exps_from_digits(
            n, [0] * (n - 1) + [rng.randrange(n) for _ in range(width)]
        )
        if k % 2:
            for i, s in enumerate(_oracles.column_sums(exps)[1 : n - 1], start=1):
                exps[i][n - 1] = (exps[i][n - 1] + s) % n
                exps[n - 1][i] = (-exps[i][n - 1]) % n
        samples.append(exps)
    seen = {_predicates(rep, _oracles.column_sums(rep)) for rep in samples}
    assert all({p[k] for p in seen} == {True, False} for k in range(3))

    for rep in samples:
        expected = _predicates(rep, _oracles.column_sums(rep))
        indices = []
        zero_sums = []
        for r in product(range(n), repeat=n - 1):
            d = (0,) + tuple(-x for x in r)
            member = [[(e + d[i] - d[j]) % n for j, e in enumerate(row)] for i, row in enumerate(rep)]
            sums = _oracles.column_sums(member)
            assert _predicates(member, sums) == expected
            indices.append(_oracles.index_of(member))
            zero_sums.append(not any(sums))
        assert min(indices) == _oracles.index_of(rep)
        assert sum(zero_sums) == (n ** (n - 2) if expected[0] else 0)
        lower = np.array([[rep[i][j] for i, j in combinations(range(1, n), 2)]])
        assert lift(n, lower, n ** (n - 1)) == sorted(indices)
        if expected[0]:
            nonzero = sorted(i for i, z in zip(indices, zero_sums) if not z)
            assert lift(n, lower, n ** (n - 1), lambda r: sum(r) % n != 0) == nonzero


def test_json_and_csv_round_out_the_report(census4):
    blob = census4.to_json_dict()
    assert blob["n"] == 4
    assert blob["total"] == 4096
    assert blob["count_generic_and_cy"] == 192
    names = dict(census4.csv_counts())
    assert names["total"] == 4096
    assert names["generic_and_cy"] == 192


# ------------------------------------------------------- the five-variable run


def test_five_generator_tallies(census5):
    assert census5.total == 9765625
    assert census5.count_cy == 78125
    assert census5.count_generic == 1135000
    assert census5.count_generic_and_cy == 15000


def test_five_generator_implication_fails_on_raw_matrices(census5):
    """Generic and CY does not force zero column sums matrix-by-matrix; the
    census records counterexamples instead of hiding them."""
    assert census5.all_generic_cy_have_zero_column_sums is False
    assert len(census5.implication_counterexamples) == 10
    first = census5.implication_counterexamples[0]
    assert first == 19929
    p = index_to_params(5, first)
    assert _oracles.generic_bruteforce(p.exps)
    report = cy_criterion(p)
    assert report.is_cy
    assert report.common_value == 4
    assert column_sums(p) == (4, 4, 4, 4, 4)


def test_five_generator_alternative_readings(census5):
    assert census5.alternative_readings == {
        "generic_only": 1135000,
        "generic_and_zero_column_sums": 3000,
    }
    assert census5.alternative_readings["generic_and_zero_column_sums"] == (
        EXPECTED_GENERIC_CY_N5
    )


def test_counterexamples_all_verify(census5):
    for index in census5.implication_counterexamples:
        p = index_to_params(5, index)
        assert _oracles.generic_bruteforce(p.exps)
        r = cy_criterion(p)
        assert r.is_cy and r.common_value != 0


def test_twist_shift_bijection_between_common_value_classes(census5):
    """Adding a twist matrix with digit sum s maps generic CY matrices with
    common column-sum value c bijectively onto those with value c + s, so all
    five classes have the same size and the raw count is five times the
    zero-sum slice."""
    from qfermat.qalgebra import from_twist, validate_params

    shift = from_twist([1, 0, 0, 0, 0])
    for index in census5.implication_counterexamples[:3]:
        p = index_to_params(5, index)
        base = cy_criterion(p).common_value
        merged = validate_params(
            5,
            [
                [(p.exps[i][j] + shift.exps[i][j]) % 5 for j in range(5)]
                for i in range(5)
            ],
        )
        assert _oracles.generic_bruteforce(merged.exps) == _oracles.generic_bruteforce(p.exps)
        r = cy_criterion(merged)
        assert r.is_cy
        assert r.common_value == (base + 1) % 5
    assert census5.count_generic_and_cy == 5 * census5.alternative_readings[
        "generic_and_zero_column_sums"
    ]


# -------------------------------------------------------- the six-variable run

# Recorded with the all-representative scan by tests/data/make_census6.py.
CENSUS6 = json.loads(
    (Path(__file__).parent / "data" / "census6.json").read_text(encoding="utf-8")
)


def test_six_generator_counts():
    report = run_census(6)
    assert report.csv_counts() == [
        ("total", 470184984576),
        ("cy", 362797056),
        ("generic", 13866606432),
        ("generic_and_cy", 13973472),
    ]
    assert report.implication_counterexamples[0] == 72699172


def test_six_generator_report_matches_the_recording():
    report = run_census(6, witness_limit=CENSUS6["witness_limit"]).to_json_dict()
    assert json.dumps(report) == json.dumps(CENSUS6["report"])


def test_six_generator_cli_matches_the_recording(capsys):
    entry = CENSUS6["cli"]
    code = main(entry["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (entry["code"], entry["stdout"], entry["stderr"])


@pytest.mark.parametrize(
    "entry", CENSUS6["find_witness"], ids=lambda e: "+".join(e["predicates"])
)
def test_six_generator_witnesses_match_the_recording(entry):
    found = find_witness(6, entry["predicates"])
    assert json.dumps(None if found is None else found.to_json()) == json.dumps(entry["witness"])


# ------------------------------------------------------------------ witnesses


def test_witnesses_satisfy_their_predicates(census5):
    assert census5.witnesses
    for w in census5.witnesses:
        assert _oracles.generic_bruteforce(w.exps)
        assert cy_criterion(w).is_cy


def test_find_witness_is_the_canonical_first_match():
    w = find_witness(4, ["generic", "cy"])
    index = _oracles.index_of(w.exps)
    assert index == 29
    for i in range(index):
        p = index_to_params(4, i)
        assert not (_oracles.generic_bruteforce(p.exps) and cy_criterion(p).is_cy)


def test_find_witness_aliases():
    a = find_witness(4, ["generic", "cy"])
    b = find_witness(4, ["is_generic", "is_cy"])
    assert a == b
    full = find_witness(4, ["full"])
    assert full is not None
    assert face_complex(full).is_full
    assert is_twist_realizable(full) is not None


def test_contradictory_predicates_have_no_witness():
    assert find_witness(3, ["full", "generic"]) is None


_PREDICATE_SETS = [
    list(s) for size in (1, 2, 3) for s in combinations(("cy", "generic", "full"), size)
]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("wanted", _PREDICATE_SETS, ids="+".join)
def test_find_witness_matches_the_representative_scan(n, wanted):
    found = find_witness(n, wanted)
    expected = _oracles.representative_first_match(n, wanted)
    assert (None if found is None else _oracles.index_of(found.exps)) == expected


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_zero_matrix_is_the_only_full_representative(n):
    """On a representative t(1,b,c) = e_bc, so every triangle vanishes
    exactly when every lower digit does."""
    reps = _oracles.representative_digits(n, 0, n ** comb(n - 1, 2))
    full = _oracles.digit_masks(n, reps)["full"]
    assert np.array_equal(full, ~reps[:, n - 1 :].any(axis=1))
    assert np.flatnonzero(full).tolist() == [0]


@pytest.mark.parametrize("wanted", [s for s in _PREDICATE_SETS if "generic" not in s], ids="+".join)
def test_witness_queries_without_generic_return_the_zero_matrix(wanted):
    found = find_witness(6, wanted)
    assert _oracles.index_of(found.exps) == 0
    assert cy_criterion(found).is_cy
    assert is_twist_realizable(found) is not None


def test_find_witness_rejects_unknown_predicates():
    with pytest.raises(ValueError):
        find_witness(4, ["shiny"])


def test_five_generator_witness_has_fifty_points(generic_cy_witness5):
    report = hilb1(generic_cy_witness5, "A")
    assert report.discrete and report.total_points == 50
    assert is_twist_realizable(generic_cy_witness5) is None


# ------------------------------------------------------------------ capacity


def test_census_bounds():
    assert CENSUS_MIN_N == 3 and CENSUS_MAX_N == 6
    with pytest.raises(CapacityError):
        run_census(7)
    with pytest.raises(CapacityError, match=r"n=7 needs 7\^15 ≈ 4\.7e12 representatives"):
        find_witness(7, ["cy"])
    with pytest.raises(CapacityError):
        total_count(8)
    with pytest.raises(ValueError):
        run_census(2)
    # The estimate stays cheap where n^width has far more digits than
    # Python converts to str (4300 at n = 70) or than memory holds.
    with pytest.raises(CapacityError, match=r"n=70 needs 70\^2346 ≈ 4\.0e4328 representatives"):
        total_count(70)
    with pytest.raises(
        CapacityError,
        match=r"n=1000000 needs 1000000\^499998500001 ≈ 1\.0e2999991000006 representatives",
    ):
        run_census(10**6)


@pytest.mark.parametrize("n", range(7, 16))
def test_capacity_estimate_is_the_exact_power_rounded_half_even(n):
    # Decimal formats n^width exactly, rounding half to even; the message
    # must carry the same two significant digits (4.7e12, 1.0e36, 1.1e107).
    width = (n - 1) * (n - 2) // 2
    estimate = f"{Decimal(n**width):.1e}".replace("e+", "e")
    with pytest.raises(CapacityError) as err:
        total_count(n)
    assert str(err.value) == (
        f"n={n} needs {n}^{width} ≈ {estimate} representatives, "
        f"beyond the supported bound n <= {CENSUS_MAX_N}"
    )
