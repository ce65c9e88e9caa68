"""End-to-end acceptance run.

Each test covers one primary criterion and records a single PASS/FAIL line;
the conftest terminal-summary hook replays the lines at the end of the run.
Criterion 1 asserts the raw five-generator census expectations as stated and
is expected to fail: the sweep finds five times the expected matrix count,
one equal-size class per common column-sum value, and only the zero-sum class
matches the expected 3000.  The failure message and the census report carry
the full numbers; nothing is adjusted to force a green line.
"""

import random
import time

from qfermat.census import run_census
from qfermat.cyclo import CycloField
from qfermat.expr import lower, parse_poly, print_poly
from qfermat.hilb1 import euler_number, face_complex, hilb1
from qfermat.koszulcy import (
    column_sums,
    compare_frobenius,
    cy_criterion,
    is_twist_realizable,
)
from qfermat.qalgebra import (
    SkewPoly,
    fermat_element,
    from_twist,
    graded_dimension,
    is_central,
    multiply,
    normal_order,
    product_of_generators,
)

import _oracles
from _util import ACCEPTANCE_LINES, random_params, random_twist


def record(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def test_criterion_1_five_generator_census(census5):
    started = time.time()
    single = run_census(5, workers=1)
    elapsed = time.time() - started

    assert single.count_generic_and_cy == census5.count_generic_and_cy
    assert single.implication_counterexamples == census5.implication_counterexamples

    raw = single.count_generic_and_cy
    zero_sum_claim = single.all_generic_cy_have_zero_column_sums
    alternatives = single.alternative_readings or {}
    counterexamples = single.implication_counterexamples

    stated_reading = raw == 3000 and zero_sum_claim
    fallback_reading = bool(alternatives) and not counterexamples
    in_time = elapsed < 300.0
    ok = (stated_reading or fallback_reading) and in_time

    zero_slice = alternatives.get("generic_and_zero_column_sums")
    detail = (
        f"count_generic_and_cy = {raw} over {single.total} matrices "
        f"(expected 3000), zero-column-sum implication "
        f"{'holds' if zero_sum_claim else 'fails'}, "
        f"single-worker sweep {elapsed:.1f}s"
    )
    if not ok:
        detail += (
            f"; the zero-column-sum slice alone has {zero_slice} matrices, "
            f"raw count = 5 x {zero_slice} with one equal-size class per "
            f"common column-sum value, first counterexample at canonical "
            f"index {counterexamples[0] if counterexamples else 'n/a'}"
        )
    record(1, ok, detail)
    assert ok, (
        "the five-generator census contradicts the stated expectation: "
        f"{raw} generic CY matrices instead of 3000, and "
        f"{raw - (zero_slice or 0)} of them have a nonzero common column-sum "
        "value (the first is index "
        f"{counterexamples[0] if counterexamples else 'n/a'}, column sums all "
        "equal and nonzero). Adding the twist matrix of d shifts the common "
        "value by sum(d) while preserving genericity, so the five "
        "common-value classes are equinumerous: the raw count is exactly "
        f"5 x {zero_slice}. Only the zero-sum slice (products equal to one, "
        "central generator product) matches 3000; the stated matrix-by-matrix "
        "implication is false raw and true only up to twist. The report's "
        "alternative_readings field carries both numbers."
    )


def test_criterion_2_witness_point_counts(generic_cy_witness4, generic_cy_witness5):
    r5 = hilb1(generic_cy_witness5, "A")
    r4 = hilb1(generic_cy_witness4, "A")
    ok = (
        r5.discrete
        and r5.total_points == 50
        and r4.discrete
        and r4.total_points == 24
        and euler_number(r4) == 24
    )
    record(
        2,
        ok,
        f"census witnesses give {r4.total_points} points (n=4) and "
        f"{r5.total_points} points (n=5), both discrete",
    )
    assert ok


def test_criterion_3_four_generator_dichotomy():
    started = time.time()
    report = run_census(4, workers=1)
    elapsed = time.time() - started
    intermediates = report.dichotomy_counterexamples
    ok = report.n4_dichotomy_holds is True and not intermediates and elapsed < 10.0
    record(
        3,
        ok,
        f"all {report.count_cy} CY matrices out of {report.total} are full or "
        f"1-skeleton, {len(intermediates)} intermediates, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_twist_compatibility():
    rng = random.Random(0x5EED)
    checked = 0
    ok = True
    for n in (4, 5):
        for _ in range(100):
            d = random_twist(n, rng)
            p = from_twist(d)
            report = cy_criterion(p)
            recovered = is_twist_realizable(p)
            good = (
                report.is_cy
                and face_complex(p).is_full
                and recovered is not None
                and from_twist(recovered) == p
            )
            ok = ok and good
            checked += 1
    record(4, ok, f"{checked} random twist vectors: CY, full complex, vector recovered")
    assert ok


def test_criterion_5_frobenius_oracle():
    ok = True
    checked = 0
    for p in _oracles.enumerate_params(3):
        ok = ok and compare_frobenius(p).agree_mod_scalar
        checked += 1
    rng = random.Random(0xF0B)
    for n in (4, 5, 6):
        for _ in range(100):
            p = random_params(n, rng)
            ok = ok and compare_frobenius(p).agree_mod_scalar
            checked += 1
    record(
        5,
        ok,
        f"brute-force pairing matches the closed form modulo one global unit "
        f"on {checked} matrices (27 exhaustive + 300 random)",
    )
    assert ok


def test_criterion_6_centrality_laws():
    rng = random.Random(0xCE27)
    ok = True
    for n in (3, 4, 5, 6):
        for _ in range(50):
            p = random_params(n, rng)
            ok = ok and is_central(fermat_element(p))
    checked = 200

    product_checked = 0
    for n in (3, 4):
        for p in _oracles.enumerate_params(n):
            want = all(s == 0 for s in column_sums(p))
            ok = ok and is_central(product_of_generators(p)) == want
            product_checked += 1
    for _ in range(1000):
        p = random_params(5, rng)
        want = all(s == 0 for s in column_sums(p))
        ok = ok and is_central(product_of_generators(p)) == want
        product_checked += 1
    record(
        6,
        ok,
        f"{checked} Fermat sums central; generator-product centrality matches "
        f"the column-sum rule on {product_checked} matrices",
    )
    assert ok


def test_criterion_7_hilbert_series():
    rng = random.Random(0x5E12)
    ok = True
    checked = 0
    for n in (2, 3, 4, 5):
        p = random_params(n, rng)
        for degree in range(2 * n + 1):
            want = _oracles.series_coefficient(n, degree)
            ok = ok and graded_dimension(p, "A", degree) == want
            checked += 1
    record(
        7,
        ok,
        f"quotient dimensions match the closed-form series coefficients in "
        f"{checked} (n, degree) cells up to degree 2n",
    )
    assert ok


def test_criterion_8_property_suites():
    rng = random.Random(0x8AB)
    ok = True

    # exact field axioms on random elements
    for _ in range(25):
        m = rng.randrange(2, 11)
        f = CycloField(m)
        coords = lambda: [rng.randrange(-3, 4) for _ in range(f.degree)]
        a, b, c = (f.element(coords()) for _ in range(3))
        ok = ok and (a + b) * c == a * c + b * c
        ok = ok and (a * b) * c == a * (b * c)
        if not a.is_zero():
            ok = ok and a * a.inverse() == f.one()

    # normal order against the adjacent-swap oracle
    for _ in range(100):
        n = rng.randrange(2, 6)
        p = random_params(n, rng)
        word = [rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 9))]
        ok = ok and normal_order(p, word) == _oracles.bubble_normal_order(p.exps, word)

    # associativity of the product
    for _ in range(25):
        n = rng.randrange(2, 5)
        p = random_params(n, rng)
        polys = []
        for _ in range(3):
            poly = SkewPoly.zero(p)
            for _ in range(rng.randrange(1, 3)):
                md = tuple(rng.randrange(0, 3) for _ in range(n))
                poly = poly + SkewPoly.monomial(p, md, coeff=rng.randrange(-2, 3))
            polys.append(poly)
        fa, fb, fc = polys
        ok = ok and multiply(multiply(fa, fb), fc) == multiply(fa, multiply(fb, fc))

    # parser round trips
    for _ in range(50):
        n = rng.randrange(2, 6)
        p = random_params(n, rng)
        field = CycloField(n)
        poly = SkewPoly.zero(p)
        for _ in range(rng.randrange(0, 4)):
            md = tuple(rng.randrange(0, 4) for _ in range(n))
            coeff = field.zeta(rng.randrange(n)) * rng.randrange(-3, 4)
            poly = poly + SkewPoly.monomial(p, md, coeff=coeff)
        ok = ok and lower(parse_poly(print_poly(poly), n, n), p, "B") == poly

    # deterministic parallel census: at n = 5, block_size 32 splits the 125
    # CY representatives into 4 blocks, so the worker pool really runs
    base = run_census(5, workers=1, block_size=32).to_json_dict()
    for workers in (2, 8):
        ok = ok and run_census(5, workers=workers, block_size=32).to_json_dict() == base
    # plus the independent scalar pass
    scalar = _oracles.census_scalar_counts(3)
    ok = ok and scalar["count_generic_and_cy"] == run_census(3).count_generic_and_cy

    record(
        8,
        ok,
        "field axioms, normal-order oracle, associativity, parser round "
        "trips, and parallel census determinism all re-verified standalone",
    )
    assert ok
