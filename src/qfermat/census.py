"""Exhaustive census of antisymmetric exponent matrices mod n.

The strict upper triangle, read row-major, is treated as a base-n counter;
that fixes a canonical index for every matrix and makes witness extraction
reproducible.

Adding a twist matrix e_ij = d_i - d_j keeps every triangle exponent and
shifts every column sum by sum(d), so the CY, generic and full predicates are
constant on twist classes.  Each class of n^(n-1) matrices has exactly one
member with a zero first row, and it is the member with the smallest index.
The first row holds the most significant counter digits, so these
representatives are exactly the index prefix 0 .. n^((n-1)(n-2)/2) - 1.

Work is done only on the representatives that can answer; ``_scan`` lists
them as streams in canonical order and vectorizes the generic test with
numpy:

* a representative is CY when every column sums to 0, and solving each e_jn
  from its column leaves C(n-2,2) free digits, so count_cy is
  n^(C(n-2,2) + n-1) in closed form;
* generic-and-CY tallies, counterexamples and witnesses come from a scan of
  the CY stream only, in blocks that partition it, so parallel workers own
  disjoint sub-ranges;
* count_generic comes from peeling the last vertex (``_scan.generic_classes``);
* on a representative t(1,b,c) = e_bc, so the zero matrix, index 0, is the
  only full representative, and it is CY.  A witness search without generic
  returns it unscanned; one with generic scans the CY or the nonzero stream
  for the first generic row and stops there.

Only the scanning entry points import ``_scan``, and they do so before any
worker is started, so importing this module, the package or its CLI does not
load numpy, and neither does a witness search without generic.

Results are lifted back to all matrices exactly:

* class tallies times n^(n-1) give the raw counts;
* a representative has zero column sums when it is CY, and the member whose
  first row is r has column sums -sum(r), so a CY class has zero column sums
  on the n^(n-2) members with sum(r) = 0 mod n;
* the member with first row r has index r * n^((n-1)(n-2)/2) + lower, where
  lower indexes the digits (rep_ij - r_i + r_j) mod n.  Walking the first
  rows in order lists each block's smallest member indices, and the merge
  keeps the global smallest, whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool
from typing import Optional, Sequence

from .qalgebra import QuantumParams

__all__ = [
    "CapacityError",
    "CensusReport",
    "CENSUS_MAX_N",
    "CENSUS_MIN_N",
    "find_witness",
    "index_to_params",
    "run_census",
    "total_count",
]

CENSUS_MIN_N = 3
CENSUS_MAX_N = 6

_COUNTEREXAMPLE_CAP = 10


class CapacityError(RuntimeError):
    """The requested search space exceeds the supported size."""


def _lower_width(n: int) -> int:
    # Counter digits below the first row: (n-1)(n-2)/2.
    return (n - 1) * (n - 2) // 2


def _cut(m: int, shift: int, digits: int, up: bool) -> tuple[int, int]:
    # m * 10**shift cut to at most `digits` digits of m, rounding m down, or
    # up when `up` is set.
    extra = len(str(m)) - digits
    if extra <= 0:
        return m, shift
    q, r = divmod(m, 10**extra)
    return q + (up and r > 0), shift + extra


def _power_bound(n: int, width: int, digits: int, up: bool) -> tuple[int, int]:
    # (m, shift) with m * 10**shift a lower bound on n**width, or an upper
    # bound when `up` is set, by square-and-multiply on cut mantissas.
    m, shift = 1, 0
    base, base_shift = _cut(n, 0, digits, up)
    while width:
        if width & 1:
            m, shift = _cut(m * base, shift + base_shift, digits, up)
        width >>= 1
        if width:
            base, base_shift = _cut(base * base, 2 * base_shift, digits, up)
    return m, shift


def _two_digits(m: int, shift: int) -> tuple[int, int]:
    # (lead, exponent) with m * 10**shift ≈ lead/10 * 10**exponent, lead in
    # 10..99, rounded half to even on the exact integer m >= 10.
    exponent = len(str(m)) - 1
    scale = 10 ** (exponent - 1)
    lead, rest = divmod(m, scale)
    if 2 * rest > scale or (2 * rest == scale and lead % 2):
        lead += 1
    if lead == 100:
        lead, exponent = 10, exponent + 1
    return lead, exponent + shift


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < CENSUS_MIN_N:
        raise ValueError(f"census needs an integer n >= {CENSUS_MIN_N}, got {n!r}")
    if n > CENSUS_MAX_N:
        width = _lower_width(n)
        # n^width to two significant digits, rounded half to even, from
        # integer bounds whose size does not grow with n^width.  More digits
        # are kept until both bounds round alike.  They always do: a tie would
        # make n^width a three-digit odd multiple of 5 times a power of 10,
        # and no n^width with width >= 5 is one.
        digits = 24
        while True:
            low = _two_digits(*_power_bound(n, width, digits, False))
            if low == _two_digits(*_power_bound(n, width, digits, True)):
                break
            digits *= 2
        lead, exponent = low
        raise CapacityError(
            f"n={n} needs {n}^{width} ≈ {lead // 10}.{lead % 10}e{exponent} "
            f"representatives, beyond the supported bound n <= {CENSUS_MAX_N}"
        )


def total_count(n: int) -> int:
    """n^(n(n-1)/2), the number of antisymmetric matrices mod n."""
    _check_n(n)
    return n ** (n * (n - 1) // 2)


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    # Strict upper-triangle positions (0-based), row-major; digit t of the
    # counter is e_(i+1)(j+1) for pair (i, j).
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _digits_to_exps(n: int, digits: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    mat = [[0] * n for _ in range(n)]
    for (i, j), d in zip(_pairs(n), digits):
        mat[i][j] = d
        mat[j][i] = (-d) % n
    return tuple(tuple(row) for row in mat)


def index_to_params(n: int, index: int) -> QuantumParams:
    """The matrix at a canonical counter position."""
    total = total_count(n)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range 0..{total - 1}")
    t = n * (n - 1) // 2
    digits = [0] * t
    x = index
    for k in range(t - 1, -1, -1):
        x, digits[k] = divmod(x, n)
    return QuantumParams(n, _digits_to_exps(n, digits))


def _blocks(total: int, block_size: int) -> list[tuple[int, int]]:
    return [(s, min(s + block_size, total)) for s in range(0, total, block_size)]


@dataclass(frozen=True)
class CensusReport:
    """Tallies and claim checks over the full enumeration for one n."""

    n: int
    total: int
    count_cy: int
    count_generic: int
    count_generic_and_cy: int
    all_generic_cy_have_zero_column_sums: bool
    implication_counterexamples: tuple[int, ...]
    n4_dichotomy_holds: Optional[bool]
    dichotomy_counterexamples: tuple[int, ...]
    alternative_readings: Optional[dict]
    witnesses: tuple[QuantumParams, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "count_cy": self.count_cy,
            "count_generic": self.count_generic,
            "count_generic_and_cy": self.count_generic_and_cy,
            "all_generic_cy_have_zero_column_sums": self.all_generic_cy_have_zero_column_sums,
            "implication_counterexamples": list(self.implication_counterexamples),
            "n4_dichotomy_holds": self.n4_dichotomy_holds,
            "dichotomy_counterexamples": list(self.dichotomy_counterexamples),
            "alternative_readings": self.alternative_readings,
            "witnesses": [w.to_json() for w in self.witnesses],
        }

    def csv_counts(self) -> list[tuple[str, int]]:
        return [
            ("total", self.total),
            ("cy", self.count_cy),
            ("generic", self.count_generic),
            ("generic_and_cy", self.count_generic_and_cy),
        ]


EXPECTED_GENERIC_CY_N5 = 3000


def run_census(
    n: int,
    workers: int = 1,
    witness_limit: int = 3,
    block_size: int = 1 << 19,
) -> CensusReport:
    """Count the CY classes in closed form and the generic classes by a
    vertex peel, scan the CY representatives, check the claims, and lift
    counts, witnesses and counterexamples to the whole space.

    The report does not depend on worker count or block size: blocks
    partition the CY representatives, per-block tallies are summed, and each
    block's smallest lifted indices are merged smallest-first.
    """
    _check_n(n)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if witness_limit < 0:
        raise ValueError(f"witness_limit must be >= 0, got {witness_limit}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    from . import _scan

    reps = _scan.stream_length(n, "cy")
    tasks = [(n, s, e, witness_limit) for s, e in _blocks(reps, block_size)]
    if workers == 1 or len(tasks) == 1:
        results = [_scan.scan_block(t) for t in tasks]
    else:
        with Pool(processes=min(workers, len(tasks))) as pool:
            results = pool.map(_scan.scan_block, tasks)

    scanned = sum(r["scanned"] for r in results)
    if scanned != reps:
        raise RuntimeError(f"scanned {scanned} of {reps} CY representatives")  # partition bug

    def merged(key: str, limit: int) -> list[int]:
        return sorted(i for r in results for i in r[key])[:limit]

    twists = n ** (n - 1)
    zero_sum_twists = n ** (n - 2)
    both_classes = sum(r["both"] for r in results)
    both = both_classes * twists
    count_generic = _scan.generic_classes(n) * twists
    dichotomy_bad = sum(r["dichotomy_bad"] for r in results)

    alternative = None
    if n == 5 and both != EXPECTED_GENERIC_CY_N5:
        alternative = {
            "generic_only": count_generic,
            "generic_and_zero_column_sums": both_classes * zero_sum_twists,
        }
    return CensusReport(
        n=n,
        total=total_count(n),
        count_cy=reps * twists,
        count_generic=count_generic,
        count_generic_and_cy=both,
        all_generic_cy_have_zero_column_sums=both_classes * (twists - zero_sum_twists) == 0,
        implication_counterexamples=tuple(merged("implication_bad_indices", _COUNTEREXAMPLE_CAP)),
        n4_dichotomy_holds=(dichotomy_bad == 0) if n == 4 else None,
        dichotomy_counterexamples=tuple(merged("dichotomy_bad_indices", _COUNTEREXAMPLE_CAP)),
        alternative_readings=alternative,
        witnesses=tuple(index_to_params(n, i) for i in merged("witness_indices", witness_limit)),
    )


# -- witness search ----------------------------------------------------------------

_PREDICATE_ALIASES = {
    "cy": "cy",
    "is_cy": "cy",
    "generic": "generic",
    "is_generic": "generic",
    "full": "full",
    "is_full": "full",
    "full-face": "full",
    "twist-realizable": "full",
    "twist_realizable": "full",
}


def find_witness(n: int, predicates: Sequence[str]) -> Optional[QuantumParams]:
    """First matrix in canonical order satisfying every named predicate.

    Known predicates: cy, generic, full (alias twist-realizable; the cocycle
    condition and the full face complex coincide).  Returns None when the
    space contains no match.  The predicates are constant on twist classes
    and each class's first member is its zero-first-row representative, on
    which t(1,b,c) = e_bc.  So without generic the answer is the zero matrix
    (index 0, CY and full), generic with full has none, and otherwise only
    representatives are scanned: the CY ones with nonzero free digits when
    cy is wanted, else those with nonzero lower digits.  Chunks grow up to
    2^19 rows, and the search stops at the first generic row.
    """
    _check_n(n)
    wanted = set()
    for p in predicates:
        key = _PREDICATE_ALIASES.get(str(p).strip().lower())
        if key is None:
            raise ValueError(
                f"unknown predicate {p!r}; choose from cy, generic, full, twist-realizable"
            )
        wanted.add(key)
    if not wanted:
        raise ValueError("at least one predicate required")
    if "generic" not in wanted:
        return index_to_params(n, 0)
    if "full" in wanted:
        return None  # triangle (1,2,3) cannot be both zero and nonzero
    from . import _scan

    stream = "cy-nonzero" if "cy" in wanted else "nonzero"
    length = _scan.stream_length(n, stream)
    start, size = 0, 1 << 6
    while start < length:
        stop = min(start + size, length)
        hit = _scan.first_generic(n, stream, start, stop)
        if hit is not None:
            return QuantumParams(n, _digits_to_exps(n, hit))
        start, size = stop, min(2 * size, 1 << 19)
    return None
