"""Vectorized scanner behind the census (the only module using numpy).

``census.run_census`` imports this module when it starts, before any worker
process is forked, so the workers inherit numpy instead of importing it
again; ``census.find_witness`` imports it only to search for a generic
matrix, and code that never scans never loads numpy.

Rows are the full counter digits of zero-first-row representatives, taken
from one of three streams, each in increasing canonical index:

* ``"cy"``: the free digits e_bc, 2 <= b < c <= n-1 (1-based), in counter
  order, with each e_jn solved from column j:
  e_jn = sum_(1<i<j) e_ij - sum_(j<k<n) e_jk.  These are exactly the CY
  representatives, and every solved digit depends only on earlier digits;
* ``"cy-nonzero"``: the CY rows whose free digits are all nonzero, a base
  n-1 counter shifted by one; on a representative t(1,b,c) = e_bc, so it
  holds every generic CY representative;
* ``"nonzero"``: lower digits all nonzero, a base n-1 counter shifted by one;
  it holds every generic representative.

CY is membership in a CY stream, so no row is tested for it.  Since
t(1,b,c) = e_bc, the only full representative is the zero matrix, so no row
is tested for that either: genericity is the one predicate with a mask.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Optional

import numpy as np

from .census import _COUNTEREXAMPLE_CAP, _lower_width, _pairs


@lru_cache(maxsize=None)
def _triangle_matrix(n: int) -> np.ndarray:
    # Triangle exponents from digits: t(a,b,c) = e_ab + e_bc - e_ac.
    pairs = {p: k for k, p in enumerate(_pairs(n))}
    t = n * (n - 1) // 2
    m = np.zeros((t, comb(n, 3)), dtype=np.int64)
    for col, (a, b, c) in enumerate(combinations(range(n), 3)):
        m[pairs[(a, b)], col] += 1
        m[pairs[(b, c)], col] += 1
        m[pairs[(a, c)], col] -= 1
    return m


@lru_cache(maxsize=None)
def _cy_solver(n: int) -> np.ndarray:
    # Full digits from the CY stream's free digits (0-based 1 <= b < c <= n-2);
    # the first row stays zero and e_j(n-1) is solved from column j's sum.
    pos = {p: k for k, p in enumerate(_pairs(n))}
    free = [(b, c) for b, c in _pairs(n) if b >= 1 and c <= n - 2]
    m = np.zeros((len(free), len(pos)), dtype=np.int64)
    for f, (b, c) in enumerate(free):
        m[f, pos[(b, c)]] = 1
        m[f, pos[(b, n - 1)]] -= 1
        m[f, pos[(c, n - 1)]] += 1
    return m


def _counter(start: int, stop: int, base: int, width: int) -> np.ndarray:
    # Base-`base` digits of start .. stop - 1, most significant first.
    x = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((stop - start, width), dtype=np.int64)
    for k in range(width - 1, -1, -1):
        x, digits[:, k] = np.divmod(x, base)
    return digits


def _stream_counter(n: int, stream: str) -> tuple[bool, bool, int, int]:
    # (solved, nonzero, base, width) of the counter behind a stream: solved
    # streams count the CY free digits, "nonzero" the lower digits, and the
    # nonzero streams count in base n-1 and shift every digit up by one.
    solved = stream in ("cy", "cy-nonzero")
    nonzero = stream != "cy"
    width = comb(n - 2, 2) if solved else _lower_width(n)
    return solved, nonzero, n - 1 if nonzero else n, width


def stream_length(n: int, stream: str) -> int:
    """The number of rows in a representative stream."""
    _, _, base, width = _stream_counter(n, stream)
    return base**width


def stream_rows(n: int, stream: str, start: int, stop: int) -> np.ndarray:
    """Full digit rows at positions start .. stop - 1 of a representative stream."""
    solved, nonzero, base, width = _stream_counter(n, stream)
    counts = _counter(start, stop, base, width)
    if nonzero:
        counts += 1
    if solved:
        return (counts @ _cy_solver(n)) % n
    digits = np.zeros((stop - start, n - 1 + width), dtype=np.int64)
    digits[:, n - 1 :] = counts
    return digits


def generic_mask(n: int, digits: np.ndarray) -> np.ndarray:
    """Whether every triangle of a digit row is nonzero, one boolean per row."""
    return ((digits @ _triangle_matrix(n)) % n != 0).all(axis=1)


def generic_classes(n: int) -> int:
    """The number of generic representatives, by peeling the last vertex.

    On a representative t(1,b,c) = e_bc, so generic means every lower digit
    is nonzero and every triangle on vertices 2..n is nonzero.  For each
    generic labelling e of the base on vertices 2..n-1, the last column
    x_a = e_an must be nonzero with x_a - x_b != e_ab for every base edge.
    """
    m = n - 2
    edges = comb(m, 2)
    base = _counter(0, (n - 1) ** edges, n - 1, edges) + 1
    base = base[((base @ _triangle_matrix(m)) % n != 0).all(axis=1)]
    x = _counter(0, (n - 1) ** m, n - 1, m) + 1
    ok = np.ones((len(base), len(x)), dtype=bool)
    for k, (a, b) in enumerate(_pairs(m)):
        ok &= ((x[:, a] - x[:, b]) % n)[None, :] != base[:, k : k + 1]
    return int(ok.sum())


def lift(
    n: int,
    lower: np.ndarray,
    limit: int,
    row_ok: Callable[[tuple[int, ...]], bool] = lambda r: True,
) -> list[int]:
    """The `limit` smallest indices among the twists of the representatives
    whose lower digits are `lower`, counting only first rows r that pass
    row_ok.  r[0] = 0 stands for the diagonal, r[i] is e_1(i+1)."""
    if limit == 0 or len(lower) == 0:
        return []
    width = lower.shape[1]
    weights = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
    lower_pairs = _pairs(n)[n - 1 :]
    out: list[int] = []
    for row in range(n ** (n - 1)):
        r = [0] * n
        x = row
        for k in range(n - 1, 0, -1):
            x, r[k] = divmod(x, n)
        if not row_ok(tuple(r)):
            continue
        shift = np.array([r[j] - r[i] for i, j in lower_pairs], dtype=np.int64)
        members = np.sort(((lower + shift) % n) @ weights)[: limit - len(out)]
        out.extend(row * n**width + int(m) for m in members)
        if len(out) == limit:
            break
    return out


def scan_block(args) -> dict:
    """Class tallies and lifted indices for CY stream positions start .. stop - 1.

    Every row is CY, so the generic rows are the generic CY classes, and at
    n = 4 a row breaks the dichotomy when it is neither generic nor the zero
    matrix, the one full representative."""
    n, start, stop, witness_limit = args
    digits = stream_rows(n, "cy", start, stop)
    lower = digits[:, n - 1 :]
    generic = generic_mask(n, digits)
    dichotomy_bad = lower.any(axis=1) & ~generic if n == 4 else np.zeros(0, dtype=bool)
    both_lower = lower[generic]
    return {
        "scanned": stop - start,
        "both": int(generic.sum()),
        "dichotomy_bad": int(dichotomy_bad.sum()),
        "implication_bad_indices": lift(
            n, both_lower, _COUNTEREXAMPLE_CAP, lambda r: sum(r) % n != 0
        ),
        "dichotomy_bad_indices": (
            lift(n, lower[dichotomy_bad], _COUNTEREXAMPLE_CAP) if n == 4 else []
        ),
        "witness_indices": lift(n, both_lower, witness_limit),
    }


def first_generic(n: int, stream: str, start: int, stop: int) -> Optional[tuple[int, ...]]:
    """The digits of the first generic row at stream positions start .. stop - 1."""
    digits = stream_rows(n, stream, start, stop)
    hits = np.flatnonzero(generic_mask(n, digits))
    return tuple(int(d) for d in digits[hits[0]]) if hits.size else None
