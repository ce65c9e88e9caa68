"""Vectorized block scanner behind the census (the only module using numpy).

``census.run_census`` and ``census.find_witness`` import this module when
they start, before any worker process is forked, so the workers inherit
numpy instead of importing it again, and code that never scans never loads
numpy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .census import _COUNTEREXAMPLE_CAP, _pairs, _triples


@lru_cache(maxsize=None)
def _colsum_matrix(n: int) -> np.ndarray:
    # Column sums from upper-triangle digits: s_j = sum_(i<j) e_ij - sum_(k>j) e_jk.
    t = n * (n - 1) // 2
    m = np.zeros((t, n), dtype=np.int64)
    for idx, (i, j) in enumerate(_pairs(n)):
        m[idx, j] += 1
        m[idx, i] -= 1
    return m


@lru_cache(maxsize=None)
def _triangle_matrix(n: int) -> np.ndarray:
    # Triangle exponents from digits: t(a,b,c) = e_ab + e_bc - e_ac.
    pairs = {p: k for k, p in enumerate(_pairs(n))}
    trs = _triples(n)
    t = n * (n - 1) // 2
    m = np.zeros((t, len(trs)), dtype=np.int64)
    for col, (a, b, c) in enumerate(trs):
        m[pairs[(a, b)], col] += 1
        m[pairs[(b, c)], col] += 1
        m[pairs[(a, c)], col] -= 1
    return m


def decode_block(n: int, start: int, stop: int) -> np.ndarray:
    t = n * (n - 1) // 2
    x = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((stop - start, t), dtype=np.int64)
    for k in range(t - 1, -1, -1):
        digits[:, k] = x % n
        x //= n
    return digits


def predicate_masks(n: int, digits: np.ndarray) -> dict[str, np.ndarray]:
    """The cy, generic and full predicates, one boolean per digit row."""
    sums = (digits @ _colsum_matrix(n)) % n
    tris = (digits @ _triangle_matrix(n)) % n
    return {
        "cy": (sums == sums[:, :1]).all(axis=1),
        "generic": (tris != 0).all(axis=1),
        "full": (tris == 0).all(axis=1),
    }


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
    """Class tallies and lifted indices for representatives start .. stop - 1."""
    n, start, stop, witness_limit = args
    digits = decode_block(n, start, stop)
    masks = predicate_masks(n, digits)
    cy, generic = masks["cy"], masks["generic"]
    both = cy & generic
    dichotomy_bad = cy & ~masks["full"] & ~generic if n == 4 else np.zeros(0, dtype=bool)
    lower = digits[:, n - 1 :]
    both_lower = lower[both]
    return {
        "scanned": stop - start,
        "cy": int(cy.sum()),
        "generic": int(generic.sum()),
        "both": int(both.sum()),
        "dichotomy_bad": int(dichotomy_bad.sum()),
        "implication_bad_indices": lift(
            n, both_lower, _COUNTEREXAMPLE_CAP, lambda r: sum(r) % n != 0
        ),
        "dichotomy_bad_indices": (
            lift(n, lower[dichotomy_bad], _COUNTEREXAMPLE_CAP) if n == 4 else []
        ),
        "witness_indices": lift(n, both_lower, witness_limit),
    }


def first_match(n: int, start: int, stop: int, wanted) -> Optional[int]:
    """The first representative in start .. stop - 1 meeting every predicate."""
    masks = predicate_masks(n, decode_block(n, start, stop))
    hits = np.flatnonzero(np.logical_and.reduce([masks[p] for p in wanted]))
    return start + int(hits[0]) if hits.size else None
