"""Shared helpers for the test suite: random matrix generation, hypothesis
strategies, and the acceptance-line registry printed at the end of a run."""

import random

from hypothesis import strategies as st

from qfermat.qalgebra import QuantumParams, validate_params

# Filled by test_acceptance, printed by the terminal-summary hook in conftest.
ACCEPTANCE_LINES = []


def random_params(n, rng: random.Random) -> QuantumParams:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = rng.randrange(n)
            rows[i][j] = e
            rows[j][i] = (-e) % n
    return validate_params(n, rows)


def corrupt_pair(real, bad, n):
    """koszulcy._blade_products (passed as real) with the one ordered blade
    pair bad = (s, t) corrupted: an overlapping pair survives as
    (s, t, s | t, 0), a disjoint one has its exponent moved by 1 mod 2n."""

    def corrupted(cross, ss, ts):
        out = []
        for s in ss:
            if s != bad[0]:
                out += real(cross, [s], ts)
                continue
            for t in ts:
                row = real(cross, [s], [t])
                if t == bad[1]:
                    row = [(s, t, s | t, 0)] if not row else [(*row[0][:3], (row[0][3] + 1) % (2 * n))]
                out += row
        return out

    return corrupted


def random_twist(n, rng: random.Random):
    return [rng.randrange(n) for _ in range(n)]


@st.composite
def params_st(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    digits = draw(st.lists(st.integers(0, n - 1), min_size=len(pairs), max_size=len(pairs)))
    rows = [[0] * n for _ in range(n)]
    for (i, j), e in zip(pairs, digits):
        rows[i][j] = e
        rows[j][i] = (-e) % n
    return validate_params(n, rows)


@st.composite
def perturbed_twist_st(draw, min_n=3, max_n=8, max_changes=4):
    """A twist matrix (every triangle zero, one full face) with a few entries
    moved off it, so that large faces and many faces through one edge occur."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    d = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rows = [[(d[i] - d[j]) % n for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(draw(st.integers(0, max_changes))):
        i, j = draw(st.sampled_from(pairs))
        rows[i][j] = (rows[i][j] + draw(st.integers(1, n - 1))) % n
        rows[j][i] = (-rows[i][j]) % n
    return validate_params(n, rows)


@st.composite
def word_st(draw, max_n=5, max_len=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    word = draw(st.lists(st.integers(1, n), min_size=0, max_size=max_len))
    return n, word


@st.composite
def multidegree_st(draw, n, max_entry=3):
    return tuple(
        draw(st.lists(st.integers(0, max_entry), min_size=n, max_size=n))
    )
