"""Answer checks for the benchmark, written without any call into qfermat.

Every check receives the JSON form of an answer (the `to_json` /
`to_json_dict` output, or a CLI exit code and stdout) and re-derives what it
must contain with plain Python: column sums, triangle exponents, bubble-sort
normal ordering, and powers of the root of unity reduced modulo a cyclotomic
polynomial built here from the Moebius product.  A check returns None when
the answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

# Pinned n = 5 census tallies (README, criterion 1 and its reconciliation).
CENSUS5 = {
    "total": 9765625,
    "count_cy": 78125,
    "count_generic": 1135000,
    "count_generic_and_cy": 15000,
}
CENSUS5_GENERIC_ZERO_SUMS = 3000
CENSUS5_FIRST_COUNTEREXAMPLE = 19929


# -- cyclotomic arithmetic ------------------------------------------------------


def _mobius(k: int) -> int:
    out, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _x_pow_minus_one(d: int) -> list[int]:
    return [-1] + [0] * (d - 1) + [1]


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Phi_m as ascending integer coefficients: prod_{d|m} (t^d - 1)^mu(m/d)."""
    num, den = [1], [1]
    for d in range(1, m + 1):
        if m % d == 0:
            mu = _mobius(m // d)
            if mu == 1:
                num = _poly_mul(num, _x_pow_minus_one(d))
            elif mu == -1:
                den = _poly_mul(den, _x_pow_minus_one(d))
    # exact long division num / den; den is monic
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        quot[k] = c
        for i, dc in enumerate(den):
            num[k + i] -= c * dc
    return tuple(quot)


def zeta_coords(m: int, k: int) -> tuple[int, ...]:
    """Power-basis coordinates of zeta_m^k: t^(k mod m) reduced modulo Phi_m."""
    phi = cyclotomic(m)
    deg = len(phi) - 1
    poly = [0] * (k % m) + [1]
    for top in range(len(poly) - 1, deg - 1, -1):
        c = poly[top]
        if c:
            for i, pc in enumerate(phi):
                poly[top - deg + i] -= c * pc
    poly = poly[:deg] + [0] * max(0, deg - len(poly))
    return tuple(poly)


@lru_cache(maxsize=None)
def root_coords(m: int) -> frozenset:
    """Coordinates of every +-zeta_m^k."""
    roots = {zeta_coords(m, k) for k in range(m)}
    return frozenset(roots | {tuple(-c for c in r) for r in roots})


def json_coords(value: dict) -> tuple[Fraction, ...]:
    """Coordinates of a serialized cyclotomic number."""
    return tuple(Fraction(c) for c in value["coords"])


def _expect_root(value: dict, m: int, k: int, scale: int = 1) -> str | None:
    want = tuple(scale * c for c in zeta_coords(m, k))
    if value.get("conductor") != m or json_coords(value) != want:
        return f"expected {scale}*zeta_{m}^{k % m}, got {value}"
    return None


# -- parameter matrices ---------------------------------------------------------


def col_sums(exps) -> list[int]:
    n = len(exps)
    return [sum(exps[i][j] for i in range(n)) % n for j in range(n)]


def is_cy(exps) -> bool:
    return len(set(col_sums(exps))) == 1


def triangles(exps) -> list[int]:
    n = len(exps)
    return [
        (exps[i][j] + exps[j][k] + exps[k][i]) % n
        for i, j, k in combinations(range(n), 3)
    ]


def is_generic(exps) -> bool:
    return all(triangles(exps))


def is_full(exps) -> bool:
    return not any(triangles(exps))


def twist_vector(exps) -> list[int] | None:
    n = len(exps)
    d = [exps[i][0] % n for i in range(n)]
    ok = all((d[i] - d[j]) % n == exps[i][j] % n for i in range(n) for j in range(n))
    return d if ok else None


PREDICATES = {"cy": is_cy, "generic": is_generic, "full": is_full}


def matrix_at(n: int, index: int) -> list[list[int]]:
    """Canonical matrix: strict upper triangle row-major, most significant first."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    digits = []
    for _ in pairs:
        index, d = divmod(index, n)
        digits.append(d)
    digits.reverse()
    mat = [[0] * n for _ in range(n)]
    for (i, j), d in zip(pairs, digits):
        mat[i][j] = d
        mat[j][i] = (-d) % n
    return mat


def index_of(exps) -> int:
    n = len(exps)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            idx = idx * n + exps[i][j] % n
    return idx


def bubble_order(exps, word) -> tuple[int, tuple[int, ...]]:
    """(phase mod n, multidegree) of a word, one adjacent swap at a time."""
    n = len(exps)
    w = list(word)
    phase = 0
    for end in range(len(w) - 1, 0, -1):
        for k in range(end):
            a, b = w[k], w[k + 1]
            if a > b:
                phase += exps[a - 1][b - 1]
                w[k], w[k + 1] = b, a
    md = [0] * n
    for g in w:
        md[g - 1] += 1
    return phase % n, tuple(md)


def monomial_shift(exps, md) -> list[int]:
    """s_j with x^a x_j = zeta^(s_j) x_j x^a."""
    n = len(exps)
    return [sum(md[i] * exps[i][j] for i in range(n)) % n for j in range(n)]


def _check_exps(got, want) -> str | None:
    if [list(r) for r in got] != [list(r) for r in want]:
        return f"exponents {got} != {want}"
    return None


# -- census -------------------------------------------------------------------------


class CensusChecker:
    """Checks census answers; caches first-match indices found by plain loops."""

    def __init__(self):
        self._first: dict[frozenset, int] = {}

    def first_index(self, n: int, preds: frozenset) -> int:
        key = preds | {n}
        if key not in self._first:
            idx = 0
            while not all(PREDICATES[p](matrix_at(n, idx)) for p in preds):
                idx += 1
            self._first[key] = idx
        return self._first[key]

    def scan(self, report: dict) -> str | None:
        for key, want in CENSUS5.items():
            if report.get(key) != want:
                return f"{key} = {report.get(key)}, expected {want}"
        alt = report.get("alternative_readings") or {}
        if alt.get("generic_and_zero_column_sums") != CENSUS5_GENERIC_ZERO_SUMS:
            return f"generic_and_zero_column_sums = {alt.get('generic_and_zero_column_sums')}"
        if report.get("all_generic_cy_have_zero_column_sums") is not False:
            return "implication must be reported false at n = 5"
        bad = report.get("implication_counterexamples") or []
        if not bad or bad[0] != CENSUS5_FIRST_COUNTEREXAMPLE:
            return f"first implication counterexample {bad[:1]}, expected {CENSUS5_FIRST_COUNTEREXAMPLE}"
        m = matrix_at(5, bad[0])
        if not (is_cy(m) and is_generic(m) and any(col_sums(m))):
            return f"counterexample {bad[0]} is not generic CY with nonzero sums"
        witnesses = report.get("witnesses") or []
        if not witnesses:
            return "no witnesses"
        idx = [index_of(w["exponents"]) for w in witnesses]
        if idx != sorted(set(idx)):
            return f"witness indices {idx} not increasing"
        for w in witnesses:
            if not (is_cy(w["exponents"]) and is_generic(w["exponents"])):
                return f"witness {w['exponents']} is not generic CY"
        if idx[0] != self.first_index(5, frozenset({"cy", "generic"})):
            return f"first witness index {idx[0]} is not the first generic CY matrix"
        return None

    def witness(self, n: int, preds: frozenset, result: dict | None) -> str | None:
        if "generic" in preds and "full" in preds:
            return None if result is None else f"unsatisfiable {sorted(preds)} returned {result}"
        if result is None:
            return f"no witness for {sorted(preds)}"
        exps = result["exponents"]
        for p in preds:
            if not PREDICATES[p](exps):
                return f"witness for {sorted(preds)} fails {p}"
        if index_of(exps) != self.first_index(n, preds):
            return f"witness index {index_of(exps)} is not the first for {sorted(preds)}"
        return None


# -- Frobenius ----------------------------------------------------------------------


def frobenius(exps, comparison: dict) -> str | None:
    n = len(exps)
    m = 2 * n
    if comparison.get("agree_mod_scalar") is not True:
        return "routes disagree"
    bad = _expect_root(comparison["ratio"], m, 0, scale=-1)
    if bad:
        return f"ratio: {bad}"
    for j in range(n):
        k = n * n + 2 * (sum(exps[j]) % n)
        bad = _expect_root(comparison["closedform"][j], m, k) or _expect_root(
            comparison["bruteforce"][j], m, k, scale=-1
        )
        if bad:
            return f"scalar {j + 1}: {bad}"
    return None


# -- algebra queries ----------------------------------------------------------------


def _support(poly: dict) -> list[tuple[int, ...]]:
    return [tuple(t["multidegree"]) for t in poly["terms"]]


def _central_in_b(exps, support) -> bool:
    return all(not any(monomial_shift(exps, md)) for md in support)


def algebra(spec, answer: dict) -> str | None:
    exps, n = spec.exps, len(spec.exps)
    bad = _check_exps(answer["params"]["exponents"], exps)
    if bad:
        return bad
    for k, p in enumerate(answer["products"]):
        if p["roundtrip"] is not True:
            return f"product {k}: parse(print(f)) != f"
        if p["central"] != _central_in_b(exps, _support(p["prod"])):
            return f"product {k}: centrality reported {p['central']}"
        if any(md[n - 1] >= n for md in _support(p["f_a"])):
            return f"product {k}: algebra-A lowering left x_n^n unreduced"
    if len(answer["products"]) != len(spec.pairs):
        return f"{len(answer['products'])} products for {len(spec.pairs)} pairs"
    if answer["central_fermat"] is not True:
        return "fermat element not central"
    if answer["central_pog"] != (not any(col_sums(exps))):
        return f"product of generators central = {answer['central_pog']}, column sums {col_sums(exps)}"
    want = [list(bubble_order(exps, w)) for w in spec.words]
    got = [[p, list(md)] for p, md in answer["orders"]]
    if got != [[p, list(md)] for p, md in want]:
        return f"normal_order {got} != {want}"
    shifts = monomial_shift(exps, bubble_order(exps, spec.words[0])[1])
    for j, s in enumerate(answer["nu"]["scalars"]):
        bad = _expect_root(s, n, shifts[j])
        if bad:
            return f"normalizing scalar {j + 1}: {bad}"
    return hilb1(exps, answer["hilb1"])


def hilb1(exps, report: dict) -> str | None:
    n = len(exps)
    generic = is_generic(exps)
    if report["discrete"] != generic:
        return f"discrete = {report['discrete']}, generic = {generic}"
    if generic and report["total_points"] != n * comb(n, 2):
        return f"total_points {report['total_points']} != {n * comb(n, 2)}"
    if report["complex"]["is_full"] != is_full(exps):
        return f"is_full = {report['complex']['is_full']}"
    return None


# -- CLI ------------------------------------------------------------------------------


def cli(spec, code: int, stdout: str) -> str | None:
    """Exit code against the README's 0/1 rule, then the JSON key fields."""
    exps, n, cmd = spec.exps, len(spec.exps), spec.command
    if cmd == "check-cy":
        verdict = is_cy(exps)
    elif cmd == "twist-check":
        verdict = twist_vector(exps) is not None
    elif cmd == "central":
        verdict = _central_in_b(exps, [bubble_order(exps, w)[1] for w in spec.words])
    else:  # report-only commands, and frobenius whose routes always agree
        verdict = True
    want_code = 0 if verdict else 1
    if code != want_code:
        return f"{cmd}: exit {code}, expected {want_code}"
    if not stdout.strip():
        return f"{cmd}: empty output"
    if not spec.as_json:
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"{cmd}: bad JSON ({exc})"
    if cmd == "check-cy":
        if doc["is_cy"] != verdict or doc["column_sums"] != col_sums(exps):
            return f"check-cy fields {doc['is_cy']}, {doc['column_sums']}"
    elif cmd == "twist-check":
        if doc["realizable"] != verdict or doc["twist"] != twist_vector(exps):
            return f"twist-check fields {doc['realizable']}, {doc['twist']}"
    elif cmd == "central":
        if doc["central"] != verdict:
            return f"central field {doc['central']}"
    elif cmd == "patch":
        m = spec.invert - 1
        keep = [i for i in range(n) if i != m]
        want = [[(exps[i][j] + exps[m][i] + exps[j][m]) % n for j in keep] for i in keep]
        if doc["order"] != n or doc["generators"] != n - 1:
            return f"patch header {doc['order']}, {doc['generators']}"
        return _check_exps(doc["exponents"], want)
    elif cmd == "eval":
        want = {}
        for c, w in zip(spec.coeffs, spec.words):
            phase, md = bubble_order(exps, w)
            want[md] = tuple(c * x for x in zeta_coords(n, phase))
        got = {
            tuple(t["multidegree"]): json_coords(t["coeff"]) for t in doc["poly"]["terms"]
        }
        if got != want or not doc["canonical"]:
            return f"eval terms {got} != {want}"
    elif cmd == "hilb1":
        return hilb1(exps, doc)
    elif cmd == "frobenius":
        return frobenius(exps, doc)
    return None
