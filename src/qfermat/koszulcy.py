"""Calabi-Yau criterion and the Frobenius structure of the exterior dual.

The quotient algebra A is Calabi-Yau exactly when the column sums
s_j = sum_i e_ij agree for every j; the leftover grading data is the diagonal
twist x_j -> zeta_n^(-s_j) x_j, which is scalar precisely in the CY case.

The dual of the ambient algebra B is a twisted exterior algebra on generators
y_1..y_n subject to  q_ij y_i y_j + y_j y_i = 0  and  y_k^2 = 0.  Its top
graded piece is one-dimensional, making it Frobenius; the Nakayama-type
automorphism is diagonal and is computed here two ways: brute force from the
multiplication pairing, and by a closed formula.  The two routes are compared
modulo a single global scalar rather than merged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb
from typing import Optional, Sequence

from .census import CapacityError
from .cyclo import CycloField, Cyclotomic
from .qalgebra import (
    DiagAutomorphism,
    ParamsError,
    QuantumParams,
    _sum_terms,
)

__all__ = [
    "CyReport",
    "DEHOMOGENIZE_NOTE",
    "ExtElement",
    "FROBENIUS_MAX_N",
    "FrobeniusComparison",
    "FrobeniusPairingError",
    "PatchParams",
    "column_sums",
    "compare_frobenius",
    "cy_criterion",
    "dehomogenize",
    "frobenius_bruteforce",
    "frobenius_closedform",
    "is_twist_realizable",
]


# C(24, 12) = 2,704,156 blade products; the work grows as C(2n, n)
FROBENIUS_MAX_N = 12


class FrobeniusPairingError(RuntimeError):
    """The pairing check of the brute-force route failed; indicates a bug."""


def column_sums(params: QuantumParams) -> tuple[int, ...]:
    """s_j = sum_i e_ij mod n, one value per column: the column phases of x_1...x_n."""
    return tuple(sum(col) % params.n for col in zip(*params.exps))


@dataclass(frozen=True)
class CyReport:
    """Outcome of the Calabi-Yau column-sum test."""

    params: QuantumParams
    is_cy: bool
    column_sums: tuple[int, ...]
    common_value: Optional[int]
    serre_twist: DiagAutomorphism
    twist_vector: Optional[tuple[int, ...]]

    @property
    def twist_is_scalar(self) -> bool:
        """The residual twist is scalar exactly when the column sums agree."""
        return self.is_cy

    def to_json_dict(self) -> dict:
        out = {
            "is_cy": self.is_cy,
            "column_sums": list(self.column_sums),
            "common_value": self.common_value,
            "serre_scalars": [s.to_json() for s in self.serre_twist.scalars],
            "twist_is_scalar": self.twist_is_scalar,
        }
        if self.twist_vector is not None:
            out["twist_vector"] = list(self.twist_vector)
        return out


def cy_criterion(params: QuantumParams) -> CyReport:
    """Decide the Calabi-Yau property and report the residual diagonal twist."""
    sums = column_sums(params)
    is_cy = len(set(sums)) == 1
    field = CycloField(params.n)
    twist = DiagAutomorphism(params, tuple(field.zeta(-s) for s in sums))
    return CyReport(
        params=params,
        is_cy=is_cy,
        column_sums=sums,
        common_value=sums[0] if is_cy else None,
        serre_twist=twist,
        twist_vector=is_twist_realizable(params),
    )


# -- twisted exterior dual ------------------------------------------------------


def _crossings(params: QuantumParams) -> list[list[int]]:
    # Row b, indexed by a mask h of the generators above b (bit k is generator
    # b+1+k), holds the zeta_(2n) exponent that generator b of a right blade
    # picks up crossing the left blade's generators h.  Each crossing of a
    # past b with a > b contributes -zeta_n^(e_ba) = zeta_(2n)^(n + 2 e_ba):
    # from q_ba y_b y_a + y_a y_b = 0 we get y_a y_b = -q_ba y_b y_a.
    n = params.n
    m = 2 * n
    table = []
    for b, exps in enumerate(params.exps):
        row = [0]
        for e in exps[b + 1:]:
            w = (n + 2 * e) % m
            row += [(x + w) % m for x in row]
        table.append(row)
    return table


def _blade_products(cross: list[list[int]], ss, ts) -> list[tuple[int, int, int, int]]:
    # Products y_S * y_T of basis blades given as bitmasks (bit i = generator
    # i+1), one for each S in ss and T in ts, with cross = _crossings(params).
    # Returns (s, t, s | t, e) with y_S y_T = zeta_(2n)^e y_(S|T) for each pair
    # sharing no generator, s-major and in the input order.  One comprehension
    # forms every pair and drops the overlapping ones, which vanish; each
    # generator b of a surviving t, highest first, then adds what it picks up
    # crossing the generators of s above it.
    m = 2 * len(cross)
    out = []
    for s, t in [(s, t) for s in ss for t in ts if not s & t]:
        e = 0
        rest = t
        while rest:
            b = rest.bit_length() - 1
            rest ^= 1 << b
            e += cross[b][s >> b + 1]
        out.append((s, t, s | t, e % m))
    return out


class ExtElement:
    """Element of the twisted exterior dual algebra on y_1..y_n.

    Basis blades are indexed by subsets of {1..n} (bitmasks internally) and
    coefficients live in Q(zeta_2n) so that the signs -zeta_n^e are exact.
    """

    __slots__ = ("params", "field", "_terms")

    def __init__(self, params: QuantumParams, terms: dict | None = None, field=None):
        if field is None:
            field = CycloField(2 * params.n)
        elif field.conductor % (2 * params.n) != 0:
            raise ValueError(
                f"conductor {field.conductor} lacks the 2n-th roots of unity"
            )
        pairs = []
        for mask, c in (terms or {}).items():
            if not 0 <= mask < 1 << params.n:
                raise ValueError(f"blade mask {mask} out of range")
            if not isinstance(c, Cyclotomic):
                c = field.from_rational(c)
            pairs.append((mask, c))
        self.params = params
        self.field = field
        self._terms = _sum_terms(pairs)

    @classmethod
    def generator(cls, params, j: int, field=None) -> "ExtElement":
        params._check_index(j)
        field = field if field is not None else CycloField(2 * params.n)
        return cls(params, {1 << (j - 1): field.one()}, field)

    @classmethod
    def blade(cls, params, indices: Sequence[int], field=None) -> "ExtElement":
        mask = 0
        for j in indices:
            params._check_index(j)
            bit = 1 << (j - 1)
            if mask & bit:
                raise ValueError(f"repeated index {j} in blade")
            mask |= bit
        field = field if field is not None else CycloField(2 * params.n)
        return cls(params, {mask: field.one()}, field)

    @property
    def terms(self) -> dict:
        """Blades as sorted index tuples mapped to coefficients."""
        return {_mask_to_subset(m): c for m, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def _check(self, other: "ExtElement"):
        if self.params != other.params or self.field is not other.field:
            raise ValueError("operands from different dual algebras")

    def __add__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        self._check(other)
        pairs = chain(self._terms.items(), other._terms.items())
        return ExtElement(self.params, _sum_terms(pairs), self.field)

    def scale(self, scalar) -> "ExtElement":
        if not isinstance(scalar, Cyclotomic):
            scalar = self.field.from_rational(scalar)
        pairs = ((m, c * scalar) for m, c in self._terms.items())
        return ExtElement(self.params, _sum_terms(pairs), self.field)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        if not isinstance(other, ExtElement):
            return NotImplemented
        self._check(other)
        # blade exponents count 2n-th roots; the field may be a larger one
        step = self.field.conductor // (2 * self.params.n)
        cross = _crossings(self.params)
        left, right = self._terms, other._terms
        pairs = [
            (mask, left[s] * right[t] * self.field.zeta(step * e))
            for s, t, mask, e in _blade_products(cross, left, right)
        ]
        return ExtElement(self.params, _sum_terms(pairs), self.field)

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return (
            self.params == other.params
            and self.field is other.field
            and self._terms == other._terms
        )

    def __repr__(self):
        if not self._terms:
            return "<exterior 0>"
        bits = ", ".join(
            f"y{list(_mask_to_subset(m))}: {c.basis_string()}"
            for m, c in sorted(self._terms.items())
        )
        return f"<exterior {bits}>"


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _grades(n: int) -> tuple[tuple[int, ...], ...]:
    # Blade masks grouped by popcount, each group in increasing order.
    groups: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        groups[mask.bit_count()].append(mask)
    return tuple(map(tuple, groups))


def _pairing_failure(u: int, v: int) -> FrobeniusPairingError:
    return FrobeniusPairingError(f"pairing identity failed on blades {u:#b}, {v:#b}")


def _row_failure(us, row, top: int) -> FrobeniusPairingError:
    # The pair to name when a grade's row is not (u, top ^ u, top, e) for each
    # left blade u in us, in order: a missing, misplaced or wrong complement
    # names (u, top ^ u), an extra survivor names itself.  Once every u has
    # its complement in place, what is left over is a survivor of no u.
    for i, u in enumerate(us):
        c = top ^ u
        got = [(t, mask) for s, t, mask, _ in row if s == u]
        if [mask for t, mask in got if t == c] != [top] or row[i][0] != u:
            return _pairing_failure(u, c)
        if len(got) > 1:
            return _pairing_failure(u, next(t for t, _ in got if t != c))
    return _pairing_failure(*row[len(us)][:2])


def frobenius_bruteforce(params: QuantumParams) -> tuple[Cyclotomic, ...]:
    """Diagonal automorphism scalars of the dual Frobenius pairing, by search.

    Every nonzero blade product is a power of zeta_2n times a blade, so the
    search runs on exponents mod 2n.  Each of the C(2n, n) ordered pairs of
    blades of complementary degree is multiplied exactly once, by one call
    of _blade_products per grade k, on the blades of grade k against those
    of grade n - k: n + 1 calls in all.  The pairs sharing a generator
    vanish inside that call.  The product y_u y_v must vanish unless v is
    the complement of u, and then it must be the top blade, so a grade's
    row holds one product per left blade, in the grade's order.  The scalar
    of y_j is read off the two products of y_j with its complement, and the
    candidate is verified on every complementary pair (a b = phi(b) a in
    the top component).  A surviving product other than the complement's,
    a missing or misplaced complement, or a failed identity raises
    FrobeniusPairingError naming the pair, since the pairing identity is
    forced by the structure; it would indicate an implementation bug, not
    bad input.  n above FROBENIUS_MAX_N raises CapacityError before any
    product is formed.
    """
    n = params.n
    if n > FROBENIUS_MAX_N:
        raise CapacityError(
            f"n={n} needs C({2 * n}, {n}) = {comb(2 * n, n)} blade products, "
            f"beyond the supported bound n <= {FROBENIUS_MAX_N}"
        )
    m = 2 * n
    top = (1 << n) - 1
    groups = _grades(n)
    cross = _crossings(params)
    # pair[u]: exponent of y_u y_(top ^ u) = zeta_2n^pair[u] y_top
    pair = [0] * (1 << n)
    for k, us in enumerate(groups):
        # only its complement shares no generator with u, so the row holds
        # that one product per left blade, in the order of the grade
        row = _blade_products(cross, us, groups[n - k])
        if len(row) != len(us):
            raise _row_failure(us, row, top)
        for u, (s, t, mask, e) in zip(us, row):
            if s != u or t != top ^ u or mask != top:
                raise _row_failure(us, row, top)
            pair[u] = e
    exponents = [(pair[top ^ (1 << j)] - pair[1 << j]) % m for j in range(n)]

    # phi(y_V) = prod_(j in V) scalar_j, built from the mask without its lowest bit
    phi = [0] * (1 << n)
    for v in range(1, 1 << n):
        phi[v] = (phi[v & (v - 1)] + exponents[(v & -v).bit_length() - 1]) % m
    for u in range(1 << n):
        c = top ^ u
        if (pair[u] - pair[c] - phi[c]) % m:
            raise _pairing_failure(u, c)
    field = CycloField(m)
    return tuple(field.zeta(e) for e in exponents)


def frobenius_closedform(params: QuantumParams) -> tuple[Cyclotomic, ...]:
    """Scalars prod_i(-q_ji) per generator j, read off the column sums."""
    n = params.n
    field = CycloField(2 * n)
    # prod_i -zeta_n^(e_ji) = (-1)^n zeta_n^(r_j) = zeta_2n^(n*n + 2*r_j), and
    # skew-symmetry makes the row sum r_j = -s_j mod n.
    return tuple(field.zeta((n * n - 2 * s) % (2 * n)) for s in column_sums(params))


@dataclass(frozen=True)
class FrobeniusComparison:
    """Brute-force versus closed-form scalars, compared up to one global unit."""

    params: QuantumParams
    bruteforce: tuple[Cyclotomic, ...]
    closedform: tuple[Cyclotomic, ...]
    agree_mod_scalar: bool
    ratio: Optional[Cyclotomic]

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "bruteforce": [c.to_json() for c in self.bruteforce],
            "closedform": [c.to_json() for c in self.closedform],
            "agree_mod_scalar": self.agree_mod_scalar,
            "ratio": self.ratio.to_json() if self.ratio is not None else None,
        }


def compare_frobenius(params: QuantumParams) -> FrobeniusComparison:
    """Run both Frobenius routes and compare them modulo a global scalar.

    The two conventions may differ by one overall unit; the comparison
    records that ratio instead of collapsing the routes into each other.
    Both routes return interned roots, so they are compared on exponents:
    with zeta_2n^(b_j) and zeta_2n^(c_j) the two scalars of y_j, they agree
    exactly when b_j - c_j is one residue r mod 2n for every j, and the
    ratio is then zeta_2n^r.
    """
    brute = frobenius_bruteforce(params)
    closed = frobenius_closedform(params)
    m = 2 * params.n
    residues = {(b.root_exp - c.root_exp) % m for b, c in zip(brute, closed)}
    agree = len(residues) == 1
    return FrobeniusComparison(
        params=params,
        bruteforce=brute,
        closedform=closed,
        agree_mod_scalar=agree,
        ratio=CycloField(m).zeta(residues.pop()) if agree else None,
    )


# -- twist recognition and deformation --------------------------------------------


def is_twist_realizable(params: QuantumParams) -> Optional[tuple[int, ...]]:
    """A vector d with e_ij = d_i - d_j mod n, or None when none exists.

    When a solution exists one is pinned down by d_1 = 0; solutions differ by
    a common additive constant.
    """
    n = params.n
    exps = params.exps
    d = tuple(exps[i][0] % n for i in range(n))
    for i in range(n):
        for j in range(n):
            if (d[i] - d[j]) % n != exps[i][j]:
                return None
    return d


DEHOMOGENIZE_NOTE = (
    "patch exponents use e'_ij = e_ij + e_mi + e_jm, the antisymmetric "
    "normalization of the affine-chart commutation scalars; the naive "
    "symmetric normalization q_ij/(q_mi*q_mj) fails e'_ij + e'_ji = 0 and is "
    "not used"
)


@dataclass(frozen=True)
class PatchParams:
    """Commutation exponents of an affine chart.

    The chart has one generator fewer than the ambient algebra but its
    commutation scalars are still order-th roots of unity, so the exponents
    remain in Z/order; a QuantumParams would wrongly reduce them mod the new
    generator count.
    """

    order: int
    exps: tuple[tuple[int, ...], ...]
    note: str = DEHOMOGENIZE_NOTE

    @property
    def num_generators(self) -> int:
        return len(self.exps)

    def __post_init__(self):
        k = len(self.exps)
        for i in range(k):
            if len(self.exps[i]) != k:
                raise ValueError("patch exponent matrix must be square")
            if self.exps[i][i] % self.order != 0:
                raise ValueError(f"patch diagonal ({i + 1},{i + 1}) must vanish")
            for j in range(i + 1, k):
                if (self.exps[i][j] + self.exps[j][i]) % self.order != 0:
                    raise ValueError(
                        f"patch entries ({i + 1},{j + 1}),({j + 1},{i + 1}) "
                        f"must sum to 0 mod {self.order}"
                    )

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "generators": self.num_generators,
            "exponents": [list(row) for row in self.exps],
            "note": self.note,
        }


def dehomogenize(params: QuantumParams, m: int) -> PatchParams:
    """Commutation exponents of the affine coordinates z_i = x_i x_m^(-1).

    The chart index m is 1-based; generator m is inverted and removed.  On the
    chart, z_i z_j = zeta_n^(e'_ij) z_j z_i with e'_ij = e_ij + e_mi + e_jm,
    obtained by pushing the x_m^(-1) factors to the right.  The surviving
    generators keep their original relative order and the exponents stay mod
    the original n.
    """
    if not 1 <= m <= params.n:
        raise ParamsError(
            f"chart index {m} out of range 1..{params.n}"
        )
    n = params.n
    exps = params.exps
    mm = m - 1
    keep = [i for i in range(n) if i != mm]
    rows = tuple(
        tuple((exps[i][j] + exps[mm][i] + exps[j][mm]) % n for j in keep)
        for i in keep
    )
    return PatchParams(order=n, exps=rows)
