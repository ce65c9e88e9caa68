"""Skew polynomial algebras attached to a root-of-unity commutation matrix.

Two graded algebras share one parameter object: the ambient algebra "B" with
only the commutation relations x_i x_j = zeta_n^(e_ij) x_j x_i, and the
quotient algebra "A" obtained by additionally imposing
x_1^n + x_2^n + ... + x_n^n = 0.

Phase convention, fixed once: in x_i * x_j with i the LEFT factor, the swap
produces the phase exponent e_ij, so a word is normal ordered by repeatedly
rewriting descents (left letter greater than right letter) and accumulating
e_(left,right) per swap.

Basis conventions: algebra B has the PBW basis x^a over all multidegrees a;
each x_k^n is central (the n-th power of any commutation phase is 1), so
x_n^n may be rewritten as -(x_1^n + ... + x_(n-1)^n) and algebra A has the
PBW basis restricted to a_n < n.  Polynomials tagged "A" are kept in that
reduced form at all times.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import factorial, prod
from operator import add, mul, sub
from typing import Iterable, Iterator, Optional, Sequence

from .cyclo import CycloField, Cyclotomic

__all__ = [
    "ALGEBRA_A",
    "ALGEBRA_B",
    "AlgebraMismatchError",
    "DiagAutomorphism",
    "ParamsError",
    "QuantumParams",
    "SkewPoly",
    "commutative_params",
    "fermat_element",
    "from_twist",
    "graded_dimension",
    "is_central",
    "iter_multidegrees",
    "multiply",
    "normal_order",
    "normalizing_automorphism",
    "product_of_generators",
    "validate_params",
]

ALGEBRA_B = "B"
ALGEBRA_A = "A"

Multidegree = tuple[int, ...]
Word = tuple[int, ...]


class ParamsError(ValueError):
    """Invalid commutation-exponent data."""


class AlgebraMismatchError(ValueError):
    """Raised when combining polynomials over different algebras."""


@dataclass(frozen=True)
class QuantumParams:
    """Commutation exponents e_ij in Z/n with zero diagonal and e_ij + e_ji = 0.

    The commutation scalars themselves are q_ij = zeta_n^(e_ij).  Build
    instances through :func:`validate_params`, :func:`from_twist` or
    :func:`commutative_params`; direct construction skips validation.
    """

    n: int
    exps: tuple[tuple[int, ...], ...]

    def exponent(self, i: int, j: int) -> int:
        """e_ij for 1-based generator indices."""
        self._check_index(i)
        self._check_index(j)
        return self.exps[i - 1][j - 1]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"generator index {i} out of range 1..{self.n}")

    def to_json(self) -> dict:
        return {"n": self.n, "exponents": [list(row) for row in self.exps]}


def validate_params(n: int, exponents: Sequence[Sequence[int]]) -> QuantumParams:
    """Check and normalize an n-by-n exponent matrix.

    Entries are reduced mod n.  Errors name the offending entry, e.g. a
    diagonal e_ii != 0 or a pair with e_ij + e_ji != 0 mod n.
    """
    if not isinstance(n, int) or n < 2:
        raise ParamsError(f"n must be an integer >= 2, got {n!r}")
    rows = list(exponents)
    if len(rows) != n:
        raise ParamsError(f"expected {n} rows, got {len(rows)}")
    mat: list[tuple[int, ...]] = []
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != n:
            raise ParamsError(f"row {i + 1}: expected {n} entries, got {len(row)}")
        for j, e in enumerate(row):
            if not isinstance(e, int) or isinstance(e, bool):
                raise ParamsError(f"entry ({i + 1},{j + 1}): expected integer, got {e!r}")
        mat.append(tuple(e % n for e in row))
    for i in range(n):
        if mat[i][i] != 0:
            raise ParamsError(f"diagonal entry ({i + 1},{i + 1}) must be 0 mod {n}")
        for j in range(i + 1, n):
            if (mat[i][j] + mat[j][i]) % n != 0:
                raise ParamsError(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) must sum to "
                    f"0 mod {n}; got {mat[i][j]} + {mat[j][i]}"
                )
    return QuantumParams(n, tuple(mat))


def from_twist(twist: Sequence[int]) -> QuantumParams:
    """Parameters with e_ij = d_i - d_j for a diagonal twist vector d."""
    d = list(twist)
    n = len(d)
    if n < 2:
        raise ParamsError(f"twist vector needs length >= 2, got {n}")
    for k, v in enumerate(d):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParamsError(f"twist[{k}]: expected integer, got {v!r}")
    mat = tuple(
        tuple((d[i] - d[j]) % n for j in range(n)) for i in range(n)
    )
    return QuantumParams(n, mat)


def commutative_params(n: int) -> QuantumParams:
    """All commutation exponents zero."""
    if not isinstance(n, int) or n < 2:
        raise ParamsError(f"n must be an integer >= 2, got {n!r}")
    return QuantumParams(n, tuple((0,) * n for _ in range(n)))


def _check_algebra(algebra: str) -> None:
    if algebra not in (ALGEBRA_A, ALGEBRA_B):
        raise ValueError(f"algebra tag must be 'A' or 'B', got {algebra!r}")


def _runs_phase(params: QuantumParams, runs) -> tuple[int, Multidegree]:
    # Phase exponent (mod n) and multidegree of a word given as (generator,
    # power) runs, so huge powers never expand into letters: each run of x_a
    # crosses each later run of x_b with a > b once per pair of letters.
    exps = params.exps
    phase = 0
    degs = [0] * params.n
    for pos, (a, pa) in enumerate(runs):
        degs[a - 1] += pa
        row = exps[a - 1]
        for b, pb in runs[pos + 1 :]:
            if a > b:
                phase += pa * pb * row[b - 1]
    return phase % params.n, tuple(degs)


def normal_order(params: QuantumParams, word: Iterable[int]) -> tuple[int, Multidegree]:
    """Phase exponent (mod n) and multidegree of a word in the generators.

    The word is a sequence of 1-based generator indices; the returned phase p
    means  word = zeta_n^p * x^multidegree  in algebra B.
    """
    w = tuple(word)
    n = params.n
    for a in w:
        if not isinstance(a, int) or isinstance(a, bool) or not 1 <= a <= n:
            raise ValueError(f"word letter {a!r} out of range 1..{n}")
    return _runs_phase(params, [(a, 1) for a in w])


def _reduce_pairs_a(n: int, pairs) -> Iterator[tuple[Multidegree, Cyclotomic]]:
    # In A, x_n^n = -(x_1^n + ... + x_(n-1)^n) and every x_k^n is central, so
    # x^a with a_n = q*n + r is, with no phases, the sum over compositions k
    # of q of (-1)^q * multinomial(q; k) * x^(a + n*k) with x_n^r last.
    for md, c in pairs:
        q, r = divmod(md[n - 1], n)
        if not q:
            yield md, c
            continue
        for ks in iter_multidegrees(n - 1, q):
            m = factorial(q) // prod(factorial(k) for k in ks) * (-1) ** q
            coeff = c if m == 1 else -c if m == -1 else c * m
            yield tuple(e + n * k for e, k in zip(md, ks)) + (r,), coeff


def _sum_terms(pairs) -> dict:
    """The stored form of (key, coefficient) pairs: coefficients of equal keys
    summed, zero sums dropped.  SkewPoly and ExtElement keep their terms so."""
    out: dict = {}
    for key, c in pairs:
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return {key: c for key, c in out.items() if not c.is_zero()}


def _build(params: QuantumParams, algebra: str, field: CycloField, pairs) -> "SkewPoly":
    # A result the package computed from checked operands: only the normal
    # form is applied, the public constructor's checks are not repeated.
    poly = object.__new__(SkewPoly)
    poly._set(params, algebra, field, pairs)
    return poly


class SkewPoly:
    """A polynomial in normal-ordered PBW form over a cyclotomic field.

    Terms map multidegrees to nonzero coefficients.  The coefficient field
    must contain the n-th roots of unity (conductor divisible by n); phases
    from reordering land in it via zeta_n = zeta_cond^(cond/n).
    """

    __slots__ = ("params", "algebra", "field", "_terms")

    def __init__(
        self,
        params: QuantumParams,
        algebra: str,
        terms: dict | None = None,
        field: CycloField | None = None,
    ):
        _check_algebra(algebra)
        if field is None:
            field = CycloField(params.n)
        elif field.conductor % params.n != 0:
            raise ValueError(
                f"conductor {field.conductor} does not contain the n-th roots of unity"
            )
        pairs = []
        for md, c in (terms or {}).items():
            md = tuple(md)
            if len(md) != params.n or any(e < 0 for e in md):
                raise ValueError(f"bad multidegree {md}")
            if not isinstance(c, Cyclotomic):
                c = field.from_rational(c)
            elif c.field is not field:
                raise ValueError("coefficient from a different field")
            pairs.append((md, c))
        self._set(params, algebra, field, pairs)

    def _set(self, params, algebra, field, pairs) -> None:
        # The normal form: in A the x_n^n rewrite first, then equal
        # multidegrees summed and zeros dropped.
        self.params = params
        self.algebra = algebra
        self.field = field
        if algebra == ALGEBRA_A:
            pairs = _reduce_pairs_a(params.n, pairs)
        self._terms = _sum_terms(pairs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, params, algebra=ALGEBRA_B, field=None) -> "SkewPoly":
        return cls(params, algebra, {}, field)

    @classmethod
    def one(cls, params, algebra=ALGEBRA_B, field=None) -> "SkewPoly":
        field = field if field is not None else CycloField(params.n)
        return cls.monomial(params, (0,) * params.n, field.one(), algebra, field)

    @classmethod
    def generator(cls, params, i: int, algebra=ALGEBRA_B, field=None) -> "SkewPoly":
        params._check_index(i)
        md = [0] * params.n
        md[i - 1] = 1
        field = field if field is not None else CycloField(params.n)
        return cls.monomial(params, md, field.one(), algebra, field)

    @classmethod
    def monomial(cls, params, multidegree, coeff=1, algebra=ALGEBRA_B, field=None) -> "SkewPoly":
        return cls(params, algebra, {tuple(multidegree): coeff}, field)

    # -- inspection -------------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _check_compatible(self, other: "SkewPoly") -> None:
        if (
            self.params != other.params
            or self.algebra != other.algebra
            or self.field is not other.field
        ):
            raise AlgebraMismatchError(
                "operands live in different algebras or coefficient fields"
            )

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        self._check_compatible(other)
        pairs = chain(self._terms.items(), other._terms.items())
        return _build(self.params, self.algebra, self.field, pairs)

    def __neg__(self):
        pairs = ((md, -c) for md, c in self._terms.items())
        return _build(self.params, self.algebra, self.field, pairs)

    def __sub__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "SkewPoly":
        if isinstance(scalar, Cyclotomic):
            if scalar.field is not self.field:
                raise AlgebraMismatchError("scalar from a different field")
        else:
            scalar = self.field.from_rational(scalar)
        pairs = ((md, c * scalar) for md, c in self._terms.items())
        return _build(self.params, self.algebra, self.field, pairs)

    def __mul__(self, other):
        if isinstance(other, SkewPoly):
            return multiply(self, other)
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return (
            self.params == other.params
            and self.algebra == other.algebra
            and self.field is other.field
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.params, self.algebra, self.field.conductor, frozenset(self._terms.items()))
        )

    def __repr__(self) -> str:
        try:
            from .expr import print_poly

            return f"<{self.algebra}_{self.params.n} poly: {print_poly(self)}>"
        except Exception:
            return f"<{self.algebra}_{self.params.n} poly, {len(self._terms)} terms>"

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "n": self.params.n,
            "conductor": self.field.conductor,
            "terms": [
                {"multidegree": list(md), "coeff": c.to_json()}
                for md, c in sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            ],
        }


def multiply(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Product in the common algebra of f and g."""
    if not isinstance(f, SkewPoly) or not isinstance(g, SkewPoly):
        raise TypeError("multiply expects two SkewPoly operands")
    f._check_compatible(g)
    params = f.params
    field = f.field
    n = params.n
    scale = field.conductor // n
    # x^a x^b = zeta_n^(a . v_b) x^(a+b) with v_b[i] = sum_(j<i) e_ij b_j: each
    # x_i of x^a crosses the x_j of x^b with j < i once per pair of letters
    right = [
        (b, [sum(map(mul, row[:i], b)) % n for i, row in enumerate(params.exps)], cb)
        for b, cb in g._terms.items()
    ]
    pairs = []
    for a, ca in f._terms.items():
        for b, vb, cb in right:
            coeff = ca * cb
            ph = sum(map(mul, a, vb)) % n
            if ph:
                coeff = coeff.mul_zeta(scale * ph)
            pairs.append((tuple(map(add, a, b)), coeff))
    return _build(params, f.algebra, field, pairs)


def fermat_element(params: QuantumParams, algebra: str = ALGEBRA_B, field=None) -> SkewPoly:
    """x_1^n + x_2^n + ... + x_n^n (the element that cuts B down to A)."""
    n = params.n
    terms = {}
    for k in range(n):
        md = [0] * n
        md[k] = n
        terms[tuple(md)] = 1
    return SkewPoly(params, algebra, terms, field)


def product_of_generators(params: QuantumParams, algebra: str = ALGEBRA_B, field=None) -> SkewPoly:
    """The ordered product x_1 x_2 ... x_n."""
    return SkewPoly.monomial(params, (1,) * params.n, 1, algebra, field)


def _column_phases(params: QuantumParams, multidegrees) -> Iterator[tuple[int, ...]]:
    """The phase vector p(a), p_j(a) = sum_i a_i e_ij mod n, of each x^a.

    x^a x_j = zeta_n^(p_j(a)) x_j x^a, so for f = sum_a c_a x^a and a scalar s,
    f x_j - s x_j f = x_j * sum_a c_a (zeta_n^(p_j(a)) - s) x^a.  Left
    multiplication by x_j is injective, so this vanishes iff every term has
    zeta_n^(p_j(a)) = s: in B, distinct a give distinct a + e_j.  In A
    nothing reduces for j != n.  For j = n only the terms with a_n = n - 1
    reduce, and their part becomes D(y) * (y_1^n + ... + y_(n-1)^n) in the
    commutative ring of x_1, ..., x_(n-1), apart from the unreduced terms
    (which keep a last exponent >= 1).  A product of nonzero polynomials is
    nonzero, so nothing cancels.  Centrality and normalizers are therefore
    read off these vectors alone.
    """
    n = params.n
    cols = tuple(zip(*params.exps))
    return (tuple(sum(a * e for a, e in zip(md, col)) % n for col in cols) for md in multidegrees)


def is_central(poly: SkewPoly) -> bool:
    """Whether the polynomial commutes with every generator: every term has
    all-zero column phases (see _column_phases)."""
    return not any(any(p) for p in _column_phases(poly.params, poly._terms))


@dataclass(frozen=True)
class DiagAutomorphism:
    """A diagonal graded automorphism x_j -> scalar_j * x_j."""

    params: QuantumParams
    scalars: tuple[Cyclotomic, ...]

    def __post_init__(self):
        if len(self.scalars) != self.params.n:
            raise ValueError("one scalar per generator required")
        if any(s.is_zero() for s in self.scalars):
            raise ValueError("automorphism scalars must be nonzero")

    def to_json(self) -> dict:
        return {"scalars": [s.to_json() for s in self.scalars]}


def normalizing_automorphism(poly: SkewPoly) -> Optional[DiagAutomorphism]:
    """The diagonal automorphism nu with  poly * x_j = nu(x_j) * poly,  if any.

    It exists iff every term has the same column phases p (see
    _column_phases), and then nu(x_j) = zeta_n^(p_j) x_j.  Returns None
    otherwise.
    """
    if poly.is_zero():
        raise ValueError("the zero polynomial normalizes trivially; no unique automorphism")
    phases = set(_column_phases(poly.params, poly._terms))
    if len(phases) != 1:
        return None
    field = poly.field
    scale = field.conductor // poly.params.n
    return DiagAutomorphism(poly.params, tuple(field.zeta(scale * p) for p in phases.pop()))


def iter_multidegrees(n: int, total: int, last_cap: int | None = None) -> Iterator[Multidegree]:
    """All length-n multidegrees of the given total degree, lexicographically.

    With last_cap set, the final entry is restricted to be < last_cap.
    Stars and bars without recursion: the partial sums a_1, a_1 + a_2, ...
    of the first n - 1 entries run over the non-decreasing sequences in
    0..total, in lexicographic order, and the entries are their differences.
    """
    if n < 1 or total < 0:
        return
    last = (total,)
    for partial in combinations_with_replacement(range(total + 1), n - 1):
        md = tuple(map(sub, partial + last, (0, *partial)))
        if last_cap is None or md[-1] < last_cap:
            yield md


def graded_dimension(params: QuantumParams, algebra: str, degree: int) -> int:
    """Dimension of the degree-d graded piece, by counting PBW basis monomials."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    _check_algebra(algebra)
    cap = params.n if algebra == ALGEBRA_A else None
    return sum(1 for _ in iter_multidegrees(params.n, degree, cap))
