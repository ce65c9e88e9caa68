"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is a vector of integer numerators over one positive common
denominator, in the power basis 1, zeta, ..., zeta^(phi(m)-1) reduced modulo
the m-th cyclotomic polynomial; this is the layout of FLINT's ``fmpq_poly``.
The form is canonical: gcd(den, *nums) = 1, and zero is (0, ..., 0)/1.  So
equality and zero tests compare integers.  Every arithmetic path works on the
integer numerators and normalizes only its result, with one gcd.  The inverse
solves M(a) x = e_0, where column k of M(a) holds the coordinates of
a * zeta^k, by Bareiss's fraction-free elimination over the integers.
``Fraction`` appears only where values enter (``from_rational``, ``element``)
and in the read-only ``coords``.  No floating point enters any computation.

The roots of unity that ``CycloField.zeta`` interns also carry their exponent.
Products, quotients, inverses and powers among them are additions of
exponents mod m, and a general element times a root is a cyclic shift of its
numerators followed by one reduction pass (``Cyclotomic.mul_zeta``).  That
map is unimodular on Z[zeta], so it needs no gcd.  A root's JSON coordinate
strings are made once per field and exponent, and copied on each
serialization.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

__all__ = [
    "CycloField",
    "Cyclotomic",
    "FieldMismatchError",
    "cyclotomic_polynomial",
]

Scalar = Union[int, Fraction]


class FieldMismatchError(ValueError):
    """Raised when combining elements of different cyclotomic fields."""


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials, divisor monic; coefficients ascending.
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                rem[k + i] -= c * d
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending degree.

    Computed exactly as (t^m - 1) divided by the product of the polynomials
    for every proper divisor of m.
    """
    if m < 1:
        raise ValueError(f"conductor must be >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num = _exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


def _fraction_str(num: int, den: int) -> str:
    # str(Fraction(num, den)) for den > 0, without building the Fraction.
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


class CycloField:
    """The field Q(zeta_m), with zeta_m a fixed primitive m-th root of unity.

    Instances are interned by conductor, so identity comparison is safe and
    the reduction table is built once.  ``_roots`` holds the interned roots
    by exponent, and ``_root_coords`` their JSON coordinate strings, filled
    the first time each root is serialized; both have at most m entries.
    """

    __slots__ = ("conductor", "modulus", "degree", "_powtable", "_roots", "_root_coords")

    _interned: dict[int, "CycloField"] = {}

    def __new__(cls, conductor: int) -> "CycloField":
        cached = cls._interned.get(conductor)
        if cached is not None:
            return cached
        if not isinstance(conductor, int) or conductor < 1:
            raise ValueError(f"conductor must be a positive integer, got {conductor!r}")
        self = super().__new__(cls)
        self.conductor = conductor
        self.modulus = cyclotomic_polynomial(conductor)
        self.degree = len(self.modulus) - 1
        self._powtable = self._build_powtable()
        self._roots = {}
        self._root_coords = {}
        cls._interned[conductor] = self
        return self

    def __reduce__(self):
        return (CycloField, (self.conductor,))

    def _build_powtable(self) -> tuple[tuple[int, ...], ...]:
        # Row k holds the basis coordinates of t^(degree+k); products of two
        # reduced elements need rows up to t^(2*degree-2), and shifts by a
        # root of unity rows up to t^(m-1).
        deg = self.degree
        base = tuple(-c for c in self.modulus[:deg])
        rows = [base]
        for _ in range(max(deg - 1, self.conductor - deg) - 1):
            prev = rows[-1]
            top = prev[deg - 1]
            row = [top * base[0]]
            for i in range(1, deg):
                row.append(prev[i - 1] + top * base[i])
            rows.append(tuple(row))
        return tuple(rows)

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Cyclotomic":
        return Cyclotomic(self, (0,) * self.degree)

    def one(self) -> "Cyclotomic":
        return self.zeta(0)

    def from_rational(self, value: Scalar, den: int = 1) -> "Cyclotomic":
        """The rational value/den, for a positive integer den."""
        if type(value) is int:
            g = gcd(value, den)
            num, den = value // g, den // g
        else:
            value = Fraction(value, den)
            num, den = value.numerator, value.denominator
        return Cyclotomic(self, (num,) + (0,) * (self.degree - 1), den)

    def element(self, coords) -> "Cyclotomic":
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError(
                f"expected {self.degree} coordinates for conductor "
                f"{self.conductor}, got {len(coords)}"
            )
        den = lcm(*(c.denominator for c in coords))
        return _normal(self, [c.numerator * (den // c.denominator) for c in coords], den)

    def zeta(self, exponent: int = 1) -> "Cyclotomic":
        """zeta_m raised to the given exponent (exponent taken mod m).

        The result is interned and tagged with its exponent, which routes
        arithmetic with it through the root-of-unity fast paths.
        """
        e = exponent % self.conductor
        cached = self._roots.get(e)
        if cached is not None:
            return cached
        if e < self.degree:
            nums = [0] * self.degree
            nums[e] = 1
        else:
            nums = self._powtable[e - self.degree]
        val = Cyclotomic(self, tuple(nums), 1, e)
        self._roots[e] = val
        return val

    # -- arithmetic kernel ---------------------------------------------------

    def _mul_coords(self, a, b):
        # Product of two coordinate vectors reduced modulo Phi_m, with no
        # normalization: integer numerators in, integer numerators out.
        deg = self.degree
        prod = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        res = prod[:deg]
        table = self._powtable
        for k in range(deg, len(prod)):
            c = prod[k]
            if c:
                row = table[k - deg]
                for i, r in enumerate(row):
                    if r:
                        res[i] += c * r
        return tuple(res)

    def __repr__(self) -> str:
        return f"CycloField({self.conductor})"


def _normal(field: CycloField, nums, den: int) -> "Cyclotomic":
    # The canonical form of nums/den for den > 0: one gcd over everything.
    g = gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return Cyclotomic(field, tuple(nums), den)


class Cyclotomic:
    """An element of a :class:`CycloField`: integer numerators ``nums`` over
    the positive common denominator ``den``, in reduced power-basis form with
    gcd(den, *nums) = 1.

    ``root_exp`` is the exponent k when the element is the interned zeta_m^k,
    and None otherwise.  An untagged element that happens to equal a root
    takes the general arithmetic paths and gives the same results.
    """

    __slots__ = ("field", "nums", "den", "root_exp")

    def __init__(
        self,
        field: CycloField,
        nums: tuple[int, ...],
        den: int = 1,
        root_exp: int | None = None,
    ):
        self.field = field
        self.nums = nums
        self.den = den
        self.root_exp = root_exp

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (read-only)."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            if other.field is not self.field:
                raise FieldMismatchError(
                    f"cannot combine elements of Q(zeta_{self.field.conductor}) "
                    f"and Q(zeta_{other.field.conductor})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        if d1 == d2:
            nums = [a + b for a, b in zip(self.nums, o.nums)]
            if d1 == 1:
                return Cyclotomic(self.field, tuple(nums))
            return _normal(self.field, nums, d1)
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        return _normal(self.field, [a * s1 + b * s2 for a, b in zip(self.nums, o.nums)], d1 * s1)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.root_exp is not None:
            return self.mul_zeta(o.root_exp)
        if self.root_exp is not None:
            return o.mul_zeta(self.root_exp)
        nums = self.field._mul_coords(self.nums, o.nums)
        den = self.den * o.den
        if den == 1:
            return Cyclotomic(self.field, nums)
        return _normal(self.field, nums, den)

    __rmul__ = __mul__

    def mul_zeta(self, k: int) -> "Cyclotomic":
        """self * zeta_m^k: a cyclic shift in Z[t]/(t^m - 1), then one
        reduction pass that rewrites each t^j with j >= degree."""
        field = self.field
        if self.root_exp is not None:
            return field.zeta(self.root_exp + k)
        m, deg = field.conductor, field.degree
        k %= m
        if not k:
            return self
        res = [0] * deg
        high = []
        for i, c in enumerate(self.nums):
            if c:
                j = (i + k) % m
                if j < deg:
                    res[j] = c
                else:
                    high.append((j - deg, c))
        table = field._powtable
        for row, c in high:
            for i, r in enumerate(table[row]):
                if r:
                    res[i] += c * r
        return Cyclotomic(field, tuple(res), self.den)

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse by Bareiss elimination on M(a) x = e_0; the
        inverse of an interned root is the root with the negated exponent."""
        if self.root_exp is not None:
            return self.field.zeta(-self.root_exp)
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        field = self.field
        deg = field.degree
        base = field._powtable[0]
        # Columns a*t^k of M(a) for the numerator vector a, each the previous
        # one times t; rows are augmented with e_0.
        col = list(self.nums)
        cols = [col]
        for _ in range(deg - 1):
            top = col[-1]
            col = [top * base[0]] + [col[i - 1] + top * base[i] for i in range(1, deg)]
            cols.append(col)
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(deg)]
        # Fraction-free forward elimination: after step k every entry below
        # row k is a (k+2)-minor of the matrix, so each division is exact.
        prev = 1
        for k in range(deg):
            if not rows[k][k]:
                swap = next(i for i in range(k + 1, deg) if rows[i][k])
                rows[k], rows[swap] = rows[swap], rows[k]
            pivot_row = rows[k]
            p = pivot_row[k]
            for i in range(k + 1, deg):
                row = rows[i]
                f = row[k]
                for j in range(k + 1, deg + 1):
                    row[j] = (p * row[j] - f * pivot_row[j]) // prev
            prev = p
        # Back substitution for y = D*x, D the last pivot (+-det M); y is
        # integral by Cramer's rule, so each division is exact too.
        y = [0] * deg
        for i in range(deg - 1, -1, -1):
            row = rows[i]
            s = prev * row[deg] - sum(row[j] * y[j] for j in range(i + 1, deg))
            y[i] = s // row[i]
        # a = nums/den, so a^-1 = den * y / D.
        if prev < 0:
            prev = -prev
            y = [-c for c in y]
        return _normal(field, [self.den * c for c in y], prev)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.root_exp is not None:
            return self.mul_zeta(-o.root_exp)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if self.root_exp is not None:
            return self.field.zeta(self.root_exp * exponent)
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = self.field.one()
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (
            self.field is other.field
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self) -> int:
        # A rational element equals its int or Fraction value, so it hashes
        # like that value.
        if not any(self.nums[1:]):
            num = self.nums[0]
            return hash(num) if self.den == 1 else hash(Fraction(num, self.den))
        return hash((self.field.conductor, self.nums, self.den))

    # -- conversions -----------------------------------------------------------

    def to_json(self) -> dict:
        """``{"conductor": m, "coords": [...]}`` with each coordinate a rational
        string, as ``str(Fraction)`` spells it.  A root zeta_m^k copies its
        strings from the field, which makes them from the root's own
        numerators the first time a root with exponent k is serialized; the
        dict and the list are fresh on every call."""
        field = self.field
        e = self.root_exp
        if e is not None:
            coords = field._root_coords.get(e)
            if coords is None:
                coords = field._root_coords[e] = tuple(map(str, self.nums))
            return {"conductor": field.conductor, "coords": list(coords)}
        den = self.den
        if den == 1:
            coords = [str(c) for c in self.nums]
        else:
            coords = [_fraction_str(c, den) for c in self.nums]
        return {"conductor": field.conductor, "coords": coords}

    def basis_string(self) -> str:
        """Human-readable form using w for the primitive root, e.g. '1 - 2*w^3'."""
        parts = []
        for k, c in enumerate(self.nums):
            if not c:
                continue
            mag = _fraction_str(abs(c), self.den)
            if k == 0:
                body = mag
            else:
                power = "w" if k == 1 else f"w^{k}"
                body = power if mag == "1" else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self.basis_string()} in Q(zeta_{self.field.conductor})>"
