"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are coordinate vectors of arbitrary-precision rationals over the
power basis 1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th cyclotomic
polynomial.  Reduction keeps representations unique, so equality and zero
tests are exact coordinate comparisons.  No floating point enters any
computation.

The roots of unity that ``CycloField.zeta`` interns also carry their exponent.
Products, quotients, inverses and powers among them are additions of
exponents mod m, and a general element times a root is a cyclic shift of its
coordinates followed by one reduction pass (``Cyclotomic.mul_zeta``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

__all__ = [
    "CycloField",
    "Cyclotomic",
    "FieldMismatchError",
    "cyclotomic_polynomial",
]

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


class CycloField:
    """The field Q(zeta_m), with zeta_m a fixed primitive m-th root of unity.

    Instances are interned by conductor, so identity comparison is safe and
    the reduction table is built once.
    """

    __slots__ = ("conductor", "modulus", "degree", "_powtable", "_roots")

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
        return Cyclotomic(self, (_ZERO,) * self.degree)

    def one(self) -> "Cyclotomic":
        return self.zeta(0)

    def from_rational(self, value: Scalar) -> "Cyclotomic":
        coords = [_ZERO] * self.degree
        coords[0] = Fraction(value)
        return Cyclotomic(self, tuple(coords))

    def element(self, coords) -> "Cyclotomic":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError(
                f"expected {self.degree} coordinates for conductor "
                f"{self.conductor}, got {len(coords)}"
            )
        return Cyclotomic(self, coords)

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
            coords = [_ZERO] * self.degree
            coords[e] = _ONE
        else:
            coords = [Fraction(c) for c in self._powtable[e - self.degree]]
        val = Cyclotomic(self, tuple(coords), e)
        self._roots[e] = val
        return val

    # -- arithmetic kernel ---------------------------------------------------

    def _mul_coords(self, a, b):
        deg = self.degree
        prod = [_ZERO] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        res = list(prod[:deg])
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


def _trim(poly: list[Fraction]) -> list[Fraction]:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    inv_lead = 1 / b[-1]
    for k in range(len(q) - 1, -1, -1):
        if k + len(b) - 1 < len(r) and r[k + len(b) - 1]:
            c = r[k + len(b) - 1] * inv_lead
            q[k] = c
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
    return q, _trim(r)


class Cyclotomic:
    """An element of a :class:`CycloField`, stored in reduced power-basis form.

    ``root_exp`` is the exponent k when the element is the interned zeta_m^k,
    and None otherwise.  An untagged element that happens to equal a root
    takes the general arithmetic paths and gives the same results.
    """

    __slots__ = ("field", "coords", "root_exp")

    def __init__(
        self,
        field: CycloField,
        coords: tuple[Fraction, ...],
        root_exp: int | None = None,
    ):
        self.field = field
        self.coords = coords
        self.root_exp = root_exp

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
        return not any(self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

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
        return Cyclotomic(self.field, self.field._mul_coords(self.coords, o.coords))

    __rmul__ = __mul__

    def mul_zeta(self, k: int) -> "Cyclotomic":
        """self * zeta_m^k: a cyclic shift in Q[t]/(t^m - 1), then one
        reduction pass that rewrites each t^j with j >= degree."""
        field = self.field
        if self.root_exp is not None:
            return field.zeta(self.root_exp + k)
        m, deg = field.conductor, field.degree
        k %= m
        if not k:
            return self
        res = [_ZERO] * deg
        high = []
        for i, c in enumerate(self.coords):
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
        return Cyclotomic(field, tuple(res))

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm; the
        inverse of an interned root is the root with the negated exponent."""
        if self.root_exp is not None:
            return self.field.zeta(-self.root_exp)
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = [Fraction(c) for c in self.field.modulus]
        a = _trim(list(self.coords))
        # Extended Euclid tracking the coefficient of `a` only; the modulus is
        # irreducible, so the gcd is a nonzero constant.
        r0, r1 = phi, a
        s0: list[Fraction] = []
        s1: list[Fraction] = [_ONE]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            # s_new = s0 - q*s1
            prod = [_ZERO] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        prod[i + j] += qc * sc
            new = [_ZERO] * max(len(s0), len(prod))
            for i, c in enumerate(s0):
                new[i] += c
            for i, c in enumerate(prod):
                new[i] -= c
            s0, s1 = s1, _trim(new)
        g = r0[0]
        inv = [c / g for c in s0]
        inv += [_ZERO] * (self.field.degree - len(inv))
        return Cyclotomic(self.field, tuple(inv[: self.field.degree]))

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
        return self.field is other.field and self.coords == other.coords

    def __hash__(self) -> int:
        # A rational element equals its int or Fraction value, so it hashes
        # like that value.
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.field.conductor, self.coords))

    # -- conversions -----------------------------------------------------------

    def embed(self, target: CycloField) -> "Cyclotomic":
        """Image under Q(zeta_m) -> Q(zeta_M) for m dividing M."""
        if target is self.field:
            return self
        m, big = self.field.conductor, target.conductor
        if big % m != 0:
            raise FieldMismatchError(
                f"no embedding of conductor {m} into conductor {big}"
            )
        step = big // m
        out = target.zero()
        for i, c in enumerate(self.coords):
            if c:
                out = out + target.zeta(step * i) * c
        return out

    def to_json(self) -> dict:
        return {
            "conductor": self.field.conductor,
            "coords": [str(c) for c in self.coords],
        }

    def basis_string(self) -> str:
        """Human-readable form using w for the primitive root, e.g. '1 - 2*w^3'."""
        parts = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "w" if k == 1 else f"w^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self.basis_string()} in Q(zeta_{self.field.conductor})>"

