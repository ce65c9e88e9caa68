"""Parser and pretty-printer for skew polynomials, parser for parameter documents.

Polynomial grammar (a strict superset of the canonical printed form, so that
every print round-trips):

    poly       := ['-'] term (('+' | '-') term)*
    term       := catom '*' factors | factors | catom
    factors    := factor ('*' factor)*
    factor     := 'x' INT ['^' INT]            -- generator power, power >= 1
    coeff_expr := ['-'] cterm (('+' | '-') cterm)*
    cterm      := catom ('*' catom)*
    catom      := rational | wpow | '(' coeff_expr ')' ['^' INT]
    rational   := INT ['/' INT]
    wpow       := 'w' ['^' INT]

'w' denotes the fixed primitive root of unity of the ambient conductor.  '*'
is mandatory between all factors; juxtaposition never multiplies.  Factor
order is preserved exactly as written -- the word is the noncommutative
source of truth and is only normal-ordered during lowering.  Coefficients
are evaluated in Q(zeta_conductor) as they are read.

Parameter documents are JSON with "n" plus exactly one of "exponents" (full
matrix), "twist" (vector d with e_ij = d_i - d_j), or "entries" (sparse list
of {i, j, e} upper-triangle assignments).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .cyclo import CycloField, Cyclotomic, _fraction_str
from .qalgebra import (
    ALGEBRA_B,
    QuantumParams,
    SkewPoly,
    _build,
    _check_algebra,
    _runs_phase,
    from_twist,
    validate_params,
)

__all__ = [
    "ParamsDocError",
    "ParseError",
    "PolyAst",
    "PolyTerm",
    "Factor",
    "lower",
    "parse_params",
    "parse_poly",
    "print_poly",
]


class ParseError(ValueError):
    """Syntax or validation failure, carrying a source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class ParamsDocError(ValueError):
    """Schema violation in a parameter document; messages carry field paths."""


# -- polynomial AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    gen: int
    power: int


@dataclass(frozen=True)
class PolyTerm:
    coeff: Cyclotomic
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class PolyAst:
    """Parsed polynomial: a sum of (coefficient, factor word) terms, each
    coefficient already evaluated and carrying the term's sign."""

    n: int
    conductor: int
    terms: tuple[PolyTerm, ...]

    def __mul__(self, other: "PolyAst") -> "PolyAst":
        """AST-level product: concatenate factor words term by term.

        Factor order is preserved, so lowering the product agrees with
        multiplying the lowered polynomials.
        """
        if not isinstance(other, PolyAst):
            return NotImplemented
        if self.n != other.n or self.conductor != other.conductor:
            raise ValueError("operands parsed against different contexts")
        out = tuple(
            PolyTerm(a.coeff * b.coeff, a.factors + b.factors)
            for a in self.terms
            for b in other.terms
        )
        return PolyAst(self.n, self.conductor, out)


# -- tokenizer ------------------------------------------------------------------------

_DIGITS = "0123456789"
_SYMBOLS = {
    "w": "W",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        pos = i
        if ch in _DIGITS:
            j = i
            while j < size and text[j] in _DIGITS:
                j += 1
            tokens.append(("INT", int(text[i:j]), pos))
            i = j
        elif ch == "x":
            j = i + 1
            while j < size and text[j] in _DIGITS:
                j += 1
            if j == i + 1:
                raise ParseError("expected generator index after 'x'", pos)
            tokens.append(("GEN", int(text[i + 1 : j]), pos))
            i = j
        elif ch in _SYMBOLS:
            tokens.append((_SYMBOLS[ch], None, pos))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("EOF", None, size))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int, conductor: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.conductor = conductor
        self.field = CycloField(conductor)

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, object, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    # poly := ['-'] term (('+' | '-') term)*
    def parse(self) -> PolyAst:
        if self.peek()[0] == "EOF":
            raise ParseError("empty input", self.peek()[2])
        terms = []
        negated = False
        if self.peek()[0] == "MINUS":
            self.next()
            negated = True
        terms.append(self.term(negated))
        while True:
            kind, _, _ = self.peek()
            if kind == "PLUS":
                self.next()
                terms.append(self.term(False))
            elif kind == "MINUS":
                self.next()
                terms.append(self.term(True))
            elif kind == "EOF":
                break
            else:
                raise ParseError("expected '+', '-', or end of input", self.peek()[2])
        return PolyAst(self.n, self.conductor, tuple(terms))

    def term(self, negated: bool) -> PolyTerm:
        if self.peek()[0] == "GEN":
            coeff, factors = self.field.one(), self.factors()
        else:
            coeff, factors = self.catom("coefficient or generator"), ()
            if self.peek()[0] == "STAR":
                self.next()
                factors = self.factors()
        return PolyTerm(-coeff if negated else coeff, factors)

    def factors(self) -> tuple[Factor, ...]:
        out = [self.factor()]
        while self.peek()[0] == "STAR":
            self.next()
            out.append(self.factor())
        return tuple(out)

    def factor(self) -> Factor:
        kind, value, pos = self.next()
        if kind != "GEN":
            raise ParseError("expected generator", pos)
        idx = int(value)
        if not 1 <= idx <= self.n:
            raise ParseError(f"unknown generator x{idx} (n={self.n})", pos)
        power = 1
        if self.peek()[0] == "CARET":
            self.next()
            ptok = self.expect("INT", "integer exponent")
            power = int(ptok[1])
            if power < 1:
                raise ParseError("generator power must be >= 1", ptok[2])
        return Factor(idx, power)

    def rational(self) -> Cyclotomic:
        tok = self.expect("INT", "integer")
        num = int(tok[1])
        if self.peek()[0] == "SLASH":
            self.next()
            dtok = self.expect("INT", "denominator")
            den = int(dtok[1])
            if den == 0:
                raise ParseError("zero denominator", dtok[2])
            return self.field.from_rational(Fraction(num, den))
        return self.field.from_rational(num)

    def wpow(self) -> Cyclotomic:
        self.expect("W", "'w'")
        power = 1
        if self.peek()[0] == "CARET":
            self.next()
            ptok = self.expect("INT", "integer exponent")
            power = int(ptok[1])
        return self.field.zeta(power)

    def paren_coeff(self) -> Cyclotomic:
        self.expect("LPAREN", "'('")
        inner = self.coeff_expr()
        self.expect("RPAREN", "')'")
        if self.peek()[0] == "CARET":
            self.next()
            ptok = self.expect("INT", "integer exponent")
            return inner ** int(ptok[1])
        return inner

    def coeff_expr(self) -> Cyclotomic:
        if self.peek()[0] == "MINUS":
            self.next()
            value = -self.cterm()
        else:
            value = self.cterm()
        while True:
            kind = self.peek()[0]
            if kind == "PLUS":
                self.next()
                value = value + self.cterm()
            elif kind == "MINUS":
                self.next()
                value = value - self.cterm()
            else:
                return value

    def cterm(self) -> Cyclotomic:
        value = self.catom()
        while self.peek()[0] == "STAR":
            self.next()
            value = value * self.catom()
        return value

    def catom(self, what: str = "rational, 'w', or '('") -> Cyclotomic:
        kind, _, pos = self.peek()
        if kind == "INT":
            return self.rational()
        if kind == "W":
            return self.wpow()
        if kind == "LPAREN":
            return self.paren_coeff()
        raise ParseError(f"expected {what}", pos)


def parse_poly(text: str, n: int, conductor: int) -> PolyAst:
    """Parse a polynomial expression against n generators and a conductor.

    The conductor fixes the meaning of 'w' and must be a positive multiple of
    n so that lowering can inject the commutation phases.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(conductor, int) or conductor < 1 or conductor % n != 0:
        raise ValueError(
            f"conductor must be a positive multiple of n={n}, got {conductor!r}"
        )
    return _Parser(text, n, conductor).parse()


def lower(ast: PolyAst, params: QuantumParams, algebra: str = ALGEBRA_B) -> SkewPoly:
    """Normal-order an AST into a SkewPoly, accumulating commutation phases."""
    if ast.n != params.n:
        raise ValueError(f"AST was parsed with n={ast.n}, params have n={params.n}")
    _check_algebra(algebra)
    if ast.conductor % params.n != 0:
        raise ValueError(f"conductor {ast.conductor} does not contain the n-th roots of unity")
    field = CycloField(ast.conductor)
    scale = ast.conductor // params.n
    pairs = []
    for term in ast.terms:
        if term.coeff.field is not field:
            raise ValueError("coefficient from a different field")
        phase, md = _runs_phase(params, [(f.gen, f.power) for f in term.factors])
        if min(md) < 0:
            raise ValueError(f"bad multidegree {md}")
        coeff = term.coeff
        if phase:
            coeff = coeff * field.zeta(scale * phase)
        pairs.append((md, coeff))
    return _build(params, algebra, field, pairs)


# -- printers ------------------------------------------------------------------------


def _wpow_str(k: int) -> str:
    return "w" if k == 1 else f"w^{k}"


def _coeff_parts(c: Cyclotomic, has_factors: bool) -> tuple[bool, str]:
    # Returns (negative, body); empty body means an omitted unit coefficient.
    nz = [(k, v) for k, v in enumerate(c.nums) if v]
    if len(nz) == 1:
        k, v = nz[0]
        neg = v < 0
        mag = _fraction_str(abs(v), c.den)
        if k == 0:
            if mag == "1" and has_factors:
                return neg, ""
            return neg, mag
        if mag == "1":
            return neg, _wpow_str(k)
        return neg, f"({mag}*{_wpow_str(k)})"
    return False, "(" + c.basis_string() + ")"


def print_poly(poly: SkewPoly) -> str:
    """Canonical text for a polynomial; re-parsing and lowering is identity.

    Terms are ordered by descending total degree, then descending
    lexicographic multidegree.
    """
    items = sorted(poly.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    if not items:
        return "0"
    rendered = []
    for md, coeff in items:
        factors = []
        for g, e in enumerate(md, start=1):
            if e == 1:
                factors.append(f"x{g}")
            elif e > 1:
                factors.append(f"x{g}^{e}")
        fstr = "*".join(factors)
        neg, body = _coeff_parts(coeff, bool(fstr))
        if body and fstr:
            piece = f"{body}*{fstr}"
        elif fstr:
            piece = fstr
        else:
            piece = body
        if not rendered:
            rendered.append(f"-{piece}" if neg else piece)
        else:
            rendered.append(f"- {piece}" if neg else f"+ {piece}")
    return " ".join(rendered)


# -- parameter documents ----------------------------------------------------------------


def _require_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParamsDocError(f"{path}: expected an integer, got {value!r}")
    return value


def parse_params(document: Union[str, dict]) -> QuantumParams:
    """Resolve a JSON parameter document to validated QuantumParams.

    Accepts raw JSON text or an already-decoded object.  Exactly one of the
    three representations must be present.
    """
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParamsDocError(f"invalid JSON: {exc}") from exc
    else:
        data = document
    if not isinstance(data, dict):
        raise ParamsDocError("top level: expected a JSON object")
    unknown = set(data) - {"n", "exponents", "twist", "entries"}
    if unknown:
        raise ParamsDocError(f"unknown keys: {sorted(unknown)}")
    if "n" not in data:
        raise ParamsDocError("n: required")
    n = _require_int(data["n"], "n")
    forms = [k for k in ("exponents", "twist", "entries") if k in data]
    if len(forms) != 1:
        raise ParamsDocError(
            f"exactly one of exponents/twist/entries required, got {forms or 'none'}"
        )
    form = forms[0]
    if form == "exponents":
        rows = data["exponents"]
        if not isinstance(rows, list):
            raise ParamsDocError("exponents: expected a list of rows")
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise ParamsDocError(f"exponents[{i}]: expected a list")
            for j, e in enumerate(row):
                _require_int(e, f"exponents[{i}][{j}]")
        return validate_params(n, rows)
    if form == "twist":
        twist = data["twist"]
        if not isinstance(twist, list):
            raise ParamsDocError("twist: expected a list")
        for k, v in enumerate(twist):
            _require_int(v, f"twist[{k}]")
        if len(twist) != n:
            raise ParamsDocError(f"twist: expected {n} entries, got {len(twist)}")
        return from_twist(twist)
    entries = data["entries"]
    if not isinstance(entries, list):
        raise ParamsDocError("entries: expected a list")
    mat = [[0] * n for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for k, item in enumerate(entries):
        if not isinstance(item, dict):
            raise ParamsDocError(f"entries[{k}]: expected an object")
        extra = set(item) - {"i", "j", "e"}
        if extra:
            raise ParamsDocError(f"entries[{k}]: unknown keys {sorted(extra)}")
        for fld in ("i", "j", "e"):
            if fld not in item:
                raise ParamsDocError(f"entries[{k}].{fld}: required")
        i = _require_int(item["i"], f"entries[{k}].i")
        j = _require_int(item["j"], f"entries[{k}].j")
        e = _require_int(item["e"], f"entries[{k}].e")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParamsDocError(f"entries[{k}]: indices must lie in 1..{n}")
        if i == j:
            raise ParamsDocError(f"entries[{k}]: diagonal assignment (i = j = {i})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ParamsDocError(f"entries[{k}]: duplicate pair {key}")
        seen.add(key)
        mat[i - 1][j - 1] = e % n
        mat[j - 1][i - 1] = (-e) % n
    return validate_params(n, mat)
