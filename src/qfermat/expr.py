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

The text is split into tokens by one regular expression, and the descent
reads that list by index; source positions are worked out only for an error.
The first character that can start no token, or an 'x' with no index, is
reported before any syntax error, wherever that syntax error sits.  Each
'(' costs the descent three stack frames, so parentheses nest at most
MAX_NESTING deep; a deeper '(' is a syntax error at its position, well
before the interpreter's recursion limit wherever the parser is called from.

Parameter documents are JSON with "n" plus exactly one of "exponents" (full
matrix), "twist" (vector d with e_ij = d_i - d_j), or "entries" (sparse list
of {i, j, e} upper-triangle assignments).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, NoReturn, Union

from .census import CapacityError
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
    "MAX_NESTING",
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


class Factor(NamedTuple):
    gen: int
    power: int


class PolyTerm(NamedTuple):
    coeff: Cyclotomic
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class PolyAst:
    """Parsed polynomial: a sum of (coefficient, factor word) terms, each
    coefficient already evaluated and carrying the term's sign."""

    n: int
    conductor: int
    terms: tuple[PolyTerm, ...]


# -- parser ---------------------------------------------------------------------------

# A token is an INT, a generator 'x' INT, or one symbol character.
_TOKEN = re.compile(r"[0-9]+|x[0-9]*|[^ \t\r\n]")
# The first character no token may start with, or an 'x' with no index.
_INVALID = re.compile(r"[^0-9xw+*/^() \t\r\n-]|x(?![0-9])")


# '(' levels a coefficient may nest; 3 frames each, against the
# interpreter's default limit of 1000 frames for the whole stack
MAX_NESTING = 100


class _Parser:
    # Recursive descent over the token strings, read by index; "" ends the
    # input.  Source positions are recovered only when an error is raised.

    def __init__(self, text: str, n: int, conductor: int):
        bad = _INVALID.search(text)
        if bad is not None:
            pos = bad.start()
            if bad.group() == "x":
                raise ParseError("expected generator index after 'x'", pos)
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.k = 0
        self.depth = 0
        self.n = n
        self.conductor = conductor
        self.field = CycloField(conductor)

    def fail(self, message: str, k: int) -> NoReturn:
        """Raise ``message`` at the source position of token k."""
        if k < len(self.toks) - 1:
            pos = next(islice(_TOKEN.finditer(self.text), k, None)).start()
        else:
            pos = len(self.text)
        raise ParseError(message, pos)

    def too_long(self, k: int) -> NoReturn:
        """Raise at token k, whose digits exceed the interpreter's limit on
        integer string conversion."""
        digits = len(self.toks[k].lstrip("x"))
        self.fail(f"integer literal of {digits} digits is too long", k)

    def exponent(self, k: int) -> int:
        """The INT at token k, which follows a '^'."""
        tok = self.toks[k]
        if not tok.isdigit():
            self.fail("expected integer exponent", k)
        try:
            return int(tok)
        except ValueError:
            self.too_long(k)

    # poly := ['-'] term (('+' | '-') term)*
    def parse(self) -> PolyAst:
        toks = self.toks
        if not toks[0]:
            self.fail("empty input", 0)
        negated = toks[0] == "-"
        if negated:
            self.k = 1
        terms = [self.term(negated)]
        while True:
            tok = toks[self.k]
            if tok == "+" or tok == "-":
                self.k += 1
                terms.append(self.term(tok == "-"))
            elif not tok:
                return PolyAst(self.n, self.conductor, tuple(terms))
            else:
                self.fail("expected '+', '-', or end of input", self.k)

    # term := catom '*' factors | factors | catom
    def term(self, negated: bool) -> PolyTerm:
        if self.toks[self.k][:1] == "x":
            coeff, factors = self.field.one(), self.factors()
        else:
            coeff, factors = self.catom("coefficient or generator"), ()
            if self.toks[self.k] == "*":
                self.k += 1
                factors = self.factors()
        return PolyTerm(-coeff if negated else coeff, factors)

    # factors := factor ('*' factor)*,  factor := 'x' INT ['^' INT]
    def factors(self) -> tuple[Factor, ...]:
        toks, k, n = self.toks, self.k, self.n
        out = []
        while True:
            tok = toks[k]
            if tok[:1] != "x":
                self.fail("expected generator", k)
            try:
                gen = int(tok[1:])
            except ValueError:
                self.too_long(k)
            if not 1 <= gen <= n:
                self.fail(f"unknown generator x{gen} (n={n})", k)
            k += 1
            power = 1
            if toks[k] == "^":
                power = self.exponent(k + 1)
                if power < 1:
                    self.fail("generator power must be >= 1", k + 1)
                k += 2
            out.append(Factor(gen, power))
            if toks[k] != "*":
                self.k = k
                return tuple(out)
            k += 1

    # coeff_expr := ['-'] cterm (('+' | '-') cterm)*
    def coeff_expr(self) -> Cyclotomic:
        toks = self.toks
        if toks[self.k] == "-":
            self.k += 1
            value = -self.cterm()
        else:
            value = self.cterm()
        while True:
            tok = toks[self.k]
            if tok == "+":
                self.k += 1
                value = value + self.cterm()
            elif tok == "-":
                self.k += 1
                value = value - self.cterm()
            else:
                return value

    # cterm := catom ('*' catom)*
    def cterm(self) -> Cyclotomic:
        value = self.catom()
        while self.toks[self.k] == "*":
            self.k += 1
            value = value * self.catom()
        return value

    # catom := rational | wpow | '(' coeff_expr ')' ['^' INT]
    def catom(self, what: str = "rational, 'w', or '('") -> Cyclotomic:
        toks, k = self.toks, self.k
        tok = toks[k]
        if tok.isdigit():
            # rational := INT ['/' INT]
            try:
                num = int(tok)
            except ValueError:
                self.too_long(k)
            den = 1
            if toks[k + 1] == "/":
                k += 2
                if not toks[k].isdigit():
                    self.fail("expected denominator", k)
                try:
                    den = int(toks[k])
                except ValueError:
                    self.too_long(k)
                if not den:
                    self.fail("zero denominator", k)
            self.k = k + 1
            return self.field.from_rational(num, den)
        if tok == "w":
            # wpow := 'w' ['^' INT]
            if toks[k + 1] == "^":
                self.k = k + 3
                return self.field.zeta(self.exponent(k + 2))
            self.k = k + 1
            return self.field.zeta(1)
        if tok == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested more than {MAX_NESTING} deep", k)
            self.depth += 1
            self.k = k + 1
            inner = self.coeff_expr()
            self.depth -= 1
            k = self.k
            if toks[k] != ")":
                self.fail("expected ')'", k)
            if toks[k + 1] == "^":
                self.k = k + 3
                return inner ** self.exponent(k + 2)
            self.k = k + 1
            return inner
        self.fail(f"expected {what}", k)


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
        phase, md = _runs_phase(params, term.factors)
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


class _LongLiteral:
    """A JSON integer literal beyond the interpreter's limit on integer string
    conversion, kept by its digit count."""

    __slots__ = ("digits",)

    def __init__(self, digits: int):
        self.digits = digits


def _int_literal(text: str) -> Union[int, _LongLiteral]:
    try:
        return int(text)
    except ValueError:
        return _LongLiteral(len(text.lstrip("-")))


def _loads(document: str):
    try:
        try:
            return json.loads(document)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # an integer literal past the digit limit: decode again, keeping
            # such literals for _require_int to name with their field
            return json.loads(document, parse_int=_int_literal)
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise ParamsDocError("input nested too deeply to parse") from None


def _require_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        if isinstance(value, _LongLiteral):
            raise ParamsDocError(
                f"{path}: integer literal of {value.digits} digits is too long"
            )
        raise ParamsDocError(f"{path}: expected an integer, got {value!r}")
    return value


# Every form of a parameter document builds an n x n matrix, so n is bounded
# as soon as it is read: at most 2000^2 = 4,000,000 cells.
_PARAMS_MAX_N = 2000


def _check_size(n: int) -> None:
    if n > _PARAMS_MAX_N:
        # n^2 is spelled out only while it is far below any digit limit the
        # interpreter accepts for int-to-str conversion (at least 640).
        cells = f"{n}^2 = {n * n}" if n < 10**100 else f"{n}^2"
        raise CapacityError(
            f"n={n} needs {cells} matrix cells, beyond the supported bound "
            f"of {_PARAMS_MAX_N ** 2} cells (n <= {_PARAMS_MAX_N})"
        )


def parse_params(document: Union[str, dict]) -> QuantumParams:
    """Resolve a JSON parameter document to validated QuantumParams.

    Accepts raw JSON text or an already-decoded object.  Exactly one of the
    three representations must be present.  n above 2000 raises
    CapacityError before any form builds or checks a matrix.
    """
    if isinstance(document, str):
        try:
            data = _loads(document)
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
    _check_size(n)
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
