"""Expression front end: grammar, error positions, round trips, coherence."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfermat import expr
from qfermat.census import CapacityError
from qfermat.cyclo import CycloField
from qfermat.expr import (
    MAX_NESTING,
    Factor,
    ParamsDocError,
    ParseError,
    PolyAst,
    PolyTerm,
    lower,
    parse_params,
    parse_poly,
    print_poly,
)
from qfermat.qalgebra import (
    ParamsError,
    SkewPoly,
    commutative_params,
    fermat_element,
    from_twist,
    multiply,
)

import _oracles
from _util import params_st, random_params


# ------------------------------------------------------------------- parsing


def test_fermat_expression_parses_to_the_fermat_element():
    p = random_params(5, random.Random(1))
    ast = parse_poly("x1^5+x2^5+x3^5+x4^5+x5^5", 5, 5)
    assert lower(ast, p, "B") == fermat_element(p)


def test_single_relation_lowering():
    p = random_params(5, random.Random(2))
    f = CycloField(5)
    low = lower(parse_poly("x2*x1", 5, 5), p, "B")
    assert low.terms == {(1, 1, 0, 0, 0): f.zeta(p.exponent(2, 1))}


def test_commutator_lowering():
    p = random_params(5, random.Random(3))
    f = CycloField(5)
    low = lower(parse_poly("x1*x2 - x2*x1", 5, 5), p, "B")
    want = f.one() - f.zeta(p.exponent(2, 1))
    if want.is_zero():
        assert low.is_zero()
    else:
        assert low.terms == {(1, 1, 0, 0, 0): want}


def test_coefficient_grammar_forms():
    p = commutative_params(5)
    f = CycloField(5)
    lowered = lambda s: lower(parse_poly(s, 5, 5), p, "B")
    assert lowered("5").terms == {(0,) * 5: f.from_rational(5)}
    assert lowered("0").is_zero()
    assert lowered("-x1") == SkewPoly.generator(p, 1) * -1
    assert lowered("3/2*x1") == SkewPoly.generator(p, 1).scale(
        f.from_rational(3) / 2
    )
    assert lowered("w^3*x4") == SkewPoly.generator(p, 4).scale(f.zeta(3))
    assert lowered("(1-w)*x2") == SkewPoly.generator(p, 2).scale(f.one() - f.zeta(1))
    assert lowered("((1/2)*(w+1))*x3") == SkewPoly.generator(p, 3).scale(
        (f.one() + f.zeta(1)) / 2
    )
    assert lowered("x1*x2*x1") == lowered("x1^2*x2").scale(
        f.zeta(p.exponent(1, 2))
    )


def test_whitespace_is_insignificant():
    p = random_params(4, random.Random(4))
    a = lower(parse_poly("x1*x2+ 2 * x3", 4, 4), p, "B")
    b = lower(parse_poly("  x1 * x2\t+2*x3 ", 4, 4), p, "B")
    assert a == b


def test_factor_order_is_preserved_in_the_ast():
    ast = parse_poly("x2*x1", 5, 5)
    factors = ast.terms[0].factors
    assert [fac.gen for fac in factors] == [2, 1]


# -------------------------------------------------------------------- errors


# (text, position, message).  A character the tokenizer rejects is reported
# before any syntax error, wherever that syntax error sits.
_PARSE_ERRORS = [
    ("", 0, "empty input"),
    ("x0", 0, "unknown generator x0 (n=5)"),
    ("x6", 0, "unknown generator x6 (n=5)"),
    ("x1^", 3, "expected integer exponent"),
    ("x1 +", 4, "expected coefficient or generator"),
    ("(1+w", 4, "expected ')'"),
    ("x1 x2", 3, "expected '+', '-', or end of input"),
    ("x1^0", 3, "generator power must be >= 1"),
    ("x1**2", 3, "expected generator"),
    ("w^", 2, "expected integer exponent"),
    ("1/0*x1", 2, "zero denominator"),
    ("x9 + $", 5, "unexpected character '$'"),
    ("x1^0 + x", 7, "expected generator index after 'x'"),
    ("(1 + w ;", 7, "unexpected character ';'"),
]


@pytest.mark.parametrize(
    "text,where,message",
    _PARSE_ERRORS,
    ids=[f"{text}-{where}" for text, where, _ in _PARSE_ERRORS],
)
def test_parse_errors_carry_positions(text, where, message):
    with pytest.raises(ParseError) as err:
        parse_poly(text, 5, 5)
    assert err.value.position == where
    assert str(err.value) == f"at position {where}: {message}"


# One more digit than the interpreter's default limit on integer string
# conversion, at each place the parser converts a literal.
_LONG = "7" * 4301
_LONG_LITERALS = [
    (f"{_LONG}*x1", 0),
    (f"1/{_LONG}", 2),
    (f"x1^{_LONG}", 3),
    (f"w^{_LONG}*x1", 2),
    (f"(1 + w)^{_LONG}", 8),
    (f"x2*x{_LONG}", 3),
]


@pytest.mark.parametrize(
    "text,where",
    _LONG_LITERALS,
    ids=["numerator", "denominator", "power", "w-power", "group-power", "generator"],
)
def test_overlong_integer_literals_are_parse_errors(text, where):
    with pytest.raises(ParseError) as err:
        parse_poly(text, 5, 5)
    assert err.value.position == where
    assert str(err.value) == f"at position {where}: integer literal of 4301 digits is too long"


def _nested(depth):
    return "(" * depth + "1 + w" + ")" * depth + "*x1"


def _call_below(frames, f):
    return f() if frames == 0 else _call_below(frames - 1, f)


@pytest.mark.parametrize("frames", [0, 300])
def test_nesting_is_bounded_by_the_parser_not_the_callers_stack(frames):
    # The limit parses and one '(' more is refused at its position, also
    # with 300 caller frames already on the stack.
    deepest = _call_below(frames, lambda: parse_poly(_nested(MAX_NESTING), 5, 5))
    assert deepest == parse_poly("(1 + w)*x1", 5, 5)
    with pytest.raises(ParseError) as err:
        _call_below(frames, lambda: parse_poly(_nested(MAX_NESTING + 1), 5, 5))
    assert str(err.value) == (
        f"at position {MAX_NESTING}: parentheses nested more than {MAX_NESTING} deep"
    )


def test_mandatory_star_between_coefficient_atoms():
    with pytest.raises(ParseError):
        parse_poly("2*w*x1", 5, 5)
    # the parenthesized form is the grammatical spelling
    parse_poly("(2*w)*x1", 5, 5)


@given(st.text(max_size=30))
def test_arbitrary_input_never_panics(text):
    try:
        parse_poly(text, 5, 5)
    except ParseError:
        pass


@given(st.text(alphabet="x123wX^*+-/() \t", max_size=40))
def test_grammar_shaped_noise_never_panics(text):
    try:
        parse_poly(text, 3, 3)
    except ParseError:
        pass


# The parser against the character-by-character oracle: texts drawn from the
# grammar with whitespace between tokens, one-character mutations of them over
# an alphabet that holds characters no token may start with, and truncations.

_WS = st.sampled_from(["", "", " ", "  ", "\t", "\n ", "\r\n"])
_MUTATION_ALPHABET = "x0123456789w+-*/^() \t$;²\fX."


@st.composite
def _grammar_texts(draw, n, conductor):
    degree = CycloField(conductor).degree
    toks = []

    def catom(depth):
        kind = draw(st.sampled_from(["int", "frac", "w", "paren"] if depth < 2 else ["int", "frac", "w"]))
        if kind == "int":
            toks.append(str(draw(st.integers(0, 12))))
        elif kind == "frac":
            toks.extend([str(draw(st.integers(0, 12))), "/", str(draw(st.integers(0, 7)))])
        elif kind == "w":
            toks.append("w")
            if draw(st.booleans()):
                toks.extend(["^", str(draw(st.integers(0, 2 * conductor + degree)))])
        else:
            toks.append("(")
            coeff_expr(depth + 1)
            toks.append(")")
            if draw(st.booleans()):
                toks.extend(["^", str(draw(st.integers(0, 4)))])

    def coeff_expr(depth):
        if draw(st.booleans()):
            toks.append("-")
        for k in range(draw(st.integers(1, 3))):
            if k:
                toks.append(draw(st.sampled_from("+-")))
            for j in range(draw(st.integers(1, 2))):
                if j:
                    toks.append("*")
                catom(depth)

    def factors():
        for j in range(draw(st.integers(1, 3))):
            if j:
                toks.append("*")
            toks.append(f"x{draw(st.integers(1, n))}")
            if draw(st.booleans()):
                toks.extend(["^", str(draw(st.integers(0, 9)))])

    if draw(st.booleans()):
        toks.append("-")
    for k in range(draw(st.integers(1, 3))):
        if k:
            toks.append(draw(st.sampled_from("+-")))
        shape = draw(st.sampled_from(["coeff*factors", "factors", "coeff"]))
        if shape != "factors":
            catom(0)
        if shape == "coeff*factors":
            toks.append("*")
        if shape != "coeff":
            factors()
    return "".join(tok + draw(_WS) for tok in toks)


@st.composite
def _parser_inputs(draw):
    n = draw(st.integers(2, 6))
    conductor = n * draw(st.integers(1, 2))
    text = draw(_grammar_texts(n, conductor))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(_MUTATION_ALPHABET))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "truncate"]))
        if edit == "insert":
            text = text[:at] + ch + text[at:]
        elif edit == "truncate":
            text = text[:at]
        elif at < len(text):
            text = text[:at] + (ch if edit == "replace" else "") + text[at + 1 :]
    return text, n, conductor


def _outcome(parse, text, n, conductor):
    try:
        terms = parse(text, n, conductor)
    except (ParseError, _oracles.ReferenceParseError) as err:
        return "error", str(err), err.position
    return "terms", [(c.nums, c.den, tuple(tuple(f) for f in fs)) for c, fs in terms]


@settings(max_examples=600)
@given(_parser_inputs())
def test_parser_matches_the_reference_parser(case):
    text, n, conductor = case
    got = _outcome(lambda *a: parse_poly(*a).terms, text, n, conductor)
    want = _outcome(_oracles.reference_parse_poly, text, n, conductor)
    assert got == want


# ---------------------------------------------------------------- round trips


@st.composite
def skew_polys(draw):
    p = draw(params_st(min_n=2, max_n=5))
    field = CycloField(p.n)
    poly = SkewPoly.zero(p)
    for _ in range(draw(st.integers(0, 4))):
        md = tuple(
            draw(st.lists(st.integers(0, 3), min_size=p.n, max_size=p.n))
        )
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 3))
        zp = draw(st.integers(0, p.n - 1))
        coeff = field.zeta(zp) * num / den
        poly = poly + SkewPoly.monomial(p, md, coeff=coeff)
    return p, poly


@settings(max_examples=200)
@given(skew_polys())
def test_print_parse_round_trip(pp):
    p, poly = pp
    text = print_poly(poly)
    back = lower(parse_poly(text, p.n, p.n), p, "B")
    assert back == poly


def test_zero_prints_as_zero():
    p = commutative_params(3)
    assert print_poly(SkewPoly.zero(p)) == "0"


@given(skew_polys(), st.data())
def test_parser_algebra_coherence(pp, data):
    p, f = pp
    g = SkewPoly.zero(p)
    field = CycloField(p.n)
    for _ in range(data.draw(st.integers(0, 3))):
        md = tuple(
            data.draw(st.lists(st.integers(0, 2), min_size=p.n, max_size=p.n))
        )
        g = g + SkewPoly.monomial(p, md, coeff=field.zeta(data.draw(st.integers(0, p.n - 1))))
    ast_f = parse_poly(print_poly(f), p.n, p.n)
    ast_g = parse_poly(print_poly(g), p.n, p.n)
    # The product's AST concatenates the factor words term by term, in order.
    product = PolyAst(
        p.n,
        p.n,
        tuple(
            PolyTerm(a.coeff * b.coeff, a.factors + b.factors)
            for a in ast_f.terms
            for b in ast_g.terms
        ),
    )
    assert lower(product, p, "B") == multiply(lower(ast_f, p, "B"), lower(ast_g, p, "B"))


def test_print_is_deterministic_and_ordered():
    p = commutative_params(3)
    f = (
        SkewPoly.monomial(p, (0, 1, 1))
        + SkewPoly.monomial(p, (2, 0, 0))
        + SkewPoly.one(p)
    )
    assert print_poly(f) == print_poly(f)
    text = print_poly(f)
    assert text.index("x1^2") < text.index("x2*x3")


# ------------------------------------------------------------- parameter docs


def test_parse_params_three_forms():
    exp = parse_params('{"n":3,"exponents":[[0,1,0],[2,0,0],[0,0,0]]}')
    assert exp.exponent(1, 2) == 1 and exp.exponent(2, 1) == 2
    tw = parse_params('{"n":5,"twist":[1,0,0,0,0]}')
    assert tw == from_twist([1, 0, 0, 0, 0])
    ent = parse_params('{"n":5,"entries":[{"i":1,"j":2,"e":3}]}')
    assert ent.exponent(1, 2) == 3 and ent.exponent(2, 1) == 2
    assert ent.exponent(3, 4) == 0


def test_parse_params_accepts_dict_input():
    doc = {"n": 4, "twist": [1, 2, 3, 0]}
    assert parse_params(doc) == from_twist([1, 2, 3, 0])


@pytest.mark.parametrize(
    "doc,needle",
    [
        ('{"n":3}', "exactly one"),
        ('{"n":3,"twist":[1,0,0],"exponents":[[0,0,0],[0,0,0],[0,0,0]]}', "exactly one"),
        ('{"n":3,"entries":[{"i":1,"j":2,"e":1},{"i":2,"j":1,"e":1}]}', "duplicate"),
        ('{"n":3,"entries":[{"i":1,"j":1,"e":1}]}', "diagonal"),
        ('{"n":"x","twist":[1,0,0]}', "integer"),
        ("[1,2]", "object"),
        ("not json", "invalid JSON"),
        ('{"n":3,"twist":[1,0],"extra":1}', "unknown keys"),
        ('{"n":3,"twist":[1,0]}', "twist"),
    ],
)
def test_parse_params_error_surfaces(doc, needle):
    with pytest.raises(ParamsDocError) as err:
        parse_params(doc)
    assert needle in str(err.value)


@pytest.mark.parametrize(
    "doc,field",
    [
        (f'{{"n":{_LONG},"twist":[0,1,2]}}', "n"),
        (f'{{"n":3,"twist":[0,1,-{_LONG}]}}', "twist[2]"),
        (f'{{"n":2,"exponents":[[0,{_LONG}],[0,0]]}}', "exponents[0][1]"),
        (f'{{"n":3,"entries":[{{"i":1,"j":2,"e":1}},{{"i":1,"j":3,"e":{_LONG}}}]}}', "entries[1].e"),
    ],
    ids=["n", "twist", "exponents", "entries"],
)
def test_overlong_json_integers_name_their_field(doc, field):
    with pytest.raises(ParamsDocError) as err:
        parse_params(doc)
    assert str(err.value) == f"{field}: integer literal of 4301 digits is too long"


def test_overlong_json_integer_before_a_syntax_error_is_invalid_json():
    with pytest.raises(ParamsDocError) as err:
        parse_params(f'{{"n":3,"twist":[{_LONG},0,0')
    assert str(err.value).startswith("invalid JSON: ")


@pytest.mark.parametrize("form", ["twist", "entries"])
def test_parameter_documents_are_bounded_at_two_thousand_generators(form, monkeypatch):
    def doc(n):
        body = list(range(n)) if form == "twist" else [{"i": 1, "j": n, "e": 1}]
        return json.dumps({"n": n, form: body})

    p = parse_params(doc(2000))
    # e_(1,2000) is 1 in both: d_1 - d_2000 = -1999, or the one entry
    assert p.n == 2000 and p.exps[0][1999] == 1

    # a larger n is refused as it is read, before any matrix is built
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(expr, "from_twist", no_matrix)
    monkeypatch.setattr(expr, "validate_params", no_matrix)
    with pytest.raises(CapacityError) as err:
        parse_params(doc(2001))
    assert str(err.value) == (
        "n=2001 needs 2001^2 = 4004001 matrix cells, "
        "beyond the supported bound of 4000000 cells (n <= 2000)"
    )
    # an n whose square has hundreds of digits is named by its power alone
    huge = "7" * 300
    with pytest.raises(CapacityError) as err:
        parse_params(f'{{"n":{huge},"{form}":[]}}')
    assert str(err.value) == (
        f"n={huge} needs {huge}^2 matrix cells, "
        "beyond the supported bound of 4000000 cells (n <= 2000)"
    )


def test_invalid_matrices_fail_with_entry_names():
    with pytest.raises(ParamsError) as err:
        parse_params('{"n":3,"exponents":[[0,1,0],[1,0,0],[0,0,0]]}')
    assert "(1,2)" in str(err.value) and "(2,1)" in str(err.value)


@given(params_st(min_n=2, max_n=6))
def test_params_print_parse_round_trip(p):
    assert parse_params(json.dumps(p.to_json())) == p


# ------------------------------------------------------------------- lowering


def test_lower_rejects_an_unknown_tag_and_a_hand_built_ast_it_cannot_lower():
    p = from_twist([0, 1, 2])
    with pytest.raises(ValueError, match="algebra tag must be 'A' or 'B', got 'C'"):
        lower(parse_poly("x1", 3, 3), p, "C")
    x1 = (Factor(1, 1),)
    with pytest.raises(ValueError, match="conductor 4 does not contain the n-th roots"):
        lower(PolyAst(3, 4, (PolyTerm(CycloField(4).one(), x1),)), p)
    with pytest.raises(ValueError, match="coefficient from a different field"):
        lower(PolyAst(3, 3, (PolyTerm(CycloField(6).one(), x1),)), p)
    with pytest.raises(ValueError, match=r"bad multidegree \(-1, 0, 0\)"):
        lower(PolyAst(3, 3, (PolyTerm(CycloField(3).one(), (Factor(1, -1),)),)), p)


def test_huge_powers_lower_by_the_closed_form_phase():
    # n = 17, so 10^6 * 999999 * e_21 is not 0 mod n; the word is never
    # expanded into letters.
    d = [0] * 17
    d[1] = 1
    p = from_twist(d)
    low = lower(parse_poly("x2^1000000*x1^999999", 17, 17), p, "A")
    md = (999999, 1000000) + (0,) * 15
    phase = 1000000 * 999999 * p.exponent(2, 1) % 17
    assert phase == 4
    assert low.terms == {md: CycloField(17).zeta(phase)}
