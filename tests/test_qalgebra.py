"""Skew polynomial arithmetic: normal ordering, products, normal forms."""

import random
from itertools import product
from math import comb

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from qfermat.cyclo import CycloField
from qfermat.expr import lower, parse_poly
from qfermat.qalgebra import (
    ALGEBRA_A,
    ALGEBRA_B,
    AlgebraMismatchError,
    ParamsError,
    SkewPoly,
    commutative_params,
    fermat_element,
    from_twist,
    graded_dimension,
    is_central,
    iter_multidegrees,
    multiply,
    normal_order,
    normalizing_automorphism,
    product_of_generators,
    validate_params,
)

import _oracles
from _util import multidegree_st, params_st, random_params, word_st


# ---------------------------------------------------------------- validation


def test_validate_rejects_broken_antisymmetry():
    with pytest.raises(ParamsError):
        validate_params(3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_validate_rejects_nonzero_diagonal():
    with pytest.raises(ParamsError):
        validate_params(3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_validate_rejects_bad_shape_and_small_n():
    with pytest.raises(ParamsError):
        validate_params(3, [[0, 0], [0, 0]])
    with pytest.raises(ParamsError):
        validate_params(1, [[0]])


def test_validate_accepts_and_reduces_mod_n():
    p = validate_params(5, [[0, 7, 0, 0, 0], [-7, 0, 0, 0, 0]] + [[0] * 5] * 3)
    assert p.exponent(1, 2) == 2
    assert p.exponent(2, 1) == 3
    q = validate_params(5, [[0, 2, 0, 0, 0], [3, 0, 0, 0, 0]] + [[0] * 5] * 3)
    assert p == q


def test_zero_matrix_is_commutative():
    p = commutative_params(5)
    assert all(p.exponent(i, j) == 0 for i in range(1, 6) for j in range(1, 6))


def test_from_twist_formula():
    p = from_twist([1, 0, 0, 0, 0])
    for j in range(2, 6):
        assert p.exponent(1, j) == 1
        assert p.exponent(j, 1) == 4
    assert p.exponent(2, 3) == 0
    assert from_twist([0, 0, 0]) == commutative_params(3)


@given(st.lists(st.integers(-10, 10), min_size=2, max_size=6))
def test_from_twist_always_validates(d):
    p = from_twist(d)
    n = len(d)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert (p.exponent(i, j) + p.exponent(j, i)) % n == 0
            assert p.exponent(i, j) == (d[i - 1] - d[j - 1]) % n


# ------------------------------------------------------------ normal ordering


def test_normal_order_pinned_cases():
    rng = random.Random(3)
    p = random_params(5, rng)
    assert normal_order(p, (2, 1)) == (
        p.exponent(2, 1),
        (1, 1, 0, 0, 0),
    )
    assert normal_order(p, (1, 2, 3)) == (0, (1, 1, 1, 0, 0))
    phase, md = normal_order(p, (3, 2, 1))
    want = (p.exponent(3, 2) + p.exponent(3, 1) + p.exponent(2, 1)) % 5
    assert (phase, md) == (want, (1, 1, 1, 0, 0))


@given(word_st())
def test_normal_order_matches_bubble_sort_oracle(nw):
    n, word = nw
    rng = random.Random(n * 1000 + len(word))
    p = random_params(n, rng)
    assert normal_order(p, word) == _oracles.bubble_normal_order(p.exps, word)


@given(word_st(max_len=6))
def test_sorted_words_have_zero_phase(nw):
    n, word = nw
    p = random_params(n, random.Random(17))
    phase, _ = normal_order(p, sorted(word))
    assert phase == 0


# ------------------------------------------------------------------- products


def test_multiply_pinned_cases():
    p = random_params(5, random.Random(5))
    x1 = SkewPoly.generator(p, 1)
    x2 = SkewPoly.generator(p, 2)
    f = CycloField(5)
    assert (x1 * x2).terms == {(1, 1, 0, 0, 0): f.one()}
    assert (x2 * x1).terms == {(1, 1, 0, 0, 0): f.zeta(p.exponent(2, 1))}


def test_binomial_square_in_the_two_generator_algebra():
    p = validate_params(2, [[0, 1], [1, 0]])
    x1 = SkewPoly.generator(p, 1)
    x2 = SkewPoly.generator(p, 2)
    sq = (x1 + x2) * (x1 + x2)
    # the cross coefficient is 1 + zeta_2 = 0
    assert sq == x1 * x1 + x2 * x2


@given(params_st(min_n=2, max_n=5), st.data())
def test_monomial_product_agrees_with_word_expansion(p, data):
    a = data.draw(multidegree_st(p.n, max_entry=2))
    b = data.draw(multidegree_st(p.n, max_entry=2))
    prod = SkewPoly.monomial(p, a) * SkewPoly.monomial(p, b)
    phase = _oracles.word_product_phase(p.exps, a, b)
    md = tuple(x + y for x, y in zip(a, b))
    field = CycloField(p.n)
    assert prod.terms == {md: field.zeta(phase)}


@given(params_st(min_n=2, max_n=5), st.sampled_from([1, 2]), st.sampled_from([ALGEBRA_B, ALGEBRA_A]), st.data())
def test_product_of_sums_agrees_with_termwise_word_expansion(p, mult, algebra, data):
    # Each term pair's phase comes from the bubble-sorted word of the pair,
    # so no package phase code enters the expected product.
    n = p.n
    field = CycloField(n * mult)
    last = st.integers(0, 2 if algebra == ALGEBRA_B else min(2, n - 1))

    def draw_terms():
        terms = {}
        for _ in range(data.draw(st.integers(1, 4))):
            md = data.draw(multidegree_st(n - 1, max_entry=2)) + (data.draw(last),)
            root = field.zeta(data.draw(st.integers(0, field.conductor - 1)))
            terms[md] = root * data.draw(st.sampled_from([1, -1, 2]))
        return terms

    f_terms, g_terms = draw_terms(), draw_terms()
    expected = {}
    for a, ca in f_terms.items():
        for b, cb in g_terms.items():
            md = tuple(x + y for x, y in zip(a, b))
            c = ca * cb * field.zeta(mult * _oracles.word_product_phase(p.exps, a, b))
            expected[md] = expected[md] + c if md in expected else c
    expected = {md: c for md, c in expected.items() if not c.is_zero()}
    if algebra == ALGEBRA_A:
        expected = _oracles.naive_reduce_a(n, expected)
    f = SkewPoly(p, algebra, f_terms, field)
    g = SkewPoly(p, algebra, g_terms, field)
    assert multiply(f, g).terms == expected


@st.composite
def small_poly(draw, p, algebra=ALGEBRA_B, nterms=3):
    poly = SkewPoly.zero(p, algebra=algebra)
    count = draw(st.integers(0, nterms))
    for _ in range(count):
        md = draw(multidegree_st(p.n, max_entry=2))
        coeff = draw(st.integers(-3, 3))
        poly = poly + SkewPoly.monomial(p, md, coeff=coeff, algebra=algebra)
    return poly


@given(params_st(min_n=2, max_n=4), st.data())
def test_multiply_is_associative_and_distributive(p, data):
    f = data.draw(small_poly(p))
    g = data.draw(small_poly(p))
    h = data.draw(small_poly(p))
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@given(params_st(min_n=2, max_n=4), st.data())
def test_multiply_in_quotient_is_associative(p, data):
    f = data.draw(small_poly(p, algebra=ALGEBRA_A))
    g = data.draw(small_poly(p, algebra=ALGEBRA_A))
    h = data.draw(small_poly(p, algebra=ALGEBRA_A))
    assert (f * g) * h == f * (g * h)


def test_operand_mixing_is_rejected():
    p = from_twist([1, 2, 3, 4, 0])
    q = commutative_params(5)
    with pytest.raises(AlgebraMismatchError):
        SkewPoly.generator(p, 1) * SkewPoly.generator(q, 1)
    with pytest.raises(AlgebraMismatchError):
        SkewPoly.generator(p, 1) * SkewPoly.generator(p, 1, algebra=ALGEBRA_A)
    assert multiply is SkewPoly.__mul__ or multiply(
        SkewPoly.generator(p, 1), SkewPoly.generator(p, 2)
    ) == SkewPoly.generator(p, 1) * SkewPoly.generator(p, 2)


# ----------------------------------------------------------------- A reduction


def test_reduce_rewrites_the_last_nth_power():
    p = random_params(4, random.Random(9))
    xn4 = SkewPoly.monomial(p, (0, 0, 0, 4), algebra=ALGEBRA_A)
    expected = SkewPoly.zero(p, algebra=ALGEBRA_A)
    for k in range(3):
        md = [0, 0, 0, 0]
        md[k] = 4
        expected = expected + SkewPoly.monomial(p, tuple(md), coeff=-1, algebra=ALGEBRA_A)
    assert xn4 == expected


def test_reduce_phases_cancel_for_central_powers():
    p = random_params(3, random.Random(21))
    lead = SkewPoly.monomial(p, (1, 0, 3), algebra=ALGEBRA_A)
    f = CycloField(3)
    assert lead.terms == {
        (4, 0, 0): -f.one(),
        (1, 3, 0): -f.one(),
    }


@given(params_st(min_n=2, max_n=4), st.data())
def test_normal_form_keeps_last_exponent_small(p, data):
    f = data.draw(small_poly(p, algebra=ALGEBRA_A))
    g = data.draw(small_poly(p, algebra=ALGEBRA_A))
    for md in (f * g).terms:
        assert md[-1] < p.n


@given(params_st(min_n=2, max_n=4), st.data())
def test_reduction_matches_naive_rewriting_oracle(p, data):
    raw = {}
    field = CycloField(p.n)
    for _ in range(data.draw(st.integers(1, 3))):
        md = list(data.draw(multidegree_st(p.n, max_entry=2)))
        md[-1] += data.draw(st.integers(0, 2 * p.n))
        coeff = field.zeta(data.draw(st.integers(0, p.n - 1)))
        key = tuple(md)
        raw[key] = raw.get(key, field.zero()) + coeff
    reduced = SkewPoly(p, ALGEBRA_A, raw, field)
    oracle = _oracles.naive_reduce_a(p.n, raw)
    assert reduced.terms == oracle


def test_fermat_element_vanishes_in_the_quotient():
    for n in (2, 3, 4, 5):
        p = random_params(n, random.Random(n))
        assert fermat_element(p, algebra=ALGEBRA_A).is_zero()
        assert not fermat_element(p, algebra=ALGEBRA_B).is_zero()


# ------------------------------------------- constructor checks and normal form


@pytest.mark.parametrize(
    "args, message",
    [
        ((ALGEBRA_B, {(1, 0): 1}), r"bad multidegree \(1, 0\)"),
        ((ALGEBRA_B, {(1, -1, 0): 1}), r"bad multidegree \(1, -1, 0\)"),
        ((ALGEBRA_B, {(1, 0, 0): CycloField(6).one()}), "coefficient from a different field"),
        (("C", {}), "algebra tag must be 'A' or 'B', got 'C'"),
        ((ALGEBRA_A, {}, CycloField(4)), "conductor 4 does not contain the n-th roots of unity"),
    ],
    ids=["short-multidegree", "negative-multidegree", "foreign-field", "tag-C", "no-nth-roots"],
)
def test_constructor_rejects_bad_input(args, message):
    with pytest.raises(ValueError, match=message):
        SkewPoly(commutative_params(3), *args)


def _word_text(coeff, word):
    return "*".join([str(coeff)] + [f"x{g}" for g in word])


@given(params_st(min_n=2, max_n=4), st.sampled_from([ALGEBRA_A, ALGEBRA_B]), st.data())
def test_every_built_result_is_in_normal_form(p, algebra, data):
    field = CycloField(p.n)
    f = data.draw(small_poly(p, algebra=algebra))
    g = data.draw(small_poly(p, algebra=algebra))
    raw = SkewPoly(p, ALGEBRA_B, {data.draw(multidegree_st(p.n, max_entry=2 * p.n)): 1})
    root = st.integers(0, p.n - 1).map(field.zeta)
    word = st.lists(st.integers(1, p.n), max_size=3 * p.n)
    words = data.draw(st.lists(st.tuples(st.integers(1, 3), word), min_size=1, max_size=3))
    text = " - ".join(_word_text(c, w) for c, w in words)
    results = {
        "multiply": multiply(f, g),
        "+": f + g,
        "-": f - g,
        "scale": f.scale(data.draw(root) * data.draw(st.integers(-2, 2))),
        "A constructor": SkewPoly(p, ALGEBRA_A, (raw + f if algebra == ALGEBRA_B else raw).terms),
        "lower": lower(parse_poly(text, p.n, p.n), p, algebra),
    }
    for name, r in results.items():
        assert r == SkewPoly(p, r.algebra, r.terms, r.field), name
        assert all(not c.is_zero() for c in r.terms.values()), name
        if r.algebra == ALGEBRA_A:
            assert all(md[-1] < p.n for md in r.terms), name


def test_reduction_of_a_high_power_is_the_multinomial_expansion():
    # x3^(3q+1) = (-1)^q (x1^3 + x2^3)^q x3 in A with n = 3; the expansion
    # has q + 1 terms, so q = 301 finishes at once.
    p = random_params(3, random.Random(4))
    poly = SkewPoly.monomial(p, (0, 0, 904), algebra=ALGEBRA_A)
    field = CycloField(3)
    assert poly.terms == {
        (3 * k, 903 - 3 * k, 1): field.from_rational(-comb(301, k)) for k in range(302)
    }


# ------------------------------------------------------------------ centrality


@given(params_st(min_n=2, max_n=6))
def test_fermat_element_is_central(p):
    assert is_central(fermat_element(p))


@given(params_st(min_n=2, max_n=5), st.data())
def test_every_nth_power_is_central(p, data):
    k = data.draw(st.integers(1, p.n))
    md = [0] * p.n
    md[k - 1] = p.n
    assert is_central(SkewPoly.monomial(p, tuple(md)))


def _box(p, last):
    # Multidegrees in {0,1,2}^(n-1) x {last} whose twisted column sums
    # sum_i a_i e_ij vanish for every j (central), or for every j but one
    # (near misses).  Drawing from these makes both answers common.
    n = p.n
    central, near = [], []
    for head in product(range(3), repeat=n - 1):
        md = head + (last,)
        bad = sum(sum(a * p.exps[i][j] for i, a in enumerate(md)) % n != 0 for j in range(n))
        if bad <= 1:
            (near if bad else central).append(md)
    return central, near


@st.composite
def centrality_case(draw, shifted=False):
    p = draw(params_st(min_n=2, max_n=6))
    n = p.n
    algebra = draw(st.sampled_from([ALGEBRA_A, ALGEBRA_B]))
    field = CycloField(n * draw(st.sampled_from([1, 2])))
    # last exponent n - 1 is the case that reduces in A when multiplied by x_n
    last = draw(st.sampled_from([0, 1, n - 1, n - 1, n, 2 * n - 1]))
    pools = [pool for pool in _box(p, last) if pool]
    # A common factor x^shift (last exponent 0) moves every column phase of
    # the central pool to the same nonzero vector.
    shift = draw(multidegree_st(n - 1, max_entry=2)) + (0,) if shifted else (0,) * n
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, len(pools)))
        if kind < len(pools):
            md = draw(st.sampled_from(pools[kind]))
        else:
            md = tuple(draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1)))
            md += (draw(st.sampled_from([0, 1, n - 1, n])),)
        coeff = draw(st.sampled_from([1, -1, 2, 3]))
        md = tuple(a + c for a, c in zip(md, shift))
        terms[md] = field.zeta(draw(st.integers(0, field.conductor - 1))) * coeff
    return SkewPoly(p, algebra, terms, field)


@settings(max_examples=300)
@given(centrality_case())
def test_is_central_agrees_with_the_commutator_oracle(poly):
    assert is_central(poly) == _oracles.commutator_is_central(poly)


def test_is_central_agrees_with_the_commutator_oracle_on_reducing_terms_of_a():
    # Every polynomial here lies in A and has terms with a_n = n - 1, whose
    # products with x_n leave the PBW basis and are rewritten by
    # x_n^n = -(x_1^n + ... + x_(n-1)^n).  Near misses fail one column only.
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randrange(2, 7)
        p = random_params(n, rng)
        field = CycloField(n * rng.choice((1, 2)))
        central, near = _box(p, n - 1)
        pool = central + near if rng.random() < 0.5 else central
        pool = pool or [(0,) * (n - 1) + (n - 1,)]
        terms = {rng.choice(pool): field.zeta(rng.randrange(n)) * rng.choice((1, -2)) for _ in range(rng.randrange(1, 4))}
        poly = SkewPoly(p, ALGEBRA_A, terms, field)
        want = _oracles.commutator_is_central(poly)
        assert is_central(poly) == want
        seen[want] += 1
    assert seen[True] > 20 and seen[False] > 20


def test_product_of_generators_centrality_matches_column_sums_exhaustively():
    from itertools import product as iproduct

    n = 3
    for digits in iproduct(range(n), repeat=3):
        rows = [[0] * n for _ in range(n)]
        for (i, j), e in zip(((0, 1), (0, 2), (1, 2)), digits):
            rows[i][j] = e
            rows[j][i] = (-e) % n
        p = validate_params(n, rows)
        sums = [sum(p.exponent(i, j) for i in range(1, n + 1)) % n for j in range(1, n + 1)]
        assert is_central(product_of_generators(p)) == all(s == 0 for s in sums)


@given(params_st(min_n=3, max_n=5))
def test_normalizing_automorphism_property(p):
    f = product_of_generators(p)
    nu = normalizing_automorphism(f)
    assert nu is not None
    for j in range(1, p.n + 1):
        xj = SkewPoly.generator(p, j)
        assert f * xj == xj.scale(nu.scalars[j - 1]) * f
    one = CycloField(p.n).one()
    assert is_central(f) == all(c == one for c in nu.scalars)


def _same_normalizer(poly):
    nu = normalizing_automorphism(poly)
    want = _oracles.normalizer_by_products(poly)
    assert (None if nu is None else nu.scalars) == want
    return want is not None


@settings(max_examples=300)
@given(centrality_case(shifted=True))
def test_normalizing_automorphism_agrees_with_the_product_oracle(poly):
    assume(not poly.is_zero())
    event("normalizer" if _same_normalizer(poly) else "none")


def test_normalizing_automorphism_agrees_with_the_product_oracle_on_reducing_terms_of_a():
    # As for centrality: terms with a_n = n - 1 leave the PBW basis of A
    # under x_n.  A common factor x^shift gives the central pool a shared
    # nonzero phase vector; near misses split it.
    rng = random.Random(37)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randrange(2, 7)
        p = random_params(n, rng)
        field = CycloField(n * rng.choice((1, 2)))
        central, near = _box(p, n - 1)
        central = central or [(0,) * (n - 1) + (n - 1,)]
        picks = [rng.choice(central) for _ in range(rng.randrange(1, 4))]
        if near and rng.random() < 0.5:
            picks.append(rng.choice(near))
        shift = tuple(rng.randrange(3) for _ in range(n - 1)) + (0,)
        terms = {
            tuple(a + c for a, c in zip(md, shift)): field.zeta(rng.randrange(field.conductor)) * rng.choice((1, -2))
            for md in picks
        }
        seen[_same_normalizer(SkewPoly(p, ALGEBRA_A, terms, field))] += 1
    assert seen[True] > 20 and seen[False] > 20


def test_normalizing_automorphism_of_central_element_is_identity():
    p = from_twist([1, 2, 3, 4, 0])
    nu = normalizing_automorphism(fermat_element(p))
    field = CycloField(5)
    assert all(c == field.one() for c in nu.scalars)


def test_normalizing_automorphism_rejects_zero():
    p = commutative_params(3)
    with pytest.raises(ValueError):
        normalizing_automorphism(SkewPoly.zero(p))


# ------------------------------------------------------------- graded counting


def test_iter_multidegrees_counts():
    assert len(list(iter_multidegrees(3, 4, last_cap=3))) == 12
    assert len(list(iter_multidegrees(2, 5, last_cap=None))) == 6
    for md in iter_multidegrees(3, 4, last_cap=3):
        assert sum(md) == 4 and md[-1] < 3


def test_multidegrees_at_a_thousand_generators_do_not_recurse():
    # One stack frame per generator used to exhaust the recursion limit near n = 990.
    p = commutative_params(1000)
    assert graded_dimension(p, ALGEBRA_B, 1) == 1000
    # In A, x_1000^1000 = -(x_1^1000 + ... + x_999^1000).
    f = lower(parse_poly("x1000^1000", 1000, 1000), p, ALGEBRA_A)
    terms = f.terms
    assert len(terms) == 999
    assert set(terms) == {(0,) * i + (1000,) + (0,) * (999 - i) for i in range(999)}


@given(st.integers(2, 5), st.integers(0, 8))
def test_graded_dimension_of_the_ambient_algebra(n, d):
    p = random_params(n, random.Random(d))
    assert graded_dimension(p, ALGEBRA_B, d) == comb(d + n - 1, n - 1)


@given(st.integers(2, 5), st.integers(0, 10))
def test_graded_dimension_of_the_quotient_matches_the_series(n, d):
    p = random_params(n, random.Random(d + 100))
    assert graded_dimension(p, ALGEBRA_A, d) == _oracles.series_coefficient(n, d)


# ----------------------------------------------------------------- misc shape


def test_skewpoly_json_shape():
    p = commutative_params(3)
    blob = (SkewPoly.generator(p, 1) * 2).to_json()
    assert blob["algebra"] == ALGEBRA_B
    assert blob["terms"][0]["multidegree"] == [1, 0, 0]
