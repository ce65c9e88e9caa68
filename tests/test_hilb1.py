"""Point modules: triangles, face complexes, shift orbits, point counts."""

from collections import Counter
from itertools import combinations, product
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfermat.census import find_witness
from qfermat.cyclo import CycloField
from qfermat.hilb1 import (
    InadmissibleFaceError,
    KIND_FINITE_POINTS,
    KIND_HYPERSURFACE,
    KIND_PROJECTIVE_SPACE,
    euler_number,
    face_complex,
    fermat_edge_points,
    hilb1,
    is_admissible,
    shift_automorphism,
    triangle_exponent,
)
from qfermat.qalgebra import commutative_params, from_twist, validate_params

import _oracles
from _util import params_st, perturbed_twist_st

INTERMEDIATE_4 = validate_params(4, [[0, 0, 0, 1], [0, 0, 0, 2], [0, 0, 0, 3], [3, 2, 1, 0]])

# Random matrices up to n = 8, half of them twists with a few entries redrawn.
FACE_PARAMS = st.one_of(params_st(min_n=3, max_n=8), perturbed_twist_st(min_n=3, max_n=8))


def _with_relations(n, pairs):
    """e_ab = 1 for each listed pair a < b, every other entry above the diagonal 0."""
    rows = [[0] * n for _ in range(n)]
    for a, b in pairs:
        rows[a - 1][b - 1], rows[b - 1][a - 1] = 1, n - 1
    return validate_params(n, rows)


def _triples(n):
    """Vertices 3..n in consecutive triples, e_ab = 1 inside each triple: every
    triangle inside a triple or with an edge in one is nonzero, so the faces
    are {1, 2} plus one vertex of each triple, and the 2-faces inside triples."""
    return _with_relations(n, [p for t in range(3, n, 3) for p in combinations(range(t, t + 3), 2)])


# ------------------------------------------------------------------ triangles


def test_triangle_pinned_example():
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1] = 1
    rows[1][0] = 4
    p = validate_params(5, rows)
    assert triangle_exponent(p, 1, 2, 3) == 1


@given(st.lists(st.integers(0, 5), min_size=3, max_size=6), st.data())
def test_twist_triangles_vanish(d, data):
    p = from_twist(d)
    n = len(d)
    i, j, k = data.draw(
        st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)
    )
    assert triangle_exponent(p, i, j, k) == 0


@given(params_st(min_n=3, max_n=6), st.data())
def test_triangle_symmetries(p, data):
    i, j, k = data.draw(
        st.lists(st.integers(1, p.n), min_size=3, max_size=3, unique=True)
    )
    t = triangle_exponent(p, i, j, k)
    assert triangle_exponent(p, j, k, i) == t
    assert triangle_exponent(p, k, i, j) == t
    assert triangle_exponent(p, i, k, j) == (-t) % p.n


def test_triangle_rejects_repeated_indices():
    p = commutative_params(4)
    with pytest.raises(ValueError):
        triangle_exponent(p, 1, 1, 2)


# ------------------------------------------------------------------ genericity


def test_genericity_pinned_cases(generic_cy_witness5):
    assert not hilb1(from_twist([1, 2, 3, 4, 0]), "A").discrete
    assert not hilb1(commutative_params(5), "A").discrete
    assert hilb1(generic_cy_witness5, "A").discrete


@given(params_st(min_n=3, max_n=6))
def test_genericity_matches_triple_sweep(p):
    assert hilb1(p, "A").discrete == _oracles.generic_bruteforce(p.exps)


@given(FACE_PARAMS, st.data())
def test_admissibility_matches_triple_sweep(p, data):
    subset = data.draw(
        st.lists(st.integers(1, p.n), min_size=1, max_size=p.n, unique=True)
    )
    assert is_admissible(p, subset) == _oracles.admissible_bruteforce(p.exps, subset)


# -------------------------------------------------------------- face complexes


def test_twist_complex_is_the_full_simplex():
    fc = face_complex(from_twist([1, 2, 3, 4, 0]))
    assert fc.is_full
    assert fc.maximal_faces == ((1, 2, 3, 4, 5),)


def test_generic_complex_is_the_one_skeleton(generic_cy_witness5):
    fc = face_complex(generic_cy_witness5)
    assert not fc.is_full
    assert len(fc.maximal_faces) == comb(5, 2)
    assert all(len(f) == 2 for f in fc.maximal_faces)


def test_intermediate_complex_exists_outside_the_cy_locus():
    fc = face_complex(INTERMEDIATE_4)
    assert not fc.is_full
    assert (1, 2, 3) in fc.maximal_faces


@given(FACE_PARAMS)
def test_face_complex_matches_subset_sweep(p):
    fc = face_complex(p)
    assert sorted(fc.maximal_faces) == _oracles.maximal_admissible_subsets(p.exps)
    all_zero = all(
        triangle_exponent(p, i, j, k) == 0
        for i, j, k in combinations(range(1, p.n + 1), 3)
    )
    assert fc.is_full == all_zero


# ----------------------------------------------------------------- shift phases


def test_shift_two_face_anchor(generic_cy_witness5):
    w5 = generic_cy_witness5
    e = w5.exponent(2, 3)
    assert e != 0
    assert shift_automorphism(w5, (2, 3), 2) == (0, e)


def test_shift_commutative_is_identity():
    p = commutative_params(4)
    assert shift_automorphism(p, (1, 2, 3, 4), 1) == (0, 0, 0, 0)


def test_shift_three_variable_face_matches_displayed_form():
    p = from_twist([1, 2, 0, 0])
    d = shift_automorphism(p, (1, 2, 3), 1)
    assert d == (0, p.exponent(1, 2), (p.exponent(1, 2) + p.exponent(2, 3)) % 4)


@given(st.lists(st.integers(0, 4), min_size=3, max_size=5), st.data())
def test_shift_base_change_moves_by_a_constant(d, data):
    p = from_twist(d)
    n = len(d)
    face = tuple(range(1, n + 1))
    i0 = data.draw(st.integers(1, n))
    i1 = data.draw(st.integers(1, n))
    s0 = shift_automorphism(p, face, i0)
    s1 = shift_automorphism(p, face, i1)
    c = p.exponent(i0, i1)
    assert all((a - b) % n == c for a, b in zip(s0, s1))


def test_shift_rejects_inadmissible_faces():
    with pytest.raises(InadmissibleFaceError):
        shift_automorphism(INTERMEDIATE_4, (1, 2, 4), 1)


# ------------------------------------------------------------- point sequences


def test_edge_points_lie_on_the_fermat_locus(generic_cy_witness5):
    w5 = generic_cy_witness5
    field = CycloField(10)
    pts = fermat_edge_points(w5, 2, 3)
    assert len(pts) == 5
    seen = set()
    for pt in pts:
        assert pt[1 - 1] == field.zero()
        assert pt[2 - 1] == field.one()
        u = pt[3 - 1]
        assert u ** 5 == -field.one()
        seen.add(u)
    assert len(seen) == 5


def _root_exponents(point):
    """A point over Q(zeta_2n) as the oracle reads it: each coordinate's
    exponent a with coordinate zeta_2n^a, None for a zero coordinate."""
    field = point[0].field
    roots = {field.zeta(a): a for a in range(field.conductor)}
    return [None if c.is_zero() else roots[c] for c in point]


def test_point_sequences_verify_along_the_orbit(generic_cy_witness5):
    w5 = generic_cy_witness5
    for pt in fermat_edge_points(w5, 1, 2):
        assert _oracles.point_chain_holds(w5.exps, _root_exponents(pt), 10)


def test_nonzero_triangle_support_fails_verification():
    p = INTERMEDIATE_4
    assert triangle_exponent(p, 1, 2, 4) != 0
    assert not _oracles.point_chain_holds(p.exps, [0, 0, None, 0], 1)


@given(st.data())
def test_commutative_sequences_always_verify(data):
    n = data.draw(st.integers(3, 5))
    p = commutative_params(n)
    xi = [data.draw(st.integers(0, 2 * n - 1)) for _ in range(n)]
    assert _oracles.point_chain_holds(p.exps, xi, data.draw(st.integers(0, 6)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_generic_witness_points_are_killed_by_the_fermat_element(n):
    # At even n an odd edge exponent puts the points at u^n = +1, not -1.
    # n = 3 has no generic CY matrix, so it takes the first generic one.
    p = find_witness(n, ["generic", "cy"]) or find_witness(n, ["generic"])
    report = hilb1(p, "A")
    assert report.discrete and report.total_points == n * comb(n, 2)
    for c in report.components:
        for pt in c.points:
            xi = _root_exponents(pt)
            assert _oracles.point_chain_holds(p.exps, xi, n, fermat=True), (c.face, xi)
            j = c.face[1] - 1
            xi[j] += 1  # the other coset of n-th roots
            assert not _oracles.point_chain_holds(p.exps, xi, n, fermat=True), (c.face, xi)


def _negated_terms(equation, face, n):
    """Face index -> 1 where the reported equation subtracts x_k^n, else 0."""
    terms = equation.removesuffix(" = 0").replace(" - ", " + -").split(" + ")
    assert [t.removeprefix("-") for t in terms] == [f"x{k}^{n}" for k in face]
    return {k: int(t.startswith("-")) for k, t in zip(face, terms)}


@pytest.mark.parametrize(
    "params", [from_twist([0, 1, 1, 3]), INTERMEDIATE_4], ids=["twist4", "intermediate4"]
)
def test_two_coordinate_points_of_each_reported_equation_satisfy_the_chain(params):
    n = params.n
    for c in hilb1(params, "A").components:
        neg = _negated_terms(c.equation, c.face, n)
        for i, j in combinations(c.face, 2):
            # x_i = 1, x_j = zeta_2n^(2t+k) solves +-x_i^n +- x_j^n = 0
            k = (1 + neg[i] + neg[j]) % 2
            solutions = []
            for t in range(n):
                xi = [None] * n
                xi[i - 1], xi[j - 1] = 0, 2 * t + k
                assert _oracles.point_chain_holds(params.exps, xi, n, fermat=True), (c.face, xi)
                solutions.append(xi)
            if c.points is not None:
                assert [_root_exponents(pt) for pt in c.points] == solutions


def test_full_face_equation_is_signed_at_even_n():
    (c,) = hilb1(from_twist([0, 1, 1, 3]), "A").components
    assert c.equation == "x1^4 - x2^4 - x3^4 - x4^4 = 0"
    (c,) = hilb1(from_twist([1, 2, 3, 4, 0]), "A").components
    assert c.equation == "x1^5 + x2^5 + x3^5 + x4^5 + x5^5 = 0"


# ------------------------------------------------------------------- reports


def test_ambient_report_lists_projective_spaces(generic_cy_witness5):
    report = hilb1(generic_cy_witness5, "B")
    assert not report.discrete
    assert report.total_points is None
    assert len(report.components) == 10
    for c in report.components:
        assert c.kind == KIND_PROJECTIVE_SPACE
        assert c.dimension == len(c.face) - 1


def test_full_face_quotient_report_is_a_hypersurface():
    report = hilb1(from_twist([1, 2, 3, 4, 0]), "A")
    assert len(report.components) == 1
    c = report.components[0]
    assert c.kind == KIND_HYPERSURFACE
    assert c.dimension == 3
    assert c.face == (1, 2, 3, 4, 5)
    assert not report.discrete


def test_generic_quotient_reports_are_discrete(generic_cy_witness4, generic_cy_witness5):
    r4 = hilb1(generic_cy_witness4, "A")
    assert r4.discrete and r4.total_points == 24
    r5 = hilb1(generic_cy_witness5, "A")
    assert r5.discrete and r5.total_points == 50
    for c in r5.components:
        assert c.kind == KIND_FINITE_POINTS
        assert c.point_count == 5
        i, j = c.face
        e = c.shift[1]
        assert e == generic_cy_witness5.exponent(i, j)
        assert c.orbit_length == 5 // gcd(e, 5)


@given(params_st(min_n=3, max_n=5))
def test_discreteness_coincides_with_genericity(p):
    report = hilb1(p, "A")
    assert report.discrete == _oracles.generic_bruteforce(p.exps)
    if report.discrete:
        assert report.total_points == p.n * comb(p.n, 2)
        assert sum(c.point_count for c in report.components) == report.total_points
        assert euler_number(report) == report.total_points


def test_report_json_shape(generic_cy_witness4):
    blob = hilb1(generic_cy_witness4, "A").to_json_dict()
    assert sorted(blob) == [
        "algebra",
        "complex",
        "components",
        "discrete",
        "n",
        "total_points",
    ]
    comp = blob["components"][0]
    assert {"face", "kind", "shift", "points"} <= set(comp)


# --------------------------------------------------------------- Euler numbers


def test_euler_number_on_both_dichotomy_shapes(generic_cy_witness4):
    assert euler_number(hilb1(generic_cy_witness4, "A")) == 24
    assert euler_number(hilb1(commutative_params(4), "A")) == 24
    assert euler_number(hilb1(from_twist([1, 1, 0, 0]), "A")) == 24


def test_euler_number_of_an_intermediate_shape():
    # Maximal faces {1,2,3}, {1,4}, {2,4}, {3,4}: the Fermat quartic curve
    # on {1,2,3} (chi = -4) and the 12 points on the edges to vertex 4.
    assert euler_number(hilb1(INTERMEDIATE_4, "A")) == 8


def test_euler_number_of_a_full_face_at_every_n():
    """The smooth Fermat hypersurface of degree n in P^(n-1): the elliptic
    curve, the K3 surface, the quintic threefold and the sextic fourfold."""
    for n, chi in ((3, 0), (4, 24), (5, -200), (6, 2610)):
        assert chi == ((1 - n) ** n - 1) // n + n
        assert euler_number(hilb1(commutative_params(n), "A")) == chi
        assert euler_number(hilb1(from_twist(list(range(n))), "A")) == chi


def test_euler_number_refuses_the_ambient_algebra(generic_cy_witness4):
    with pytest.raises(ValueError, match="quotient algebra A"):
        euler_number(hilb1(generic_cy_witness4, "B"))


def _cy_classes(n):
    # One zero-first-row representative per CY twist class.
    for digits in product(range(n), repeat=comb(n - 1, 2)):
        exps = _oracles.exps_from_digits(n, (0,) * (n - 1) + digits)
        if len(set(_oracles.column_sums(exps))) == 1:
            yield validate_params(n, exps)


@pytest.mark.parametrize(
    "n, table", [(4, {24: 4}), (5, {-200: 1, -25: 40, 0: 60, 50: 24})], ids=["4", "5"]
)
def test_euler_numbers_of_the_cy_classes(n, table):
    assert Counter(euler_number(hilb1(p, "A")) for p in _cy_classes(n)) == table


@given(FACE_PARAMS)
def test_euler_number_matches_the_support_sum(p):
    assert euler_number(hilb1(p, "A")) == _oracles.euler_number_support_sum(p.exps)


def _chi(n, k):
    return ((1 - n) ** k - 1) // n + k


def test_euler_number_of_many_faces_through_one_edge():
    # 27 faces {1, 2, a, b, c} share the edge {1, 2}, plus 9 edges inside triples.
    p = _triples(11)
    report = hilb1(p, "A")
    assert len(report.complex.maximal_faces) == 36
    assert sum(len(f) == 5 for f in report.complex.maximal_faces) == 27
    assert euler_number(report) == _oracles.euler_number_support_sum(p.exps) == -297781


def test_euler_number_of_four_triples_is_pinned():
    report = hilb1(_triples(14), "A")
    assert len(report.complex.maximal_faces) == 93
    assert euler_number(report) == 34111154


def test_one_relation_at_forty_generators():
    # Only the triangles through {1, 2} are nonzero: three faces, where the
    # subset sweep would visit 2^40 subsets.
    report = hilb1(_with_relations(40, [(1, 2)]), "A")
    rest = tuple(range(3, 41))
    assert report.complex.maximal_faces == ((1, 2), (1, *rest), (2, *rest))
    assert not report.complex.is_full
    chi = euler_number(report)
    assert chi == _chi(40, 2) + 2 * _chi(40, 39) - _chi(40, 38)
    assert chi == -5701933749681810391438055429565535727234087379690080028068000
