"""CY criterion, twisted exterior algebra, Frobenius scalars, patches."""

import json
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from qfermat import koszulcy
from qfermat.census import CapacityError
from qfermat.cyclo import CycloField
from qfermat.hilb1 import face_complex
from qfermat.koszulcy import (
    DEHOMOGENIZE_NOTE,
    FROBENIUS_MAX_N,
    ExtElement,
    FrobeniusPairingError,
    PatchParams,
    column_sums,
    compare_frobenius,
    cy_criterion,
    dehomogenize,
    frobenius_bruteforce,
    frobenius_closedform,
    is_twist_realizable,
)
from qfermat.qalgebra import (
    commutative_params,
    fermat_element,
    from_twist,
    is_central,
    product_of_generators,
    validate_params,
)

import _oracles
from _util import corrupt_pair, params_st, random_params


# -------------------------------------------------------------- CY criterion


def test_column_sums_pinned_example():
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1] = 1
    rows[1][0] = 4
    p = validate_params(5, rows)
    report = cy_criterion(p)
    assert report.column_sums == (4, 1, 0, 0, 0)
    assert not report.is_cy
    assert report.common_value is None


def test_commutative_is_cy_with_common_value_zero():
    report = cy_criterion(commutative_params(5))
    assert report.is_cy
    assert report.common_value == 0
    assert report.twist_is_scalar


@given(params_st(min_n=2, max_n=6))
def test_cy_matches_literal_root_of_unity_products(p):
    report = cy_criterion(p)
    assert report.is_cy == _oracles.column_products_equal(p.exps)
    assert report.column_sums == tuple(
        sum(p.exponent(i, j) for i in range(1, p.n + 1)) % p.n
        for j in range(1, p.n + 1)
    )


@given(params_st(min_n=2, max_n=8))
def test_column_sums_match_the_entrywise_oracle(p):
    assert column_sums(p) == tuple(_oracles.column_sums(p.exps))


@given(params_st(min_n=2, max_n=6))
def test_serre_twist_scalars_invert_the_column_sums(p):
    report = cy_criterion(p)
    field = CycloField(p.n)
    assert report.serre_twist.scalars == tuple(
        field.zeta(-s) for s in report.column_sums
    )
    assert report.twist_is_scalar == report.is_cy


@given(st.lists(st.integers(0, 5), min_size=3, max_size=6))
def test_twist_matrices_always_pass_the_criterion(d):
    report = cy_criterion(from_twist(d))
    assert report.is_cy
    assert report.common_value == sum(d) % len(d)


def test_cy_report_json_schema():
    blob = cy_criterion(commutative_params(3)).to_json_dict()
    assert set(blob) == {
        "is_cy",
        "column_sums",
        "common_value",
        "serre_scalars",
        "twist_is_scalar",
        "twist_vector",
    }
    blob2 = cy_criterion(
        validate_params(3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]])
    ).to_json_dict()
    assert "twist_vector" not in blob2


# ------------------------------------------------------ twisted exterior dual


def test_exterior_generators_square_to_zero():
    p = random_params(4, random.Random(1))
    for j in range(1, 5):
        y = ExtElement.generator(p, j)
        assert (y * y).is_zero()


@given(params_st(min_n=2, max_n=5))
def test_exterior_defining_relation(p):
    field = CycloField(2 * p.n)
    for i in range(1, p.n + 1):
        for j in range(1, p.n + 1):
            if i == j:
                continue
            yi = ExtElement.generator(p, i)
            yj = ExtElement.generator(p, j)
            q_ij = field.zeta(2 * p.exponent(i, j))
            assert ((yi * yj).scale(q_ij) + yj * yi).is_zero()


@given(params_st(min_n=2, max_n=4))
def test_exterior_defining_relation_in_a_larger_field(p):
    field = CycloField(4 * p.n)
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            yi = ExtElement.generator(p, i, field)
            yj = ExtElement.generator(p, j, field)
            q_ij = field.zeta(4 * p.exponent(i, j))
            assert ((yi * yj).scale(q_ij) + yj * yi).is_zero()


@given(params_st(min_n=2, max_n=5), st.data())
def test_exterior_product_is_associative(p, data):
    n = p.n
    universe = list(range(1, n + 1))
    pick = lambda: data.draw(
        st.lists(st.sampled_from(universe), unique=True, max_size=n).map(sorted)
    )
    a = ExtElement.blade(p, pick())
    b = ExtElement.blade(p, pick())
    c = ExtElement.blade(p, pick())
    assert (a * b) * c == a * (b * c)


@given(params_st(min_n=2, max_n=6))
def test_top_pairing_is_nondegenerate_on_blades(p):
    n = p.n
    universe = set(range(1, n + 1))
    for size in range(n + 1):
        for s in combinations(sorted(universe), size):
            t = sorted(universe - set(s))
            prod = ExtElement.blade(p, s) * ExtElement.blade(p, t)
            assert not prod.is_zero()
            assert list(prod.terms) == [tuple(range(1, n + 1))]


def test_overlapping_blades_multiply_to_zero():
    p = random_params(4, random.Random(2))
    assert (ExtElement.blade(p, [1, 2]) * ExtElement.blade(p, [2, 3])).is_zero()


@pytest.mark.parametrize("n", range(2, 7))
def test_blade_exponent_matches_the_crossing_count_oracle(n):
    # every ordered blade pair, overlapping ones included, read from the
    # crossing table against literal crossings
    rng = random.Random(0xB1 + n)
    for _ in range(4):
        p = random_params(n, rng)
        cross = koszulcy._crossings(p)
        for s in range(1 << n):
            for t in range(1 << n):
                r = _oracles.blade_product_exponent(p.exps, s, t)
                assert koszulcy._blade_products(cross, [s], [t]) == (
                    [] if r is None else [(s, t, *r)]
                )


@given(st.data(), params_st(min_n=2, max_n=7))
def test_blade_products_are_the_nonzero_oracle_products_in_order(data, p):
    # ss and ts in any order, with repeats and masks overlapping each other;
    # the products come s-major.  ExtElement and the Frobenius sweep both
    # rely on this contract
    blades = st.integers(0, (1 << p.n) - 1)
    ss = data.draw(st.lists(blades, max_size=6))
    ts = data.draw(st.lists(blades, max_size=12))
    expected = [
        (s, t, *r)
        for s in ss
        for t in ts
        if (r := _oracles.blade_product_exponent(p.exps, s, t)) is not None
    ]
    assert koszulcy._blade_products(koszulcy._crossings(p), ss, ts) == expected


# ----------------------------------------------------------------- Frobenius


def test_frobenius_commutative_two_generator_anchor():
    comp = compare_frobenius(commutative_params(2))
    f = CycloField(4)
    assert comp.bruteforce == (-f.one(), -f.one())
    assert comp.closedform == (f.one(), f.one())
    assert comp.agree_mod_scalar
    assert comp.ratio == -f.one()


def test_frobenius_commutative_five_generator_anchor():
    comp = compare_frobenius(commutative_params(5))
    f = CycloField(10)
    assert all(c == f.one() for c in comp.bruteforce)
    assert all(c == -f.one() for c in comp.closedform)
    assert comp.agree_mod_scalar


def test_frobenius_exhaustive_small_case_matches_hand_formula():
    for p in _oracles.enumerate_params(3):
        brute = frobenius_bruteforce(p)
        for j in range(1, 4):
            assert brute[j - 1] == _oracles.frobenius_scalar_prediction(p.exps, j)


@given(params_st(min_n=2, max_n=6))
def test_frobenius_scalars_match_hand_formula(p):
    brute = frobenius_bruteforce(p)
    for j in range(1, p.n + 1):
        assert brute[j - 1] == _oracles.frobenius_scalar_prediction(p.exps, j)


@given(params_st(min_n=2, max_n=6))
def test_frobenius_routes_agree_modulo_one_global_unit(p):
    comp = compare_frobenius(p)
    assert comp.agree_mod_scalar
    assert comp.ratio == -CycloField(2 * p.n).one()


@given(params_st(min_n=2, max_n=7))
@example(from_twist([1, 0, 0, 0, 0]))
@example(from_twist([0, 1, 3, 2, 5, 4, 6]))
@example(validate_params(3, [[0, 1, 0], [2, 0, 0], [0, 0, 0]]))
def test_cy_verdict_reads_off_the_koszul_dual_frobenius_scalars(p):
    # A is CY exactly when the Frobenius automorphism of its exterior dual is
    # scalar, and the two diagonal twists differ by one global root: with the
    # Serre scalar zeta_n^(k_j) and the brute-force scalar zeta_2n^(f_j),
    # 2 k_j - f_j mod 2n does not depend on j.
    report = cy_criterion(p)
    brute = frobenius_bruteforce(p)
    event("cy" if report.is_cy else "not cy")
    assert report.is_cy == all(b == brute[0] for b in brute)
    offsets = {
        (2 * serre.root_exp - b.root_exp) % (2 * p.n)
        for serre, b in zip(report.serre_twist.scalars, brute)
    }
    assert len(offsets) == 1


def _pairing_pairs(n):
    """Ordered blade pairs (u, v) with |u| + |v| = n, 0 < |u| < n and u != v,
    except the pairs that fix the scalars (u or v a single generator and the
    other its complement): corrupting one of those moves a scalar, and the
    sweep then fails first on the pair (0, top).  The pairs (u, u) are left
    out as well; the test of which products the sweep forms covers them."""
    top = (1 << n) - 1
    for u in range(1, top):
        for v in range(1, top):
            if u == v or bin(u).count("1") + bin(v).count("1") != n:
                continue
            if u | v == top and 1 in (bin(u).count("1"), bin(v).count("1")):
                continue
            yield u, v


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pairing_sweep_rejects_any_single_corrupted_pair(n, monkeypatch):
    p = random_params(n, random.Random(n))
    real = koszulcy._blade_products
    checked = 0
    for bad in _pairing_pairs(n):
        monkeypatch.setattr(koszulcy, "_blade_products", corrupt_pair(real, bad, n))
        with pytest.raises(FrobeniusPairingError) as info:
            frobenius_bruteforce(p)
        u, v = bad
        assert str(info.value) in (
            f"pairing identity failed on blades {u:#b}, {v:#b}",
            f"pairing identity failed on blades {v:#b}, {u:#b}",
        )
        checked += 1
    monkeypatch.setattr(koszulcy, "_blade_products", real)
    frobenius_bruteforce(p)
    # C(2n, n) pairs, less the two with an empty blade, the 2n that fix
    # scalars and the C(n, n/2) pairs (u, u)
    self_paired = comb(n, n // 2) if n % 2 == 0 else 0
    assert checked == comb(2 * n, n) - 2 - 2 * n - self_paired


@pytest.mark.parametrize("n", range(2, 8))
def test_pairing_sweep_forms_each_complementary_degree_product_once(n, monkeypatch):
    # Every ordered pair (s, t) with |s| + |t| = n is multiplied, overlapping
    # pairs included, and none twice: C(2n, n) products in all.
    p = random_params(n, random.Random(n))
    real = koszulcy._blade_products
    calls = []

    def recorder(cross, ss, ts):
        calls.extend((s, t) for s in ss for t in ts)
        return real(cross, ss, ts)

    monkeypatch.setattr(koszulcy, "_blade_products", recorder)
    frobenius_bruteforce(p)
    every = {
        (s, t)
        for s in range(1 << n)
        for t in range(1 << n)
        if bin(s).count("1") + bin(t).count("1") == n
    }
    assert set(calls) == every
    assert len(calls) == comb(2 * n, n)


@pytest.mark.parametrize("n", range(2, 8))
def test_pairing_sweep_makes_one_product_call_per_grade(n, monkeypatch):
    p = random_params(n, random.Random(n))
    real = koszulcy._blade_products
    calls = []

    def recorder(cross, ss, ts):
        calls.append(len(ss))
        return real(cross, ss, ts)

    monkeypatch.setattr(koszulcy, "_blade_products", recorder)
    frobenius_bruteforce(p)
    assert calls == [comb(n, k) for k in range(n + 1)]


@pytest.mark.parametrize("fault", ["drop", "swap"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_pairing_sweep_names_a_missing_or_misplaced_complement(n, fault, monkeypatch):
    # A row that loses the product of u with its complement, or holds it
    # after the next blade's, fails on (u, top ^ u).
    p = random_params(n, random.Random(n))
    real = koszulcy._blade_products
    top = (1 << n) - 1
    checked = 0
    for u in range(1 << n):

        def faulty(cross, ss, ts):
            row = real(cross, ss, ts)
            i = next((i for i, r in enumerate(row) if r[0] == u), None)
            if i is not None and fault == "drop":
                del row[i]
            elif i is not None:
                row[i], row[i + 1] = row[i + 1], row[i]
            return row

        if fault == "swap" and u == max(koszulcy._grades(n)[u.bit_count()]):
            continue
        monkeypatch.setattr(koszulcy, "_blade_products", faulty)
        with pytest.raises(FrobeniusPairingError) as info:
            frobenius_bruteforce(p)
        assert str(info.value) == f"pairing identity failed on blades {u:#b}, {top ^ u:#b}"
        checked += 1
    # a swap needs a next blade in u's grade: the last of each grade has none
    assert checked == (1 << n) - (n + 1 if fault == "swap" else 0)


def test_pairing_sweep_names_a_product_of_no_blade_in_the_grade(monkeypatch):
    # every left blade of grade 1 has its complement in place, and the row
    # ends in a product whose left blade is the top one
    p = random_params(3, random.Random(3))
    real = koszulcy._blade_products

    def stray(cross, ss, ts):
        row = real(cross, ss, ts)
        return row + [(0b111, 0, 0b111, 0)] if ss == (1, 2, 4) else row

    monkeypatch.setattr(koszulcy, "_blade_products", stray)
    with pytest.raises(FrobeniusPairingError) as info:
        frobenius_bruteforce(p)
    assert str(info.value) == "pairing identity failed on blades 0b111, 0b0"


def test_frobenius_refuses_n_beyond_the_bound_before_any_product(monkeypatch):
    calls = []
    monkeypatch.setattr(koszulcy, "_blade_products", lambda *args: calls.append(args))
    p = random_params(FROBENIUS_MAX_N + 1, random.Random(0))
    with pytest.raises(CapacityError) as info:
        compare_frobenius(p)
    assert str(info.value) == (
        "n=13 needs C(26, 13) = 10400600 blade products, "
        "beyond the supported bound n <= 12"
    )
    assert calls == []


def _generic_frobenius_json(p):
    """compare_frobenius(p).to_json_dict() recomputed on untagged elements,
    so every product runs through _mul_coords and every quotient through the
    extended Euclidean inverse; blade signs come from literal crossings."""
    n = p.n
    field = CycloField(2 * n)

    def generic(z):
        return field.element(z.coords)

    def minus_q(i, j):
        # -q_ij = -zeta_n^(e_ij) as an untagged element of Q(zeta_2n)
        return -generic(field.zeta(2 * p.exps[i][j]))

    def blade_coeff(left, right):
        c = generic(field.one())
        for b in right:
            for a in left:
                if a > b:
                    c = c * minus_q(b, a)
        return c

    gens = list(range(n))
    brute, closed = [], []
    for j in gens:
        rest = [i for i in gens if i != j]
        brute.append(blade_coeff(rest, [j]) * blade_coeff([j], rest).inverse())
        c = generic(field.one())
        for i in gens:
            c = c * minus_q(j, i)
        closed.append(c)
    ratios = [b * c.inverse() for b, c in zip(brute, closed)]
    agree = all(r == ratios[0] for r in ratios[1:])
    return {
        "n": n,
        "bruteforce": [c.to_json() for c in brute],
        "closedform": [c.to_json() for c in closed],
        "agree_mod_scalar": agree,
        "ratio": ratios[0].to_json() if agree else None,
    }


def test_frobenius_json_matches_the_generic_arithmetic_path():
    # n = 10 and the cap are one matrix each: the sweep there forms 184,756
    # and 2,704,156 blade products
    rng = random.Random(0xF2)
    for n in (*range(2, 9), 10, FROBENIUS_MAX_N):
        for _ in range({7: 4, 8: 2, 10: 1, FROBENIUS_MAX_N: 1}.get(n, 12)):
            p = random_params(n, rng)
            comp = compare_frobenius(p)
            # the comparison reads exponents, so both routes must tag them
            assert all(c.root_exp is not None for c in comp.bruteforce + comp.closedform)
            fast = json.dumps(comp.to_json_dict(), sort_keys=True)
            assert fast == json.dumps(_generic_frobenius_json(p), sort_keys=True)


@pytest.mark.parametrize("n", range(2, 7))
def test_frobenius_routes_agree_iff_their_exponents_differ_by_one_residue(n, monkeypatch):
    # The routes always agree, so the disagreement path is reached by moving
    # one closed-form scalar by a nontrivial root zeta_2n^k.  Moving all of
    # them keeps the agreement and divides the ratio -1 by zeta_2n^k.
    p = random_params(n, random.Random(n))
    closed = frobenius_closedform(p)
    zeta = CycloField(2 * n).zeta
    for k in range(2 * n):
        moved = tuple(c * zeta(k) for c in closed)
        monkeypatch.setattr(koszulcy, "frobenius_closedform", lambda _: moved)
        comp = compare_frobenius(p)
        assert comp.agree_mod_scalar and comp.ratio == -zeta(-k)
    for j in range(n):
        for k in (1, n, 2 * n - 1):
            moved = closed[:j] + (closed[j] * zeta(k),) + closed[j + 1:]
            monkeypatch.setattr(koszulcy, "frobenius_closedform", lambda _: moved)
            comp = compare_frobenius(p)
            assert comp.closedform == moved
            assert comp.agree_mod_scalar is False
            assert comp.ratio is None
            blob = json.loads(json.dumps(comp.to_json_dict()))
            assert blob["agree_mod_scalar"] is False and blob["ratio"] is None


def test_closed_form_reads_the_row_sums():
    p = random_params(5, random.Random(33))
    closed = frobenius_closedform(p)
    f = CycloField(10)
    for j in range(1, 6):
        rowsum = sum(p.exponent(j, i) for i in range(1, 6)) % 5
        assert closed[j - 1] == f.zeta(25 + 2 * rowsum)


def test_frobenius_comparison_json_shape():
    blob = compare_frobenius(commutative_params(2)).to_json_dict()
    assert set(blob) == {"n", "bruteforce", "closedform", "agree_mod_scalar", "ratio"}


# ---------------------------------------------------------- twist realizability


@given(st.lists(st.integers(0, 6), min_size=2, max_size=6))
def test_twist_recovery_reproduces_the_matrix(d):
    p = from_twist(d)
    recovered = is_twist_realizable(p)
    assert recovered is not None
    assert from_twist(recovered) == p


def test_single_relation_matrix_is_not_realizable():
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1] = 1
    rows[1][0] = 4
    assert is_twist_realizable(validate_params(5, rows)) is None


def test_twist_realizability_matches_bruteforce_search():
    for p in _oracles.enumerate_params(3):
        got = is_twist_realizable(p)
        want = _oracles.twist_solution_bruteforce(p.exps)
        assert (got is None) == (want is None)
        if got is not None:
            assert from_twist(got) == p
    rng = random.Random(5)
    for _ in range(200):
        p = random_params(4, rng)
        got = is_twist_realizable(p)
        want = _oracles.twist_solution_bruteforce(p.exps)
        assert (got is None) == (want is None)


def test_realizability_coincides_with_full_face_complex():
    for n in (3, 4):
        for p in _oracles.enumerate_params(n):
            assert (is_twist_realizable(p) is not None) == face_complex(p).is_full
    rng = random.Random(6)
    for n in (5, 6):
        for _ in range(100):
            p = random_params(n, rng)
            assert (is_twist_realizable(p) is not None) == face_complex(p).is_full


# --------------------------------------------------------- deformation check


@given(params_st(min_n=3, max_n=6))
def test_fermat_relation_is_always_a_central_deformation(p):
    assert is_central(fermat_element(p))


@given(params_st(min_n=3, max_n=5))
def test_deformed_relation_requires_zero_column_sums(p):
    want = all(s == 0 for s in column_sums(p))
    assert is_central(product_of_generators(p)) == want


def test_deformation_pinned_examples():
    assert is_central(product_of_generators(from_twist([1, 2, 3, 4, 0])))
    # column sums all equal to 1
    skew = from_twist([1, 0, 0, 0, 0])
    assert column_sums(skew) == (1, 1, 1, 1, 1)
    assert not is_central(product_of_generators(skew))


# -------------------------------------------------------------------- patches


def test_patch_of_commutative_is_commutative():
    patch = dehomogenize(commutative_params(4), 2)
    assert patch.exps == ((0, 0, 0),) * 3
    assert patch.order == 4
    assert patch.num_generators == 3
    assert patch.note == DEHOMOGENIZE_NOTE


def test_patch_three_generator_anchor():
    p = validate_params(3, [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    patch = dehomogenize(p, 3)
    want = (p.exponent(1, 2) + p.exponent(3, 1) + p.exponent(2, 3)) % 3
    assert patch.exps[0][1] == want


@given(params_st(min_n=2, max_n=6), st.data())
def test_patch_matches_quantum_torus_oracle(p, data):
    m = data.draw(st.integers(1, p.n))
    patch = dehomogenize(p, m)
    assert patch.exps == _oracles.patch_exponent_oracle(p.exps, m)


@given(params_st(min_n=2, max_n=6), st.data())
def test_patch_is_antisymmetric_mod_the_original_order(p, data):
    m = data.draw(st.integers(1, p.n))
    patch = dehomogenize(p, m)
    k = patch.num_generators
    for a in range(k):
        assert patch.exps[a][a] == 0
        for b in range(k):
            assert (patch.exps[a][b] + patch.exps[b][a]) % p.n == 0


def test_patch_rejects_bad_chart_index():
    p = commutative_params(3)
    with pytest.raises(ValueError):
        dehomogenize(p, 0)
    with pytest.raises(ValueError):
        dehomogenize(p, 4)


def test_patch_params_validates_its_matrix():
    with pytest.raises(ValueError):
        PatchParams(order=3, exps=((0, 1), (1, 0)), note="x")


def test_patch_json_shape():
    blob = dehomogenize(commutative_params(3), 1).to_json()
    assert blob["order"] == 3
    assert len(blob["exponents"]) == 2
    assert "note" in blob
