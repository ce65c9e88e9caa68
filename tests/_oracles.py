"""Independent reference implementations used as oracles by the test suite.

Everything here is written the slow, obvious way, on purpose: adjacent-swap
bubble sorts, full word expansion, direct subset sweeps, literal root-of-unity
products, blade signs from literal crossing counts, point shift chains
walked on root exponents, an Euler number summed over every admissible
support, a census sweep over every matrix with no twist quotient, an
inclusion-exclusion count over the triangle hyperplanes, commutators and
normalizers from products with every generator, the extended Euclidean
inverse over Fractions, and a character-by-character polynomial parser.
None of it shares code with the package under test, with four exceptions:
`enumerate_params` only wraps its matrices with the
package's validator; the representative-scan oracle reuses the scanner's
lift, because it checks which representatives the census counts, not how a
class lists its members (its cy, generic and full masks are its own, from
column sums and triangles); the commutator and normalizer oracles multiply
with the package's `multiply`, because they check that the column-phase rule
behind `is_central` and `normalizing_automorphism` decides what the products
would; and `reference_parse_poly` evaluates coefficients with the package's
`CycloField` arithmetic, because it checks how text is read, not how Q(zeta)
multiplies.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, prod

import numpy as np

from qfermat.cyclo import CycloField
from qfermat.qalgebra import SkewPoly, multiply, validate_params


def bubble_normal_order(exps, word):
    """Sort a generator word by adjacent swaps, applying the defining relation
    x_a x_b = zeta^{e_ab} x_b x_a one swap at a time.  Returns (phase mod n,
    multidegree)."""
    n = len(exps)
    w = list(word)
    phase = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a > b:
                phase += exps[a - 1][b - 1]
                w[k], w[k + 1] = b, a
                changed = True
    degree = [0] * n
    for g in w:
        degree[g - 1] += 1
    return phase % n, tuple(degree)


def multidegree_word(md):
    """The sorted word x_1^(a_1)...x_n^(a_n) as an explicit generator list."""
    out = []
    for i, a in enumerate(md, start=1):
        out.extend([i] * a)
    return out


def word_product_phase(exps, md_left, md_right):
    """Phase of x^a * x^b by concatenating the two sorted words and bubble
    sorting the result."""
    phase, _ = bubble_normal_order(exps, multidegree_word(md_left) + multidegree_word(md_right))
    return phase


def naive_reduce_a(n, terms):
    """Rewrite x_n^n -> -(x_1^n + ... + x_{n-1}^n) until every last exponent
    is below n.  Phases never arise because each x_k^n is central."""
    work = dict(terms)
    done = {}
    while work:
        md, coeff = work.popitem()
        if md[-1] < n:
            acc = done.get(md)
            new = coeff if acc is None else acc + coeff
            if new.is_zero():
                done.pop(md, None)
            else:
                done[md] = new
            continue
        for k in range(n - 1):
            sub = list(md)
            sub[-1] -= n
            sub[k] += n
            sub = tuple(sub)
            acc = work.get(sub)
            new = -coeff if acc is None else acc - coeff
            if new.is_zero():
                work.pop(sub, None)
            else:
                work[sub] = new
    return done


def column_products_equal(exps):
    """The CY condition computed the literal way: form each column product
    prod_i q_ij as an exact cyclotomic and compare the values pairwise."""
    n = len(exps)
    field = CycloField(n)
    prods = []
    for j in range(n):
        acc = field.one()
        for i in range(n):
            acc = acc * field.zeta(exps[i][j] % n)
        prods.append(acc)
    return all(p == prods[0] for p in prods[1:])


def column_products_are_one(exps):
    n = len(exps)
    field = CycloField(n)
    for j in range(n):
        acc = field.one()
        for i in range(n):
            acc = acc * field.zeta(exps[i][j] % n)
        if acc != field.one():
            return False
    return True


def triangle(exps, i, j, k):
    n = len(exps)
    return (exps[i - 1][j - 1] + exps[j - 1][k - 1] + exps[k - 1][i - 1]) % n


def generic_bruteforce(exps):
    n = len(exps)
    return all(
        triangle(exps, i, j, k) != 0 for i, j, k in combinations(range(1, n + 1), 3)
    )


def admissible_bruteforce(exps, subset):
    """Faces need at least two vertices; beyond that, every internal
    triangle must vanish."""
    if len(set(subset)) < 2:
        return False
    return all(
        triangle(exps, i, j, k) == 0 for i, j, k in combinations(sorted(subset), 3)
    )


def maximal_admissible_subsets(exps):
    """All maximal admissible subsets of {1..n}, by the full 2^n sweep."""
    n = len(exps)
    universe = list(range(1, n + 1))
    admissible = []
    for size in range(2, n + 1):
        for subset in combinations(universe, size):
            if admissible_bruteforce(exps, subset):
                admissible.append(frozenset(subset))
    maximal = [
        s for s in admissible if not any(s < t for t in admissible)
    ]
    return sorted(tuple(sorted(s)) for s in maximal)


def euler_number_support_sum(exps):
    """Euler number of A's point scheme, one support at a time: the points
    whose nonzero coordinates are exactly an admissible T contribute
    (-1)^|T| n^(|T|-1).  Sums over every subset of {1..n} that
    `admissible_bruteforce` accepts."""
    n = len(exps)
    return sum(
        (-1) ** size * n ** (size - 1)
        for size in range(2, n + 1)
        for subset in combinations(range(1, n + 1), size)
        if admissible_bruteforce(exps, subset)
    )


def point_chain_holds(exps, xi, steps, fermat=False):
    """Walk the shift chain of a projective point and check it exactly.

    Each coordinate is an exponent a standing for zeta_2n^a (taken mod 2n),
    or None for a zero coordinate, so every product below is an addition of
    exponents and no field arithmetic is needed.  The shift is anchored at
    the smallest supported index b and multiplies coordinate j by
    zeta_n^(e_bj) = zeta_2n^(2 e_bj).  Each of the given number of steps
    checks xi_i * (next xi)_j = zeta_n^(e_ij) * xi_j * (next xi)_i for all
    i < j; both sides are zero or one root, so they are compared as
    exponents.  Inadmissible supports fail rather than raise.

    With fermat, the Fermat element must also kill the module:
    sum_j prod_(t<n) p_(t,j) = 0 over the chain p_0, p_1, ...  That is
    decided for points with at most two nonzero coordinates only: one root
    is never 0, and zeta_2n^a + zeta_2n^b = 0 exactly when a - b = n mod 2n.
    """
    n = len(exps)
    m = 2 * n
    if len(xi) != n:
        raise ValueError(f"expected {n} coordinates, got {len(xi)}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    support = [j for j in range(n) if xi[j] is not None]
    if not support:
        raise ValueError("the zero vector is not a projective point")
    if fermat and len(support) > 2:
        raise ValueError("the Fermat check takes at most two nonzero coordinates")

    def times(a, b):
        return None if a is None or b is None else (a + b) % m

    shift = [2 * exps[support[0]][j] for j in range(n)]
    chain = [[times(a, 0) for a in xi]]
    while len(chain) < max(steps + 1, n):
        chain.append([times(a, d) for a, d in zip(chain[-1], shift)])
    for cur, nxt in zip(chain[:steps], chain[1 : steps + 1]):
        for i in range(n):
            for j in range(i + 1, n):
                if times(cur[i], nxt[j]) != times(times(2 * exps[i][j], cur[j]), nxt[i]):
                    return False
    if fermat:
        powers = [sum(point[j] for point in chain[:n]) % m for j in support]
        return len(powers) == 2 and (powers[0] - powers[1]) % m == n
    return True


def twist_solution_bruteforce(exps):
    """Search every d in (Z/n)^n with d_1 = 0 for e_ij = d_i - d_j.  Only
    sensible for small n; used to cross-check the cocycle detector."""
    n = len(exps)
    if n > 4:
        raise ValueError("brute-force twist search is for n <= 4")
    from itertools import product

    for rest in product(range(n), repeat=n - 1):
        d = (0,) + rest
        if all(
            exps[i][j] % n == (d[i] - d[j]) % n for i in range(n) for j in range(n)
        ):
            return d
    return None


def frobenius_scalar_prediction(exps, j):
    """Hand-derived value of the pairing scalar for generator j: moving y_j
    from the right end of the top blade back past the other n-1 generators
    costs (-1)^{n-1} prod_{i != j} q_ji, i.e. (-1)^{n-1} zeta_n^{rowsum_j}."""
    n = len(exps)
    field = CycloField(2 * n)
    rowsum = sum(exps[j - 1]) % n
    return field.zeta((n * (n - 1) + 2 * rowsum) % (2 * n))


def blade_product_exponent(exps, s, t):
    """y_S y_T for blade bitmasks s and t (bit i is generator i+1), by counting
    crossings: moving each b in T left past every a in S with a > b uses
    y_a y_b = -q_ba y_b y_a = zeta_2n^(n + 2 e_ba) y_b y_a.  Returns
    (s | t, exponent mod 2n), or None when the blades share a generator."""
    n = len(exps)
    left = [i for i in range(n) if s >> i & 1]
    right = [i for i in range(n) if t >> i & 1]
    if set(left) & set(right):
        return None
    e = 0
    for a in left:
        for b in right:
            if a > b:
                e += n + 2 * exps[b][a]
    return s | t, e % (2 * n)


def series_coefficient(n, degree):
    """Coefficient of t^degree in (1 - t^n) / (1 - t)^n."""
    lead = comb(degree + n - 1, n - 1)
    if degree >= n:
        lead -= comb(degree - 1, n - 1)
    return lead


def exps_from_digits(n, digits):
    """The antisymmetric matrix whose strict upper triangle, read row-major,
    is `digits`: the census counter's reading of an index."""
    exps = [[0] * n for _ in range(n)]
    for (i, j), e in zip(combinations(range(n), 2), digits):
        exps[i][j] = e
        exps[j][i] = (-e) % n
    return exps


def index_of(exps):
    """Canonical census index: the upper triangle, row-major, as base-n digits."""
    n = len(exps)
    index = 0
    for i, j in combinations(range(n), 2):
        index = index * n + exps[i][j] % n
    return index


def enumerate_params(n):
    """Every antisymmetric matrix mod n exactly once, in canonical order."""
    for digits in product(range(n), repeat=n * (n - 1) // 2):
        yield validate_params(n, exps_from_digits(n, digits))


def column_sums(exps):
    """Column sums mod n, added up entry by entry."""
    n = len(exps)
    return [sum(exps[i][j] for i in range(n)) % n for j in range(n)]


def census_counts_bruteforce(n):
    """Naive full sweep for small n: literal cyclotomic column products for
    the CY side, literal triangle sweep for genericity."""
    total = 0
    count_cy = 0
    count_generic = 0
    count_both = 0
    count_both_zero_sums = 0
    for digits in product(range(n), repeat=n * (n - 1) // 2):
        exps = exps_from_digits(n, digits)
        total += 1
        cy = column_products_equal(exps)
        gen = generic_bruteforce(exps)
        if cy:
            count_cy += 1
        if gen:
            count_generic += 1
        if cy and gen:
            count_both += 1
            if column_products_are_one(exps):
                count_both_zero_sums += 1
    return {
        "total": total,
        "count_cy": count_cy,
        "count_generic": count_generic,
        "count_generic_and_cy": count_both,
        "generic_and_zero_column_sums": count_both_zero_sums,
    }


def census_scalar_counts(n):
    """Census tallies by direct per-matrix loops over integer digits: column
    sums and triangles are summed term by term.  n = 5 takes tens of seconds."""
    pairs = list(combinations(range(n), 2))
    pos = {p: k for k, p in enumerate(pairs)}
    plus = [[] for _ in range(n)]
    minus = [[] for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        plus[j].append(k)
        minus[i].append(k)
    tri = [(pos[(a, b)], pos[(b, c)], pos[(a, c)]) for a, b, c in combinations(range(n), 3)]
    total = cy_count = generic_count = both_count = 0
    for u in product(range(n), repeat=len(pairs)):
        total += 1
        generic = True
        for ta, tb, tc in tri:
            if (u[ta] + u[tb] - u[tc]) % n == 0:
                generic = False
                break
        s0 = (sum(u[k] for k in plus[0]) - sum(u[k] for k in minus[0])) % n
        is_cy = True
        for j in range(1, n):
            sj = (sum(u[k] for k in plus[j]) - sum(u[k] for k in minus[j])) % n
            if sj != s0:
                is_cy = False
                break
        if is_cy:
            cy_count += 1
        if generic:
            generic_count += 1
            if is_cy:
                both_count += 1
    return {
        "total": total,
        "count_cy": cy_count,
        "count_generic": generic_count,
        "count_generic_and_cy": both_count,
    }


def raw_census_json(n, witness_limit):
    """The census report's JSON dict from a numpy sweep over all
    n^(n(n-1)/2) matrices, with no twist quotient: every matrix is decoded,
    tallied and listed in index order.  n = 5 takes a few seconds; sweeps are
    cached per n, and witness limits up to 40 share one."""
    tally, first = _raw_sweep(n, max(witness_limit, 40))
    t = n * (n - 1) // 2

    def digits_of(index):
        out = []
        for _ in range(t):
            index, d = divmod(index, n)
            out.append(d)
        return out[::-1]

    both = tally["both"]
    return {
        "n": n,
        "total": n**t,
        "count_cy": tally["cy"],
        "count_generic": tally["generic"],
        "count_generic_and_cy": both,
        "all_generic_cy_have_zero_column_sums": tally["implication_bad"] == 0,
        "implication_counterexamples": first["implication_bad"][:10],
        "n4_dichotomy_holds": tally["dichotomy_bad"] == 0 if n == 4 else None,
        "dichotomy_counterexamples": first["dichotomy_bad"][:10] if n == 4 else [],
        "alternative_readings": (
            {"generic_only": tally["generic"], "generic_and_zero_column_sums": tally["generic_zero"]}
            if n == 5 and both != 3000
            else None
        ),
        "witnesses": [
            {"n": n, "exponents": exps_from_digits(n, digits_of(i))}
            for i in first["both"][:witness_limit]
        ],
    }


@lru_cache(maxsize=None)
def _digit_forms(n):
    """Integer forms on counter digits: column sums
    s_j = sum_(i<j) e_ij - sum_(k>j) e_jk, and triangles
    t(a,b,c) = e_ab + e_bc - e_ac, one column each."""
    pairs = list(combinations(range(n), 2))
    pos = {p: k for k, p in enumerate(pairs)}
    colsum = np.zeros((len(pairs), n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        colsum[k, j] += 1
        colsum[k, i] -= 1
    triangles = np.zeros((len(pairs), comb(n, 3)), dtype=np.int64)
    for col, (a, b, c) in enumerate(combinations(range(n), 3)):
        triangles[pos[(a, b)], col] += 1
        triangles[pos[(b, c)], col] += 1
        triangles[pos[(a, c)], col] -= 1
    return colsum, triangles


def digit_masks(n, digits):
    """cy (equal column sums), generic (no zero triangle), full (every
    triangle zero) and zero (every column sum zero), one boolean per row of
    counter digits."""
    colsum, triangles = _digit_forms(n)
    sums = (digits @ colsum) % n
    tris = (digits @ triangles) % n
    return {
        "cy": (sums == sums[:, :1]).all(axis=1),
        "generic": (tris != 0).all(axis=1),
        "full": (tris == 0).all(axis=1),
        "zero": (sums == 0).all(axis=1),
    }


@lru_cache(maxsize=None)
def _raw_sweep(n, keep):
    """Tallies over every matrix, and the first `keep` indices of each
    listed kind."""
    total = n ** (n * (n - 1) // 2)
    tally = {}
    first = {"both": [], "implication_bad": [], "dichotomy_bad": []}
    block = 1 << 19
    for start in range(0, total, block):
        m = digit_masks(n, representative_digits(n, start, min(start + block, total)))
        cy, generic, full, zero = m["cy"], m["generic"], m["full"], m["zero"]
        masks = {
            "cy": cy,
            "generic": generic,
            "both": cy & generic,
            "generic_zero": generic & zero,
            "implication_bad": cy & generic & ~zero,
            "dichotomy_bad": cy & ~full & ~generic,
        }
        for key, mask in masks.items():
            tally[key] = tally.get(key, 0) + int(mask.sum())
        for key, hits in first.items():
            hits.extend(start + int(h) for h in np.flatnonzero(masks[key])[:keep])
    return tally, {key: hits[:keep] for key, hits in first.items()}


def representative_digits(n, start, stop):
    """Full counter digits of the census indices start .. stop - 1; below
    n^((n-1)(n-2)/2) these are the zero-first-row representatives."""
    t = n * (n - 1) // 2
    x = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((stop - start, t), dtype=np.int64)
    for k in range(t - 1, -1, -1):
        digits[:, k] = x % n
        x //= n
    return digits


def representative_scan(n, witness_limit):
    """Class tallies and lifted indices from a scan of every twist-class
    representative, the census route before the CY stream and the vertex
    peel.  n = 5 takes milliseconds, n = 6 about a minute."""
    from qfermat._scan import lift

    digits = representative_digits(n, 0, n ** ((n - 1) * (n - 2) // 2))
    masks = digit_masks(n, digits)
    cy, generic = masks["cy"], masks["generic"]
    both = cy & generic
    dichotomy_bad = cy & ~masks["full"] & ~generic
    lower = digits[:, n - 1 :]
    return {
        "cy_rows": digits[cy],
        "cy": int(cy.sum()),
        "generic": int(generic.sum()),
        "both": int(both.sum()),
        "implication_bad_indices": lift(n, lower[both], 10, lambda r: sum(r) % n != 0),
        "dichotomy_bad_indices": lift(n, lower[dichotomy_bad], 10) if n == 4 else [],
        "witness_indices": lift(n, lower[both], witness_limit),
    }


def representative_first_match(n, wanted):
    """Index of the first representative meeting every predicate in
    `wanted`, scanning every representative in blocks; None if none does."""
    reps = n ** ((n - 1) * (n - 2) // 2)
    for start in range(0, reps, 1 << 19):
        masks = digit_masks(n, representative_digits(n, start, min(start + (1 << 19), reps)))
        hits = np.flatnonzero(np.logical_and.reduce([masks[p] for p in wanted]))
        if hits.size:
            return start + int(hits[0])
    return None


def _diagonal_form(rows):
    """Diagonal entries of an integer matrix after unimodular row and column
    operations (a diagonalization, not necessarily the Smith form: the
    solution count below needs no divisibility chain)."""
    a = [list(r) for r in rows if any(r)]
    out = []
    while a:
        i, j = min(
            ((i, j) for i, r in enumerate(a) for j, v in enumerate(r) if v),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
        )
        a[0], a[i] = a[i], a[0]
        for r in a:
            r[0], r[j] = r[j], r[0]
        p = a[0][0]
        done = True
        for r in a[1:]:
            q = r[0] // p
            r[:] = [x - q * y for x, y in zip(r, a[0])]
            done = done and r[0] == 0
        for k in range(1, len(a[0])):
            q = a[0][k] // p
            for r in a:
                r[k] -= q * r[0]
            done = done and a[0][k] == 0
        if done:
            out.append(p)
            a = [r[1:] for r in a[1:] if any(r[1:])]
    return out


def _solutions_mod(rows, width, n):
    """Solutions x in (Z/n)^width of rows . x = 0 mod n: with the system in
    diagonal form d_1..d_r, the count is prod gcd(d_i, n) * n^(width - r)."""
    diag = _diagonal_form(rows)
    return prod(gcd(d, n) for d in diag) * n ** (width - len(diag))


def hyperplane_class_counts(n):
    """Generic and generic-and-CY twist classes by inclusion-exclusion over
    the C(n,3) triangle hyperplanes t(a,b,c) = 0 of the representative space
    (lower digits e_bc, 2 <= b < c <= n; the first row is zero): the classes
    avoiding every hyperplane number sum over subsets S of (-1)^|S| times the
    solutions of the equations in S.  The CY count adds the column-sum
    equations s_j = 0 to every system.  Pure Python; n = 5 takes well under
    a second, n = 6 about nine minutes."""
    lower = [(b, c) for b, c in combinations(range(n), 2) if b > 0]
    width = len(lower)
    pos = {p: k for k, p in enumerate(lower)}

    def form(terms):
        row = [0] * width
        for sign, (i, j) in terms:
            if i > 0:
                row[pos[(i, j)]] += sign
        return row

    triangles = [
        form([(1, (a, b)), (1, (b, c)), (-1, (a, c))])
        for a, b, c in combinations(range(n), 3)
    ]
    colsums = [
        form([(1, (i, j)) for i in range(j)] + [(-1, (j, k)) for k in range(j + 1, n)])
        for j in range(1, n)
    ]
    generic = both = 0
    for size in range(len(triangles) + 1):
        for subset in combinations(triangles, size):
            sign = (-1) ** size
            generic += sign * _solutions_mod(subset, width, n)
            both += sign * _solutions_mod(list(subset) + colsums, width, n)
    return {"generic": generic, "generic_and_cy": both}


def laurent_commutation(exps, u, v):
    """Exponent c with X^u X^v = zeta^c X^v X^u for Laurent monomials in the
    quantum torus attached to the exponent matrix: c = sum u_i v_j e_ij."""
    n = len(exps)
    return sum(u[i] * v[j] * exps[i][j] for i in range(n) for j in range(n)) % n


def patch_exponent_oracle(exps, m):
    """Commutation exponent of the chart generators u_i = x_i x_m^{-1} in the
    localized algebra, via the quantum-torus bilinear form."""
    n = len(exps)
    keep = [i for i in range(n) if i != m - 1]
    rows = []
    for a in keep:
        row = []
        for b in keep:
            u = [0] * n
            v = [0] * n
            u[a] += 1
            u[m - 1] -= 1
            v[b] += 1
            v[m - 1] -= 1
            row.append(laurent_commutation(exps, u, v))
        rows.append(tuple(row))
    return tuple(rows)


def rational_coords(element):
    """Coordinate tuple of a Cyclotomic as Fractions, for independent equality checks."""
    return tuple(Fraction(c) for c in element.coords)


def commutator_is_central(poly):
    """Whether g*p - p*g is zero for every generator g, by full products."""
    for i in range(1, poly.params.n + 1):
        g = SkewPoly.generator(poly.params, i, poly.algebra, poly.field)
        if not (multiply(g, poly) - multiply(poly, g)).is_zero():
            return False
    return True


def normalizer_by_products(poly):
    """The scalars s_j with poly*x_j = s_j x_j*poly for every generator, or
    None when some generator has no such scalar: each s_j is read off one
    term of the two full products and checked on all of them."""
    scalars = []
    for j in range(1, poly.params.n + 1):
        g = SkewPoly.generator(poly.params, j, poly.algebra, poly.field)
        left = multiply(poly, g)
        right = multiply(g, poly)
        assert not right.is_zero(), "x_j * poly vanished for a nonzero poly"
        md, ref = next(iter(right.terms.items()))
        cand = left.terms.get(md)
        if cand is None:
            return None
        s = cand / ref
        if not (left - right.scale(s)).is_zero():
            return None
        scalars.append(s)
    return tuple(scalars)


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_divmod(a, b):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    inv_lead = 1 / b[-1]
    for k in range(len(q) - 1, -1, -1):
        if k + len(b) - 1 < len(r) and r[k + len(b) - 1]:
            c = r[k + len(b) - 1] * inv_lead
            q[k] = c
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
    return q, _trim(r)


def euclid_inverse(element):
    """Coordinates (Fractions) of the inverse of a nonzero Cyclotomic, by the
    extended Euclidean algorithm against the cyclotomic modulus."""
    degree = element.field.degree
    phi = [Fraction(c) for c in element.field.modulus]
    a = _trim(list(element.coords))
    # Extended Euclid tracking the coefficient of `a` only; the modulus is
    # irreducible, so the gcd is a nonzero constant.
    r0, r1 = phi, a
    s0 = []
    s1 = [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        # s_new = s0 - q*s1
        prod_ = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    prod_[i + j] += qc * sc
        new = [Fraction(0)] * max(len(s0), len(prod_))
        for i, c in enumerate(s0):
            new[i] += c
        for i, c in enumerate(prod_):
            new[i] -= c
        s0, s1 = s1, _trim(new)
    g = r0[0]
    inv = [c / g for c in s0]
    inv += [Fraction(0)] * (degree - len(inv))
    return tuple(inv[:degree])


class ReferenceParseError(ValueError):
    """The parse error of the reference parser, in the package's message form."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


# The character-by-character tokenizer and token-object recursive descent
# that the package's one-pass parser replaced, kept as its oracle.

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
                raise ReferenceParseError("expected generator index after 'x'", pos)
            tokens.append(("GEN", int(text[i + 1 : j]), pos))
            i = j
        elif ch in _SYMBOLS:
            tokens.append((_SYMBOLS[ch], None, pos))
            i += 1
        else:
            raise ReferenceParseError(f"unexpected character {ch!r}", pos)
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
            raise ReferenceParseError(f"expected {what}", tok[2])
        return tok

    # poly := ['-'] term (('+' | '-') term)*
    def parse(self):
        if self.peek()[0] == "EOF":
            raise ReferenceParseError("empty input", self.peek()[2])
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
                raise ReferenceParseError("expected '+', '-', or end of input", self.peek()[2])
        return tuple(terms)

    def term(self, negated: bool):
        if self.peek()[0] == "GEN":
            coeff, factors = self.field.one(), self.factors()
        else:
            coeff, factors = self.catom("coefficient or generator"), ()
            if self.peek()[0] == "STAR":
                self.next()
                factors = self.factors()
        return (-coeff if negated else coeff, factors)

    def factors(self):
        out = [self.factor()]
        while self.peek()[0] == "STAR":
            self.next()
            out.append(self.factor())
        return tuple(out)

    def factor(self):
        kind, value, pos = self.next()
        if kind != "GEN":
            raise ReferenceParseError("expected generator", pos)
        idx = int(value)
        if not 1 <= idx <= self.n:
            raise ReferenceParseError(f"unknown generator x{idx} (n={self.n})", pos)
        power = 1
        if self.peek()[0] == "CARET":
            self.next()
            ptok = self.expect("INT", "integer exponent")
            power = int(ptok[1])
            if power < 1:
                raise ReferenceParseError("generator power must be >= 1", ptok[2])
        return (idx, power)

    def rational(self):
        tok = self.expect("INT", "integer")
        num = int(tok[1])
        if self.peek()[0] == "SLASH":
            self.next()
            dtok = self.expect("INT", "denominator")
            den = int(dtok[1])
            if den == 0:
                raise ReferenceParseError("zero denominator", dtok[2])
            return self.field.from_rational(Fraction(num, den))
        return self.field.from_rational(num)

    def wpow(self):
        self.expect("W", "'w'")
        power = 1
        if self.peek()[0] == "CARET":
            self.next()
            ptok = self.expect("INT", "integer exponent")
            power = int(ptok[1])
        return self.field.zeta(power)

    def paren_coeff(self):
        self.expect("LPAREN", "'('")
        inner = self.coeff_expr()
        self.expect("RPAREN", "')'")
        if self.peek()[0] == "CARET":
            self.next()
            ptok = self.expect("INT", "integer exponent")
            return inner ** int(ptok[1])
        return inner

    def coeff_expr(self):
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

    def cterm(self):
        value = self.catom()
        while self.peek()[0] == "STAR":
            self.next()
            value = value * self.catom()
        return value

    def catom(self, what: str = "rational, 'w', or '('"):
        kind, _, pos = self.peek()
        if kind == "INT":
            return self.rational()
        if kind == "W":
            return self.wpow()
        if kind == "LPAREN":
            return self.paren_coeff()
        raise ReferenceParseError(f"expected {what}", pos)


def reference_parse_poly(text, n, conductor):
    """The terms of a polynomial text as (coefficient, ((gen, power), ...))
    pairs, read the slow way: one token tuple per token, peek/next/expect
    per step, rationals through Fraction.  Raises ReferenceParseError."""
    return _Parser(text, n, conductor).parse()
