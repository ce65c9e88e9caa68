"""Point-module classification: simplex faces, shift automorphisms, point counts.

A point module is determined by its orbit sequence (xi, phi xi, phi^2 xi, ...)
of projective points; the consecutive-point constraints
xi_i xi'_j = zeta_n^(e_ij) xi_j xi'_i force the support onto a subset S whose
internal triangle exponents e_ij + e_jk + e_ki all vanish.  The parameter set
is therefore a union of faces of the (n-1)-simplex: every 2-subset is always
admissible, and a larger subset is admissible exactly when its triangles
vanish.

Over the ambient algebra B each admissible face contributes a projective
space.  Over the quotient A a point lies in the point scheme exactly when the
Fermat element kills the module, i.e. when sum_j prod_(t<n) p_(t,j) = 0 along
its shift chain p_0, p_1, ...  With the shift phases d_j = e_(base,j) that sum
is sum_j (-1)^(d_j(n-1)) x_j^n: the plain sum of n-th powers at odd n, a
signed one at even n.  A 2-face {i,j} becomes the n points (1 : u) with
u^n = (-1)^(1 + e_ij(n-1)), i.e. u = zeta_2n^(2t+k) with k = 1 + e_ij(n-1)
mod 2; larger faces become hypersurfaces of dimension |S| - 2.  Genericity
(all triangles nonzero) is exactly the discrete case, with n * C(n,2) points
in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .cyclo import CycloField, Cyclotomic
from .qalgebra import ALGEBRA_A, ALGEBRA_B, QuantumParams, _check_algebra

__all__ = [
    "FaceComponent",
    "FaceComplex",
    "Hilb1Report",
    "InadmissibleFaceError",
    "KIND_FINITE_POINTS",
    "KIND_HYPERSURFACE",
    "KIND_PROJECTIVE_SPACE",
    "euler_number",
    "face_complex",
    "fermat_edge_points",
    "hilb1",
    "is_admissible",
    "shift_automorphism",
    "triangle_exponent",
]

KIND_PROJECTIVE_SPACE = "projective-space"
KIND_HYPERSURFACE = "hypersurface-in-face"
KIND_FINITE_POINTS = "finite-points"


class InadmissibleFaceError(ValueError):
    """A face with a nonvanishing internal triangle was supplied."""


def triangle_exponent(params: QuantumParams, i: int, j: int, k: int) -> int:
    """e_ij + e_jk + e_ki mod n; cyclic-rotation invariant, negated by a flip."""
    if len({i, j, k}) != 3:
        raise ValueError(f"triangle indices must be distinct, got ({i},{j},{k})")
    for t in (i, j, k):
        params._check_index(t)
    e = params.exps
    return (e[i - 1][j - 1] + e[j - 1][k - 1] + e[k - 1][i - 1]) % params.n


def _require_simplex(params: QuantumParams) -> None:
    if params.n < 3:
        raise ValueError(f"face analysis needs n >= 3, got n={params.n}")


def is_admissible(params: QuantumParams, subset: Sequence[int]) -> bool:
    """Whether a subset of generators supports point modules.

    All 2-subsets qualify.  Triangle sums form a 2-cocycle,
    t(j,k,l) = t(i,k,l) - t(i,j,l) + t(i,j,k), so a larger subset needs only
    the triangles through its least element i to vanish.
    """
    s = sorted(set(subset))
    if len(s) != len(tuple(subset)):
        raise ValueError(f"repeated index in subset {tuple(subset)}")
    for t in s:
        params._check_index(t)
    if len(s) < 2:
        return False
    return all(triangle_exponent(params, s[0], j, k) == 0 for j, k in combinations(s[1:], 2))


@dataclass(frozen=True)
class FaceComplex:
    """Maximal admissible faces of the (n-1)-simplex."""

    n: int
    maximal_faces: tuple[tuple[int, ...], ...]
    is_full: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "maximal_faces": [list(f) for f in self.maximal_faces],
            "is_full": self.is_full,
        }


def _bits(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def face_complex(params: QuantumParams) -> FaceComplex:
    """Maximal admissible faces, sorted by (size, lexicographic order).

    By the cocycle rule of `is_admissible`, the faces through vertex i are i
    joined to the cliques of its star graph, where j ~ k when t(i,j,k) = 0.
    Bron-Kerbosch with pivoting lists the maximal cliques (Bron & Kerbosch,
    CACM 16, 1973; Tomita, Tanaka & Takahashi, TCS 363, 2006) on an explicit
    stack; starting with the vertices below i excluded lists each face once,
    at its least vertex.
    """
    _require_simplex(params)
    n = params.n
    star = [[0] * n for _ in range(n)]  # star[i][j]: bitmask of the k with t(i,j,k) = 0
    for a, b, c in combinations(range(n), 3):
        if triangle_exponent(params, a + 1, b + 1, c + 1) == 0:
            for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
                star[i][j] |= 1 << k
                star[i][k] |= 1 << j
    maximal: list[tuple[int, ...]] = []
    for i, nbr in enumerate(star):
        stack = [(0, (1 << n) - (2 << i), (1 << i) - 1)]  # (clique, candidates, excluded)
        while stack:
            r, p, x = stack.pop()
            if not p | x:
                maximal.append((i + 1, *(j + 1 for j in _bits(r))))
                continue
            u = max(_bits(p | x), key=lambda w: (nbr[w] & p).bit_count())
            for v in _bits(p & ~nbr[u]):
                stack.append((r | 1 << v, p & nbr[v], x & nbr[v]))
                p ^= 1 << v
                x |= 1 << v
    maximal.sort(key=lambda f: (len(f), f))
    return FaceComplex(n, tuple(maximal), len(maximal[-1]) == n)


def shift_automorphism(
    params: QuantumParams, face: Sequence[int], base: int
) -> tuple[int, ...]:
    """Diagonal phase exponents (d_j)_{j in face} of the shift, anchored at base.

    The shift sends a point xi to (zeta_n^(d_j) xi_j); with d_j = e_(base,j)
    the consecutive-point constraints hold on the whole face because its
    triangles vanish.  Changing the base shifts every phase by one constant.
    """
    f = tuple(sorted(set(face)))
    if len(f) != len(tuple(face)) or len(f) < 2:
        raise InadmissibleFaceError(f"face must be a set of >= 2 indices, got {tuple(face)}")
    if base not in f:
        raise InadmissibleFaceError(f"base {base} not in face {f}")
    if not is_admissible(params, f):
        raise InadmissibleFaceError(f"face {f} has a nonvanishing triangle")
    b = base - 1
    return tuple(params.exps[b][j - 1] % params.n for j in f)


def fermat_edge_points(params: QuantumParams, i: int, j: int) -> tuple[tuple[Cyclotomic, ...], ...]:
    """The n points of the 2-face {i,j} cut by x_i^n + (-1)^(e_ij(n-1)) x_j^n = 0.

    Coordinates are full-length vectors over Q(zeta_2n), normalized to 1 in
    slot i; the affine coordinate u in slot j runs over zeta_2n^(2t+k) for
    t = 0..n-1, with k = 1 + e_ij(n-1) mod 2.
    """
    params._check_index(i)
    params._check_index(j)
    if i == j:
        raise ValueError("edge needs two distinct indices")
    n = params.n
    k = (1 + params.exps[i - 1][j - 1] * (n - 1)) % 2
    field = CycloField(2 * n)
    pts = []
    for t in range(n):
        vec = [field.zero()] * n
        vec[i - 1] = field.one()
        vec[j - 1] = field.zeta(2 * t + k)
        pts.append(tuple(vec))
    return tuple(pts)


@dataclass(frozen=True)
class FaceComponent:
    """One component of the point-module parameter set."""

    face: tuple[int, ...]
    kind: str
    dimension: int
    shift: tuple[int, ...]
    equation: Optional[str] = None
    point_count: Optional[int] = None
    points: Optional[tuple[tuple[Cyclotomic, ...], ...]] = None
    orbit_length: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {
            "face": list(self.face),
            "kind": self.kind,
            "dimension": self.dimension,
            "shift": list(self.shift),
        }
        if self.equation is not None:
            out["equation"] = self.equation
        if self.point_count is not None:
            out["point_count"] = self.point_count
        if self.points is not None:
            out["points"] = [[c.to_json() for c in pt] for pt in self.points]
        if self.orbit_length is not None:
            out["orbit_length"] = self.orbit_length
        return out


@dataclass(frozen=True)
class Hilb1Report:
    """Point-module parameter set of one algebra, organized by maximal faces."""

    params: QuantumParams
    algebra: str
    complex: FaceComplex
    components: tuple[FaceComponent, ...]
    discrete: bool
    total_points: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "n": self.params.n,
            "complex": self.complex.to_json_dict(),
            "components": [c.to_json_dict() for c in self.components],
            "discrete": self.discrete,
            "total_points": self.total_points,
        }


def _face_equation(face: tuple[int, ...], shift: tuple[int, ...], n: int) -> str:
    # The term of x_j carries (-1)^(d_j(n-1)) for the shift phase
    # d_j = e_(face[0],j); d is 0 at face[0], so the first term is positive.
    terms = [f"x{face[0]}^{n}"]
    terms += [f"{'-' if d * (n - 1) % 2 else '+'} x{k}^{n}" for k, d in zip(face[1:], shift[1:])]
    return " ".join(terms) + " = 0"


def hilb1(params: QuantumParams, algebra: str = ALGEBRA_A) -> Hilb1Report:
    """Classify point modules for the ambient algebra B or the quotient A.

    For B every maximal face carries a projective space.  For A the face is
    cut by the sum of supported n-th powers, signed at even n: 2-faces turn
    into n exact points each, larger faces into hypersurfaces described
    symbolically.  The report is discrete exactly when every maximal face is
    a 2-face, i.e. for generic parameters.
    """
    _check_algebra(algebra)
    cx = face_complex(params)
    n = params.n
    comps = []
    for face in cx.maximal_faces:
        shift = shift_automorphism(params, face, face[0])
        if algebra == ALGEBRA_B:
            comps.append(FaceComponent(face, KIND_PROJECTIVE_SPACE, len(face) - 1, shift))
            continue
        equation = _face_equation(face, shift, n)
        if len(face) > 2:
            comps.append(FaceComponent(face, KIND_HYPERSURFACE, len(face) - 2, shift, equation))
            continue
        points = fermat_edge_points(params, *face)
        orbit = n // gcd(shift[1], n)  # shift[1] = e_ij mod n
        comps.append(FaceComponent(face, KIND_FINITE_POINTS, 0, shift, equation, n, points, orbit))
    discrete = bool(comps) and all(c.kind == KIND_FINITE_POINTS for c in comps)
    total = sum(c.point_count for c in comps) if discrete else None
    return Hilb1Report(
        params=params,
        algebra=algebra,
        complex=cx,
        components=tuple(comps),
        discrete=discrete,
        total_points=total,
    )


def euler_number(report: Hilb1Report) -> int:
    """Euler number of the point scheme of A, from its face complex alone.

    Split the scheme by support: the points whose nonzero coordinates are
    exactly an admissible T, |T| >= 2, form an n^(|T|-1)-fold cover (in
    y_j = x_j^n) of a hyperplane in the torus (C*)^(|T|-1), whose Euler
    number is (-1)^|T|; over the T inside a face of k vertices that sums to
    chi(k) = ((1-n)^k - 1)/n + k.  Each intersection of maximal faces weighs
    1 minus the weights of its strict supersets, which counts every T once.
    At even n the signed face equations give the same number, since
    x_j -> zeta_2n x_j carries one locus to the other.
    """
    if report.algebra != ALGEBRA_A:
        raise ValueError("the Euler number is defined for the quotient algebra A only")
    n = report.params.n
    faces = [frozenset(f) for f in report.complex.maximal_faces]
    cuts, fresh = set(faces), set(faces)
    while fresh:
        fresh = {c for c in (z & f for z in fresh for f in faces) if len(c) >= 2} - cuts
        cuts |= fresh
    weight: dict[frozenset, int] = {}
    for z in sorted(cuts, key=len, reverse=True):
        weight[z] = 1 - sum(w for y, w in weight.items() if z < y)
    return sum(w * (((1 - n) ** len(z) - 1) // n + len(z)) for z, w in weight.items())
