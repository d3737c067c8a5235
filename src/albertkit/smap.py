"""The degree-8 structure map S on pairs of Albert elements.

For x = (a, b) in V = J + J, expanding (a wedge b)^{tensor 4} gives 16
signed choices v_1, ..., v_8 from {a, b}: term k of SIGNED_TERMS swaps
(v_{2k-1}, v_{2k-2}) = (a, b) to (b, a) on a subset of the four pairs and
carries sign (-1)^{#swaps}. Two contractions of that tensor against
(X, Y) produce, per term with scalar dd = D(v2,v5,v7) D(v4,v6,v8):

    phi1(x, X, Y) = sum sign * dd * (v1 x v3) x (X x Y)
    phi2(x, X, Y) = 9 * sum sign * dd * (D(v1,v3,X) Y + D(v1,v3,Y) X)

(the factor 9 normalizes the D-scalar pair so that phi2(w, X, Y) =
(Tr(Y)X + Tr(X)Y)/3, which pins s_map(w) to the Jordan product; the
bare signed sum is smaller by exactly that factor). Then

    s_map = -18 phi1 + (3/2) phi2,       circ_x = delta(x)^{-1} s_map

so s_map(w, X, Y) = X o Y at the reference point w, and circ_x is the
product of a Jordan algebra whenever x is semistable: the isotope of J
at a(x) = 81 (k x k) / delta(x), with k = k_elem(x) below.

Everything factors through the single element

    k_elem(x) = sum sign * dd * (v1 x v3),

the Hessian covariant of F_x contracted with a x a, a x b and b x b
(see k_elem), via

    s_map = -18 k x (X x Y) + (9/2)(pair(k, X) Y + pair(k, Y) X).

structure_tensor exploits this when tabulating all 729 basis pairs:
cross(k, .) is linear, so at each point it is one 27x27 integer matrix
built from the sparse cross-product constants of albert.cross_tables(),
and each basis pair is a sparse integer combination of its rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .albert import (
    AlbertElem,
    cross,
    cross_tables,
    gram_apply,
    pair,
    trilinear_d,
)
from .errors import NotSemistable
from .pvs import VPoint, cubic_of, delta


class SignedTerm(NamedTuple):
    """One of the 16 expansion terms: sign and the slot picks (0 = a, 1 = b)."""

    sign: int
    picks: tuple  # 8 entries


def _signed_terms() -> tuple:
    terms = []
    for bits in range(16):
        picks = []
        swaps = 0
        for pair_i in range(4):
            if (bits >> (3 - pair_i)) & 1:
                picks.extend((1, 0))
                swaps += 1
            else:
                picks.extend((0, 1))
        terms.append(SignedTerm(-1 if swaps & 1 else 1, tuple(picks)))
    return tuple(terms)


SIGNED_TERMS = _signed_terms()


def _term_scalar(a: AlbertElem, b: AlbertElem, picks) -> Fraction:
    """D(v2, v5, v7) * D(v4, v6, v8) for the picked slots."""
    ab = (a, b)
    v = [ab[p] for p in picks]
    return trilinear_d(v[1], v[4], v[6]) * trilinear_d(v[3], v[5], v[7])


def phi1(x: VPoint, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    a, b = x.a, x.b
    xy = cross(X, Y)
    acc = None
    ab = (a, b)
    for sign, picks in SIGNED_TERMS:
        dd = _term_scalar(a, b, picks)
        if dd == 0:
            continue
        piece = cross(cross(ab[picks[0]], ab[picks[2]]), xy).scale(sign * dd)
        acc = piece if acc is None else acc + piece
    return acc if acc is not None else X.scale(0)


def phi2(x: VPoint, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    a, b = x.a, x.b
    acc = None
    ab = (a, b)
    for sign, picks in SIGNED_TERMS:
        dd = _term_scalar(a, b, picks)
        if dd == 0:
            continue
        v1, v3 = ab[picks[0]], ab[picks[2]]
        piece = Y.scale(trilinear_d(v1, v3, X)) + X.scale(trilinear_d(v1, v3, Y))
        piece = piece.scale(sign * dd)
        acc = piece if acc is None else acc + piece
    return acc.scale(9) if acc is not None else X.scale(0)


def k_elem(x: VPoint) -> AlbertElem:
    """sum over terms of sign * dd * (v1 x v3); phi1 = k x (X x Y).

    D is symmetric, so each term's scalar only depends on how many of its
    D-arguments are b: with p = (det a, D(a,a,b), D(a,b,b), det b), the
    coefficients of cubic_of(x) without their binomial factors, the signed
    sum is the Hessian covariant of the binary cubic F_x contracted with
    the three crosses a x a, a x b and b x b. Tests pin this to the
    literal signed sum, and to phi1/phi2 through the s_map recombination.
    """
    a, b = x.a, x.b
    f = cubic_of(x)
    p0, p1, p2, p3 = f.c30, f.c21 / 3, f.c12 / 3, f.c03
    return (
        cross(a, a).scale(2 * (p1 * p3 - p2 * p2))
        + cross(a, b).scale(2 * (p1 * p2 - p0 * p3))
        + cross(b, b).scale(2 * (p0 * p2 - p1 * p1))
    )


def s_map(x: VPoint, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """-18 phi1 + (3/2) phi2, contracted through k_elem(x)."""
    k = k_elem(x)
    kx = pair(k, X)
    ky = pair(k, Y)
    out = cross(k, cross(X, Y)).scale(-18)
    return out + (Y.scale(kx) + X.scale(ky)).scale(Fraction(9, 2))


class StructureTensor:
    """All 27^3 structure constants of s_map at a point, in jbasis coordinates.

    entry(i, j, k) is the k-th coordinate of s_map(x, basis_i, basis_j);
    flat storage is row-major in (i, j, k).
    """

    __slots__ = ("point", "flat")

    def __init__(self, point: VPoint, flat):
        if len(flat) != 19683:
            raise ValueError("structure tensor needs 27^3 entries")
        self.point = point
        self.flat = tuple(flat)

    def entry(self, i: int, j: int, k: int) -> Fraction:
        return self.flat[(i * 27 + j) * 27 + k]

    def product_coords(self, i: int, j: int) -> tuple:
        base = (i * 27 + j) * 27
        return self.flat[base : base + 27]

    def __eq__(self, other):
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self.point == other.point and self.flat == other.flat

    def __repr__(self):
        return "StructureTensor(point=%r, <19683 entries>)" % (self.point,)


def structure_tensor(x: VPoint) -> StructureTensor:
    """Tabulate s_map(x, b_i, b_j) over all basis pairs, in integers.

    With k = k_elem(x) as its 27 integers over its denominator dk, the
    rows kx[m] = dk * den * cross(k, b_m) come from the sparse constants of
    cross_tables(). Each unordered pair then costs -36 times a sparse
    combination of those rows, plus the two pair_vec(k) terms, all over
    the common denominator 2 * dk * den^2. Fractions are made only for
    nonzero entries at the end, and (i, j) is mirrored to (j, i).
    """
    k = k_elem(x)
    kn, dk = k.nums, k.den
    den, consts, pair_coords = cross_tables()
    kx = [[0] * 27 for _ in range(27)]
    for l, m, n, c in consts:
        if kn[l]:
            kx[m][n] += kn[l] * c
    # gram_apply(kn) = dk * pair_vec(k); this is (9/2) pair_vec(k) on denom
    kpv = [9 * den * den * v for v in gram_apply(kn)]
    denom = 2 * dk * den * den
    zero = Fraction(0)
    flat = [zero] * 19683
    for i in range(27):
        for j in range(i, 27):
            out = [0] * 27
            for m, c in pair_coords[i][j]:
                c *= -36
                out = [o + c * v for o, v in zip(out, kx[m])]
            out[i] += kpv[j]
            out[j] += kpv[i]
            row = [Fraction(v, denom) if v else zero for v in out]
            base_ij = (i * 27 + j) * 27
            flat[base_ij : base_ij + 27] = row
            if i != j:
                base_ji = (j * 27 + i) * 27
                flat[base_ji : base_ji + 27] = row
    return StructureTensor(x, flat)


def circ_x(x: VPoint, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """The isotope product delta(x)^{-1} s_map(x, X, Y); needs x semistable."""
    d = delta(x)
    if d == 0:
        raise NotSemistable("delta(x) = 0: no algebra is attached to x")
    return s_map(x, X, Y).scale(1 / d)
