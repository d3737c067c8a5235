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

the Hessian covariant of F_x contracted with a x a, a x b and b x b,
read off three sharps (see k_elem). _tensor_nums holds (9/2) k as 27
integers kn over one denominator, with the cubic's integers: s_map is
the isotope kernel albert._isotope_nums at kn, and circ_x divides it
once by the integer discriminant.

structure_tensor exploits this when tabulating all 729 basis pairs: the
map k -> tensor is linear and fixed, and each of its 19683 basis entries
is either 0 or a single term c k_l with c in (-2, -1, 1, 2). _slot_rows()
finds that pattern once, from the sparse cross-product constants of
albert.cross_tables() and the Gram shuffle. So a StructureTensor is
built from its point alone and stores just k, as 27 integers over one
denominator; lay_out reads its 378 shared rows from the 109 values 0 and
c k_l, through _slot_table(), whenever rows is read. jsonio.encode_stensor
reads no rows: its layout, also read off _slot_rows(), places the texts
of kn, 2 kn and their negatives into the document in one join. No
Fraction is made on the way from the integers of the point through
kn to the JSON bytes, nor by s_map or circ_x.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .albert import (
    _GRAM,
    AlbertElem,
    _elem,
    _elem_div,
    _isotope_nums,
    _sharp_nums,
    cross,
    cross_tables,
    trilinear_d,
)
from .errors import NotSemistable
from .octonion import _Frozen, _lowest
from .pvs import VPoint, _cubic_nums, _delta_nums


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


def _signed_sum(x: VPoint, piece) -> AlbertElem:
    """The sum over SIGNED_TERMS of sign * D(v2, v5, v7) D(v4, v6, v8) * piece(v1, v3), literally."""
    ab = (x.a, x.b)
    acc = AlbertElem((0, 0, 0))
    for sign, picks in SIGNED_TERMS:
        v = [ab[p] for p in picks]
        dd = trilinear_d(v[1], v[4], v[6]) * trilinear_d(v[3], v[5], v[7])
        if dd:
            acc = acc + piece(v[0], v[2]).scale(sign * dd)
    return acc


def phi1(x: VPoint, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    xy = cross(X, Y)
    return _signed_sum(x, lambda v1, v3: cross(cross(v1, v3), xy))


def phi2(x: VPoint, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    def piece(v1, v3):
        return Y.scale(trilinear_d(v1, v3, X)) + X.scale(trilinear_d(v1, v3, Y))

    return _signed_sum(x, piece).scale(9)


def _k_nums(A, B, SA, SB, f) -> list:
    """The 27 numerators of k_elem over 9 d^8, unreduced, from the integers (A, B, SA, SB, f) of pvs._cubic_nums(x).

    With the cross numerators c(A, A) = 2 SA, c(B, B) = 2 SB and c(A, B) =
    (A+B)# - SA - SB, caa c(A, A) + cab c(A, B) + cbb c(B, B) is
    (2 caa - cab) SA + (2 cbb - cab) SB + cab (A+B)#: one more sharp.
    """
    r0, r1, r2, r3 = 3 * f[0], f[1], f[2], 3 * f[3]
    caa, cab, cbb = r1 * r3 - r2 * r2, r1 * r2 - r0 * r3, r0 * r2 - r1 * r1
    ca, cb = 2 * caa - cab, 2 * cbb - cab
    sharps = zip(SA, SB, _sharp_nums([u + v for u, v in zip(A, B)]))
    return [ca * u + cb * v + cab * w for u, v, w in sharps]


def k_elem(x: VPoint) -> AlbertElem:
    """sum over terms of sign * dd * (v1 x v3); phi1 = k x (X x Y).

    D is symmetric, so each term's scalar only depends on how many of its
    D-arguments are b: with p = (det a, D(a,a,b), D(a,b,b), det b), the
    coefficients of cubic_of(x) without their binomial factors, the signed
    sum is the Hessian covariant of the binary cubic F_x contracted with
    the three crosses a x a, a x b and b x b:

        k = 2(p1 p3 - p2^2) a x a + 2(p1 p2 - p0 p3) a x b + 2(p0 p2 - p1^2) b x b.

    It is formed in integers: pvs._cubic_nums gives A = d a, B = d b, the
    sharps of a and b over d^2 and F_x as 4 ints f over d^3, hence r =
    3 d^3 p = (3 f0, f1, f2, 3 f3). As a x b = ((a+b)# - a# - b#)/2, k
    is one integer combination of the three sharps a#, b# and (a+b)#
    over 9 d^8 (_k_nums), read here as 2 kn / (9 den) off _tensor_nums.
    The numerators come from the written-out kernels albert._sharp_nums
    and albert._pair_nums, so no table is built or read, and no Fraction
    is made.
    Tests pin this to the literal signed sum, and to phi1/phi2 through the
    s_map recombination.
    """
    return _elem_div(2, 9, *_tensor_nums(x)[:2])


def _tensor_nums(x: VPoint) -> tuple:
    """(kn, den, d, f): (9/2) k_elem(x) = _k_nums / (2 d^8) = kn / den in lowest terms, and F_x = f / d^3.

    The one integer context of a point, which every map of x here reads.
    """
    A, B, SA, SB, d, f = _cubic_nums(x)
    return (*_lowest(_k_nums(A, B, SA, SB, f), 2 * d**8), d, f)


def s_map(x: VPoint, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """-18 phi1 + (3/2) phi2, contracted through k = k_elem(x), in integers.

    With kn / den = (9/2) k from _tensor_nums and A, B the numerators of
    X, Y over dx, dy,

        s_map = -18 k x (X x Y) + (9/2)(pair(k, X) Y + pair(k, Y) X)
              = _isotope_nums(kn, A, B) / (den dx dy),

    reduced once. No Fraction is made.
    """
    kn, den, _, _ = _tensor_nums(x)
    return _elem(_isotope_nums(kn, X.nums, Y.nums), den * X.den * Y.den)


class StructureTensor(_Frozen):
    """All 27^3 structure constants of s_map at a point, in jbasis coordinates.

    A function of the point alone: the constructor computes k, the
    k_elem of the point, and stores the tensor as the fixed linear image of k it is (see
    structure_tensor): kn, the 27 numerators of (9/2) k over one positive
    denominator den, with gcd(den, *kn) = 1, read off _tensor_nums. == and
    hash (octonion._Frozen) compare (point, kn, den).
    rows[i * 27 + j] is the 27 numerators of s_map(x, b_i, b_j) over den,
    (i, j) and (j, i) sharing one tuple, laid out on each read: the JSON
    encoder never reads it. flat (row-major in (i, j, k)) is their
    Fraction view. Immutable.
    """

    __slots__ = ("point", "kn", "den")

    def __init__(self, point: VPoint):
        self._init(point, *_tensor_nums(point)[:2])

    @property
    def rows(self) -> tuple:
        return lay_out(slot_values(self.kn))

    @property
    def flat(self) -> tuple:
        d = self.den
        return tuple(Fraction(v, d) for r in self.rows for v in r)

    def __repr__(self):
        return "StructureTensor(point=%r, <19683 entries>)" % (self.point,)


_COEFFS = (-2, -1, 1, 2)


@lru_cache(maxsize=1)
def _slot_rows() -> tuple:
    """The fixed linear pattern of structure_tensor: the 27 slots of each of the 729 (i, j), row-major.

    Entry n of S_ij (see structure_tensor) is a linear form in the 27
    integers kn of k. Over the basis it is 0 or one term c kn[l] with c
    in _COEFFS, and its slot is 0 or 1 + 27 q + l with c = _COEFFS[q]: its
    index into slot_values(kn). A row is bytes, as every slot is below
    109, so that the rows join into the 19683 slots in one C-level call;
    (i, j) and (j, i) share one. Raises ValueError if an entry has any
    other form.
    """
    _, consts, pair_coords = cross_tables()
    by_m = [[] for _ in range(27)]
    for l, m, n, c in consts:
        by_m[m].append((n, l, c))
    rows = [None] * 729
    for i in range(27):
        for j in range(i, 27):
            # {(n, l): c}: the terms c kn[l] of entry n, from the Gram shuffle less the crosses
            form = {}
            for n, l, c in (i, *_GRAM[j][1:]), (j, *_GRAM[i][1:]):
                form[n, l] = form.get((n, l), 0) + c
            for m, c in pair_coords[i][j]:
                for n, l, c2 in by_m[m]:
                    form[n, l] = form.get((n, l), 0) - c * c2
            slots = [0] * 27
            for (n, l), c in form.items():
                if c:
                    if slots[n] or c not in _COEFFS:
                        raise ValueError("structure entry (%d, %d, %d) is not one term c k_l" % (i, j, n))
                    slots[n] = 1 + 27 * _COEFFS.index(c) + l
            rows[i * 27 + j] = rows[j * 27 + i] = bytes(slots)
    return tuple(rows)


@lru_cache(maxsize=1)
def _slot_table() -> tuple:
    """_slot_rows() for lay_out: (i * 27 + j, j * 27 + i, take) for i <= j, take itemgetter over row (i, j)."""
    rows = _slot_rows()
    return tuple((i * 27 + j, j * 27 + i, itemgetter(*rows[i * 27 + j])) for i in range(27) for j in range(i, 27))


def slot_values(kn) -> list:
    """The 109 values the rows are read from: 0, then c kn[l] at slot 1 + 27 q + l, c = _COEFFS[q]."""
    return [0] + [c * v for c in _COEFFS for v in kn]


def lay_out(values) -> tuple:
    """The 729 rows of 27 read from 109 slot values (ints or their strings); (i, j) and (j, i) share one tuple."""
    rows = [None] * 729
    for ij, ji, take in _slot_table():
        rows[ij] = rows[ji] = take(values)
    return tuple(rows)


def structure_tensor(x: VPoint) -> StructureTensor:
    """Tabulate s_map(x, b_i, b_j) over all basis pairs, in integers: StructureTensor(x).

    With k = k_elem(x) as its 27 integers kn over its denominator dk, let
    kx[m] = 2 dk cross(k, b_m), from the constants of cross_tables() (all
    over 2), and gram = gram_apply(kn) = dk pair_vec(k). Then

        s_map(x, b_i, b_j) = 9 S_ij / (2 dk),
        S_ij = gram[j] b_i + gram[i] b_j - sum of c kx[m] over pair_coords[i][j],

    and every entry of S_ij is 0 or c kn[l] (see _slot_rows). So the
    tensor is (9/2) k, as 9 kn over 2 dk, laid out by the slot rows.
    No Fraction is made.
    """
    return StructureTensor(x)


def circ_x(x: VPoint, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """The isotope product delta(x)^{-1} s_map(x, X, Y); needs x semistable.

    One read of _tensor_nums gives both k and delta = p / q
    (pvs._delta_nums), so with A, B the numerators of X, Y over dx, dy
    the product is q _isotope_nums(kn, A, B) / (p den dx dy): one
    division (albert._elem_div), no Fraction.
    """
    kn, den, d, f = _tensor_nums(x)
    p, q = _delta_nums(d, f)
    if p == 0:
        raise NotSemistable("delta(x) = 0: no algebra is attached to x")
    return _elem_div(q, p, _isotope_nums(kn, X.nums, Y.nums), den * X.den * Y.den)
