"""Pairs of Albert elements and their binary cubic invariant.

A point x = (a, b) of V = J + J determines the binary cubic

    F_x(v1, v2) = det(a v1 + b v2)
               = det(a) v1^3 + 3D(a,a,b) v1^2 v2 + 3D(a,b,b) v1 v2^2 + det(b) v2^3,

whose discriminant delta(x) is a degree-12 form on V. Points with
delta(x) != 0 (equivalently: F_x has three distinct roots on the
projective line) are the semistable ones; every construction downstream
that divides by delta demands semistability. The reference semistable
point is w = (diag(1, -1, 0), diag(0, 1, -1)) with F_w = v1 v2 (v1 - v2)
and delta(w) = 1.

The one route to F_x is _cubic_nums: 4 ints f over d^3, from the
sharps a# and b# of albert._sharp_nums and four pairings; smap reuses
the sharps to form k. The one route to delta is _delta_nums, from which
delta makes one Fraction and smap.circ_x divides in integers; neither
builds the BinaryCubic (an _IntCoords like Oct) that cubic_of returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .albert import AlbertElem, _pair_nums, _sharp_nums, diag_elem
from .octonion import _canonical, _fmt, _Frozen, _IntCoords, _lowest, _rat, _reduced


class VPoint(_Frozen):
    """A point of V = J + J. Immutable."""

    __slots__ = ("a", "b")

    def __init__(self, a: AlbertElem, b: AlbertElem):
        self._init(a, b)

    def __repr__(self):
        return "VPoint(%r, %r)" % (self.a, self.b)

    def scale(self, t) -> "VPoint":
        return VPoint(self.a.scale(t), self.b.scale(t))


class BinaryCubic(_IntCoords):
    """c30 v1^3 + c21 v1^2 v2 + c12 v1 v2^2 + c03 v2^3: the 4 coefficients as ints `nums` over `den`. Immutable."""

    __slots__ = ()

    def __init__(self, c30, c21, c12, c03):
        self._init(*_canonical([_rat(c) for c in (c30, c21, c12, c03)]))

    def coeffs(self) -> tuple:
        return self.coords()

    def __repr__(self):
        return "BinaryCubic(%s, %s, %s, %s)" % self.coeffs()

    def __str__(self):
        return "[%s, %s, %s, %s]" % tuple(_fmt(n, self.den) for n in self.nums)

    def evaluate(self, v1, v2) -> Fraction:
        v1 = _rat(v1)
        v2 = _rat(v2)
        c30, c21, c12, c03 = self.coeffs()
        return (
            c30 * v1**3
            + c21 * v1**2 * v2
            + c12 * v1 * v2**2
            + c03 * v2**3
        )

    def discriminant(self) -> Fraction:
        return Fraction(_discriminant(*self.nums), self.den**4)


def _discriminant(a, b, c, d) -> int:
    """Discriminant of a v^3 + b v^2 + c v + d, of degree 4: nonzero iff the three projective roots are distinct."""
    return 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2


def _cubic_nums(x: VPoint) -> tuple:
    """(A, B, SA, SB, d, f): the point and its sharps in integers, and F_x as 4 ints f over d^3.

    A = d a and B = d b with d = lcm(a.den, b.den), and SA = d^2 a# and
    SB = d^2 b# from albert._sharp_nums. In a cubic norm structure
    3 D(a, a, b) = pair(a#, b) and det(a) = pair(a#, a)/3, so with
    p = _pair_nums

        f = (p(SA, A)/3, p(SA, B), p(A, SB), p(SB, B)/3),

    two sharps and four pairings; both divisions by 3 are exact.
    """
    a, b = x.a, x.b
    d = lcm(a.den, b.den)
    A = a.nums if a.den == d else [v * (d // a.den) for v in a.nums]
    B = b.nums if b.den == d else [v * (d // b.den) for v in b.nums]
    SA, SB = _sharp_nums(A), _sharp_nums(B)
    return A, B, SA, SB, d, (_pair_nums(SA, A) // 3, _pair_nums(SA, B), _pair_nums(A, SB), _pair_nums(SB, B) // 3)


def cubic_of(x: VPoint) -> BinaryCubic:
    """The binary cubic v -> det(a v1 + b v2) of x = (a, b), from the integers of _cubic_nums."""
    *_, d, f = _cubic_nums(x)
    return _reduced(BinaryCubic, f, d**3)


def _delta_nums(d: int, f) -> tuple:
    """(n, m): delta = n / m for F_x = f / d^3: reduced to f / den first (cheaper), n = _discriminant(*f), m = den^4."""
    f, q = _lowest(f, d**3)
    return _discriminant(*f), q**4


def delta(x: VPoint) -> Fraction:
    """Degree-12 relative invariant: the discriminant of cubic_of(x), from _delta_nums; the one Fraction made."""
    *_, d, f = _cubic_nums(x)
    return Fraction(*_delta_nums(d, f))


def is_semistable(x: VPoint) -> bool:
    return delta(x) != 0


def w_point() -> VPoint:
    """The reference semistable point (diag(1,-1,0), diag(0,1,-1)); delta = 1."""
    return VPoint(diag_elem(1, -1, 0), diag_elem(0, 1, -1))
