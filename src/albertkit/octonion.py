"""Split octonions over the rationals, in Zorn vector-matrix coordinates.

An element is a pair of scalars and a pair of 3-vectors, written
(alpha, v; w, beta) and thought of as the 2x2 array [[alpha, v], [w, beta]].
All arithmetic is exact over Q; there is no floating point anywhere in
this package.

The product is

    (a1, v1; w1, b1)(a2, v2; w2, b2)
        = (a1*a2 + v1.w2,  a1*v2 + b2*v1 - w1 x w2;
           a2*w1 + b1*w2 + v1 x v2,  b1*b2 + w1.v2)

with norm(x) = alpha*beta - v.w. The sign convention on the two cross terms
is pinned by the exhaustive basis composition test: norm(xy) = norm(x)norm(y)
holds on all 64 basis products (and on random pairs) with this choice.

Representation. An Oct holds its 8 coordinates as Python ints over one
common denominator, in canonical form, the same representation
albert.AlbertElem uses for its 27 (both build on _IntCoords below). The
product and the forms work on those ints; the scalar forms return one
Fraction each, and alpha, v, w, beta and coords() are Fraction views
made on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _canonical(coords) -> tuple:
    """(nums, den) for reduced Fractions; their lcm denominator leaves gcd 1."""
    den = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


def _fractions(nums, den: int) -> tuple:
    if den == 1:
        return tuple(map(Fraction, nums))
    return tuple(Fraction(n, den) for n in nums)


class _Frozen:
    """A value type whose slots, once set through object.__setattr__, cannot change.

    Values are hashed and shared (E, OCT_UNIT, the bases, cached group
    elements), so an assignment would corrupt every holder.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class _IntCoords(_Frozen):
    """Rational coordinates as Python ints `nums` over one denominator `den`.

    The form is canonical: den > 0 and gcd(den, *nums) == 1. So equality
    and hashing compare those tuples, and +, -, and scale do integer work
    only. Values of different subclasses never mix.
    """

    __slots__ = ("nums", "den")

    def coords(self) -> tuple:
        return _fractions(self.nums, self.den)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _reduced(type(self), [a + b for a, b in zip(self.nums, other.nums)], d1)
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        return _reduced(type(self), [a * f1 + b * f2 for a, b in zip(self.nums, other.nums)], d1 * f1)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _reduced(type(self), [-n for n in self.nums], self.den)

    def scale(self, t):
        t = _rat(t)
        p = t.numerator
        return _reduced(type(self), [p * n for n in self.nums], self.den * t.denominator)

    def __rmul__(self, t):
        if isinstance(t, (int, Fraction)):
            return self.scale(t)
        return NotImplemented


def _reduced(cls, nums, den: int):
    """The cls value nums/den (den > 0), reduced to canonical form."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    X = object.__new__(cls)
    _set_nums(X, tuple(nums))
    _set_den(X, den)
    return X


# the slot setters object.__setattr__ would reach, without its name lookup: _reduced is on every hot path
_set_nums = _IntCoords.nums.__set__
_set_den = _IntCoords.den.__set__


class Oct(_IntCoords):
    """A split octonion (alpha, v; w, beta): 8 int coordinates `nums` over `den`. Immutable."""

    __slots__ = ()

    def __init__(self, alpha, v=(0, 0, 0), w=(0, 0, 0), beta=0):
        v1, v2, v3 = v
        w1, w2, w3 = w
        nums, den = _canonical([_rat(c) for c in (alpha, v1, v2, v3, w1, w2, w3, beta)])
        _set_nums(self, nums)
        _set_den(self, den)

    # -- value semantics ----------------------------------------------------

    @staticmethod
    def from_coords(c) -> "Oct":
        """The octonion with the 8 coordinates c, in the order [alpha, v1, v2, v3, w1, w2, w3, beta]."""
        if len(c) != 8:
            raise ValueError("octonion needs 8 coordinates")
        return _reduced(Oct, *_canonical([_rat(t) for t in c]))

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def v(self) -> tuple:
        return _fractions(self.nums[1:4], self.den)

    @property
    def w(self) -> tuple:
        return _fractions(self.nums[4:7], self.den)

    @property
    def beta(self) -> Fraction:
        return Fraction(self.nums[7], self.den)

    def __repr__(self):
        return "Oct(%s, %s, %s, %s)" % (self.alpha, self.v, self.w, self.beta)

    # -- products -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Oct):
            return oct_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def conj(self) -> "Oct":
        return oct_conj(self)


def oct_mul(x: Oct, y: Oct) -> Oct:
    """Zorn vector-matrix product. Bilinear, unital, norm-multiplicative."""
    a1, p1, p2, p3, q1, q2, q3, b1 = x.nums
    a2, r1, r2, r3, s1, s2, s3, b2 = y.nums
    # x = (a1, p; q, b1) and y = (a2, r; s, b2), over the denominator x.den * y.den
    return _reduced(
        Oct,
        (
            a1 * a2 + p1 * s1 + p2 * s2 + p3 * s3,
            a1 * r1 + b2 * p1 - (q2 * s3 - q3 * s2),
            a1 * r2 + b2 * p2 - (q3 * s1 - q1 * s3),
            a1 * r3 + b2 * p3 - (q1 * s2 - q2 * s1),
            a2 * q1 + b1 * s1 + (p2 * r3 - p3 * r2),
            a2 * q2 + b1 * s2 + (p3 * r1 - p1 * r3),
            a2 * q3 + b1 * s3 + (p1 * r2 - p2 * r1),
            b1 * b2 + q1 * r1 + q2 * r2 + q3 * r3,
        ),
        x.den * y.den,
    )


def oct_conj(x: Oct) -> Oct:
    """Conjugation (alpha, v; w, beta) -> (beta, -v; -w, alpha).

    An involution with x*conj(x) = norm(x)*u0 and x + conj(x) = trace(x)*u0.
    """
    a, v1, v2, v3, w1, w2, w3, b = x.nums
    return _reduced(Oct, (b, -v1, -v2, -v3, -w1, -w2, -w3, a), x.den)


def _norm_num(x: Oct) -> int:
    """The numerator of norm(x) over x.den ** 2."""
    a, v1, v2, v3, w1, w2, w3, b = x.nums
    return a * b - v1 * w1 - v2 * w2 - v3 * w3


def oct_norm(x: Oct) -> Fraction:
    return Fraction(_norm_num(x), x.den * x.den)


def oct_trace(x: Oct) -> Fraction:
    return Fraction(x.nums[0] + x.nums[7], x.den)


def oct_q(x: Oct, y: Oct) -> Fraction:
    """Q(x, y) = (norm(x+y) - norm(x) - norm(y)) / 2, the polar form of norm."""
    a1, p1, p2, p3, q1, q2, q3, b1 = x.nums
    a2, r1, r2, r3, s1, s2, s3, b2 = y.nums
    s = a1 * b2 + a2 * b1 - p1 * s1 - p2 * s2 - p3 * s3 - r1 * q1 - r2 * q2 - r3 * q3
    return Fraction(s, 2 * x.den * y.den)


def _trace_num(x: Oct, y: Oct) -> int:
    """The numerator of trace(x*y) over x.den * y.den; the table builders read it as an int."""
    a1, p1, p2, p3, q1, q2, q3, b1 = x.nums
    a2, r1, r2, r3, s1, s2, s3, b2 = y.nums
    return a1 * a2 + p1 * s1 + p2 * s2 + p3 * s3 + q1 * r1 + q2 * r2 + q3 * r3 + b1 * b2


def trace_prod(x: Oct, y: Oct) -> Fraction:
    """trace(x*y) without materializing the product."""
    return Fraction(_trace_num(x, y), x.den * y.den)


def trace_prod3(x: Oct, y: Oct, z: Oct) -> Fraction:
    """trace((x*y)*z); one full product then the trace contraction."""
    return trace_prod(oct_mul(x, y), z)


OCT_ZERO = Oct(0)
OCT_UNIT = Oct(1, (0, 0, 0), (0, 0, 0), 1)

# Basis in coordinate order [alpha, v1, v2, v3, w1, w2, w3, beta].
ZORN_BASIS = tuple(_reduced(Oct, [int(i == j) for i in range(8)], 1) for j in range(8))

ZORN_BASIS_NAMES = ("alpha", "v1", "v2", "v3", "w1", "w2", "w3", "beta")
