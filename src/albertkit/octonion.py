"""Split octonions over the rationals, in Zorn vector-matrix coordinates.

An element is a pair of scalars and a pair of 3-vectors, written
(alpha, v; w, beta) and thought of as the 2x2 array [[alpha, v], [w, beta]].
All arithmetic is exact over Q (fractions.Fraction); there is no floating
point anywhere in this package.

The product is

    (a1, v1; w1, b1)(a2, v2; w2, b2)
        = (a1*a2 + v1.w2,  a1*v2 + b2*v1 - w1 x w2;
           a2*w1 + b1*w2 + v1 x v2,  b1*b2 + w1.v2)

with norm(x) = alpha*beta - v.w. The sign convention on the two cross terms
is pinned by the exhaustive basis composition test: norm(xy) = norm(x)norm(y)
holds on all 64 basis products (and on random pairs) with this choice.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO3 = (Fraction(0), Fraction(0), Fraction(0))


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _vec3(t) -> tuple:
    a, b, c = t
    return (_rat(a), _rat(b), _rat(c))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _vadd(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _vsub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _vscale(t, u):
    return (t * u[0], t * u[1], t * u[2])


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


class Oct(_Frozen):
    """A split octonion (alpha, v; w, beta) with exact rational entries. Immutable."""

    __slots__ = ("alpha", "v", "w", "beta")

    def __init__(self, alpha, v=_ZERO3, w=_ZERO3, beta=0):
        object.__setattr__(self, "alpha", _rat(alpha))
        object.__setattr__(self, "v", _vec3(v))
        object.__setattr__(self, "w", _vec3(w))
        object.__setattr__(self, "beta", _rat(beta))

    # -- value semantics ----------------------------------------------------

    def coords(self) -> tuple:
        """The 8 coordinates in basis order [alpha, v1, v2, v3, w1, w2, w3, beta]."""
        return (self.alpha,) + self.v + self.w + (self.beta,)

    @staticmethod
    def from_coords(c) -> "Oct":
        if len(c) != 8:
            raise ValueError("octonion needs 8 coordinates")
        return Oct(c[0], (c[1], c[2], c[3]), (c[4], c[5], c[6]), c[7])

    def __eq__(self, other):
        if not isinstance(other, Oct):
            return NotImplemented
        return self.coords() == other.coords()

    def __hash__(self):
        return hash(self.coords())

    def __repr__(self):
        return "Oct(%s, %s, %s, %s)" % (self.alpha, self.v, self.w, self.beta)

    def is_zero(self) -> bool:
        return not (self.alpha or self.beta or any(self.v) or any(self.w))

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        return Oct(
            self.alpha + other.alpha,
            _vadd(self.v, other.v),
            _vadd(self.w, other.w),
            self.beta + other.beta,
        )

    def __sub__(self, other):
        return Oct(
            self.alpha - other.alpha,
            _vsub(self.v, other.v),
            _vsub(self.w, other.w),
            self.beta - other.beta,
        )

    def __neg__(self):
        return Oct(-self.alpha, _vscale(-1, self.v), _vscale(-1, self.w), -self.beta)

    def scale(self, t) -> "Oct":
        t = _rat(t)
        return Oct(t * self.alpha, _vscale(t, self.v), _vscale(t, self.w), t * self.beta)

    def __rmul__(self, t):
        if isinstance(t, (int, Fraction)):
            return self.scale(t)
        return NotImplemented

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
    return Oct(
        x.alpha * y.alpha + _dot(x.v, y.w),
        _vsub(_vadd(_vscale(x.alpha, y.v), _vscale(y.beta, x.v)), _cross3(x.w, y.w)),
        _vadd(_vadd(_vscale(y.alpha, x.w), _vscale(x.beta, y.w)), _cross3(x.v, y.v)),
        x.beta * y.beta + _dot(x.w, y.v),
    )


def oct_conj(x: Oct) -> Oct:
    """Conjugation (alpha, v; w, beta) -> (beta, -v; -w, alpha).

    An involution with x*conj(x) = norm(x)*u0 and x + conj(x) = trace(x)*u0.
    """
    return Oct(x.beta, _vscale(-1, x.v), _vscale(-1, x.w), x.alpha)


def oct_norm(x: Oct) -> Fraction:
    return x.alpha * x.beta - _dot(x.v, x.w)


def oct_trace(x: Oct) -> Fraction:
    return x.alpha + x.beta


def oct_q(x: Oct, y: Oct) -> Fraction:
    """Q(x, y) = (norm(x+y) - norm(x) - norm(y)) / 2, the polar form of norm."""
    s = x.alpha * y.beta + y.alpha * x.beta - _dot(x.v, y.w) - _dot(y.v, x.w)
    return s / 2


def trace_prod(x: Oct, y: Oct) -> Fraction:
    """trace(x*y) without materializing the product."""
    return x.alpha * y.alpha + _dot(x.v, y.w) + _dot(x.w, y.v) + x.beta * y.beta


def trace_prod3(x: Oct, y: Oct, z: Oct) -> Fraction:
    """trace((x*y)*z); one full product then the trace contraction."""
    return trace_prod(oct_mul(x, y), z)


OCT_ZERO = Oct(0)
OCT_UNIT = Oct(1, _ZERO3, _ZERO3, 1)

# Basis in coordinate order [alpha, v1, v2, v3, w1, w2, w3, beta].
ZORN_BASIS = tuple(
    Oct.from_coords(tuple(Fraction(int(i == j)) for i in range(8))) for j in range(8)
)

ZORN_BASIS_NAMES = ("alpha", "v1", "v2", "v3", "w1", "w2", "w3", "beta")
