"""The 27-dimensional exceptional Jordan algebra J over the split octonions.

Elements are 3x3 Hermitian matrices

        [[s1,       x3,  conj(x2)],
         [conj(x3), s2,  x1      ],
         [x2,  conj(x1), s3      ]]

with rational diagonal entries and three octonion slots. The Jordan
product is (XY + YX)/2 with the matrix product taken over the octonions;
trace, the trace pairing, the cubic form det, its full polarization D,
and the cross product x complete the structure:

    pair(X, Y)        = Trace(X o Y)
    det(X)            = s1 s2 s3 - sum_i s_i norm(x_i) + tr((x1 x2) x3)
    6 D(X, Y, Z)      = det(X+Y+Z) - det(X+Y) - det(Y+Z) - det(Z+X)
                        + det(X) + det(Y) + det(Z)
    pair(X x Y, Z)    = 3 D(X, Y, Z)        (duality: trilinear_d computes D so,
                                             and verify checks it against det)

Coordinates: coords() lists [s1, s2, s3] then the 8 Zorn coordinates of
x1, x2, x3 in turn (27 in total); jbasis() enumerates the matching basis.

Representation. An AlbertElem holds its 27 coordinates as Python ints
over one common denominator, in canonical form: den > 0 and
gcd(den, *nums) == 1; it shares octonion._IntCoords with Oct. Equality
and hashing compare those tuples, and +, -, scale and pair do integer
work only. coords(), .s and .x are Fraction and Oct views made on demand.

Kernels. cross, jordan_mul, det_j, pair and trilinear_d run on three
integer kernels written out as straight-line code, one sum per output
with no table read at run time: _cross_nums (270 constants, 10 per
coordinate, each +-1 over the denominator 2), _det_num (the 45
monomials of det) and _pair_nums (the 27 signed terms of the Gram
shuffle _GRAM). They are the one source of J's constants, and the
tests check each against the matrix route on the whole basis. A fourth,
_sharp_nums, is _cross_nums on the diagonal halved: x# = x x x in 135
constants, 5 per coordinate, where _cross_nums(x, x) takes 270. With
the identities of a cubic norm structure, x x y = (x+y)# - x# - y# and
3 det(x) = pair(x#, x), it carries the binary cubic of a point
(pvs._cubic_nums), the element k of smap and the index a# of isotope;
the tests check it against _cross_nums and those identities. On top
of them, _isotope_nums is the one isotope kernel, which smap and
isotope.circ_a_tform evaluate, and _elem_div the one division, in
which smap.circ_x and both isotope products end.

Tables. Two sparse tables list the same constants for the readers that
need them by index. Each is read, once and on first use, off its
kernel evaluated on _Poly variables, so every constant is an int:

 * cross_tables(): the 270 nonzero constants of cross on basis pairs,
   from _cross_nums. jordan_mul is cross plus trace and pairing terms.
 * det_table(): the 45 monomials of det, from _det_num; D is their
   polarization, over the denominator 6.

smap._slot_rows reads cross_tables(), and the similarity check of
gaction.GroupElem is det_table()'s only reader in src/; no form of J
or of an isotope (D, t_form, q_a, gram_qa, phi_a, either product) and
neither k_elem nor delta builds a table.

Oracles. The literal routes the kernels are tested against live in
reference.py; basis_crosses() below is built on its matrix route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import lcm

from .octonion import OCT_ZERO, Oct, _canonical, _fractions, _IntCoords, _rat, _reduced


class AlbertElem(_IntCoords):
    """An element of J: 27 int coordinates `nums` over the denominator `den`. Immutable.

    Built from a diagonal (s1, s2, s3) and octonion slots (x1, x2, x3), or
    from 27 rational coordinates; `.s` and `.x` read those back.
    """

    __slots__ = ()

    def __init__(self, diag, octs=(OCT_ZERO, OCT_ZERO, OCT_ZERO)):
        a, b, c = diag
        x1, x2, x3 = octs
        # each part is canonical, so over the lcm of their denominators the gcd stays 1
        parts = [_canonical((_rat(a), _rat(b), _rat(c)))] + [(x.nums, x.den) for x in (x1, x2, x3)]
        den = lcm(*(d for _, d in parts))
        self._init(tuple(n * (den // d) for nums, d in parts for n in nums), den)

    @staticmethod
    def from_coords(c) -> "AlbertElem":
        if len(c) != 27:
            raise ValueError("albert element needs 27 coordinates")
        return _elem(*_canonical([_rat(v) for v in c]))

    @property
    def s(self) -> tuple:
        """The diagonal (s1, s2, s3), as Fractions."""
        return _fractions(self.nums[0:3], self.den)

    @property
    def x(self) -> tuple:
        """The octonion slots (x1, x2, x3)."""
        n, d = self.nums, self.den
        return (_reduced(Oct, n[3:11], d), _reduced(Oct, n[11:19], d), _reduced(Oct, n[19:27], d))

    def __repr__(self):
        return "AlbertElem(%r, %r)" % (self.s, self.x)


# the element nums/den (den > 0), reduced to canonical form
_elem = partial(_reduced, AlbertElem)


def _elem_div(c: int, n: int, nums, den: int) -> AlbertElem:
    """The element c nums / (n den), for n != 0 and den > 0: the sign of n moved into c, reduced once."""
    c, n = (c, n) if n > 0 else (-c, -n)
    return _elem([c * v for v in nums], n * den)


def diag_elem(a, b, c) -> AlbertElem:
    return AlbertElem((a, b, c))


def slot_elem(i: int, c: Oct) -> AlbertElem:
    """F_i(c): the element whose only nonzero entry is octonion slot i (1, 2 or 3)."""
    octs = [OCT_ZERO, OCT_ZERO, OCT_ZERO]
    octs[i - 1] = c
    return AlbertElem((0, 0, 0), tuple(octs))


E = diag_elem(1, 1, 1)
ALBERT_ZERO = AlbertElem((0, 0, 0))


@lru_cache(maxsize=1)
def jbasis() -> tuple:
    """E11, E22, E33, then F_i(b_j) for slot i = 1, 2, 3 over the 8 Zorn basis octonions.

    In coordinates, basis element k is the k-th unit vector.
    """
    return tuple(_elem([int(i == k) for i in range(27)], 1) for k in range(27))


# -- the tables ------------------------------------------------------------------


class _Poly(dict):
    """A polynomial with int coefficients: {sorted tuple of variables: coefficient}.

    The kernels run on it unchanged, so evaluated on variables they give their constants.
    """

    __slots__ = ()

    def __add__(self, other, sign=1):
        out = _Poly(self)
        for key, c in other.items():
            out[key] = out.get(key, 0) + sign * c
        return out

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return _Poly({key: -c for key, c in self.items()})

    def __mul__(self, other):
        out = _Poly()
        for k1, c1 in self.items():
            for k2, c2 in other.items():
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, 0) + c1 * c2
        return out


def _variables(first: int) -> list:
    """27 variables of _Poly, numbered from first."""
    return [_Poly({(first + l,): 1}) for l in range(27)]


@lru_cache(maxsize=1)
def cross_tables() -> tuple:
    """The cross product on basis pairs as integers: (den, consts, pair_coords).

    den is 2. consts lists each nonzero constant as (l, m, n, c), sorted:
    coordinate n of cross(b_l, b_m) is c/den. pair_coords[l][m] lists the
    nonzero coordinates of cross(b_l, b_m) as (n, c), on the same
    denominator. The constants are read off _cross_nums evaluated once on
    two sets of 27 variables, x_l numbered l and y_m numbered 27 + m.
    """
    coords = _cross_nums(_variables(0), _variables(27))
    consts = sorted((l, m - 27, n, c) for n, p in enumerate(coords) for (l, m), c in p.items() if c)
    pair_coords = [[[] for _ in range(27)] for _ in range(27)]
    for l, m, n, c in consts:
        pair_coords[l][m].append((n, c))
    return 2, tuple(consts), tuple(tuple(map(tuple, row)) for row in pair_coords)


@lru_cache(maxsize=1)
def det_table() -> tuple:
    """The monomials of det as (l, m, n, c), l <= m <= n, sorted: det(X) = sum c X_l X_m X_n.

    They are read off _det_num evaluated once on 27 variables. D is the
    polarization: 6 D(X, Y, Z) is the sum over monomials of c times
    X_l Y_m Z_n summed over the 6 orders of (l, m, n).
    """
    return tuple(sorted(key + (c,) for key, c in _det_num(_variables(0)).items() if c))


# -- products and forms -----------------------------------------------------


def _cross_nums(x, y) -> list:
    """Numerators of cross on integer coordinates, over the denominator 2.

    Coordinate n is the sum of c x_l y_m over its 10 constants (l, m, n, c),
    each c = +-1; cross_tables() lists them, read off this code.
    """
    (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13,
     x14, x15, x16, x17, x18, x19, x20, x21, x22, x23, x24, x25, x26) = x
    (y0, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13,
     y14, y15, y16, y17, y18, y19, y20, y21, y22, y23, y24, y25, y26) = y
    return [
        x1*y2 + x2*y1 - x3*y10 + x4*y7 + x5*y8 + x6*y9 + x7*y4 + x8*y5 + x9*y6 - x10*y3,
        x0*y2 + x2*y0 - x11*y18 + x12*y15 + x13*y16 + x14*y17 + x15*y12 + x16*y13 + x17*y14 - x18*y11,
        x0*y1 + x1*y0 - x19*y26 + x20*y23 + x21*y24 + x22*y25 + x23*y20 + x24*y21 + x25*y22 - x26*y19,
        -x0*y3 - x3*y0 + x15*y20 + x16*y21 + x17*y22 + x18*y26 + x20*y15 + x21*y16 + x22*y17 + x26*y18,
        -x0*y4 - x4*y0 - x11*y20 - x12*y26 + x16*y25 - x17*y24 - x20*y11 - x24*y17 + x25*y16 - x26*y12,
        -x0*y5 - x5*y0 - x11*y21 - x13*y26 - x15*y25 + x17*y23 - x21*y11 + x23*y17 - x25*y15 - x26*y13,
        -x0*y6 - x6*y0 - x11*y22 - x14*y26 + x15*y24 - x16*y23 - x22*y11 - x23*y16 + x24*y15 - x26*y14,
        -x0*y7 - x7*y0 - x13*y22 + x14*y21 - x15*y19 - x18*y23 - x19*y15 + x21*y14 - x22*y13 - x23*y18,
        -x0*y8 - x8*y0 + x12*y22 - x14*y20 - x16*y19 - x18*y24 - x19*y16 - x20*y14 + x22*y12 - x24*y18,
        -x0*y9 - x9*y0 - x12*y21 + x13*y20 - x17*y19 - x18*y25 - x19*y17 + x20*y13 - x21*y12 - x25*y18,
        -x0*y10 - x10*y0 + x11*y19 + x12*y23 + x13*y24 + x14*y25 + x19*y11 + x23*y12 + x24*y13 + x25*y14,
        -x1*y11 + x4*y23 + x5*y24 + x6*y25 + x10*y26 - x11*y1 + x23*y4 + x24*y5 + x25*y6 + x26*y10,
        -x1*y12 - x4*y19 - x8*y25 + x9*y24 - x10*y20 - x12*y1 - x19*y4 - x20*y10 + x24*y9 - x25*y8,
        -x1*y13 - x5*y19 + x7*y25 - x9*y23 - x10*y21 - x13*y1 - x19*y5 - x21*y10 - x23*y9 + x25*y7,
        -x1*y14 - x6*y19 - x7*y24 + x8*y23 - x10*y22 - x14*y1 - x19*y6 - x22*y10 + x23*y8 - x24*y7,
        -x1*y15 - x3*y23 + x5*y22 - x6*y21 - x7*y26 - x15*y1 - x21*y6 + x22*y5 - x23*y3 - x26*y7,
        -x1*y16 - x3*y24 - x4*y22 + x6*y20 - x8*y26 - x16*y1 + x20*y6 - x22*y4 - x24*y3 - x26*y8,
        -x1*y17 - x3*y25 + x4*y21 - x5*y20 - x9*y26 - x17*y1 - x20*y5 + x21*y4 - x25*y3 - x26*y9,
        -x1*y18 + x3*y19 + x7*y20 + x8*y21 + x9*y22 - x18*y1 + x19*y3 + x20*y7 + x21*y8 + x22*y9,
        -x2*y19 + x7*y12 + x8*y13 + x9*y14 + x10*y18 + x12*y7 + x13*y8 + x14*y9 + x18*y10 - x19*y2,
        -x2*y20 - x3*y12 - x4*y18 + x8*y17 - x9*y16 - x12*y3 - x16*y9 + x17*y8 - x18*y4 - x20*y2,
        -x2*y21 - x3*y13 - x5*y18 - x7*y17 + x9*y15 - x13*y3 + x15*y9 - x17*y7 - x18*y5 - x21*y2,
        -x2*y22 - x3*y14 - x6*y18 + x7*y16 - x8*y15 - x14*y3 - x15*y8 + x16*y7 - x18*y6 - x22*y2,
        -x2*y23 - x5*y14 + x6*y13 - x7*y11 - x10*y15 - x11*y7 + x13*y6 - x14*y5 - x15*y10 - x23*y2,
        -x2*y24 + x4*y14 - x6*y12 - x8*y11 - x10*y16 - x11*y8 - x12*y6 + x14*y4 - x16*y10 - x24*y2,
        -x2*y25 - x4*y13 + x5*y12 - x9*y11 - x10*y17 - x11*y9 + x12*y5 - x13*y4 - x17*y10 - x25*y2,
        -x2*y26 + x3*y11 + x4*y15 + x5*y16 + x6*y17 + x11*y3 + x15*y4 + x16*y5 + x17*y6 - x26*y2,
    ]


def _sharp_nums(x) -> list:
    """Numerators of x# = x x x on integer coordinates, over den**2: _cross_nums(x, x) / 2.

    Cross is symmetric and has no square terms, so the 10 constants of a
    coordinate pair up, (l, m) with (m, l), and coordinate n of x# is 5
    products c x_l x_m, each c = +-1: the constants (l, m, n, c) of
    cross_tables() with l < m.
    """
    (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13,
     x14, x15, x16, x17, x18, x19, x20, x21, x22, x23, x24, x25, x26) = x
    return [
        x1*x2 - x3*x10 + x4*x7 + x5*x8 + x6*x9,
        x0*x2 - x11*x18 + x12*x15 + x13*x16 + x14*x17,
        x0*x1 - x19*x26 + x20*x23 + x21*x24 + x22*x25,
        -x0*x3 + x15*x20 + x16*x21 + x17*x22 + x18*x26,
        -x0*x4 - x11*x20 - x12*x26 + x16*x25 - x17*x24,
        -x0*x5 - x11*x21 - x13*x26 - x15*x25 + x17*x23,
        -x0*x6 - x11*x22 - x14*x26 + x15*x24 - x16*x23,
        -x0*x7 - x13*x22 + x14*x21 - x15*x19 - x18*x23,
        -x0*x8 + x12*x22 - x14*x20 - x16*x19 - x18*x24,
        -x0*x9 - x12*x21 + x13*x20 - x17*x19 - x18*x25,
        -x0*x10 + x11*x19 + x12*x23 + x13*x24 + x14*x25,
        -x1*x11 + x4*x23 + x5*x24 + x6*x25 + x10*x26,
        -x1*x12 - x4*x19 - x8*x25 + x9*x24 - x10*x20,
        -x1*x13 - x5*x19 + x7*x25 - x9*x23 - x10*x21,
        -x1*x14 - x6*x19 - x7*x24 + x8*x23 - x10*x22,
        -x1*x15 - x3*x23 + x5*x22 - x6*x21 - x7*x26,
        -x1*x16 - x3*x24 - x4*x22 + x6*x20 - x8*x26,
        -x1*x17 - x3*x25 + x4*x21 - x5*x20 - x9*x26,
        -x1*x18 + x3*x19 + x7*x20 + x8*x21 + x9*x22,
        -x2*x19 + x7*x12 + x8*x13 + x9*x14 + x10*x18,
        -x2*x20 - x3*x12 - x4*x18 + x8*x17 - x9*x16,
        -x2*x21 - x3*x13 - x5*x18 - x7*x17 + x9*x15,
        -x2*x22 - x3*x14 - x6*x18 + x7*x16 - x8*x15,
        -x2*x23 - x5*x14 + x6*x13 - x7*x11 - x10*x15,
        -x2*x24 + x4*x14 - x6*x12 - x8*x11 - x10*x16,
        -x2*x25 - x4*x13 + x5*x12 - x9*x11 - x10*x17,
        -x2*x26 + x3*x11 + x4*x15 + x5*x16 + x6*x17,
    ]


def cross(X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """Freudenthal cross product, from the written-out kernel _cross_nums.

    It equals the closed form

    X x Y = X o Y - Tr(X)/2 Y - Tr(Y)/2 X - pair(X,Y)/2 e + Tr(X)Tr(Y)/2 e,

    and its defining property pair(X x Y, Z) = 3 D(X, Y, Z), with D the polarization
    of det, is a test invariant.
    """
    return _elem(_cross_nums(X.nums, Y.nums), 2 * X.den * Y.den)


def jordan_mul(X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """(XY + YX)/2 = X x Y + Tr(X)/2 Y + Tr(Y)/2 X + (pair(X,Y) - Tr(X)Tr(Y))/2 e.

    All terms on the denominator 2 den(X) den(Y), from the kernels
    _cross_nums and _pair_nums; the matrix route
    (reference.jordan_via_matrix) is the reference.
    """
    x, y = X.nums, Y.nums
    tx = x[0] + x[1] + x[2]
    ty = y[0] + y[1] + y[2]
    out = [c + tx * b + ty * a for c, a, b in zip(_cross_nums(x, y), x, y)]
    e = _pair_nums(x, y) - tx * ty
    out[0] += e
    out[1] += e
    out[2] += e
    return _elem(out, 2 * X.den * Y.den)


def trace_j(X: AlbertElem) -> Fraction:
    x = X.nums
    return Fraction(x[0] + x[1] + x[2], X.den)


def _pair_nums(x, y) -> int:
    """pair on integer coordinates: x . gram_apply(y), the 27 signed terms of _GRAM written out."""
    (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13,
     x14, x15, x16, x17, x18, x19, x20, x21, x22, x23, x24, x25, x26) = x
    (y0, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13,
     y14, y15, y16, y17, y18, y19, y20, y21, y22, y23, y24, y25, y26) = y
    return (
        x0*y0 + x1*y1 + x2*y2
        + x3*y10 - x4*y7 - x5*y8 - x6*y9 - x7*y4 - x8*y5 - x9*y6 + x10*y3
        + x11*y18 - x12*y15 - x13*y16 - x14*y17 - x15*y12 - x16*y13 - x17*y14 + x18*y11
        + x19*y26 - x20*y23 - x21*y24 - x22*y25 - x23*y20 - x24*y21 - x25*y22 + x26*y19
    )


def pair(X: AlbertElem, Y: AlbertElem) -> Fraction:
    """Trace(X o Y) = sum_i s_i t_i + 2 sum_i Q(x_i, y_i), from the kernel _pair_nums."""
    return Fraction(_pair_nums(X.nums, Y.nums), X.den * Y.den)


def _isotope_nums(K, A, B) -> list:
    """p(K, A) B + p(K, B) A - c(K, c(A, B)) on integer coordinates, p = _pair_nums and c = _cross_nums.

    Over 4 dk da db, for the elements k, a, b with these numerators over
    dk, da, db, it is (pair(k, a) b + pair(k, b) a)/4 - k x (a x b). The
    isotope product at an index a is 2/det(a) times it at k = a#, and
    s_map at a point x is 4 times it at k = (9/2) k_elem(x): one kernel.
    """
    ka, kb = _pair_nums(K, A), _pair_nums(K, B)
    return [ka * b + kb * a - c for a, b, c in zip(A, B, _cross_nums(K, _cross_nums(A, B)))]


def _det_num(x) -> int:
    """det on integer coordinates: the numerator of det over den**3.

    Its 45 monomials c x_l x_m x_n, each c = +-1, grouped by their first
    index l; det_table() lists them, read off this code.
    """
    (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13,
     x14, x15, x16, x17, x18, x19, x20, x21, x22, x23, x24, x25, x26) = x
    return (
        x0 * (x1*x2 - x3*x10 + x4*x7 + x5*x8 + x6*x9)
        + x1 * (-x11*x18 + x12*x15 + x13*x16 + x14*x17)
        + x2 * (-x19*x26 + x20*x23 + x21*x24 + x22*x25)
        + x3 * (x11*x19 + x12*x23 + x13*x24 + x14*x25)
        + x4 * (x13*x22 - x14*x21 + x15*x19 + x18*x23)
        + x5 * (-x12*x22 + x14*x20 + x16*x19 + x18*x24)
        + x6 * (x12*x21 - x13*x20 + x17*x19 + x18*x25)
        + x7 * (x11*x20 + x12*x26 - x16*x25 + x17*x24)
        + x8 * (x11*x21 + x13*x26 + x15*x25 - x17*x23)
        + x9 * (x11*x22 + x14*x26 - x15*x24 + x16*x23)
        + x10 * (x15*x20 + x16*x21 + x17*x22 + x18*x26)
    )


def det_j(X: AlbertElem) -> Fraction:
    """The cubic norm form s1 s2 s3 - sum_i s_i norm(x_i) + tr((x1 x2) x3), via the kernel _det_num."""
    return Fraction(_det_num(X.nums), X.den ** 3)


def trilinear_d(X: AlbertElem, Y: AlbertElem, Z: AlbertElem) -> Fraction:
    """Full polarization of det: symmetric, D(X, X, X) = det(X).

    By duality D(X, Y, Z) = pair(X x Y, Z)/3, that is
    _pair_nums(_cross_nums(x, y), z) over 6 den(X) den(Y) den(Z).
    """
    return Fraction(_pair_nums(_cross_nums(X.nums, Y.nums), Z.nums), 6 * X.den * Y.den * Z.den)


@lru_cache(maxsize=1)
def basis_crosses() -> tuple:
    """cross(b_i, b_j) for all basis pairs, as a 27x27 table of AlbertElems.

    Built by reference.cross_via_matrix, independently of cross_tables();
    the tests check the tables against it.
    """
    from .reference import cross_via_matrix

    basis = jbasis()
    table = [[None] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            c = cross_via_matrix(basis[i], basis[j])
            table[i][j] = c
            table[j][i] = c
    return tuple(tuple(row) for row in table)


# -- pairing Gram machinery --------------------------------------------------


@lru_cache(maxsize=1)
def pair_gram() -> tuple:
    """Gram matrix of pair() in jbasis order. Symmetric, and its own inverse."""
    basis = jbasis()
    return tuple(tuple(pair(a, b) for b in basis) for a in basis)


# gram_apply(c)[k] = sign * c[j] for (k, j, sign): the diagonal is kept, and
# within each slot alpha and beta swap, and v_i and w_i swap with a sign -1.
_SLOT_SWAP = ((0, 7, 1), (1, 4, -1), (2, 5, -1), (3, 6, -1), (4, 1, -1), (5, 2, -1), (6, 3, -1), (7, 0, 1))
_GRAM = ((0, 0, 1), (1, 1, 1), (2, 2, 1)) + tuple(
    (base + i, base + j, sign) for base in (3, 11, 19) for i, j, sign in _SLOT_SWAP
)


def gram_apply(c) -> tuple:
    """pair_gram() @ c as a signed shuffle (the Gram matrix squares to the identity)."""
    return tuple(c[j] if sign > 0 else -c[j] for _, j, sign in _GRAM)


def pair_vec(X: AlbertElem) -> tuple:
    """The tuple of pair(X, b) over the basis; equals gram_apply(coords(X))."""
    d = X.den
    return tuple(Fraction(v, d) for v in gram_apply(X.nums))
