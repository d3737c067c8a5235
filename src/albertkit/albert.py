"""The 27-dimensional exceptional Jordan algebra J over the split octonions.

Elements are 3x3 Hermitian matrices

        [[s1,       x3,  conj(x2)],
         [conj(x3), s2,  x1      ],
         [x2,  conj(x1), s3      ]]

stored as three rational diagonal entries and three octonion slots. The
Jordan product is (XY + YX)/2 with the matrix product taken over the
octonions; trace, the trace pairing, the cubic form det, its full
polarization D, and the cross product x complete the structure:

    pair(X, Y)        = Trace(X o Y)
    det(X)            = s1 s2 s3 - sum_i s_i norm(x_i) + tr((x1 x2) x3)
    6 D(X, Y, Z)      = det(X+Y+Z) - det(X+Y) - det(Y+Z) - det(Z+X)
                        + det(X) + det(Y) + det(Z)
    pair(X x Y, Z)    = 3 D(X, Y, Z)        (duality, asserted in tests)

Coordinates: coords() lists [s1, s2, s3] then the 8 Zorn coordinates of
x1, x2, x3 in turn (27 in total); jbasis() enumerates the matching basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .octonion import (
    OCT_ZERO,
    Oct,
    ZORN_BASIS,
    _rat,
    oct_conj,
    oct_mul,
    oct_norm,
    oct_q,
    trace_prod3,
)

_HALF = Fraction(1, 2)


class AlbertElem:
    """An element of J: diagonal (s1, s2, s3) plus octonion slots (x1, x2, x3)."""

    __slots__ = ("s", "x")

    def __init__(self, diag, octs=(OCT_ZERO, OCT_ZERO, OCT_ZERO)):
        a, b, c = diag
        self.s = (_rat(a), _rat(b), _rat(c))
        x1, x2, x3 = octs
        self.x = (x1, x2, x3)

    def coords(self) -> tuple:
        return self.s + self.x[0].coords() + self.x[1].coords() + self.x[2].coords()

    @staticmethod
    def from_coords(c) -> "AlbertElem":
        if len(c) != 27:
            raise ValueError("albert element needs 27 coordinates")
        return AlbertElem(
            c[0:3],
            (
                Oct.from_coords(c[3:11]),
                Oct.from_coords(c[11:19]),
                Oct.from_coords(c[19:27]),
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, AlbertElem):
            return NotImplemented
        return self.s == other.s and self.x == other.x

    def __hash__(self):
        return hash((self.s, self.x))

    def __repr__(self):
        return "AlbertElem(%r, %r)" % (self.s, self.x)

    def is_zero(self) -> bool:
        return not any(self.s) and all(xi.is_zero() for xi in self.x)

    def __add__(self, other):
        return AlbertElem(
            tuple(a + b for a, b in zip(self.s, other.s)),
            tuple(a + b for a, b in zip(self.x, other.x)),
        )

    def __sub__(self, other):
        return AlbertElem(
            tuple(a - b for a, b in zip(self.s, other.s)),
            tuple(a - b for a, b in zip(self.x, other.x)),
        )

    def __neg__(self):
        return AlbertElem(tuple(-a for a in self.s), tuple(-a for a in self.x))

    def scale(self, t) -> "AlbertElem":
        t = _rat(t)
        return AlbertElem(tuple(t * a for a in self.s), tuple(a.scale(t) for a in self.x))

    def __rmul__(self, t):
        if isinstance(t, (int, Fraction)):
            return self.scale(t)
        return NotImplemented


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
    """E11, E22, E33, then F_i(b_j) for slot i = 1, 2, 3 over the 8 Zorn basis octonions."""
    diag = [diag_elem(1, 0, 0), diag_elem(0, 1, 0), diag_elem(0, 0, 1)]
    slots = [slot_elem(i, b) for i in (1, 2, 3) for b in ZORN_BASIS]
    return tuple(diag + slots)


# -- products and forms -----------------------------------------------------


def jordan_mul(X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """(XY + YX)/2 via the octonion matrix product.

    For Hermitian X, Y the conjugate transpose of XY is YX, so a single
    matrix product suffices; the diagonal of the symmetrization is scalar
    automatically (x yb + y xb = tr(x yb) for octonions x, y).
    """
    s1, s2, s3 = X.s
    t1, t2, t3 = Y.s
    x1, x2, x3 = X.x
    y1, y2, y3 = Y.x
    q11 = oct_q(x1, y1)
    q22 = oct_q(x2, y2)
    q33 = oct_q(x3, y3)
    new_s = (s1 * t1 + q33 + q22, s2 * t2 + q33 + q11, s3 * t3 + q22 + q11)

    def off(xi, yi, xj, yj, xk, yk, ss, tt):
        # slot i with (i, j, k) cyclic:
        #   x'_i = (conj(x_k) conj(y_j) + conj(y_k) conj(x_j)
        #           + (s_j + s_k) y_i + (t_j + t_k) x_i) / 2
        m = oct_mul(oct_conj(xk), oct_conj(yj)) + oct_mul(oct_conj(yk), oct_conj(xj))
        return (m + ss * yi + tt * xi).scale(_HALF)

    nx1 = off(x1, y1, x2, y2, x3, y3, s2 + s3, t2 + t3)
    nx2 = off(x2, y2, x3, y3, x1, y1, s3 + s1, t3 + t1)
    nx3 = off(x3, y3, x1, y1, x2, y2, s1 + s2, t1 + t2)
    return AlbertElem(new_s, (nx1, nx2, nx3))


def trace_j(X: AlbertElem) -> Fraction:
    return X.s[0] + X.s[1] + X.s[2]


def pair(X: AlbertElem, Y: AlbertElem) -> Fraction:
    """Trace(X o Y) = sum_i s_i t_i + 2 sum_i Q(x_i, y_i)."""
    s, t, x, y = X.s, Y.s, X.x, Y.x
    return (
        s[0] * t[0]
        + s[1] * t[1]
        + s[2] * t[2]
        + 2 * (oct_q(x[0], y[0]) + oct_q(x[1], y[1]) + oct_q(x[2], y[2]))
    )


def det_j(X: AlbertElem) -> Fraction:
    """The cubic norm form: s1 s2 s3 - sum_i s_i norm(x_i) + tr((x1 x2) x3)."""
    s1, s2, s3 = X.s
    x1, x2, x3 = X.x
    return (
        s1 * s2 * s3
        - s1 * oct_norm(x1)
        - s2 * oct_norm(x2)
        - s3 * oct_norm(x3)
        + trace_prod3(x1, x2, x3)
    )


def trilinear_d(X: AlbertElem, Y: AlbertElem, Z: AlbertElem) -> Fraction:
    """Full polarization of det: symmetric, D(X, X, X) = det(X)."""
    xy = X + Y
    s = (
        det_j(xy + Z)
        - det_j(xy)
        - det_j(Y + Z)
        - det_j(Z + X)
        + det_j(X)
        + det_j(Y)
        + det_j(Z)
    )
    return s / 6


def d_expanded(X: AlbertElem, Y: AlbertElem, Z: AlbertElem) -> Fraction:
    """Multilinear expansion of D; cross-validates trilinear_d.

    6D = sum over index permutations of s_i t_j u_k
       + sum over argument-to-slot assignments of tr((slot1 slot2) slot3)
       - 2 sum_i [s_i Q(y_i, z_i) + t_i Q(x_i, z_i) + u_i Q(x_i, y_i)].

    The trace products multiply in slot order; octonions are noncommutative
    and nonassociative, and only this reading satisfies D(X, X, X) = det(X).
    """
    s, t, u = X.s, Y.s, Z.s
    x, y, z = X.x, Y.x, Z.x
    perm3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    acc = Fraction(0)
    for i, j, k in perm3:
        acc += s[i] * t[j] * u[k]
    for A, B, C in ((x, y, z), (y, x, z), (y, z, x), (x, z, y), (z, x, y), (z, y, x)):
        acc += trace_prod3(A[0], B[1], C[2])
    for i in range(3):
        acc -= 2 * (s[i] * oct_q(y[i], z[i]) + t[i] * oct_q(x[i], z[i]) + u[i] * oct_q(x[i], y[i]))
    return acc / 6


def cross(X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """Freudenthal cross product, the closed form

    X x Y = X o Y - Tr(X)/2 Y - Tr(Y)/2 X - pair(X,Y)/2 e + Tr(X)Tr(Y)/2 e.

    Its defining property pair(X x Y, Z) = 3 D(X, Y, Z) is a test invariant.
    """
    m = jordan_mul(X, Y)
    tx = trace_j(X)
    ty = trace_j(Y)
    ec = (tx * ty - trace_j(m)) * _HALF
    out = m - (tx * _HALF) * Y - (ty * _HALF) * X
    return AlbertElem(
        (out.s[0] + ec, out.s[1] + ec, out.s[2] + ec),
        out.x,
    )


# -- matrix view (naive reference path; also used to derive permutations) ----


def to_matrix(X: AlbertElem):
    """The underlying 3x3 octonion matrix (diagonal entries as scalar octonions)."""
    s1, s2, s3 = X.s
    x1, x2, x3 = X.x
    sc = lambda a: Oct(a, (0, 0, 0), (0, 0, 0), a)
    return (
        (sc(s1), x3, oct_conj(x2)),
        (oct_conj(x3), sc(s2), x1),
        (x2, oct_conj(x1), sc(s3)),
    )


def mat3_mul(A, B):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = oct_mul(A[i][0], B[0][j]) + oct_mul(A[i][1], B[1][j]) + oct_mul(A[i][2], B[2][j])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def from_matrix(M) -> AlbertElem:
    """Read a Hermitian octonion matrix back into an AlbertElem (checked)."""
    for i in range(3):
        d = M[i][i]
        if d.alpha != d.beta or any(d.v) or any(d.w):
            raise ValueError("diagonal entry %d is not scalar" % (i + 1))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if M[j][i] != oct_conj(M[i][j]):
            raise ValueError("matrix is not Hermitian at (%d, %d)" % (i, j))
    return AlbertElem(
        (M[0][0].alpha, M[1][1].alpha, M[2][2].alpha),
        (M[1][2], M[2][0], M[0][1]),
    )


# -- pairing Gram machinery --------------------------------------------------


@lru_cache(maxsize=1)
def pair_gram() -> tuple:
    """Gram matrix of pair() in jbasis order. Symmetric, and its own inverse."""
    basis = jbasis()
    return tuple(tuple(pair(a, b) for b in basis) for a in basis)


_SLOT_SWAP = ((0, 7, 1), (7, 0, 1), (1, 4, -1), (4, 1, -1), (2, 5, -1), (5, 2, -1), (3, 6, -1), (6, 3, -1))


def gram_apply(c) -> tuple:
    """pair_gram() @ c as a signed shuffle (the Gram matrix squares to the identity)."""
    out = [Fraction(0)] * 27
    out[0], out[1], out[2] = c[0], c[1], c[2]
    for base in (3, 11, 19):
        for i, j, sign in _SLOT_SWAP:
            out[base + i] = c[base + j] if sign > 0 else -c[base + j]
    return tuple(out)


def pair_vec(X: AlbertElem) -> tuple:
    """The tuple of pair(X, b) over the basis; equals gram_apply(coords(X))."""
    return gram_apply(X.coords())


@lru_cache(maxsize=1)
def basis_crosses() -> tuple:
    """cross(b_i, b_j) for all basis pairs, as a 27x27 table of AlbertElems."""
    basis = jbasis()
    table = [[None] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            c = cross(basis[i], basis[j])
            table[i][j] = c
            table[j][i] = c
    return tuple(tuple(row) for row in table)


@lru_cache(maxsize=1)
def cross_tables() -> tuple:
    """basis_crosses() as scaled integers: (den, consts, pair_coords).

    den is the common denominator of every coordinate in the table.
    consts lists each nonzero cross-product constant as (l, m, n, c):
    coordinate n of cross(b_l, b_m) is c/den. pair_coords[i][j] lists
    the nonzero coordinates of cross(b_i, b_j) as (n, c), on the same
    denominator. Both views hold the same numbers; structure_tensor uses
    the first to build cross(k, .) as a matrix and the second to apply it.
    """
    table = basis_crosses()
    den = lcm(*(c.denominator for row in table for elem in row for c in elem.coords()))
    pair_coords = tuple(
        tuple(
            tuple((n, int(c * den)) for n, c in enumerate(elem.coords()) if c)
            for elem in row
        )
        for row in table
    )
    consts = tuple(
        (l, m, n, c)
        for l in range(27)
        for m in range(27)
        for n, c in pair_coords[l][m]
    )
    return den, consts, pair_coords
