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
    pair(X x Y, Z)    = 3 D(X, Y, Z)        (duality, asserted in tests)

Coordinates: coords() lists [s1, s2, s3] then the 8 Zorn coordinates of
x1, x2, x3 in turn (27 in total); jbasis() enumerates the matching basis.

Representation. An AlbertElem holds its 27 coordinates as Python ints
over one common denominator, in canonical form: den > 0 and
gcd(den, *nums) == 1; it shares octonion._IntCoords with Oct. Equality
and hashing compare those tuples, and +, -, scale and pair do integer
work only. coords(), .s and .x are Fraction and Oct views made on demand.

Tables. cross, jordan_mul, det_j and trilinear_d contract integer
coordinates against two sparse tables, each built once, on first use,
from the octonion formulas evaluated on the 8 Zorn basis octonions:

 * cross_tables(): the 270 nonzero constants of cross on basis pairs,
   over the denominator 2, from the entrywise formula of the cross
   product (Zorn products of conjugated basis octonions, and the polar
   form of the norm). jordan_mul is cross plus trace and pairing terms.
 * det_table(): the 45 monomials of det, from det's own formula
   (oct_norm on basis pairs, trace_prod3 on basis triples); D is their
   polarization, over the denominator 6. It never reads the cross table.

The basis octonions and their products have the denominator 1, so the
builders read integer numerators (nums, _norm_num, _trace_num) and every
constant is an int; a Fraction constant would put the kernels on
Fraction arithmetic with the same results.

Oracles. The literal routes the kernels are tested against live in
reference.py; basis_crosses() below is built on its matrix route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from operator import mul

from .octonion import (
    OCT_ZERO,
    Oct,
    ZORN_BASIS,
    _canonical,
    _fractions,
    _IntCoords,
    _norm_num,
    _rat,
    _reduced,
    _set_den,
    _set_nums,
    _trace_num,
    oct_conj,
    oct_mul,
)


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
        _set_nums(self, tuple(n * (den // d) for nums, d in parts for n in nums))
        _set_den(self, den)

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


def _slot(i: int, a: int) -> int:
    """The coordinate index of Zorn coordinate a of octonion slot i (0, 1, 2)."""
    return 3 + 8 * i + a


def _collect(terms) -> tuple:
    """Sum (key, c) terms per key and drop zero sums: ((*key, c), ...), sorted."""
    acc = {}
    for key, c in terms:
        acc[key] = acc.get(key, 0) + c
    return tuple(key + (c,) for key, c in sorted(acc.items()) if c)


@lru_cache(maxsize=1)
def cross_tables() -> tuple:
    """The cross product on basis pairs as integers: (den, consts, pair_coords).

    den is 2. consts lists each nonzero constant as (l, m, n, c):
    coordinate n of cross(b_l, b_m) is c/den. pair_coords[l][m] lists the
    nonzero coordinates of cross(b_l, b_m) as (n, c), on the same
    denominator. The constants come from the entrywise cross product,

        s'_i = (s_j t_k + s_k t_j)/2 - Q(x_i, y_i)
        x'_i = (conj(x_k) conj(y_j) + conj(y_k) conj(x_j) - s_i y_i - t_i x_i)/2

    for (i, j, k) cyclic, read off the 64 Zorn products of conjugated
    basis octonions and the polar form 2 Q(e_a, e_b) = tr(e_a conj(e_b))
    (twice oct_q) on basis pairs.
    """
    conj = [oct_conj(e) for e in ZORN_BASIS]
    prods = [[oct_mul(p, q).nums for q in conj] for p in conj]
    polar = [[_trace_num(p, q) for q in conj] for p in ZORN_BASIS]
    terms = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        terms += [((j, k, i), 1), ((k, j, i), 1)]
        for a in range(8):
            ia, ka = _slot(i, a), _slot(k, a)
            terms += [((i, ia, ia), -1), ((ia, i, ia), -1)]
            for b in range(8):
                terms.append(((ia, _slot(i, b), i), -polar[a][b]))
                # conj(e_a) conj(e_b) from x_k = e_a, y_j = e_b and from y_k = e_a, x_j = e_b
                jb = _slot(j, b)
                for r, c in enumerate(prods[a][b]):
                    if c:
                        terms += [((ka, jb, _slot(i, r)), c), ((jb, ka, _slot(i, r)), c)]
    consts = _collect(terms)
    pair_coords = [[[] for _ in range(27)] for _ in range(27)]
    for l, m, n, c in consts:
        pair_coords[l][m].append((n, c))
    return 2, consts, tuple(tuple(map(tuple, row)) for row in pair_coords)


@lru_cache(maxsize=1)
def det_table() -> tuple:
    """The monomials of det as (l, m, n, c), l <= m <= n: det(X) = sum c X_l X_m X_n.

    They come from det's formula s1 s2 s3 - sum_i s_i norm(x_i) +
    tr((x1 x2) x3) on the basis: the norm of basis octonions and their
    pairwise sums gives norm(x_i), and tr((e_a e_b) e_c), which is
    trace_prod3(e_a, e_b, e_c) with each of the 64 products e_a e_b made
    once, gives the trace term. D is the polarization: 6 D(X, Y, Z) is
    the sum over monomials of c times X_l Y_m Z_n summed over the 6
    orders of (l, m, n).
    """
    basis = ZORN_BASIS
    norm = [_norm_num(e) for e in basis]
    # the coefficient of x_a x_b in norm(sum_a x_a e_a), for a <= b
    quad = {
        (a, b): norm[a] if a == b else _norm_num(p + q) - norm[a] - norm[b]
        for a, p in enumerate(basis)
        for b, q in enumerate(basis)
        if a <= b
    }
    terms = [((0, 1, 2), 1)]
    for i in range(3):
        terms += [((i, _slot(i, a), _slot(i, b)), -c) for (a, b), c in quad.items()]
    for a, p in enumerate(basis):
        for b, q in enumerate(basis):
            pq = oct_mul(p, q)
            for c, r in enumerate(basis):
                terms.append(((_slot(0, a), _slot(1, b), _slot(2, c)), _trace_num(pq, r)))
    return _collect(terms)


# -- products and forms -----------------------------------------------------


def _cross_nums(x, y) -> list:
    """Numerators of cross on integer coordinates, over the table's denominator 2."""
    out = [0] * 27
    for l, m, n, c in cross_tables()[1]:
        out[n] += c * x[l] * y[m]
    return out


def cross(X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """Freudenthal cross product, contracted against cross_tables().

    It equals the closed form

    X x Y = X o Y - Tr(X)/2 Y - Tr(Y)/2 X - pair(X,Y)/2 e + Tr(X)Tr(Y)/2 e,

    and its defining property pair(X x Y, Z) = 3 D(X, Y, Z) is a test invariant.
    """
    return _elem(_cross_nums(X.nums, Y.nums), 2 * X.den * Y.den)


def jordan_mul(X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """(XY + YX)/2 = X x Y + Tr(X)/2 Y + Tr(Y)/2 X + (pair(X,Y) - Tr(X)Tr(Y))/2 e.

    All terms on the denominator 2 den(X) den(Y); the matrix route
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
    return sum(map(mul, x, gram_apply(y)))


def pair(X: AlbertElem, Y: AlbertElem) -> Fraction:
    """Trace(X o Y) = sum_i s_i t_i + 2 sum_i Q(x_i, y_i)."""
    return Fraction(_pair_nums(X.nums, Y.nums), X.den * Y.den)


def det_j(X: AlbertElem) -> Fraction:
    """The cubic norm form s1 s2 s3 - sum_i s_i norm(x_i) + tr((x1 x2) x3), via det_table()."""
    x = X.nums
    acc = 0
    for l, m, n, c in det_table():
        acc += c * x[l] * x[m] * x[n]
    return Fraction(acc, X.den ** 3)


def trilinear_d(X: AlbertElem, Y: AlbertElem, Z: AlbertElem) -> Fraction:
    """Full polarization of det: symmetric, D(X, X, X) = det(X).

    Each monomial c X_l X_m X_n of det_table() contributes c/6 times the
    sum of X_l Y_m Z_n over the 6 orders of (l, m, n).
    """
    x, y, z = X.nums, Y.nums, Z.nums
    acc = 0
    for l, m, n, c in det_table():
        yl, ym, yn = y[l], y[m], y[n]
        zl, zm, zn = z[l], z[m], z[n]
        acc += c * (x[l] * (ym * zn + yn * zm) + x[m] * (yl * zn + yn * zl) + x[n] * (yl * zm + ym * zl))
    return Fraction(acc, 6 * X.den * Y.den * Z.den)


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
