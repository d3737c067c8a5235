"""An explicitly constructible family of symmetries of J and V = J + J.

A GroupElem bundles a linear map L on J that scales the cubic form
(det(LX) = c det(X), c != 0) with an invertible 2x2 matrix g2 twisting
the two copies of J inside V:

    act_v(g, (A, B)) = (a LA + b LB, c LA + d LB),   g2 = [[a, b], [c, d]].

Generators: scalar multiples of the identity, conjugation by diagonal
matrices, conjugation by permutation matrices, and pure GL(2) factors.
Compositions of these exercise every equivariance law in the package
with nontrivial characters. All of them act on coordinates by monomial
matrices, L b_j = scales[j] b_{perm[j]}.

How L is stored: as perm and the 27 scale numerators `nums`, Python ints
over one positive denominator `den` in canonical form, gcd(den, *nums) = 1,
as octonion._IntCoords stores coordinates. apply_j, compose, tilde, mu and
act_v work on those ints with one octonion._lowest per result; `scales`
and the dense `L` are Fraction views made on demand. g2 is a GL2, its
entries a, b, c, d as ints over one denominator, an octonion._IntCoords
like pvs.BinaryCubic; its product and act_v work on those ints.
c is not stored: L is a similarity and det(e) = 1, so c = det(L e), read
off L on demand. The two multipliers come as int pairs from one place
each: _c_pair(g) = (det numerator of L e, den^3) and _det2_pair(m) =
(ad - bc, den^2). mu and chi combine them on ints, chi making its one
Fraction, the value it returns; GroupElem.c and det2 are Fraction views
of the same pairs. octonion._Frozen sets, compares and hashes the slots.

The character of the V-action is chi(g) = c^4 det(g2)^6; the adjoint
involution tilde(g) is the unique map with pair(gX, tilde(g)Y) = pair(X, Y);
mu(g) = c det(g2)^2 L normalizes the action so it intertwines isotope
products (a multiplicative family, asserted in tests).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .albert import _GRAM, AlbertElem, _det_num, _elem, det_table
from .errors import SingularMatrix, ZeroScalar
from .octonion import _canonical, _fmt, _Frozen, _fractions, _IntCoords, _lowest, _rat, _reduced
from .pvs import VPoint

_ID_PERM = tuple(range(27))
_ONES = (1,) * 27
_NONZERO_SCALES = "L needs 27 nonzero scales"

# the Gram matrix of pair is a signed involution: M b_j = _M_SIGN[j] b_{_M_PERM[j]}
_M_PERM = tuple(j for _, j, _ in _GRAM)
_M_SIGN = tuple(sign for _, _, sign in _GRAM)


class GL2(_IntCoords):
    """The GL(2) factor [[a, b], [c, d]] of a GroupElem: nums = (a, b, c, d) as ints over `den`. Immutable."""

    __slots__ = ()


_ID2 = _reduced(GL2, (1, 0, 0, 1), 1)


def _det2_pair(m: GL2) -> tuple:
    """det(m) as (ad - bc, den^2), ints over a positive denominator."""
    a, b, c, d = m.nums
    return a * d - b * c, m.den * m.den


def det2(m: GL2) -> Fraction:
    return Fraction(*_det2_pair(m))


def _mul2(m: GL2, n: GL2) -> GL2:
    """The 2x2 product m n of two GL(2) factors, over m.den * n.den."""
    a, b, c, d = m.nums
    e, f, g, h = n.nums
    return _reduced(GL2, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), m.den * n.den)


class GroupElem(_Frozen):
    """L b_j = (nums[j] / den) b_{perm[j]} on J; g2: GL(2) factor; c = det(L e): L's det multiplier. Immutable.

    The scales are int numerators `nums` over one `den` > 0 with gcd(den, *nums) == 1,
    so == and hash compare exact values. `scales` and the dense `L` are read-only
    Fraction views; no dense matrix comes in: decode_group reads the full form's
    perm and scales off its columns.

    The constructor takes c only to check it, exactly, on integers: with q = perm^-1,
    (LX)_i = scales[q[i]] X_{q[i]}, so L maps each monomial of det_table() to one, distinct
    ones to distinct ones, and the image must be c times det_table(). An L that is no
    similarity is a ValueError. _checked holds these checks; decode_group runs them too.
    """

    __slots__ = ("perm", "nums", "den", "g2")

    def __init__(self, perm, scales, c, g2=_ID2):
        c = _rat(c)
        self._init(*_checked(perm, scales, 1, c.numerator, c.denominator, g2))

    @property
    def c(self) -> Fraction:
        """The det multiplier, det(gX) = c det(X); det(e) = 1, so it is det(L e)."""
        return Fraction(*_c_pair(self))

    @property
    def scales(self) -> tuple:
        """The 27 scales nums[j] / den as Fractions, a read-only view."""
        return _fractions(self.nums, self.den)

    @property
    def L(self) -> tuple:
        """The dense 27x27 matrix, a read-only view: L[perm[j]][j] = scales[j]."""
        p, s, zero = self.perm, self.scales, Fraction(0)
        return tuple(tuple(s[j] if p[j] == i else zero for j in range(27)) for i in range(27))

    def __repr__(self):
        return "GroupElem(c=%s, g2=[[%s, %s], [%s, %s]], L=<monomial 27x27>)" % (self.c, *self.g2.coords())

    def apply_j(self, X: AlbertElem) -> AlbertElem:
        """Scatter X's integer coordinates times the scale numerators, over X.den * den."""
        out = [0] * 27
        for i, n, x in zip(self.perm, self.nums, X.nums):
            out[i] = n * x
        return _elem(out, X.den * self.den)

    def compose(self, other: "GroupElem") -> "GroupElem":
        """self after other: (g.compose(h)) acts as X -> g(h(X)) on J and on V."""
        p, s, q = self.perm, self.nums, other.perm
        nums = [t * s[k] for k, t in zip(q, other.nums)]
        return _group([p[k] for k in q], nums, self.den * other.den, _mul2(self.g2, other.g2))

    def __mul__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.compose(other)


def _group(perm, nums, den: int, g2) -> GroupElem:
    """The element with scales nums/den (den > 0), reduced to canonical form; nothing is checked."""
    g = object.__new__(GroupElem)
    g._init(tuple(perm), *_lowest(nums, den), g2)
    return g


def _c_pair(g: GroupElem) -> tuple:
    """c = det(L e) as (det numerator of L e, den^3), ints over a positive denominator.

    e = E = diag(1, 1, 1) has coordinates 1, 1, 1 and then 24 zeros, so L e
    is the first three scale numerators scattered by perm, over den.
    """
    x = [0] * 27
    for i, n in zip(g.perm[:3], g.nums):
        x[i] = n
    return _det_num(x), g.den**3


def _checked(perm, scales, den: int, cn: int, cd: int, g2) -> tuple:
    """(perm, nums, den, g2) of L b_j = (scales[j] / den) b_{perm[j]}, checked as the constructor documents.

    The scales are rationals; ints, as decode_group passes them, need no
    Fraction. c = cn / cd, cd > 0, need not be in lowest terms.
    """
    perm = tuple(perm)
    if any(type(i) is not int for i in perm) or sorted(perm) != list(_ID_PERM):
        raise ValueError("L must be monomial and invertible: perm is not a permutation of range(27)")
    # _canonical reads only numerator and denominator, which an int has
    nums, d = _canonical([s if type(s) is int else _rat(s) for s in scales])
    if len(nums) != 27:
        raise ValueError("L needs 27 scales, got %d" % len(nums))
    nums, den = _lowest(nums, d * den)
    if not all(nums):
        raise ZeroScalar(_NONZERO_SCALES)
    if cn == 0:
        raise ZeroScalar("group element must scale det by a nonzero factor")
    g2 = _gl2(g2)
    q = sorted(_ID_PERM, key=perm.__getitem__)
    image = {}
    for l, m, n, a in det_table():
        l, m, n = sorted((q[l], q[m], q[n]))
        image[l, m, n] = a * nums[l] * nums[m] * nums[n] * cd
    cd3 = cn * den**3
    if image != {(l, m, n): a * cd3 for l, m, n, a in det_table()}:
        raise ValueError("c = %s is not the det multiplier of L" % _fmt(cn, cd))
    return perm, nums, den, g2


def _gl2(m) -> GL2:
    """m, a GL2 or 2x2 rows of rationals, as a GL2; ValueError unless 2x2, SingularMatrix unless invertible."""
    if type(m) is not GL2:
        rows = [[_rat(v) for v in row] for row in m]
        if [len(row) for row in rows] != [2, 2]:
            raise ValueError("GL(2) factor must be 2x2")
        m = _reduced(GL2, *_canonical(rows[0] + rows[1]))
    a, b, c, d = m.nums
    if a * d == b * c:
        raise SingularMatrix("GL(2) factor must be invertible")
    return m


def identity_elem() -> GroupElem:
    return _group(_ID_PERM, _ONES, 1, _ID2)


def scalar_elem(t) -> GroupElem:
    """X -> tX; scales det by t^3."""
    t = _rat(t)
    return _scalar(t.numerator, t.denominator)


def _scalar(p: int, q: int) -> GroupElem:
    """scalar_elem(p / q) for ints p and q > 0, not necessarily in lowest terms."""
    if p == 0:
        raise ZeroScalar(_NONZERO_SCALES)
    return _group(_ID_PERM, (p,) * 27, q, _ID2)


def diag_conj(l1, l2, l3) -> GroupElem:
    """X -> DXD for D = diag(l1, l2, l3): s_i -> l_i^2 s_i, x_1 -> l2 l3 x_1 cyclically."""
    return _diag(*_canonical((_rat(l1), _rat(l2), _rat(l3))))


def _diag(m, q: int) -> GroupElem:
    """diag_conj(*(n / q for n in m)) for 3 ints m and q > 0, not necessarily in lowest terms."""
    if not all(m):
        raise ZeroScalar(_NONZERO_SCALES)
    # a diagonal matrix in coordinates, over q^2: 3 diagonal entries, then 8 per slot
    nums = [n * n for n in m] + [m[(i + 1) % 3] * m[(i + 2) % 3] for i in range(3) for _ in range(8)]
    return _group(_ID_PERM, nums, q * q, _ID2)


def perm_elem(sigma) -> GroupElem:
    """X -> P X P^T for the permutation matrix P of sigma (images of 1, 2, 3).

    The new (i, j) entry is the old (sigma(i), sigma(j)) entry, so the new
    s_i is the old s_sigma(i) and the new x_i the old x_sigma(i),
    conjugated when sigma is odd. det is preserved, so c = 1. One element
    per sigma is built, in closed form, and shared.
    """
    sig = tuple(sigma)
    if any(type(s) is not int for s in sig) or sorted(sig) != [1, 2, 3]:
        raise ValueError("sigma must be a permutation of (1, 2, 3)")
    return _perm_elem(sig)


# (b, sign) at index a: Zorn coordinate a goes to sign * coordinate b, kept or under
# conjugation (alpha, v; w, beta) -> (beta, -v; -w, alpha)
_KEEP = tuple((a, 1) for a in range(8))
_CONJ = ((7, 1),) + tuple((a, -1) for a in range(1, 7)) + ((0, 1),)


@lru_cache(maxsize=6)
def _perm_elem(sig: tuple) -> GroupElem:
    coord = _CONJ if (sig[1] - sig[0]) % 3 == 2 else _KEEP  # odd sigma: conjugate
    perm, scales = [0] * 27, [1] * 27
    for new, s in enumerate(sig):
        old = s - 1
        perm[old] = new
        for a, (b, sign) in enumerate(coord):
            perm[3 + 8 * old + a] = 3 + 8 * new + b
            scales[3 + 8 * old + a] = sign
    return _group(perm, scales, 1, _ID2)


def gl2_elem(m) -> GroupElem:
    """Identity on J; m twists the two J summands of V."""
    return _group(_ID_PERM, _ONES, 1, _gl2(m))


def act_v(g: GroupElem, x: VPoint) -> VPoint:
    """(a LA + b LB, c LA + d LB) for x = (A, B): one integer pass per output element."""
    a, b, c, d = g.g2.nums
    return VPoint(_combine(g, a, b, x), _combine(g, c, d, x))


def _combine(g: GroupElem, p: int, q: int, x: VPoint) -> AlbertElem:
    """(p LA + q LB) / g2.den = L(p A + q B) / g2.den for x = (A, B), on the integer numerators, with one reduction."""
    u, v = p * x.b.den, q * x.a.den
    out = [0] * 27
    for i, n, s, t in zip(g.perm, g.nums, x.a.nums, x.b.nums):
        out[i] = n * (u * s + v * t)
    return _elem(out, g.g2.den * x.a.den * x.b.den * g.den)


def chi(g: GroupElem) -> Fraction:
    """The character with delta(act_v(g, x)) = chi(g) delta(x): c^4 det(g2)^6, one Fraction."""
    cn, cd = _c_pair(g)
    dn, dd = _det2_pair(g.g2)
    return Fraction(cn**4 * dn**6, cd**4 * dd**6)


def tilde(g: GroupElem) -> GroupElem:
    """The pairing adjoint inverse: pair(gX, tilde(g)Y) = pair(X, Y).

    With M the Gram matrix of pair this is M (L^T)^{-1} M, and
    (L^T)^{-1} b_k = b_{perm[k]} / scales[k]: no inverse is computed. Over
    l = lcm(*nums), 1 / scales[k] = den (l // nums[k]) / l. It scales det by
    1/c. The GL(2) factor is untouched.
    """
    m, sign, p, s, d = _M_PERM, _M_SIGN, g.perm, g.nums, g.den
    l = lcm(*s)
    nums = [sign[j] * sign[p[k]] * d * (l // s[k]) for j, k in enumerate(m)]
    return _group([m[p[k]] for k in m], nums, l, g.g2)


def mu(g: GroupElem) -> GroupElem:
    """c det(g2)^2 L, as a map on J; scales det by chi(g) = c (c det(g2)^2)^3. On ints, reduced once."""
    cn, cd = _c_pair(g)
    dn, dd = _det2_pair(g.g2)
    f = cn * dn**2
    return _group(g.perm, [f * n for n in g.nums], g.den * cd * dd**2, _ID2)
