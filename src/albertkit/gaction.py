"""An explicitly constructible family of symmetries of J and V = J + J.

A GroupElem bundles a linear map L on J that scales the cubic form
(det(LX) = c det(X), c != 0) with an invertible 2x2 matrix g2 twisting
the two copies of J inside V:

    act_v(g, (A, B)) = (a LA + b LB, c LA + d LB),   g2 = [[a, b], [c, d]].

Generators: scalar multiples of the identity, conjugation by diagonal
matrices, conjugation by permutation matrices, and pure GL(2) factors.
Compositions of these exercise every equivariance law in the package
with nontrivial characters. All of them act on coordinates by monomial
matrices, L b_j = scales[j] b_{perm[j]}, which is how L is stored.

The character of the V-action is chi(g) = c^4 det(g2)^6; the adjoint
involution tilde(g) is the unique map with pair(gX, tilde(g)Y) = pair(X, Y);
mu(g) = c det(g2)^2 L normalizes the action so it intertwines isotope
products (a multiplicative family, asserted in tests).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .albert import _GRAM, AlbertElem, _elem, det_table
from .errors import SingularMatrix, ZeroScalar
from .linalg import mat_mul
from .octonion import _Frozen, _rat
from .pvs import VPoint

_ID2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
_ID_PERM = tuple(range(27))

# the Gram matrix of pair is a signed involution: M b_j = _M_SIGN[j] b_{_M_PERM[j]}
_M_PERM = tuple(j for _, j, _ in _GRAM)
_M_SIGN = tuple(sign for _, _, sign in _GRAM)


def det2(m) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


class GroupElem(_Frozen):
    """L b_j = scales[j] b_{perm[j]} on J; c: its det multiplier; g2: GL(2) factor. Immutable.

    A dense matrix comes in only through from_dense; .L is a read-only dense view.
    """

    __slots__ = ("perm", "scales", "c", "g2")

    def __init__(self, perm, scales, c, g2=_ID2):
        object.__setattr__(self, "perm", tuple(perm))
        object.__setattr__(self, "scales", tuple(_rat(s) for s in scales))
        object.__setattr__(self, "c", _rat(c))
        object.__setattr__(self, "g2", tuple(tuple(_rat(v) for v in row) for row in g2))
        if sorted(self.perm) != list(_ID_PERM):
            raise ValueError("L must be monomial and invertible: perm is not a permutation of range(27)")
        if len(self.scales) != 27 or not all(self.scales):
            raise ZeroScalar("L needs 27 nonzero scales")
        if self.c == 0:
            raise ZeroScalar("group element must scale det by a nonzero factor")
        if det2(self.g2) == 0:
            raise SingularMatrix("GL(2) factor must be invertible")

    @classmethod
    def from_dense(cls, L, c, g2=_ID2) -> "GroupElem":
        """The element with the 27x27 matrix L; ValueError unless L is monomial with det multiplier c.

        c is checked exactly: with q = perm^-1, (LX)_i = scales[q[i]] X_{q[i]}, so L maps
        each monomial of det_table() to one monomial, distinct ones to distinct ones, and
        the image must be c times det_table().
        """
        cols = [[(i, v) for i, v in enumerate(col) if v] for col in zip(*L)]
        if any(len(col) != 1 for col in cols):
            raise ValueError("L must be monomial: one nonzero entry in each column")
        g = cls([col[0][0] for col in cols], [col[0][1] for col in cols], c, g2)
        q = sorted(_ID_PERM, key=g.perm.__getitem__)
        s = g.scales
        image = {}
        for l, m, n, a in det_table():
            l, m, n = sorted((q[l], q[m], q[n]))
            image[l, m, n] = a * s[l] * s[m] * s[n]
        if image != {(l, m, n): g.c * a for l, m, n, a in det_table()}:
            raise ValueError("c = %s is not the det multiplier of L" % (g.c,))
        return g

    @property
    def L(self) -> tuple:
        """The dense 27x27 matrix, a read-only view: L[perm[j]][j] = scales[j]."""
        p, s, zero = self.perm, self.scales, Fraction(0)
        return tuple(tuple(s[j] if p[j] == i else zero for j in range(27)) for i in range(27))

    def __eq__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return (self.perm, self.scales, self.c, self.g2) == (other.perm, other.scales, other.c, other.g2)

    def __hash__(self):
        return hash((self.perm, self.scales, self.c, self.g2))

    def __repr__(self):
        return "GroupElem(c=%s, g2=%r, L=<monomial 27x27>)" % (self.c, self.g2)

    def apply_j(self, X: AlbertElem) -> AlbertElem:
        """Scatter X's integer coordinates, scaled over the scales' common denominator."""
        d = lcm(*(s.denominator for s in self.scales))
        out = [0] * 27
        for i, s, x in zip(self.perm, self.scales, X.nums):
            out[i] = s.numerator * (d // s.denominator) * x
        return _elem(out, X.den * d)

    def compose(self, other: "GroupElem") -> "GroupElem":
        """self after other: (g.compose(h)) acts as X -> g(h(X)) on J and on V."""
        p, s = self.perm, self.scales
        return GroupElem(
            [p[k] for k in other.perm],
            [t * s[k] for k, t in zip(other.perm, other.scales)],
            self.c * other.c,
            mat_mul(self.g2, other.g2),
        )

    def __mul__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.compose(other)


def identity_elem() -> GroupElem:
    return GroupElem(_ID_PERM, (1,) * 27, 1)


def scalar_elem(t) -> GroupElem:
    """X -> tX; scales det by t^3."""
    return GroupElem(_ID_PERM, (t,) * 27, _rat(t) ** 3)


def diag_conj(l1, l2, l3) -> GroupElem:
    """X -> DXD for D = diag(l1, l2, l3): s_i -> l_i^2 s_i, x_1 -> l2 l3 x_1 cyclically."""
    ls = (_rat(l1), _rat(l2), _rat(l3))
    # a diagonal matrix in coordinates: 3 diagonal entries, then 8 per slot
    factors = [l * l for l in ls] + [ls[(i + 1) % 3] * ls[(i + 2) % 3] for i in range(3) for _ in range(8)]
    return GroupElem(_ID_PERM, factors, (ls[0] * ls[1] * ls[2]) ** 2)


def perm_elem(sigma) -> GroupElem:
    """X -> P X P^T for the permutation matrix P of sigma (images of 1, 2, 3).

    The new (i, j) entry is the old (sigma(i), sigma(j)) entry, so the new
    s_i is the old s_sigma(i) and the new x_i the old x_sigma(i),
    conjugated when sigma is odd. det is preserved, so c = 1. One element
    per sigma is built, in closed form, and shared.
    """
    sig = tuple(sigma)
    if sorted(sig) != [1, 2, 3]:
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
    return GroupElem(perm, scales, 1)


def gl2_elem(m) -> GroupElem:
    """Identity on J; m twists the two J summands of V."""
    return GroupElem(_ID_PERM, (1,) * 27, 1, m)


def act_v(g: GroupElem, x: VPoint) -> VPoint:
    a, b = g.g2[0]
    c, d = g.g2[1]
    la = g.apply_j(x.a)
    lb = g.apply_j(x.b)
    return VPoint(a * la + b * lb, c * la + d * lb)


def chi(g: GroupElem) -> Fraction:
    """The character with delta(act_v(g, x)) = chi(g) delta(x)."""
    return g.c**4 * det2(g.g2) ** 6


def tilde(g: GroupElem) -> GroupElem:
    """The pairing adjoint inverse: pair(gX, tilde(g)Y) = pair(X, Y).

    With M the Gram matrix of pair this is M (L^T)^{-1} M, and
    (L^T)^{-1} b_k = b_{perm[k]} / scales[k]: no inverse is computed. It
    scales det by 1/c. The GL(2) factor is untouched.
    """
    m, sign, p, s = _M_PERM, _M_SIGN, g.perm, g.scales
    scales = [sign[j] * sign[p[k]] / s[k] for j, k in enumerate(m)]
    return GroupElem([m[p[k]] for k in m], scales, 1 / g.c, g.g2)


def mu(g: GroupElem) -> GroupElem:
    """c det(g2)^2 L, as a map on J; scales det by chi(g)."""
    factor = g.c * det2(g.g2) ** 2
    return GroupElem(g.perm, [factor * s for s in g.scales], chi(g))
