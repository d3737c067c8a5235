"""An explicitly constructible family of symmetries of J and V = J + J.

A GroupElem bundles a linear map L on J that scales the cubic form
(det(LX) = c det(X), c != 0) with an invertible 2x2 matrix g2 twisting
the two copies of J inside V:

    act_v(g, (A, B)) = (a LA + b LB, c LA + d LB),   g2 = [[a, b], [c, d]].

Generators: scalar multiples of the identity, conjugation by diagonal
matrices, conjugation by permutation matrices, and pure GL(2) factors.
Compositions of these exercise every equivariance law in the package
with nontrivial characters.

The character of the V-action is chi(g) = c^4 det(g2)^6; the adjoint
involution tilde(g) is the unique map with pair(gX, tilde(g)Y) = pair(X, Y);
mu(g) = c det(g2)^2 L normalizes the action so it intertwines isotope
products (a multiplicative family, asserted in tests).
"""

from __future__ import annotations

from fractions import Fraction

from .albert import (
    AlbertElem,
    from_matrix,
    jbasis,
    pair_gram,
    to_matrix,
)
from .errors import SingularMatrix, ZeroScalar
from .linalg import identity_matrix, inv_exact, mat_mul, mat_scale, mat_vec, transpose
from .octonion import _rat
from .pvs import VPoint

_ID2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def det2(m) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


class GroupElem:
    """L: 27x27 action on J coordinates; c: its det multiplier; g2: GL(2) factor."""

    __slots__ = ("L", "c", "g2")

    def __init__(self, L, c, g2=_ID2):
        self.L = tuple(tuple(_rat(v) for v in row) for row in L)
        self.c = _rat(c)
        self.g2 = tuple(tuple(_rat(v) for v in row) for row in g2)
        if self.c == 0:
            raise ZeroScalar("group element must scale det by a nonzero factor")
        if det2(self.g2) == 0:
            raise SingularMatrix("GL(2) factor must be invertible")

    def __eq__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.L == other.L and self.c == other.c and self.g2 == other.g2

    def __hash__(self):
        return hash((self.L, self.c, self.g2))

    def __repr__(self):
        return "GroupElem(c=%s, g2=%r, L=<27x27>)" % (self.c, self.g2)

    def apply_j(self, X: AlbertElem) -> AlbertElem:
        return AlbertElem.from_coords(mat_vec(self.L, X.coords()))

    def compose(self, other: "GroupElem") -> "GroupElem":
        """self after other: (g.compose(h)) acts as X -> g(h(X)) on J and on V."""
        return GroupElem(
            mat_mul(self.L, other.L),
            self.c * other.c,
            mat_mul(self.g2, other.g2),
        )

    def __mul__(self, other):
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.compose(other)


def identity_elem() -> GroupElem:
    return GroupElem(identity_matrix(27), 1, _ID2)


def _elem_from_j_map(f, c, g2=_ID2) -> GroupElem:
    """Build a GroupElem from an AlbertElem -> AlbertElem map (columns = basis images)."""
    cols = [f(b).coords() for b in jbasis()]
    L = tuple(tuple(cols[j][i] for j in range(27)) for i in range(27))
    return GroupElem(L, c, g2)


def scalar_elem(t) -> GroupElem:
    """X -> tX; scales det by t^3."""
    t = _rat(t)
    if t == 0:
        raise ZeroScalar("scalar_elem(0) is not invertible")
    return GroupElem(mat_scale(t, identity_matrix(27)), t**3)


def diag_conj(l1, l2, l3) -> GroupElem:
    """X -> DXD for D = diag(l1, l2, l3): s_i -> l_i^2 s_i, x_1 -> l2 l3 x_1 cyclically."""
    ls = (_rat(l1), _rat(l2), _rat(l3))
    if ls[0] * ls[1] * ls[2] == 0:
        raise ZeroScalar("diag_conj needs nonzero entries")

    # a diagonal matrix in coordinates: 3 diagonal entries, then 8 per slot
    factors = [l * l for l in ls] + [ls[(i + 1) % 3] * ls[(i + 2) % 3] for i in range(3) for _ in range(8)]
    L = tuple(tuple(t if i == j else 0 for j in range(27)) for i, t in enumerate(factors))
    return GroupElem(L, (ls[0] * ls[1] * ls[2]) ** 2)


def perm_elem(sigma) -> GroupElem:
    """X -> P X P^T for the permutation matrix P of sigma (images of 1, 2, 3).

    Derived entrywise: the new (i, j) entry is the old (sigma(i), sigma(j))
    entry, which permutes the diagonal and the octonion slots and, for odd
    permutations, conjugates the slots. det is preserved, so c = 1.
    """
    sig = tuple(sigma)
    if sorted(sig) != [1, 2, 3]:
        raise ValueError("sigma must be a permutation of (1, 2, 3)")

    def f(X: AlbertElem) -> AlbertElem:
        M = to_matrix(X)
        N = tuple(tuple(M[sig[i] - 1][sig[j] - 1] for j in range(3)) for i in range(3))
        return from_matrix(N)

    return _elem_from_j_map(f, 1)


def gl2_elem(m) -> GroupElem:
    """Identity on J; m twists the two J summands of V."""
    g2 = tuple(tuple(_rat(v) for v in row) for row in m)
    if det2(g2) == 0:
        raise SingularMatrix("gl2_elem needs an invertible matrix")
    return GroupElem(identity_matrix(27), 1, g2)


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

    With M the Gram matrix of pair (M squares to the identity) this is
    M (L^T)^{-1} M; it scales det by 1/c. The GL(2) factor is untouched.
    """
    M = pair_gram()
    lt_inv = inv_exact(transpose(g.L))
    return GroupElem(mat_mul(mat_mul(M, lt_inv), M), 1 / g.c, g.g2)


def mu(g: GroupElem) -> GroupElem:
    """c det(g2)^2 L, as a map on J; scales det by chi(g)."""
    factor = g.c * det2(g.g2) ** 2
    return GroupElem(mat_scale(factor, g.L), chi(g))
