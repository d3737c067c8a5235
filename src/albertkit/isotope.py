"""Isotopes of J indexed by elements a with det(a) != 0.

Two routes to the same product, built from the degree-6 trilinear form

    t_form(a; X, Y, Z) = 27 D(a,a,X) D(a,a,Y) D(a,a,Z)
                         - 24 det(a) D(a x X, a x Y, a x Z)

and the bilinear form

    q_a(a; X, Y) = -6 det(a) D(X, Y, a) + 9 D(X, a, a) D(Y, a, a):

 * circ_a_springer: det(a)^{-4} phi_a(X, Y), where
       phi_a = 4 det(a)^3 (X x a) x (Y x a)
               + (det(a)^2 q_a(X, Y) - q_a(X, a) q_a(Y, a)) / 2 * a
 * circ_a_tform: the unique V with
       q_a(V, Z) = det(a)^{-1} t_form(a; X, Y, Z)  for every Z.

With a# = a x a and the U-operator of the cubic norm structure,

    U_v R = pair(v, R) v - 2 (v# x R),

q_a(X, Y) = pair(U_{a#} X, Y), and U_{a#} has the inverse
det(a)^{-2} U_a (McCrimmon, A Taste of Jordan Algebras, on isotopes
J^(u)). By duality, pair(V x W, Z) = 3 D(V, W, Z), the right side is
pair(R, Z) with R = s a# - 8 (a x u), where u = (a x X) x (a x Y) and
s = pair(a#, X) pair(a#, Y) / det(a). So V = det(a)^{-2} U_a R. Expand
it with a## = det(a) a, pair(a, a#) = 3 det(a), pair(a, a x u) =
pair(a#, u) = t and the adjoint identity of the cubic norm (in the
same book, with x half of McCrimmon's cross)

    a# x (a x u) = (det(a) u + pair(a#, u) a) / 4:

pair(a, R) = 3 s det(a) - 8 t and a# x R = (s det(a) - 2 t) a - 2 det(a) u,
hence

    V = (4/det(a)) u + ((s det(a) - 4 t) / det(a)^2) a.

circ_a_tform evaluates this in integers; no linear solve, and neither
a x u nor a# x R is formed.

Both give the Jordan product at a = e, and they agree everywhere they
are defined (asserted exactly in tests). pairing_a = det(a)^{-2} q_a is
the matching trace form.
"""

from __future__ import annotations

from fractions import Fraction

from .albert import (
    AlbertElem,
    _cross_nums,
    _det_num,
    _elem,
    _pair_nums,
    cross,
    det_j,
    jbasis,
    pair_vec,
    trilinear_d,
)
from .errors import SingularPoint


def t_form(a: AlbertElem, X: AlbertElem, Y: AlbertElem, Z: AlbertElem) -> Fraction:
    """Trilinear, symmetric, degree 6 in a; t_form(e; X, Y, Z) = Tr((X o Y) o Z)."""
    daa_x = trilinear_d(a, a, X)
    daa_y = trilinear_d(a, a, Y)
    daa_z = trilinear_d(a, a, Z)
    head = 27 * daa_x * daa_y * daa_z
    tail = 24 * det_j(a) * trilinear_d(cross(a, X), cross(a, Y), cross(a, Z))
    return head - tail


def q_a(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> Fraction:
    """-6 det(a) D(X, Y, a) + 9 D(X, a, a) D(Y, a, a); nondegenerate for det(a) != 0."""
    return -6 * det_j(a) * trilinear_d(X, Y, a) + 9 * trilinear_d(X, a, a) * trilinear_d(Y, a, a)


def gram_qa(a: AlbertElem) -> tuple:
    """27x27 Gram matrix of q_a over jbasis.

    q_a(X, Y) = pair(U_{a#} X, Y), so row j is pair_vec(U_{a#} b_j); with
    a## = det(a) a that is pair(a#, b_j) a# - 2 det(a) (a x b_j). The
    matrix is singular exactly when det(a) = 0.
    """
    det_a = det_j(a)
    a_sharp = cross(a, a)
    dvec = pair_vec(a_sharp)
    return tuple(
        pair_vec(a_sharp.scale(dvec[j]) - cross(a, b).scale(2 * det_a))
        for j, b in enumerate(jbasis())
    )


def phi_a(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """4 det(a)^3 (X x a) x (Y x a) + (det(a)^2 q_a(X,Y) - q_a(X,a) q_a(Y,a))/2 * a.

    Bilinear symmetric; degree 11 in a. phi_a(e, X, Y) = X o Y.
    """
    det_a = det_j(a)
    head = cross(cross(X, a), cross(Y, a)).scale(4 * det_a**3)
    corr = det_a**2 * q_a(a, X, Y) - q_a(a, X, a) * q_a(a, Y, a)
    return head + a.scale(corr / 2)


def _require_invertible(d):
    """d, which is det(a) or its numerator; SingularPoint when it is 0."""
    if d == 0:
        raise SingularPoint("det(a) = 0: the isotope at a is undefined")
    return d


def circ_a_springer(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """det(a)^{-4} phi_a(X, Y); the isotope product in closed form."""
    d = _require_invertible(det_j(a))
    return phi_a(a, X, Y).scale(1 / d**4)


def pairing_a(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> Fraction:
    """det(a)^{-2} q_a(X, Y); the isotope's trace form."""
    d = _require_invertible(det_j(a))
    return q_a(a, X, Y) / d**2


def circ_a_tform(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """The product defined implicitly by q_a(X circ Y, Z) = det(a)^{-1} t_form(a; X, Y, Z).

    With d = det(a), P = a x X, Q = a x Y, u = P x Q, s = pair(a#, X)
    pair(a#, Y) / d and t = pair(a#, u) it is

        V = (4/d) u + ((s d - 4 t) / d^2) a.

    It is formed in integers: with A = a.nums over da, dn = d da^3, S, P, Q
    and U the cross numerators of a#, a x X, a x Y and u, and sx, sy, t the
    pair numerators of S against X, Y and U,

        V = (2 dn da U + (sx sy - t) da A) / (4 den(X) den(Y) dn^2),

    reduced once: four cross products, one det and three pairings on the
    written-out kernels of albert, with no table built or read and no
    Fraction. The derivation is in the module docstring.
    """
    A, da = a.nums, a.den
    dn = _require_invertible(_det_num(A))
    S = _cross_nums(A, A)
    U = _cross_nums(_cross_nums(A, X.nums), _cross_nums(A, Y.nums))
    sx, sy, t = _pair_nums(S, X.nums), _pair_nums(S, Y.nums), _pair_nums(S, U)
    cu, ca = 2 * dn * da, (sx * sy - t) * da
    return _elem([cu * u + ca * v for u, v in zip(U, A)], 4 * X.den * Y.den * dn * dn)
