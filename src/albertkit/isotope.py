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

With a# = a x a, solving the t_form equation gives the isotope of the
cubic norm structure at a (McCrimmon, A Taste of Jordan Algebras, on
isotopes J^(u); Petersson and Racine, "Jordan algebras of degree 3 and
the Tits process", J. Algebra 1986):

    X circ_a Y = det(a)^{-1} ((pair(a#, X) Y + pair(a#, Y) X)/2 - 2 a# x (X x Y)).

That is albert._isotope_nums at K = a#, the kernel s_map contracts at a
point; circ_a_tform evaluates it in integers, with no linear solve.

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
    _isotope_nums,
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

    It is the isotope kernel at a# (see the module docstring). With A =
    a.nums over da, dn = det(a) da^3 and S = _cross_nums(A, A), the
    numerators of a# over 2 da^2,

        X circ Y = sgn(dn) da _isotope_nums(S, X.nums, Y.nums) / (4 |dn| den(X) den(Y)),

    reduced once: three cross products, one det and two pairings on the
    written-out kernels of albert, with no table built or read and no
    Fraction.
    """
    A, da = a.nums, a.den
    dn = _require_invertible(_det_num(A))
    c = da if dn > 0 else -da
    return _elem([c * v for v in _isotope_nums(_cross_nums(A, A), X.nums, Y.nums)], 4 * abs(dn) * X.den * Y.den)
