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

Solving the t_form equation gives the isotope of the cubic norm
structure at a in closed form (see circ_a_tform): the isotope kernel
albert._isotope_nums at a#, the kernel s_map evaluates at a point, with
no linear solve.

Both give the Jordan product at a = e, and they agree everywhere they
are defined (asserted exactly in tests). pairing_a = det(a)^{-2} q_a is
the matching trace form.

On integers. The integer context of an index a is (A, da, dn, S): A =
a.nums over da, S = 2 _sharp_nums(A) = _cross_nums(A, A) (so S = 2 da^2
a#) and dn = det(a) da^3, read off S; all four are tuples or ints. With
p = _pair_nums and c = _cross_nums, and x, y, z the numerators of X, Y,
Z over dx, dy, dz, since D(X, Y, Z) = pair(X x Y, Z)/3 each form is one
integer expression reduced once:

    t_form = (p(S,x) p(S,y) p(S,z) - 4 dn p(c(c(A,x), c(A,y)), c(A,z)))
             / (8 da^6 dx dy dz)
    q_a    = (p(S,x) p(S,y) - 4 dn p(c(x,y), A)) / (4 da^4 dx dy)

and row j of gram_qa is gram_apply(g_j S - 4 dn c(A, b_j)) / (4 da^4),
g = gram_apply(S). With q_a(X, a) = det(a) pair(a#, X) the correction
term of phi_a collapses, and the Springer route is two lines:

    phi_a           = det(a)^3 (4 (X x a) x (Y x a) - pair(X x Y, a) a)
    circ_a_springer = det(a)^-1 (4 (X x a) x (Y x a) - pair(X x Y, a) a),

one bracket c(c(x,A), c(y,A)) - p(c(x,y), A) A over 2 dx dy da^2. Both
products divide by det(a) once: albert._div_scale moves its sign into
the scale da, which the kernel applies in its own pass, and the result
is reduced once.

The context cache. _index(a) is the one context of an index, for every
a: a functools.lru_cache of at most 16 contexts, keyed on the immutable
value a (equal elements share an entry), the least recently used
evicted first. A singular a takes an entry too. The forms defined at
every a (t_form, q_a, gram_qa, phi_a) read it directly; the products
(circ_a_tform, circ_a_springer, pairing_a) read it through
_invertible_index, which raises SingularPoint on every call when
det(a) = 0. So multiplying many pairs in one isotope pays for a# and
det(a) once.

An entry holds a's 27 numerators (the key's own tuple), S at about
twice their length and dn at three times one: about three times the
integers of a. For the largest index a JSON file can give, 27
coordinates of 4300 digits over distinct 4300-digit denominators, that
is 4.4 MB (sys.getsizeof), so the 16 entries hold at most about 70 MB.
Code that monkeypatches a kernel the context is built from
(albert._sharp_nums, _pair_nums) must call _index.cache_clear(), or a
context cached before it keeps the old kernel's values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .albert import (
    AlbertElem,
    _cross_nums,
    _div_scale,
    _elem,
    _isotope_nums,
    _pair_nums,
    _sharp_nums,
    gram_apply,
    jbasis,
    pair_vec,
)
from .errors import SingularPoint


@lru_cache(maxsize=16)
def _index(a: AlbertElem) -> tuple:
    """(A, da, dn, S): a = A / da, det(a) = dn / da^3 and a# = a x a = S / (2 da^2), all ints or tuples; cached.

    S is twice the numerators of albert._sharp_nums, so S = _cross_nums(A, A)
    at half the products, and 3 det(a) = pair(a#, a) reads dn off it: p(S, A) = 6 dn.
    """
    A = a.nums
    S = tuple([2 * v for v in _sharp_nums(A)])
    return A, a.den, _pair_nums(S, A) // 6, S


def _invertible_index(a: AlbertElem) -> tuple:
    """_index(a) for the products, which are defined only where det(a) != 0: SingularPoint otherwise."""
    ctx = _index(a)
    if ctx[2] == 0:
        raise SingularPoint("det(a) = 0: the isotope at a is undefined")
    return ctx


def t_form(a: AlbertElem, X: AlbertElem, Y: AlbertElem, Z: AlbertElem) -> Fraction:
    """Trilinear, symmetric, degree 6 in a; t_form(e; X, Y, Z) = Tr((X o Y) o Z).

    One integer expression, reduced once (see the module docstring).
    """
    A, da, dn, S = _index(a)
    head = _pair_nums(S, X.nums) * _pair_nums(S, Y.nums) * _pair_nums(S, Z.nums)
    tail = _pair_nums(_cross_nums(_cross_nums(A, X.nums), _cross_nums(A, Y.nums)), _cross_nums(A, Z.nums))
    return Fraction(head - 4 * dn * tail, 8 * da**6 * X.den * Y.den * Z.den)


def q_a(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> Fraction:
    """-6 det(a) D(X, Y, a) + 9 D(X, a, a) D(Y, a, a); nondegenerate for det(a) != 0.

    One integer expression, reduced once (see the module docstring).
    """
    A, da, dn, S = _index(a)
    num = _pair_nums(S, X.nums) * _pair_nums(S, Y.nums) - 4 * dn * _pair_nums(_cross_nums(X.nums, Y.nums), A)
    return Fraction(num, 4 * da**4 * X.den * Y.den)


def gram_qa(a: AlbertElem) -> tuple:
    """27x27 Gram matrix of q_a over jbasis.

    q_a(X, Y) = pair(U_{a#} X, Y), so row j is pair_vec(U_{a#} b_j); with
    a## = det(a) a that is pair(a#, b_j) a# - 2 det(a) (a x b_j), on
    integers over 4 da^4. The matrix is singular exactly when det(a) = 0.
    """
    A, da, dn, S = _index(a)
    k, den = 4 * dn, 4 * da**4
    return tuple(
        pair_vec(_elem([g * s - k * c for s, c in zip(S, _cross_nums(A, b.nums))], den))
        for g, b in zip(gram_apply(S), jbasis())
    )


def _springer_nums(A, x, y, scale: int) -> list:
    """scale (c(c(x, A), c(y, A)) - p(c(x, y), A) A): 4 (X x a) x (Y x a) - pair(X x Y, a) a over 2 da^2 dx dy."""
    r = scale * _pair_nums(_cross_nums(x, y), A)
    return [scale * v - r * w for v, w in zip(_cross_nums(_cross_nums(x, A), _cross_nums(y, A)), A)]


def phi_a(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """4 det(a)^3 (X x a) x (Y x a) + (det(a)^2 q_a(X,Y) - q_a(X,a) q_a(Y,a))/2 * a.

    Bilinear symmetric; degree 11 in a. phi_a(e, X, Y) = X o Y. It is
    det(a)^3 times the bracket _springer_nums (see the module docstring).
    """
    A, da, dn, _ = _index(a)
    return _elem(_springer_nums(A, X.nums, Y.nums, dn**3), 2 * da**11 * X.den * Y.den)


def circ_a_springer(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """det(a)^{-4} phi_a(X, Y); the isotope product in closed form: the bracket _springer_nums over det(a)."""
    A, da, dn, _ = _invertible_index(a)
    c, n = _div_scale(da, dn)
    return _elem(_springer_nums(A, X.nums, Y.nums, c), 2 * n * X.den * Y.den)


def pairing_a(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> Fraction:
    """det(a)^{-2} q_a(X, Y); the isotope's trace form."""
    _, da, dn, _ = _invertible_index(a)
    return q_a(a, X, Y) * da**6 / dn**2


def circ_a_tform(a: AlbertElem, X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """The product defined implicitly by q_a(X circ Y, Z) = det(a)^{-1} t_form(a; X, Y, Z).

    Solving it gives the isotope of the cubic norm structure at a
    (McCrimmon, A Taste of Jordan Algebras, on isotopes J^(u); Petersson
    and Racine, "Jordan algebras of degree 3 and the Tits process",
    J. Algebra 1986), 2/det(a) times the isotope kernel at a# = a x a:

        X circ_a Y = det(a)^{-1} ((pair(a#, X) Y + pair(a#, Y) X)/2 - 2 a# x (X x Y))
                   = da _isotope_nums(S, X.nums, Y.nums) / (4 dn den(X) den(Y))

    with (A, da, dn, S) = _invertible_index(a), cached per index: two
    cross products and two pairings on the written-out kernels, one pass
    that applies the scale da with the sign of dn (albert._div_scale),
    one reduction, no table and no Fraction.
    """
    _, da, dn, S = _invertible_index(a)
    c, n = _div_scale(da, dn)
    return _elem(_isotope_nums(S, X.nums, Y.nums, c), 4 * n * X.den * Y.den)
