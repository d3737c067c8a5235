"""Pairs of algebra elements, their binary cubic, and the discriminant."""

import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from albertkit.albert import AlbertElem, E, _det_num, _sharp_nums, det_j, diag_elem, trilinear_d
from albertkit.octonion import Oct
from albertkit.pvs import BinaryCubic, VPoint, _cubic_nums, _discriminant, cubic_of, delta, is_semistable, w_point
from albertkit.verify import rand_semistable

# the 9 halves in [-2, 2], 0 first so that shrinking still goes towards 0
rats = st.sampled_from([Fraction(0)] + [Fraction(s * n, 2) for n in range(1, 5) for s in (1, -1)])
octs = st.builds(lambda cs: Oct.from_coords(cs), st.tuples(*[rats] * 8))
elems = st.builds(
    lambda d, o: AlbertElem(d, o), st.tuples(rats, rats, rats), st.tuples(octs, octs, octs)
)
points = st.builds(VPoint, elems, elems)


def test_base_point_anchors():
    w = w_point()
    assert w.a == diag_elem(1, -1, 0)
    assert w.b == diag_elem(0, 1, -1)
    f = cubic_of(w)
    assert f.coeffs() == (0, 1, -1, 0)
    assert str(f) == "[0, 1, -1, 0]"
    assert delta(w) == 1
    assert is_semistable(w)


@settings(max_examples=25, deadline=None)
@given(points, rats, rats)
def test_cubic_evaluates_det(x, a, b):
    # F_x(a, b) = det(a*x1 + b*x2) by construction
    f = cubic_of(x)
    assert f.evaluate(a, b) == det_j(x.a.scale(a) + x.b.scale(b))


@settings(max_examples=25, deadline=None)
@given(points, st.integers(0, 2**32))
def test_cubic_coefficients_are_d_values(sparse_point, point_63, x, seed):
    # small halves, a sparse point of large height (20-bit over 8-bit
    # coordinates) and a dense 63-bit one; delta, an integer expression over
    # den^4, against the textbook discriminant of the coefficients
    for y in (x, sparse_point(random.Random(seed)), point_63(random.Random(seed))):
        a, b, c, d = cubic_of(y).coeffs()
        assert (a, b, c, d) == (
            det_j(y.a),
            3 * trilinear_d(y.a, y.a, y.b),
            3 * trilinear_d(y.a, y.b, y.b),
            det_j(y.b),
        )
        assert delta(y) == 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2


def _four_dets(x) -> tuple:
    """(A, B, d, f): F_x from four determinants, det(A +- B) = f0 +- f1 + f2 +- f3."""
    a, b = x.a, x.b
    d = lcm(a.den, b.den)
    A = [v * (d // a.den) for v in a.nums]
    B = [v * (d // b.den) for v in b.nums]
    f0, f3 = _det_num(A), _det_num(B)
    p = _det_num([u + v for u, v in zip(A, B)])
    m = _det_num([u - v for u, v in zip(A, B)])
    return A, B, d, (f0, (p - m) // 2 - f3, (p + m) // 2 - f0, f3)


def test_cubic_nums_match_four_dets(sparse_point, point_63, tall_point):
    # the integers of F_x from two sharps and four pairings against the
    # four-determinant route, at w, a sparse point, a dense point of small
    # height, a 63-bit point and a 200-bit one
    rng = random.Random(3)
    for x in (w_point(), sparse_point(rng), rand_semistable(rng), point_63(rng), tall_point):
        A, B, SA, SB, d, f = _cubic_nums(x)
        assert (list(A), list(B), d, f) == _four_dets(x)
        assert (SA, SB) == (_sharp_nums(A), _sharp_nums(B))


def test_discriminant_values():
    # x(x - y)(x + y) = x^3 - x y^2 has roots 0, 1, -1: discriminant 4
    assert BinaryCubic(1, 0, -1, 0).discriminant() == 4
    # x^3 has a triple root
    assert BinaryCubic(1, 0, 0, 0).discriminant() == 0
    # x^2 y has a double root
    assert BinaryCubic(0, 1, 0, 0).discriminant() == 0
    # x y (x - y): roots 0, inf, 1
    assert BinaryCubic(0, 1, -1, 0).discriminant() == 1
    # the integer expression itself, which delta and circ_x read; degree 4, so 2^4 at 2 f
    assert [_discriminant(*f) for f in ((1, 0, -1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, -1, 0))] == [4, 0, 0, 1]
    assert _discriminant(2, 0, -2, 0) == 64 and _discriminant(1, -6, 11, -6) == 4
    # over a denominator: (x/2)(x - y/3)(x + y) has the roots 0, 1/3, -1
    assert BinaryCubic(Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6), 0).discriminant() == Fraction(1, 81)


@settings(max_examples=25, deadline=None)
@given(points, rats)
def test_delta_degree_12(x, t):
    assert delta(VPoint(x.a.scale(t), x.b.scale(t))) == t ** 12 * delta(x)


def test_degenerate_points_are_unstable():
    assert delta(VPoint(E, AlbertElem.from_coords([0] * 27))) == 0
    a = diag_elem(1, 2, 3)
    assert not is_semistable(VPoint(a, a))
    # repeated-root cubic: (E, E) gives det(aI + bI) = (a + b)^3
    assert cubic_of(VPoint(E, E)).coeffs() == (1, 3, 3, 1)
    assert delta(VPoint(E, E)) == 0


def test_cubic_value_semantics():
    f = BinaryCubic(0, 1, -1, 0)
    g = BinaryCubic(Fraction(0), Fraction(1), Fraction(-1), Fraction(0))
    assert f == g and hash(f) == hash(g)
    # 4 ints over one denominator, in lowest terms, as cubic_of builds them
    assert (f.nums, f.den) == ((0, 1, -1, 0), 1) and f == cubic_of(w_point())
    h = BinaryCubic("3/4", 0, "-1/6", 2)
    assert (h.nums, h.den) == ((9, 0, -2, 24), 12) and h.coeffs() == (Fraction(3, 4), 0, Fraction(-1, 6), 2)
    assert f != BinaryCubic(0, 1, -1, 1)
    assert str(BinaryCubic(Fraction(1, 2), 0, 0, -2)) == "[1/2, 0, 0, -2]"


def test_vpoint_value_semantics():
    w = w_point()
    assert w == w_point() and hash(w) == hash(w_point())
    assert w.scale(2) == VPoint(w.a.scale(2), w.b.scale(2))
    assert w != VPoint(w.b, w.a)
