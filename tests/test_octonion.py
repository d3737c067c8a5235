"""Split octonion arithmetic: composition algebra laws, exact."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertkit.albert import AlbertElem, E, diag_elem
from albertkit.gaction import diag_conj, scalar_elem
from albertkit.octonion import (
    OCT_UNIT,
    OCT_ZERO,
    Oct,
    ZORN_BASIS,
    oct_conj,
    oct_mul,
    oct_norm,
    oct_q,
    oct_trace,
    trace_prod,
    trace_prod3,
)
from albertkit.pvs import BinaryCubic

# +-n/d for n = 1..6 over the denominators 2, 3, 7 and 2**40 + 1, 0 first so
# that shrinking still goes towards 0: the coordinates of one octonion, and
# the operands of a sum or product, mix denominators that canonical form must reduce
DENS = (2, 3, 7, 2**40 + 1)
rats = st.sampled_from(
    [Fraction(0)] + [Fraction(s * n, d) for d in DENS for n in range(1, 7) for s in (1, -1)]
)
octs = st.builds(lambda cs: Oct.from_coords(cs), st.tuples(*[rats] * 8))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _literal_mul(x, y):
    """The Zorn product of the module docstring, on Fraction coordinates, as 8 coordinates."""
    a1, v1, w1, b1 = x.alpha, x.v, x.w, x.beta
    a2, v2, w2, b2 = y.alpha, y.v, y.w, y.beta
    v = [a1 * p + b2 * q - r for p, q, r in zip(v2, v1, _cross3(w1, w2))]
    w = [a2 * p + b1 * q + r for p, q, r in zip(w1, w2, _cross3(v1, v2))]
    return (a1 * a2 + _dot(v1, w2), *v, *w, b1 * b2 + _dot(w1, v2))


def _literal_norm(c):
    """alpha*beta - v.w on 8 Fraction coordinates."""
    return c[0] * c[7] - _dot(c[1:4], c[4:7])


def _assert_canonical(x):
    assert len(x.nums) == 8 and all(type(n) is int for n in x.nums)
    assert type(x.den) is int and x.den > 0 and gcd(x.den, *x.nums) == 1


@settings(max_examples=60, deadline=None)
@given(octs, octs)
def test_integer_forms_match_literal_fraction_formulas(x, y):
    """oct_mul, oct_q, oct_norm and trace_prod against the docstring formulas over Fractions."""
    cx, cy = x.coords(), y.coords()
    assert cx == (x.alpha, *x.v, *x.w, x.beta)
    assert all(type(c) is Fraction for c in cx)
    xy = oct_mul(x, y)
    _assert_canonical(xy)
    prod = _literal_mul(x, y)
    assert xy.coords() == prod
    assert oct_norm(x) == _literal_norm(cx)
    polar = _literal_norm([p + q for p, q in zip(cx, cy)]) - _literal_norm(cx) - _literal_norm(cy)
    assert oct_q(x, y) == polar / 2
    assert trace_prod(x, y) == prod[0] + prod[7]
    for value in (oct_norm(x), oct_q(x, y), trace_prod(x, y), oct_trace(x)):
        assert type(value) is Fraction


def test_integer_product_matches_literal_on_basis():
    for x in ZORN_BASIS:
        for y in ZORN_BASIS:
            assert oct_mul(x, y).coords() == _literal_mul(x, y)


def test_equal_values_in_any_form_give_equal_octs():
    ones = [Oct.from_coords([c] * 8) for c in (1, Fraction(2, 2), Fraction(1), "1", 2 * Fraction(1, 2))]
    ones.append(Oct(1, (1, 1, 1), (Fraction(3, 3), 1, 1), Fraction(1)))
    for x in ones:
        _assert_canonical(x)
        assert x == ones[0] and hash(x) == hash(ones[0])
        assert (x.nums, x.den) == ((1,) * 8, 1)


@settings(max_examples=40, deadline=None)
@given(octs)
def test_canonical_form_across_routes(x):
    routes = (
        Oct.from_coords(x.coords()),
        Oct.from_coords([str(c) for c in x.coords()]),
        Oct(x.alpha, x.v, x.w, x.beta),
        x.scale(Fraction(-6, 7)).scale(Fraction(7, -6)),
        (x + x) - x,
        oct_conj(oct_conj(x)),
        oct_mul(OCT_UNIT, x),
    )
    _assert_canonical(x)
    for r in routes:
        _assert_canonical(r)
        assert r == x and hash(r) == hash(x)
    for z in (x - x, x.scale(0), oct_mul(OCT_ZERO, x)):
        _assert_canonical(z)
        assert z == OCT_ZERO and z.den == 1


def test_octonions_and_albert_elements_do_not_mix():
    from albertkit.albert import AlbertElem

    X = AlbertElem.from_coords([1] * 27)
    assert OCT_UNIT != X
    with pytest.raises(TypeError):
        OCT_UNIT + X
    with pytest.raises(TypeError):
        X - OCT_UNIT


def test_basis_norm_composition():
    for x in ZORN_BASIS:
        for y in ZORN_BASIS:
            assert oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)


def test_unit_element():
    for x in ZORN_BASIS:
        assert oct_mul(OCT_UNIT, x) == x
        assert oct_mul(x, OCT_UNIT) == x


def test_coords_round_trip():
    cs = tuple(Fraction(i, 2) for i in range(-3, 5))
    x = Oct.from_coords(cs)
    assert x.coords() == cs
    assert Oct.from_coords(x.coords()) == x


@settings(max_examples=40, deadline=None)
@given(octs, octs)
def test_norm_multiplicative(x, y):
    assert oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)


@settings(max_examples=40, deadline=None)
@given(octs)
def test_conjugation_identities(x):
    assert oct_mul(x, oct_conj(x)) == OCT_UNIT.scale(oct_norm(x))
    assert oct_mul(oct_conj(x), x) == OCT_UNIT.scale(oct_norm(x))
    assert x + oct_conj(x) == OCT_UNIT.scale(oct_trace(x))
    assert oct_norm(oct_conj(x)) == oct_norm(x)


@settings(max_examples=40, deadline=None)
@given(octs)
def test_quadratic_relation(x):
    # x^2 - tr(x) x + norm(x) = 0
    res = oct_mul(x, x) - x.scale(oct_trace(x)) + OCT_UNIT.scale(oct_norm(x))
    assert res.is_zero()


@settings(max_examples=40, deadline=None)
@given(octs, octs)
def test_conj_antiautomorphism(x, y):
    assert oct_conj(oct_mul(x, y)) == oct_mul(oct_conj(y), oct_conj(x))


@settings(max_examples=30, deadline=None)
@given(octs, octs)
def test_alternative_laws(x, y):
    xx = oct_mul(x, x)
    assert oct_mul(x, oct_mul(x, y)) == oct_mul(xx, y)
    assert oct_mul(oct_mul(y, x), x) == oct_mul(y, xx)


@settings(max_examples=40, deadline=None)
@given(octs, octs)
def test_q_form(x, y):
    assert 2 * oct_q(x, y) == oct_trace(oct_mul(x, oct_conj(y)))
    assert oct_q(x, y) == oct_q(y, x)
    assert oct_q(x, x) == oct_norm(x)


@settings(max_examples=30, deadline=None)
@given(octs, octs)
def test_trace_prod_shortcut(x, y):
    assert trace_prod(x, y) == oct_trace(oct_mul(x, y))


@settings(max_examples=30, deadline=None)
@given(octs, octs, octs)
def test_trace_prod3_association(x, y, z):
    # tr((xy)z) = tr(x(yz)): the trace form is associative
    assert trace_prod3(x, y, z) == oct_trace(oct_mul(x, oct_mul(y, z)))
    assert trace_prod3(x, y, z) == oct_trace(oct_mul(oct_mul(x, y), z))


@settings(max_examples=30, deadline=None)
@given(octs, octs, octs)
def test_trace_cyclic(x, y, z):
    assert trace_prod3(x, y, z) == trace_prod3(y, z, x)
    assert trace_prod3(x, y, z) == trace_prod3(z, x, y)


def test_q_gram_nondegenerate():
    # the Q-form Gram over the 8 basis octonions has nonzero determinant
    from albertkit.linalg import inv_exact

    gram = [[oct_q(a, b) for b in ZORN_BASIS] for a in ZORN_BASIS]
    inv_exact(gram)  # raises SingularMatrix if degenerate


def test_zero_and_scaling():
    x = Oct.from_coords([1, 2, 3, 4, 5, 6, 7, 8])
    assert (x - x).is_zero()
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert OCT_ZERO.is_zero()
    assert 2 * x == x + x


def test_floats_are_refused():
    # a float's binary value is seldom the rational meant: 0.1 would be 3602879701896397/2**55
    w = BinaryCubic(0, 1, -1, 0)
    for build in (
        lambda: Oct(0.5),
        lambda: Oct.from_coords([0.5] + [0] * 7),
        lambda: OCT_UNIT.scale(0.25),
        lambda: diag_elem(0.1, 0, 0),
        lambda: AlbertElem.from_coords([0.5] + [0] * 26),
        lambda: E.scale(0.25),
        lambda: 0.25 * E,
        lambda: scalar_elem(0.5),
        lambda: diag_conj(1, 0.5, 1),
        lambda: BinaryCubic(0.5, 1, 1, 1),
        lambda: w.evaluate(0.5, 1),
    ):
        with pytest.raises(TypeError):
            build()
    # ints, Fractions and exact strings still go in
    assert diag_elem(Fraction(1, 10), 0, 0) == diag_elem("1/10", 0, 0) == diag_elem(1, 0, 0).scale("0.1")
    assert BinaryCubic(0, "1", Fraction(-1), 0) == w and w.evaluate(2, "1") == 2
