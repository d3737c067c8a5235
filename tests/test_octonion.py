"""Split octonion arithmetic: composition algebra laws, exact."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

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

# the 13 halves in [-3, 3], 0 first so that shrinking still goes towards 0
rats = st.sampled_from([Fraction(0)] + [Fraction(s * n, 2) for n in range(1, 7) for s in (1, -1)])
octs = st.builds(lambda cs: Oct.from_coords(cs), st.tuples(*[rats] * 8))


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
