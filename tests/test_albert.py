"""The 27-dimensional algebra: products, forms, cross product, Gram tools."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertkit.albert import (
    ALBERT_ZERO,
    AlbertElem,
    E,
    basis_crosses,
    cross,
    cross_tables,
    det_j,
    det_table,
    diag_elem,
    gram_apply,
    jbasis,
    jordan_mul,
    pair,
    pair_gram,
    pair_vec,
    slot_elem,
    trace_j,
    trilinear_d,
)
from albertkit.gaction import perm_elem
from albertkit.octonion import OCT_UNIT, Oct, oct_conj, oct_mul, oct_norm, oct_trace
from albertkit.pvs import cubic_of, w_point
from albertkit.reference import (
    cross_via_matrix,
    d_expanded,
    from_matrix,
    jordan_via_matrix,
    mat3_mul,
    to_matrix,
)

# the 9 halves in [-2, 2], 0 first so that shrinking still goes towards 0
rats = st.sampled_from([Fraction(0)] + [Fraction(s * n, 2) for n in range(1, 5) for s in (1, -1)])
octs = st.builds(lambda cs: Oct.from_coords(cs), st.tuples(*[rats] * 8))
elems = st.builds(
    lambda d, o: AlbertElem(d, o), st.tuples(rats, rats, rats), st.tuples(octs, octs, octs)
)

# 63-bit numerators over small denominators, for the integer kernels
big_rats = st.builds(Fraction, st.integers(-(2**63), 2**63), st.integers(1, 2**10))
big_elems = st.builds(AlbertElem.from_coords, st.lists(big_rats, min_size=27, max_size=27))

HALF = Fraction(1, 2)


def closed_form_product(X, Y):
    """Independent transcription of the Jordan product, entry by entry."""
    s1, s2, s3 = X.s
    t1, t2, t3 = Y.s
    x1, x2, x3 = X.x
    y1, y2, y3 = Y.x
    c = oct_conj
    m = oct_mul
    ns1 = HALF * (2 * s1 * t1 + oct_trace(m(x3, c(y3))) + oct_trace(m(x2, c(y2))))
    ns2 = HALF * (2 * s2 * t2 + oct_trace(m(x3, c(y3))) + oct_trace(m(x1, c(y1))))
    ns3 = HALF * (2 * s3 * t3 + oct_trace(m(x2, c(y2))) + oct_trace(m(x1, c(y1))))
    nx3 = (
        y3.scale(s1) + x3.scale(t2) + m(c(x2), c(y1))
        + x3.scale(t1) + y3.scale(s2) + m(c(y2), c(x1))
    ).scale(HALF)
    nx1 = (
        m(c(x3), c(y2)) + y1.scale(s2) + x1.scale(t3)
        + m(c(y3), c(x2)) + x1.scale(t2) + y1.scale(s3)
    ).scale(HALF)
    nx2 = (
        y2.scale(s1) + m(c(y1), c(x3)) + x2.scale(t3)
        + x2.scale(t1) + m(c(x1), c(y3)) + y2.scale(s3)
    ).scale(HALF)
    return AlbertElem((ns1, ns2, ns3), (nx1, nx2, nx3))


@settings(max_examples=30, deadline=None)
@given(elems, elems)
def test_jordan_matches_entrywise_transcription(X, Y):
    assert jordan_mul(X, Y) == closed_form_product(X, Y)


@settings(max_examples=20, deadline=None)
@given(elems, elems)
def test_jordan_matches_matrix_symmetrization(X, Y):
    M, N = to_matrix(X), to_matrix(Y)
    P, Q = mat3_mul(M, N), mat3_mul(N, M)
    sym = tuple(
        tuple((P[i][j] + Q[i][j]).scale(HALF) for j in range(3)) for i in range(3)
    )
    assert from_matrix(sym) == jordan_mul(X, Y)


@settings(max_examples=30, deadline=None)
@given(elems, st.tuples(rats, rats, rats))
def test_diagonal_factor_rule(X, ts):
    # multiplying by diag(t1, t2, t3) scales slot i by (t_j + t_k)/2
    t1, t2, t3 = ts
    Y = diag_elem(t1, t2, t3)
    prod = jordan_mul(X, Y)
    assert prod.s == (X.s[0] * t1, X.s[1] * t2, X.s[2] * t3)
    assert prod.x[0] == X.x[0].scale((t2 + t3) / 2)
    assert prod.x[1] == X.x[1].scale((t3 + t1) / 2)
    assert prod.x[2] == X.x[2].scale((t1 + t2) / 2)


@settings(max_examples=30, deadline=None)
@given(elems, elems)
def test_commutative_and_unit(X, Y):
    assert jordan_mul(X, Y) == jordan_mul(Y, X)
    assert jordan_mul(E, X) == X


@settings(max_examples=15, deadline=None)
@given(elems, elems)
def test_jordan_identity(X, Y):
    x2 = jordan_mul(X, X)
    assert jordan_mul(x2, jordan_mul(X, Y)) == jordan_mul(X, jordan_mul(x2, Y))


@settings(max_examples=30, deadline=None)
@given(elems, elems)
def test_pair_is_trace_of_product(X, Y):
    assert pair(X, Y) == trace_j(jordan_mul(X, Y))
    assert pair(X, Y) == pair(Y, X)


@settings(max_examples=20, deadline=None)
@given(elems, elems, elems)
def test_pair_associative(X, Y, Z):
    assert pair(jordan_mul(X, Y), Z) == pair(X, jordan_mul(Y, Z))


def test_det_known_values():
    assert det_j(E) == 1
    assert det_j(diag_elem(2, 3, 5)) == 30
    assert det_j(diag_elem(1, 1, 0)) == 0
    # [[0, c, 0], [conj(c), 0, 0], [0, 0, 1]] has det -norm(c)
    c = Oct.from_coords([1, 2, 0, -1, 3, 0, 1, 2])
    X = diag_elem(0, 0, 1) + slot_elem(3, c)
    assert det_j(X) == -oct_norm(c)


@settings(max_examples=25, deadline=None)
@given(elems, elems, elems)
def test_polarization_matches_expansion(X, Y, Z):
    assert trilinear_d(X, Y, Z) == d_expanded(X, Y, Z)


@settings(max_examples=25, deadline=None)
@given(elems, elems, elems)
def test_d_symmetric_and_diagonal(X, Y, Z):
    d = trilinear_d(X, Y, Z)
    assert d == trilinear_d(Z, X, Y) == trilinear_d(Y, X, Z)
    assert trilinear_d(X, X, X) == det_j(X)


@settings(max_examples=25, deadline=None)
@given(elems, elems, elems)
def test_cross_duality(X, Y, Z):
    assert pair(cross(X, Y), Z) == 3 * trilinear_d(X, Y, Z)


@settings(max_examples=25, deadline=None)
@given(elems)
def test_adjoint_identity(X):
    assert jordan_mul(X, cross(X, X)) == E.scale(det_j(X))


@settings(max_examples=25, deadline=None)
@given(elems)
def test_cross_with_unit(X):
    assert cross(E, X) == (E.scale(trace_j(X)) - X).scale(HALF)


@settings(max_examples=25, deadline=None)
@given(elems, elems)
def test_trace_of_cross(X, Y):
    assert trace_j(cross(X, Y)) == (trace_j(X) * trace_j(Y) - pair(X, Y)) / 2


def test_unit_cross():
    assert cross(E, E) == E


def test_basis_order(basis):
    assert len(basis) == 27
    assert basis[0] == diag_elem(1, 0, 0)
    assert basis[2] == diag_elem(0, 0, 1)
    # coordinates of basis element k form the k-th standard vector
    for k, b in enumerate(basis):
        coords = b.coords()
        assert coords[k] == 1
        assert sum(1 for v in coords if v != 0) == 1


def test_pair_gram_is_involution(basis):
    g = pair_gram()
    n = len(g)
    sq = [
        [sum(g[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            assert sq[i][j] == (1 if i == j else 0)


@settings(max_examples=20, deadline=None)
@given(elems)
def test_gram_apply_and_pair_vec(X):
    basis = jbasis()
    g = pair_gram()
    coords = X.coords()
    by_matrix = tuple(sum(g[i][j] * coords[j] for j in range(27)) for i in range(27))
    assert gram_apply(coords) == by_matrix
    pv = pair_vec(X)
    for k in range(27):
        assert pv[k] == pair(X, basis[k])


def test_basis_crosses_table(basis, rng):
    table = basis_crosses()
    for _ in range(40):
        i, j = rng.randrange(27), rng.randrange(27)
        assert table[i][j] == cross(basis[i], basis[j])
        assert table[i][j] == table[j][i]


def test_cross_tables_rebuild_basis_crosses():
    table = basis_crosses()
    den, consts, pair_coords = cross_tables()
    from_consts = [[[0] * 27 for _ in range(27)] for _ in range(27)]
    for l, m, n, c in consts:
        from_consts[l][m][n] = c
    for i in range(27):
        for j in range(27):
            coords = table[i][j].coords()
            assert tuple(Fraction(c, den) for c in from_consts[i][j]) == coords
            assert pair_coords[i][j] == tuple((n, c) for n, c in enumerate(from_consts[i][j]) if c)


def test_matrix_round_trip():
    X = AlbertElem(
        (1, Fraction(-1, 2), 3),
        (
            Oct.from_coords([1, 0, 2, 0, -1, 0, 0, 1]),
            Oct.from_coords([0, 1, 1, 1, 0, 2, 0, 0]),
            Oct.from_coords([2, 0, 0, 0, 0, 0, 3, 1]),
        ),
    )
    assert from_matrix(to_matrix(X)) == X


def test_from_matrix_rejects_bad_input():
    M = list(list(row) for row in to_matrix(E))
    M[0][1] = Oct.from_coords([1, 0, 0, 0, 0, 0, 0, 0])  # breaks Hermitian symmetry
    with pytest.raises(ValueError):
        from_matrix(M)


def test_coords_round_trip():
    cs = tuple(Fraction(k, 3) for k in range(27))
    X = AlbertElem.from_coords(cs)
    assert X.coords() == cs
    with pytest.raises(ValueError):
        AlbertElem.from_coords(cs[:-1])


def test_value_semantics():
    a = diag_elem(1, 2, 3)
    b = diag_elem(1, 2, 3)
    assert a == b and hash(a) == hash(b)
    assert a != diag_elem(1, 2, 4)
    assert 3 * a == a.scale(3)
    assert (a - a).is_zero()


@pytest.mark.parametrize(
    "value",
    [OCT_UNIT, E, w_point(), cubic_of(w_point()), perm_elem((2, 1, 3))],
    ids=["Oct", "AlbertElem", "VPoint", "BinaryCubic", "GroupElem"],
)
def test_value_types_are_immutable(value):
    # shared instances (E, OCT_UNIT, a cached perm_elem) are hashed and held
    # by callers, so no slot may be reassigned, deleted or added
    h = hash(value)
    slots = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    assert slots
    for name in slots:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1
    assert hash(value) == h


def test_kernels_match_references_on_basis_pairs(basis, jordan_tensor):
    """cross, jordan_mul, det_j and trilinear_d against the matrix route and d_expanded."""
    crosses = basis_crosses()
    W = AlbertElem.from_coords([Fraction(k - 13, 1 + k % 3) for k in range(27)])
    for i in range(27):
        for j in range(27):
            X, Y = basis[i], basis[j]
            assert cross(X, Y) == crosses[i][j]
            assert jordan_mul(X, Y).coords() == jordan_tensor[i][j]
            S = X + Y.scale(2) + W
            assert det_j(S) == d_expanded(S, S, S)
            assert trilinear_d(X, Y, W) == d_expanded(X, Y, W)


@settings(max_examples=8, deadline=None)
@given(big_elems, big_elems, big_elems)
def test_kernels_match_references_63_bit(X, Y, Z):
    assert cross(X, Y) == cross_via_matrix(X, Y)
    assert jordan_mul(X, Y) == jordan_via_matrix(X, Y)
    assert det_j(X) == d_expanded(X, X, X)
    assert trilinear_d(X, Y, Z) == d_expanded(X, Y, Z)


def test_table_sizes():
    den, consts, _ = cross_tables()
    assert den == 2 and len(consts) == 270
    assert len(det_table()) == 45
    assert all(l <= m <= n for l, m, n, _ in det_table())


def test_table_constants_are_ints():
    # a Fraction constant leaves every output the same, but puts the
    # kernels that contract against it on Fraction arithmetic
    den, consts, pair_coords = cross_tables()
    assert type(den) is int
    assert all(type(c) is int for *_, c in consts)
    assert all(type(c) is int for row in pair_coords for cell in row for _, c in cell)
    assert all(type(c) is int for *_, c in det_table())


def _assert_canonical(X):
    assert X.den > 0 and gcd(X.den, *X.nums) == 1
    assert all(type(n) is int for n in X.nums) and len(X.nums) == 27


@settings(max_examples=40, deadline=None)
@given(st.one_of(elems, big_elems))
def test_canonical_form_across_routes(X):
    routes = (
        X,
        AlbertElem.from_coords(X.coords()),
        AlbertElem.from_coords([str(c) for c in X.coords()]),
        AlbertElem(X.s, X.x),
        X.scale(2).scale(HALF),
        X.scale(Fraction(-6, 7)).scale(Fraction(7, -6)),
        (X + X) - X,
    )
    for R in routes:
        _assert_canonical(R)
        assert R == X and hash(R) == hash(X)
        assert (R.nums, R.den) == (X.nums, X.den)
    zeros = (X - X, X + (-X), X.scale(0), ALBERT_ZERO, AlbertElem.from_coords([0] * 27))
    for Z in zeros:
        _assert_canonical(Z)
        assert Z == ALBERT_ZERO and hash(Z) == hash(ALBERT_ZERO) and Z.den == 1
