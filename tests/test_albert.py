"""The 27-dimensional algebra: products, forms, cross product, Gram tools."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albertkit.albert import (
    _GRAM,
    ALBERT_ZERO,
    AlbertElem,
    E,
    _cross_nums,
    _det_num,
    _pair_nums,
    _sharp_nums,
    _variables,
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
from albertkit.gaction import GroupElem, act_v, gl2_elem, identity_elem, perm_elem
from albertkit.jsonio import dumps, encode_stensor
from albertkit.octonion import OCT_UNIT, Oct, _Frozen, oct_conj, oct_mul, oct_norm, oct_trace
from albertkit.pvs import BinaryCubic, cubic_of, w_point
from albertkit.reference import (
    cross_via_matrix,
    d_expanded,
    from_matrix,
    jordan_via_matrix,
    mat3_mul,
    to_matrix,
)
from albertkit.smap import StructureTensor, structure_tensor
from albertkit.verify import predicate

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

jordan_identity = predicate("albert/jordan-identity")
trace_associative = predicate("albert/trace-associative")
pair_cross_duality = predicate("cross-duality/pair-cross-duality")
trace_of_cross = predicate("cross-duality/trace-of-cross")


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
    assert jordan_identity(X, Y)


@settings(max_examples=30, deadline=None)
@given(elems, elems)
def test_pair_is_trace_of_product(X, Y):
    assert pair(X, Y) == trace_j(jordan_mul(X, Y))
    assert pair(X, Y) == pair(Y, X)


@settings(max_examples=20, deadline=None)
@given(elems, elems, elems)
def test_pair_associative(X, Y, Z):
    assert trace_associative(X, Y, Z)


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
    assert pair_cross_duality(X, Y, Z)


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
    assert trace_of_cross(X, Y)


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


def _leaves(cls) -> set:
    subs = cls.__subclasses__()
    return set().union(*map(_leaves, subs)) if subs else {cls}


@lru_cache(maxsize=1)
def _values() -> dict:
    """(value, the same value by another route, its slots in order: the key it hashes by), by type name.

    Built on first use, not at import, so that a broken kernel fails the
    tests that read these values, not the collection of this file.
    """
    t = structure_tensor(w_point())
    g = perm_elem((2, 1, 3))  # the shared cached element
    m = gl2_elem([[1, -2], [Fraction(3, 2), 7]]).g2
    triples = (
        (OCT_UNIT, Oct.from_coords([1, 0, 0, 0, 0, 0, 0, 1]), (OCT_UNIT.nums, OCT_UNIT.den)),
        (E, AlbertElem.from_coords([2, 2, 2] + [0] * 24).scale(HALF), (E.nums, E.den)),
        (w_point(), act_v(identity_elem(), w_point()), (w_point().a, w_point().b)),
        (cubic_of(w_point()), BinaryCubic(0, "2/2", -1, Fraction(0)), ((0, 1, -1, 0), 1)),
        (m, gl2_elem([["2/2", -2], [Fraction(6, 4), 7]]).g2, ((2, -4, 3, 14), 2)),
        (g, GroupElem(g.perm, g.scales, 1), (g.perm, g.nums, g.den, gl2_elem([[1, 0], [0, 1]]).g2)),
        (t, StructureTensor(act_v(identity_elem(), w_point())), (t.point, t.kn, t.den)),
        (
            encode_stensor(t),
            encode_stensor(structure_tensor(act_v(identity_elem(), w_point()))),
            dumps(encode_stensor(t)),
        ),
    )
    return {type(v).__name__: (v, o, k) for v, o, k in triples}


def _holds_fraction(v) -> bool:
    return isinstance(v, Fraction) or (isinstance(v, tuple) and any(map(_holds_fraction, v)))


VALUE_TYPES = ("Oct", "AlbertElem", "VPoint", "BinaryCubic", "GL2", "GroupElem", "StructureTensor", "_Rendered")


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable(name):
    """The one rule of octonion._Frozen, on every value type.

    Equal values built by two routes are == and hash equal, by all
    their slots; a value of another type is not compared; no slot
    can be set or deleted; and no slot holds a Fraction, nested in
    tuples or not: exact values are ints over a denominator.
    Shared instances (E, OCT_UNIT, a cached perm_elem) are hashed and
    held by callers, so an assignment would corrupt every holder.
    """
    values = _values()
    value, other, key = values[name]
    assert tuple(values) == VALUE_TYPES
    assert {type(v) for v, _, _ in values.values()} == _leaves(_Frozen)
    assert value == other and value is not other and not value != other
    assert hash(value) == hash(other) == hash(key)
    strangers = [key] + [v for v, _, _ in values.values() if type(v) is not type(value)]
    assert all(value.__eq__(v) is NotImplemented and value != v for v in strangers)
    h = hash(value)
    slots = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    assert slots
    assert not any(_holds_fraction(getattr(value, name)) for name in slots)
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
            assert trilinear_d(X, Y, W) == d_expanded(X, Y, W) == _table_d(X, Y, W)


@settings(max_examples=8, deadline=None)
@given(big_elems, big_elems, big_elems)
def test_kernels_match_references_63_bit(X, Y, Z):
    assert cross(X, Y) == cross_via_matrix(X, Y)
    assert jordan_mul(X, Y) == jordan_via_matrix(X, Y)
    assert det_j(X) == d_expanded(X, X, X)
    assert trilinear_d(X, Y, Z) == d_expanded(X, Y, Z) == _table_d(X, Y, Z)


# -- the written-out kernels against the matrix route and the tables read off them --


def _table_cross(x, y):
    out = [0] * 27
    for l, m, n, c in cross_tables()[1]:
        out[n] += c * x[l] * y[m]
    return out


def _table_det(x):
    return sum(c * x[l] * x[m] * x[n] for l, m, n, c in det_table())


def _table_d(X, Y, Z):
    """D as the polarization of det_table().

    Each monomial c X_l X_m X_n gives c/6 times the sum of X_l Y_m Z_n
    over the 6 orders of (l, m, n).
    """
    x, y, z = X.nums, Y.nums, Z.nums
    acc = 0
    for l, m, n, c in det_table():
        yl, ym, yn = y[l], y[m], y[n]
        zl, zm, zn = z[l], z[m], z[n]
        acc += c * (x[l] * (ym * zn + yn * zm) + x[m] * (yl * zn + yn * zl) + x[n] * (yl * zm + ym * zl))
    return Fraction(acc, 6 * X.den * Y.den * Z.den)


def _gram_pair(x, y):
    return sum(a * b for a, b in zip(x, gram_apply(y)))


def _signed(terms):
    """Signed products as the kernels spell them: 'x1*y2 + x2*y1 - x3*y10 ...'."""
    text = " ".join(("+ " if c > 0 else "- ") + p for p, c in terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


@lru_cache(maxsize=1)
def _det_monomials() -> dict:
    """The monomials of det on the matrix route: {(l, m, n): c} for l <= m <= n, c != 0.

    det(X) = D(X, X, X), so the coefficient of x_l x_m x_n is
    reference.d_expanded(b_l, b_m, b_n) times the number of orders of
    (l, m, n): 1, 3 or 6 for 1, 2 or 3 distinct indices.
    """
    basis = jbasis()
    out = {}
    for l in range(27):
        for m in range(l, 27):
            for n in range(m, 27):
                c = d_expanded(basis[l], basis[m], basis[n]) * (1, 3, 6)[len({l, m, n}) - 1]
                if c:
                    out[l, m, n] = c
    return out


def _cross_line(n):
    """The line of _cross_nums that holds output coordinate n, on the matrix route's basis_crosses()."""
    crosses = basis_crosses()
    terms = (("x%d*y%d" % (l, m), crosses[l][m].nums[n]) for l in range(27) for m in range(27))
    return _signed((p, c) for p, c in terms if c) + ","


def _det_line(l):
    """The line of _det_num that holds the monomials with first index l, on the matrix route."""
    terms = sorted((m, n, c) for (k, m, n), c in _det_monomials().items() if k == l)
    return "x%d * (%s)" % (l, _signed(("x%d*x%d" % (m, n), c) for m, n, c in terms))


def _unit(*ks):
    return [sum(i == k for k in ks) for i in range(27)]


def test_cross_kernel_matches_table_on_basis():
    # cross is bilinear, so agreeing with the matrix route's basis table on
    # all 729 basis pairs makes the two maps equal
    crosses = basis_crosses()
    for l in range(27):
        for m in range(27):
            got, want = _cross_nums(_unit(l), _unit(m)), [2 * c for c in crosses[l][m].coords()]
            for n in range(27):
                assert got[n] == want[n], (
                    "_cross_nums coordinate %d at (b_%d, b_%d) is %d, basis_crosses() gives %s; "
                    "that coordinate's line should read\n        %s" % (n, l, m, got[n], want[n], _cross_line(n))
                )


def test_pair_kernel_matches_gram_on_basis():
    for l in range(27):
        for m in range(27):
            got, want = _pair_nums(_unit(l), _unit(m)), _gram_pair(_unit(l), _unit(m))
            _, j, sign = _GRAM[l]
            assert got == want, (
                "_pair_nums at (b_%d, b_%d) is %d, _GRAM gives %d; "
                "it should hold the term %s" % (l, m, got, want, _signed([("x%d*y%d" % (l, j), sign)]))
            )


def test_det_kernel_matches_table_monomials():
    # 6 D(b_l, b_m, b_n) by polarization is k c_lmn, k = 6, 2, 1 for 1, 2, 3 distinct
    # indices: so each monomial coefficient of the cubic _det_num is read off exactly,
    # and compared with the matrix route's
    monomials = _det_monomials()
    for l in range(27):
        for m in range(l, 27):
            for n in range(m, 27):
                six_d = (
                    _det_num(_unit(l, m, n)) - _det_num(_unit(l, m)) - _det_num(_unit(m, n)) - _det_num(_unit(n, l))
                    + _det_num(_unit(l)) + _det_num(_unit(m)) + _det_num(_unit(n))
                )
                got, want = six_d // (6, 2, 1)[len({l, m, n}) - 1], monomials.get((l, m, n), 0)
                assert got == want, (
                    "_det_num has %d x%d*x%d*x%d, the matrix route has %s; "
                    "the line for x%d should read\n        %s" % (got, l, m, n, want, l, _det_line(l))
                )
    assert len(monomials) == 45
    assert det_table() == tuple(key + (c,) for key, c in sorted(monomials.items()))


@pytest.mark.parametrize("bits", [4, 20, 63, 200])
def test_kernels_match_tables_random(bits, rng):
    def vec():
        return [rng.randint(-(2**bits), 2**bits) for _ in range(27)]

    for _ in range(20):
        x, y = vec(), vec()
        assert _cross_nums(x, y) == _table_cross(x, y)
        assert _cross_nums(tuple(x), tuple(y)) == _table_cross(x, y)
        assert _det_num(x) == _table_det(x)
        assert _pair_nums(x, y) == _gram_pair(x, y)


def _sharp_line(n):
    """The line of _sharp_nums that holds coordinate n: the constants (l, m, n, c) of cross_tables() with l < m."""
    return _signed(("x%d*x%d" % (l, m), c) for l, m, k, c in cross_tables()[1] if k == n and l < m) + ","


def test_sharp_kernel_matches_cross_constants():
    # read off 27 variables as cross_tables() is, coordinate n of _sharp_nums
    # holds the constants of cross with l < m: cross has none with l = m, so
    # the other half of its 270, (m, l), are the same terms again
    consts = cross_tables()[1]
    assert all(l != m for l, m, _, _ in consts)
    for n, p in enumerate(_sharp_nums(_variables(0))):
        got = {key: c for key, c in p.items() if c}
        want = {(l, m): c for l, m, k, c in consts if k == n and l < m}
        assert got == want, "_sharp_nums coordinate %d should read\n        %s" % (n, _sharp_line(n))


def _assert_sharp_identities(x, y):
    """x# against cross, and the identities of a cubic norm structure, on integer coordinates."""
    s, t = _sharp_nums(x), _sharp_nums(y)
    assert [2 * v for v in s] == _cross_nums(x, x)
    # (x#)# = det(x) x, and 3 det(x) = pair(x#, x)
    assert _sharp_nums(s) == [_det_num(x) * v for v in x]
    assert _pair_nums(s, x) == 3 * _det_num(x)
    # twice x x y is (x+y)# - x# - y#
    xy = _sharp_nums([u + v for u, v in zip(x, y)])
    assert _cross_nums(x, y) == [p - u - v for p, u, v in zip(xy, s, t)]


def test_sharp_kernel_identities_on_basis():
    # single basis elements, and sums of two and three, where det is not 0
    sums = [_unit(l) for l in range(27)]
    sums += [_unit(l, m) for l in range(27) for m in range(l + 1, 27)]
    sums += [_unit(l, m, n) for l in range(0, 27, 4) for m in range(l + 1, 27, 3) for n in range(m + 1, 27, 2)]
    assert any(_det_num(x) for x in sums)
    for i, x in enumerate(sums):
        _assert_sharp_identities(x, sums[(7 * i + 3) % len(sums)])


@pytest.mark.parametrize("bits", [4, 20, 63, 200])
def test_sharp_kernel_identities_random(bits, rng):
    def vec():
        return [rng.randint(-(2**bits), 2**bits) for _ in range(27)]

    for _ in range(20):
        _assert_sharp_identities(vec(), vec())


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
