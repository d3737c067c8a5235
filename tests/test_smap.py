"""The degree-8 map on pairs: kernels, contraction, tensors, normalization."""

from fractions import Fraction
from math import gcd

import pytest

from albertkit import smap
from albertkit.albert import (
    AlbertElem,
    E,
    _cross_nums,
    cross,
    jbasis,
    jordan_mul,
    trace_j,
)
from albertkit.errors import NotSemistable
from albertkit.gaction import act_v, chi, gl2_elem
from albertkit.octonion import _lowest
from albertkit.pvs import VPoint, _cubic_nums, delta, w_point
from albertkit.reference import literal_k
from albertkit.smap import (
    SIGNED_TERMS,
    SignedTerm,
    StructureTensor,
    _slot_rows,
    circ_x,
    k_elem,
    phi1,
    phi2,
    s_map,
    slot_values,
    structure_tensor,
)
from albertkit.verify import predicate, rand_albert, rand_semistable, rand_vpoint
from conftest import slot_entries
from test_cli import _fixed_product_inputs

# all sign patterns for replacing each of the four (first, second) component
# pairs by its swap; the sign is the parity of the number of swaps
TERM_FIXTURE = (
    (1, (0, 1, 0, 1, 0, 1, 0, 1)),
    (-1, (0, 1, 0, 1, 0, 1, 1, 0)),
    (-1, (0, 1, 0, 1, 1, 0, 0, 1)),
    (1, (0, 1, 0, 1, 1, 0, 1, 0)),
    (-1, (0, 1, 1, 0, 0, 1, 0, 1)),
    (1, (0, 1, 1, 0, 0, 1, 1, 0)),
    (1, (0, 1, 1, 0, 1, 0, 0, 1)),
    (-1, (0, 1, 1, 0, 1, 0, 1, 0)),
    (-1, (1, 0, 0, 1, 0, 1, 0, 1)),
    (1, (1, 0, 0, 1, 0, 1, 1, 0)),
    (1, (1, 0, 0, 1, 1, 0, 0, 1)),
    (-1, (1, 0, 0, 1, 1, 0, 1, 0)),
    (1, (1, 0, 1, 0, 0, 1, 0, 1)),
    (-1, (1, 0, 1, 0, 0, 1, 1, 0)),
    (-1, (1, 0, 1, 0, 1, 0, 0, 1)),
    (1, (1, 0, 1, 0, 1, 0, 1, 0)),
)


def test_signed_terms_fixture():
    assert SIGNED_TERMS == tuple(SignedTerm(s, p) for s, p in TERM_FIXTURE)
    assert sum(s for s, _ in TERM_FIXTURE) == 0


def test_kernels_at_base_point(rng):
    w = w_point()
    for _ in range(6):
        X, Y = rand_albert(rng), rand_albert(rng)
        circ = jordan_mul(X, Y)
        tX, tY = trace_j(X), trace_j(Y)
        lhs1 = phi1(w, X, Y).scale(-18)
        assert lhs1 == circ - Y.scale(Fraction(tX, 2)) - X.scale(Fraction(tY, 2))
        lhs2 = phi2(w, X, Y).scale(3)
        assert lhs2 == X.scale(tY) + Y.scale(tX)


def test_k_elem_at_base_point():
    assert k_elem(w_point()) == E.scale(Fraction(1, 9))


def test_s_at_base_point_is_jordan_product(rng):
    w = w_point()
    for _ in range(6):
        X, Y = rand_albert(rng), rand_albert(rng)
        assert s_map(w, X, Y) == jordan_mul(X, Y)
        assert circ_x(w, X, Y) == jordan_mul(X, Y)


def test_s_symmetric_and_bilinear(rng):
    x = rand_vpoint(rng)
    X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
    assert s_map(x, X, Y) == s_map(x, Y, X)
    assert s_map(x, X + Z, Y) == s_map(x, X, Y) + s_map(x, Z, Y)
    assert s_map(x, X.scale(3), Y) == s_map(x, X, Y).scale(3)


def test_kernels_vanish_on_repeated_point(rng):
    repeated_point_vanishes = predicate("smap-contraction/repeated-point-vanishes")
    for _ in range(4):
        a, X, Y = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        assert repeated_point_vanishes(a, X, Y)
        assert s_map(VPoint(a, a), X, Y).is_zero()


def test_argument_swap_symmetry(rng):
    # swapping the two components is the det = -1 swap in GL(2), and the
    # kernels scale by det^4 = 1, so they are symmetric under the swap
    for _ in range(4):
        x = rand_vpoint(rng)
        xs = VPoint(x.b, x.a)
        X, Y = rand_albert(rng), rand_albert(rng)
        assert phi1(xs, X, Y) == phi1(x, X, Y)
        assert phi2(xs, X, Y) == phi2(x, X, Y)


def test_gl2_covariance(rng):
    # the 2x2 part alone scales the map by det^4
    for mat in (((2, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1))):
        g = gl2_elem(mat)
        d = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        x = rand_vpoint(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        assert s_map(act_v(g, x), X, Y) == s_map(x, X, Y).scale(Fraction(d) ** 4)


def test_normalized_product_scaling(rng):
    # S has degree 8 and delta degree 12 in x, so circ_x picks up t^-4
    w = w_point()
    for t in (Fraction(2), Fraction(-3), Fraction(1, 2)):
        tw = VPoint(w.a.scale(t), w.b.scale(t))
        X, Y = rand_albert(rng), rand_albert(rng)
        assert circ_x(tw, X, Y) == jordan_mul(X, Y).scale(t ** -4)


def test_circ_x_matches_s_map_over_delta(rng, point_63, tall_point):
    # the one integer division against the Fraction route it replaced: at w (d = 1), at the
    # pinned sparse point (delta < 0), at semistable 63-bit points and at a 200-bit one
    sparse = _fixed_product_inputs()["sparse"]
    tall = [x for x in (point_63(rng) for _ in range(3)) if delta(x) != 0]
    assert delta(sparse) < 0 and tall and sparse.a.den > 1
    for x in (w_point(), sparse, *tall, tall_point):
        for X, Y in ((rand_albert(rng), rand_albert(rng)), (tall[0].a, tall[0].b), (E, E)):
            assert circ_x(x, X, Y) == s_map(x, X, Y).scale(1 / delta(x))


def test_circ_x_rejects_unstable():
    with pytest.raises(NotSemistable):
        circ_x(VPoint(E, E), E, E)


def test_structure_tensor_matches_s(rng, sparse_point):
    # the integer tabulation against the Fraction contraction, on all 729
    # ordered pairs at a dense and a sparse large-height point
    basis = jbasis()
    for x in (rand_semistable(rng), sparse_point(rng)):
        t = structure_tensor(x)
        flat = [Fraction(v, t.den) for v in slot_entries(slot_values(t.kn))]
        for i in range(27):
            for j in range(27):
                ij = i * 27 + j
                assert tuple(flat[27 * ij : 27 * ij + 27]) == s_map(x, basis[i], basis[j]).coords()


def test_slot_table_pinned():
    # 729 rows of 27 slots, one immutable bytes object for each of the 378
    # unordered pairs, (i, j) and (j, i) sharing it; slot 0 is the value 0,
    # slot 1 + 27 q + l the single term c kn[l] with c = (-2, -1, 1, 2)[q]
    rows = _slot_rows()
    assert type(rows) is tuple and len(rows) == 729
    assert all(type(r) is bytes and len(r) == 27 for r in rows)
    assert all(rows[i * 27 + j] is rows[j * 27 + i] for i in range(27) for j in range(27))
    assert len({id(r) for r in rows}) == 378
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    with pytest.raises(TypeError):
        rows[0][0] = 1
    ordered = slot_entries(range(109))
    assert ordered == [s for r in rows for s in r]
    assert len(ordered) == 19683
    assert ordered.count(0) == 16632
    assert {(s - 1) % 27 for s in ordered if s} == set(range(27))
    # every k_l occurs with c = -1 or 1, so the tensor fixes (9/2) k and its (kn, den) is canonical
    assert {(s - 1) % 27 for s in ordered if s and (s - 1) // 27 in (1, 2)} == set(range(27))


def test_slot_rows_reject_an_entry_of_other_form(monkeypatch):
    # an entry that is not 0 or one term c k_l raises rather than being laid out:
    # one cross coordinate tripled puts a c outside (-2, -1, 1, 2), and a Gram
    # shuffle that sends b_0 to b_1 leaves an entry two terms
    cross_nums = smap._cross_nums

    def tripled(x, y):
        out = cross_nums(x, y)
        out[0] = out[0] + out[0] + out[0]
        return out

    gram = ((0, 1, 1),) + smap._GRAM[1:]
    try:
        for name, value in (("_cross_nums", tripled), ("_GRAM", gram)):
            _slot_rows.cache_clear()
            monkeypatch.setattr(smap, name, value)
            with pytest.raises(ValueError, match="is not one term c k_l"):
                _slot_rows()
            monkeypatch.undo()
    finally:
        monkeypatch.undo()
        _slot_rows.cache_clear()


def test_structure_tensor_is_isotope(rng, sparse_point):
    # all 378 unordered basis pairs against the isotope product at a(x), by a
    # route that shares neither the slot rows nor the Hessian form of k_elem
    tensor_is_isotope = predicate("smap-contraction/tensor-is-isotope")
    for x in (w_point(), rand_semistable(rng), rand_semistable(rng), sparse_point(rng)):
        assert tensor_is_isotope(x)


def test_structure_tensor_at_base_point_is_jordan(jordan_tensor):
    t = structure_tensor(w_point())
    flat = [Fraction(v, t.den) for v in slot_entries(slot_values(t.kn))]
    for i in range(27):
        for j in range(i, 27):
            ij = i * 27 + j
            assert tuple(flat[27 * ij : 27 * ij + 27]) == jordan_tensor[i][j]


def test_structure_tensor_deterministic(rng):
    x = rand_semistable(rng)
    y = VPoint(AlbertElem.from_coords(x.a.coords()), AlbertElem.from_coords(x.b.coords()))
    assert x == y and x is not y
    assert structure_tensor(x) == structure_tensor(y)


def test_structure_tensor_integer_form(rng):
    x = rand_semistable(rng)
    t = structure_tensor(x)
    # stored as k: the 27 numerators of (9/2) k over one reduced positive denominator
    assert len(t.kn) == 27 and all(type(v) is int for v in t.kn) and t.den > 0
    assert gcd(t.den, *t.kn) == 1
    assert [Fraction(v, t.den) for v in t.kn] == list(k_elem(x).scale(Fraction(9, 2)).coords())
    # a function of the point alone: the constructor takes nothing else
    again = StructureTensor(x)
    assert again == t and (again.kn, again.den) == (t.kn, t.den)
    assert hash(again) == hash(t) and len({t, again, structure_tensor(w_point())}) == 2
    with pytest.raises(TypeError):
        StructureTensor(w_point(), [1] * 27, 1)
    # k = 0: the zero tensor, over 1
    zero = structure_tensor(VPoint(E.scale(0), E))
    assert zero.den == 1 and not any(zero.kn) and not any(slot_entries(slot_values(zero.kn)))


def test_s_equivariance_spot(rng):
    from albertkit.verify import rand_group

    g = rand_group(rng)
    x = rand_vpoint(rng)
    X, Y = rand_albert(rng), rand_albert(rng)
    lhs = s_map(act_v(g, x), g.apply_j(X), g.apply_j(Y))
    a, b, c, d = g.g2.coords()
    d2 = a * d - b * c
    rhs = g.apply_j(s_map(x, X, Y)).scale(g.c ** 3 * d2 ** 4)
    assert lhs == rhs
    assert chi(g) == g.c ** 4 * d2 ** 6


def test_k_elem_is_literal_signed_sum(rng, sparse_point, point_63):
    # the integer Hessian form against the 16-term sum it replaced, and the
    # integer s_map against -18 phi1 + (3/2) phi2
    literal_vs_contracted = predicate("smap-contraction/literal-vs-contracted")
    a, b = rand_albert(rng), rand_albert(rng)
    # coprime denominators 3 and 2^40 + 1, so the common one is their product
    a3 = AlbertElem.from_coords([Fraction(rng.randrange(-50, 50), 3) for _ in range(27)])
    b40 = AlbertElem.from_coords([Fraction(rng.randrange(-(2**20), 2**20), 2**40 + 1) for _ in range(27)])
    assert (a3.den, b40.den) == (3, 2**40 + 1)
    negative = AlbertElem.from_coords([Fraction(-rng.randrange(1, 2**10), 7) for _ in range(27)])
    zero = E.scale(0)
    points = (
        w_point(),
        rand_semistable(rng),
        rand_vpoint(rng),
        sparse_point(rng),
        point_63(rng),
        VPoint(a3, b40),
        VPoint(b40, a3),
        VPoint(zero, b),
        VPoint(a, zero),
        VPoint(a, a),
        VPoint(negative, b),
        VPoint(negative, a3.scale(-1)),
    )
    assert min(negative.nums) < 0 and max(negative.nums) < 0
    for x in points:
        k = k_elem(x)
        assert k == literal_k(x)
        X, Y = rand_albert(rng), rand_albert(rng)
        assert phi1(x, X, Y) == cross(k, cross(X, Y))
        assert literal_vs_contracted(x, X, Y)


def test_k_nums_match_three_crosses(rng, sparse_point, point_63, tall_point):
    # k's integers from the sharps a#, b# and (a+b)# against caa a x a + cab a x b
    # + cbb b x b on three cross products: the same unreduced integers, so every
    # reduced k, and every tensor's bytes, stay as they were
    for x in (w_point(), sparse_point(rng), rand_semistable(rng), point_63(rng), tall_point):
        A, B, SA, SB, d, f = _cubic_nums(x)
        r0, r1, r2, r3 = 3 * f[0], f[1], f[2], 3 * f[3]
        caa, cab, cbb = r1 * r3 - r2 * r2, r1 * r2 - r0 * r3, r0 * r2 - r1 * r1
        crosses = zip(_cross_nums(A, A), _cross_nums(A, B), _cross_nums(B, B))
        assert smap._k_nums(A, B, SA, SB, f) == [caa * u + cab * v + cbb * w for u, v, w in crosses]


def test_tensor_nums_reduce_first_matches_reduce_at_end(rng, sparse_point, point_63, tall_point):
    # reducing the three Hessian coefficients over 2 d^8 before k gives the (kn, den)
    # of reducing k's 27 numerators at the end; also where k = 0, at (a, 2a)
    big = AlbertElem.from_coords([rng.randrange(-(2**63), 2**63) for _ in range(27)])
    points = [w_point(), sparse_point(rng), sparse_point(rng), point_63(rng), tall_point]
    points += [VPoint(big, rand_albert(rng)), VPoint(big, big.scale(2)), rand_semistable(rng)]
    for x in points:
        A, B, SA, SB, d, f = _cubic_nums(x)
        want = _lowest(smap._k_nums(A, B, SA, SB, f), 2 * d**8)
        assert smap._tensor_nums(x) == (*want, d, f)
    assert smap._tensor_nums(points[-2])[:2] == ((0,) * 27, 1)


def test_circ_x_is_isotope_at_a_of_x(rng, sparse_point):
    # the x -> a link: circ_x is the isotope product of J at a(x) = 81 k#/delta(x)
    x_to_a_link = predicate("isomorphism/x-to-a-link")
    for x in (w_point(), rand_semistable(rng), rand_semistable(rng), sparse_point(rng)):
        for _ in range(2):
            X, Y = rand_albert(rng), rand_albert(rng)
            assert x_to_a_link(x, X, Y)
