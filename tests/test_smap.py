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
from albertkit.jsonio import dumps, encode_stensor
from albertkit.pvs import VPoint, _cubic_nums, delta, w_point
from albertkit.reference import literal_k
from albertkit.smap import (
    SIGNED_TERMS,
    SignedTerm,
    StructureTensor,
    _slot_rows,
    _slot_table,
    circ_x,
    k_elem,
    lay_out,
    phi1,
    phi2,
    s_map,
    structure_tensor,
)
from albertkit.verify import predicate, rand_albert, rand_semistable, rand_vpoint
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
        rows, flat = t.rows, t.flat
        for i in range(27):
            for j in range(27):
                prod = s_map(x, basis[i], basis[j]).coords()
                ij = i * 27 + j
                assert tuple(Fraction(v, t.den) for v in rows[ij]) == prod
                assert flat[27 * ij : 27 * ij + 27] == prod


def test_slot_table_pinned():
    # 378 unordered pairs of 27 slots; slot 0 is the value 0, slot
    # 1 + 27 q + l the single term c kn[l] with c = (-2, -1, 1, 2)[q]
    table = _slot_table()
    assert len(table) == 378
    # read off the 729 rows of slots, (i, j) and (j, i) sharing one
    rows = _slot_rows()
    assert len(rows) == 729 and all(len(r) == 27 for r in rows)
    assert all(rows[i * 27 + j] is rows[j * 27 + i] for i in range(27) for j in range(27))
    assert all(take(range(109)) == tuple(rows[ij]) for ij, _, take in table)
    assert sorted(ij for ij, _, _ in table) == [i * 27 + j for i in range(27) for j in range(i, 27)]
    assert sorted(ji for _, ji, _ in table) == sorted(j * 27 + i for i in range(27) for j in range(i, 27))
    ordered = []
    for ij, ji, take in table:
        slots = take(range(109))
        assert len(slots) == 27
        ordered += slots if ij == ji else slots * 2
    assert len(ordered) == 19683
    assert ordered.count(0) == 16632
    assert {(s - 1) % 27 for s in ordered if s} == set(range(27))
    # every k_l occurs with c = -1 or 1, so the tensor fixes (9/2) k and its (kn, den) is canonical
    assert {(s - 1) % 27 for s in ordered if s and (s - 1) // 27 in (1, 2)} == set(range(27))


def test_structure_tensor_is_isotope(rng, sparse_point):
    # all 378 unordered basis pairs against the isotope product at a(x), by a
    # route that shares neither the slot table nor the Hessian form of k_elem
    tensor_is_isotope = predicate("smap-contraction/tensor-is-isotope")
    for x in (w_point(), rand_semistable(rng), rand_semistable(rng), sparse_point(rng)):
        assert tensor_is_isotope(x)


def test_structure_tensor_at_base_point_is_jordan(jordan_tensor):
    t = structure_tensor(w_point())
    rows = t.rows
    for i in range(27):
        for j in range(i, 27):
            assert tuple(Fraction(v, t.den) for v in rows[i * 27 + j]) == jordan_tensor[i][j]


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
    assert again == t and (again.kn, again.den, again.rows) == (t.kn, t.den, t.rows)
    assert hash(again) == hash(t) and len({t, again, structure_tensor(w_point())}) == 2
    with pytest.raises(TypeError):
        StructureTensor(w_point(), [1] * 27, 1)
    # rows: one immutable tuple of tuples, shared across (i, j) and (j, i)
    rows = t.rows
    assert type(rows) is tuple and len(rows) == 729 and all(type(r) is tuple for r in rows)
    assert all(rows[i * 27 + j] is rows[j * 27 + i] for i in range(27) for j in range(27))
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    # k = 0: the zero tensor, over 1
    zero = structure_tensor(VPoint(E.scale(0), E))
    assert zero.den == 1 and not any(zero.kn) and not any(v for r in zero.rows for v in r)


def test_rows_are_laid_out_only_when_read(monkeypatch, rng):
    # the structure command reads no int rows: a refactor that lays them out
    # again would keep every output byte, so count the calls
    calls = []

    def counted(values):
        calls.append(1)
        return lay_out(values)

    monkeypatch.setattr(smap, "lay_out", counted)
    t = structure_tensor(rand_semistable(rng))
    dumps(encode_stensor(t))
    assert len(calls) == 0
    rows = t.rows
    assert len(calls) == 1
    assert t.flat == tuple(Fraction(v, t.den) for r in rows for v in r) and len(calls) == 2


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


def test_circ_x_is_isotope_at_a_of_x(rng, sparse_point):
    # the x -> a link: circ_x is the isotope product of J at a(x) = 81 k#/delta(x)
    x_to_a_link = predicate("isomorphism/x-to-a-link")
    for x in (w_point(), rand_semistable(rng), rand_semistable(rng), sparse_point(rng)):
        for _ in range(2):
            X, Y = rand_albert(rng), rand_albert(rng)
            assert x_to_a_link(x, X, Y)
