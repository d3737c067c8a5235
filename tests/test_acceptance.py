"""Acceptance gate: one test per shipped guarantee, all exact over the rationals.

Each test prints a single [PASS] line once its criterion holds; pytest -v
adds the per-test verdict. Everything here is equality of Fractions, never
approximate comparison.
"""

import random
from fractions import Fraction

import pytest

from albertkit.albert import (
    AlbertElem,
    E,
    basis_crosses,
    cross,
    det_j,
    diag_elem,
    gram_apply,
    jordan_mul,
    trace_j,
    trilinear_d,
)
from albertkit.errors import NotSemistable, SingularMatrix, SingularPoint
from albertkit.gaction import (
    chi,
    det2,
    diag_conj,
    gl2_elem,
    perm_elem,
    scalar_elem,
)
from albertkit.isotope import (
    circ_a_springer,
    circ_a_tform,
    gram_qa,
    pairing_a,
    q_a,
    t_form,
)
from albertkit.linalg import solve_exact
from albertkit.octonion import ZORN_BASIS
from albertkit.pvs import VPoint, cubic_of, delta, w_point
from albertkit.reference import te_expansion
from albertkit.smap import circ_x, s_map, slot_values, structure_tensor
from albertkit.verify import (
    predicate,
    rand_albert,
    rand_group,
    rand_oct,
    rand_semistable,
    rand_vpoint,
)
from conftest import slot_entries


def _rng(tag):
    return random.Random("acceptance:" + tag)


def _report(line):
    print("[PASS] " + line)


def test_c01_octonion_norm_composition():
    norm_multiplicative = predicate("octonion/norm-multiplicative-random")
    for x in ZORN_BASIS:
        for y in ZORN_BASIS:
            assert norm_multiplicative(x, y)
    r = _rng("c01")
    for _ in range(1000):
        assert norm_multiplicative(rand_oct(r), rand_oct(r))
    _report("c01 octonion norm is multiplicative (64 basis + 1000 random pairs)")


def test_c02_cubic_form_anchors():
    w = w_point()
    assert det_j(E) == 1
    f = cubic_of(w)
    assert f.coeffs() == (0, 1, -1, 0)
    # the binary cubic of the base pair is u v (u - v)
    for u, v in ((2, 1), (3, -1), (5, 7)):
        assert f.evaluate(u, v) == u * v * (u - v)
    assert delta(w) == 1
    assert trilinear_d(E, E, E) == 1
    assert trilinear_d(w.a, w.a, w.b) == Fraction(1, 3)
    _report("c02 cubic form anchors at the unit and the base pair")


def test_c03_cross_duality_exhaustive(basis):
    crosses = basis_crosses()
    checks = 0
    for i in range(27):
        for j in range(i, 27):
            pv = gram_apply(crosses[i][j].coords())
            for k in range(27):
                d3 = 3 * trilinear_d(basis[i], basis[j], basis[k])
                assert pv[k] == d3
                checks += 1
                if i != j:
                    assert gram_apply(crosses[j][i].coords())[k] == d3
                    checks += 1
    assert checks == 19683
    adjoint_identity = predicate("cross-duality/adjoint-identity")
    r = _rng("c03")
    for _ in range(500):
        assert adjoint_identity(rand_albert(r))
    assert cross(E, E) == E
    _report("c03 pairing-cross duality on 19683 triples; adjoint identity on 500")


def test_c04_first_kernel_at_base_point(basis, jordan_tensor):
    from albertkit.smap import phi1

    w = w_point()
    half = Fraction(1, 2)
    for i in range(27):
        ti = trace_j(basis[i])
        for j in range(27):
            tj = trace_j(basis[j])
            want = (
                AlbertElem.from_coords(jordan_tensor[i][j])
                - basis[i].scale(half * tj)
                - basis[j].scale(half * ti)
            )
            assert phi1(w, basis[i], basis[j]).scale(-18) == want
    _report("c04 first kernel at the base point matches its closed form (729 pairs)")


def test_c05_second_kernel_at_base_point(basis):
    from albertkit.smap import phi2

    w = w_point()
    for i in range(27):
        ti = trace_j(basis[i])
        for j in range(27):
            tj = trace_j(basis[j])
            want = basis[i].scale(tj) + basis[j].scale(ti)
            assert phi2(w, basis[i], basis[j]).scale(3) == want
    _report("c05 second kernel at the base point matches its closed form (729 pairs)")


def test_c06_structure_tensor_at_base_point(jordan_tensor):
    t = structure_tensor(w_point())
    flat = [Fraction(v, t.den) for v in slot_entries(slot_values(t.kn))]
    assert len(flat) == 19683
    for i in range(27):
        for j in range(27):
            ij = i * 27 + j
            assert tuple(flat[27 * ij : 27 * ij + 27]) == jordan_tensor[i][j]
    _report("c06 structure tensor at the base point is the Jordan tensor (19683)")


def test_c07_equivariance_of_s():
    s_equivariance = predicate("smap-equivariance/s-equivariance")
    r = _rng("c07")
    triples = [
        (rand_vpoint(r), rand_albert(r), rand_albert(r)) for _ in range(20)
    ]
    count = 0
    for k in range(50):
        g = rand_group(r)
        assert s_equivariance(g, *triples[k % 20])
        count += 1
    assert count == 50
    _report("c07 S is equivariant with factor c^3 det^4 (50 elements, 20 triples)")


def test_c08_rescaled_action_is_isomorphism():
    normalized_isomorphism = predicate("smap-equivariance/normalized-isomorphism")
    r = _rng("c08")
    w = w_point()
    for k in range(16):
        g = rand_group(r)
        x = w if k < 8 else rand_semistable(r)
        assert normalized_isomorphism(g, x, rand_albert(r), rand_albert(r))
    _report("c08 the rescaled action intertwines the normalized products")


def test_c09_t_form_at_unit_exhaustive(basis, jordan_tensor):
    # trace pairing rows of the Jordan products
    pv = [[gram_apply(jordan_tensor[i][j]) for j in range(27)] for i in range(27)]
    # T_e via its definition, with the symmetric inner D cached once
    dvals = [trilinear_d(E, E, b) for b in basis]
    u = [cross(E, b) for b in basis]
    inner = {}
    for i in range(27):
        for j in range(i, 27):
            for k in range(j, 27):
                inner[(i, j, k)] = trilinear_d(u[i], u[j], u[k])

    def t_unit(i, j, k):
        key = tuple(sorted((i, j, k)))
        return 27 * dvals[i] * dvals[j] * dvals[k] - 24 * inner[key]

    checks = 0
    for i in range(27):
        for j in range(27):
            for k in range(27):
                v = pv[i][j][k]
                assert v == pv[j][k][i]  # Tr((bi o bj) o bk) = Tr(bi o (bj o bk))
                assert t_unit(i, j, k) == v
                checks += 1
    assert checks == 19683
    # the cached evaluation is the trilinear form itself
    r = _rng("c09")
    for _ in range(200):
        i, j, k = r.randrange(27), r.randrange(27), r.randrange(27)
        assert t_form(E, basis[i], basis[j], basis[k]) == t_unit(i, j, k)
    # and the entrywise expansion reproduces it on every triple
    for i in range(27):
        for j in range(27):
            for k in range(27):
                assert te_expansion(basis[i], basis[j], basis[k]) == pv[i][j][k]
    _report("c09 trilinear form at the unit is the associative trace form (19683)")


def test_c10_both_isotope_constructions_agree():
    r = _rng("c10")
    from albertkit.octonion import Oct

    def small(rr):
        while True:
            a = AlbertElem(
                tuple(Fraction(rr.randint(-2, 2)) for _ in range(3)),
                tuple(
                    Oct.from_coords([rr.randint(-2, 2) for _ in range(8)])
                    for _ in range(3)
                ),
            )
            if det_j(a) != 0:
                return a

    two_definitions_agree = predicate("isotope-defs/two-definitions-agree")
    for _ in range(200):
        assert two_definitions_agree(small(r), small(r), small(r))
    # transported unit: for a = g(e), g carries the base product to circ_a
    for _ in range(10):
        g = rand_group(r)
        a = g.apply_j(E)
        assert det_j(a) == g.c != 0
        X, Y = rand_albert(r), rand_albert(r)
        assert g.apply_j(jordan_mul(X, Y)) == circ_a_tform(
            a, g.apply_j(X), g.apply_j(Y)
        )
    _report("c10 both isotope constructions agree (200 points) and transport")


def test_c11_homogeneity_degrees():
    r = _rng("c11")
    for t in (Fraction(2), Fraction(3)):
        x = rand_vpoint(r)
        X, Y, Z = rand_albert(r), rand_albert(r), rand_albert(r)
        tx = VPoint(x.a.scale(t), x.b.scale(t))
        assert s_map(tx, X, Y) == s_map(x, X, Y).scale(t ** 8)
        assert delta(tx) == t ** 12 * delta(x)
        a = rand_albert(r)
        ta = a.scale(t)
        assert t_form(ta, X, Y, Z) == t ** 6 * t_form(a, X, Y, Z)
        assert q_a(ta, X, Y) == t ** 4 * q_a(a, X, Y)
    _report("c11 homogeneity: degrees 8, 6, 12, 4 verified at t = 2 and 3")


def test_c12_character_law():
    r = _rng("c12")
    gens = [
        scalar_elem(2),
        scalar_elem(Fraction(-1, 2)),
        diag_conj(2, 3, 5),
        diag_conj(1, -1, Fraction(1, 2)),
        gl2_elem([[2, 1], [1, 1]]),
        gl2_elem([[0, 1], [1, 0]]),
    ] + [perm_elem(p) for p in ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2), (3, 2, 1))]
    chi_law = predicate("group-character/chi-law")
    for g in gens:
        assert chi_law(g, rand_vpoint(r))
        assert chi(g) == g.c ** 4 * det2(g.g2) ** 6
    for _ in range(50):
        assert chi_law(rand_group(r), rand_vpoint(r))
    _report("c12 the degree-12 invariant transforms by c^4 det^6 (generators + 50)")


def test_c13_isotopes_are_jordan_algebras():
    circ_x_jordan = predicate("jordan-axioms/circ-x-jordan")
    circ_a_jordan = predicate("jordan-axioms/circ-a-jordan")
    r = _rng("c13")
    for _ in range(50):
        assert circ_x_jordan(rand_semistable(r), rand_albert(r), rand_albert(r))
    for _ in range(50):
        a = rand_albert(r)
        while det_j(a) == 0:
            a = rand_albert(r)
        assert circ_a_jordan(a, rand_albert(r), rand_albert(r))
    _report("c13 both product families are commutative Jordan products (50 + 50)")


def test_c14_error_paths():
    unstable = VPoint(E, E)
    assert delta(unstable) == 0
    with pytest.raises(NotSemistable):
        circ_x(unstable, E, E)
    a0 = diag_elem(0, 1, 1)
    assert det_j(a0) == 0
    for fn in (circ_a_tform, circ_a_springer):
        with pytest.raises(SingularPoint):
            fn(a0, E, E)
    with pytest.raises(SingularPoint):
        pairing_a(a0, E, E)
    # at det(a) = 0 the bilinear form collapses to rank one
    with pytest.raises(SingularMatrix):
        solve_exact([list(row) for row in gram_qa(a0)], E.coords())
    _report("c14 degenerate inputs raise NotSemistable/SingularPoint/SingularMatrix")
