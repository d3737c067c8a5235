"""Products twisted by an invertible element: both constructions and their unit."""

from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from albertkit import pvs, smap
from albertkit.albert import (
    ALBERT_ZERO,
    AlbertElem,
    E,
    _det_num,
    cross,
    cross_tables,
    det_j,
    det_table,
    diag_elem,
    jbasis,
    jordan_mul,
    pair_gram,
    trace_j,
    trilinear_d,
)
from albertkit.errors import SingularPoint
from albertkit.isotope import (
    _index,
    circ_a_springer,
    circ_a_tform,
    gram_qa,
    pairing_a,
    phi_a,
    q_a,
    t_form,
)
from albertkit.linalg import solve_exact
from albertkit.octonion import Oct
from albertkit.pvs import delta
from albertkit.reference import d_expanded, te_expansion
from albertkit.smap import circ_x, k_elem, s_map
from albertkit.verify import predicate, rand_albert, rand_invertible, rand_singular

two_definitions_agree = predicate("isotope-defs/two-definitions-agree")
defining_equation = predicate("isotope-defs/defining-equation")
adjoint_identity = predicate("isotope-defs/adjoint-identity")
qa_at_unit = predicate("isotope-defs/qa-at-unit")

# the 9 halves in [-2, 2], 0 first so that shrinking still goes towards 0
rats = st.sampled_from([Fraction(0)] + [Fraction(s * n, 2) for n in range(1, 5) for s in (1, -1)])
octs = st.builds(lambda cs: Oct.from_coords(cs), st.tuples(*[rats] * 8))
elems = st.builds(
    lambda d, o: AlbertElem(d, o), st.tuples(rats, rats, rats), st.tuples(octs, octs, octs)
)


def test_t_form_at_unit(rng):
    assert t_form(E, E, E, E) == 3
    for _ in range(6):
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        want = trace_j(jordan_mul(jordan_mul(X, Y), Z))
        assert t_form(E, X, Y, Z) == want
        assert want == trace_j(jordan_mul(X, jordan_mul(Y, Z)))
        assert te_expansion(X, Y, Z) == want


def test_t_form_symmetric(rng):
    a = rand_invertible(rng)
    X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
    vals = {
        t_form(a, X, Y, Z),
        t_form(a, Y, X, Z),
        t_form(a, Z, Y, X),
        t_form(a, X, Z, Y),
    }
    assert len(vals) == 1


def test_q_a_at_unit(rng):
    assert q_a(E, E, E) == 3
    for _ in range(6):
        assert qa_at_unit(rand_albert(rng), rand_albert(rng))


def test_gram_qa(rng):
    basis = jbasis()
    g = pair_gram()
    assert gram_qa(E) == tuple(tuple(row) for row in g)
    a = rand_invertible(rng)
    m = gram_qa(a)
    for i in range(27):
        for j in range(27):
            assert m[i][j] == q_a(a, basis[i], basis[j])
            assert m[i][j] == m[j][i]


def test_phi_a_at_unit(rng):
    for _ in range(6):
        X, Y = rand_albert(rng), rand_albert(rng)
        assert phi_a(E, X, Y) == jordan_mul(X, Y)


def test_degrees_in_a(rng):
    a = rand_invertible(rng)
    X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
    for t in (Fraction(2), Fraction(-1, 2)):
        ta = a.scale(t)
        assert t_form(ta, X, Y, Z) == t ** 6 * t_form(a, X, Y, Z)
        assert q_a(ta, X, Y) == t ** 4 * q_a(a, X, Y)
        assert phi_a(ta, X, Y) == phi_a(a, X, Y).scale(t ** 11)
        # both normalized products are degree 0 in a up to the det sign
        assert circ_a_springer(ta, X, Y) == circ_a_springer(a, X, Y).scale(t ** -1)


def test_two_constructions_agree(rng):
    for _ in range(8):
        assert two_definitions_agree(rand_invertible(rng), rand_albert(rng), rand_albert(rng))


def _solve_route(a, X, Y):
    """The product as one exact solve: q_a(U, b) = t_form(a; X, Y, b) / det(a) over jbasis.

    The reference for circ_a_tform, which evaluates the isotope kernel
    at a# and solves nothing.
    """
    d = det_j(a)
    rhs = [t_form(a, X, Y, b) / d for b in jbasis()]
    return AlbertElem.from_coords(solve_exact(gram_qa(a), rhs))


def _big(rng, bits=63):
    """The benchmark's d-large class: 27 integer numerators of up to `bits` bits."""
    return AlbertElem.from_coords([rng.randrange(-(2**bits), 2**bits) for _ in range(27)])


def _sparse(rng):
    """6 nonzero coordinates: 20-bit numerators over 8-bit denominators."""
    c = [0] * 27
    for n in rng.sample(range(27), 6):
        c[n] = Fraction(rng.randrange(-(2**20), 2**20), rng.randrange(1, 2**8))
    return AlbertElem.from_coords(c)


def _two_dens(rng):
    """Coordinates over the denominators 3 and 2^40 + 1, alternately."""
    return AlbertElem.from_coords(
        [Fraction(rng.randrange(-50, 51), (3, 2**40 + 1)[n % 2]) for n in range(27)]
    )


def _invertible(draw, rng):
    while True:
        a = draw(rng)
        if det_j(a) != 0:
            return a


def _differential_cases(rng):
    """(a, X, Y) at large, sparse and two-denominator heights, det(a) < 0, and X in {0, a, a#}."""
    big = _invertible(_big, rng)
    sparse = _invertible(_sparse, rng)
    assert sum(1 for n in sparse.nums if n) == 6
    two = _invertible(_two_dens, rng)
    assert two.den == 3 * (2**40 + 1)
    neg = rand_invertible(rng)
    neg = -neg if det_j(neg) > 0 else neg
    assert det_j(neg) < 0
    cases = [(big, _big(rng), _big(rng))]
    for a in (sparse, two, neg):
        cases.append((a, rand_albert(rng), rand_albert(rng)))
    for a in (big, sparse, two, neg):
        cases += [(a, ALBERT_ZERO, rand_albert(rng)), (a, a, a), (a, cross(a, a), rand_albert(rng))]
    return cases


def _literal_t(a, X, Y, Z):
    """t_form as the module docstring states it, on d_expanded, det_j and cross."""
    D = d_expanded
    return 27 * D(a, a, X) * D(a, a, Y) * D(a, a, Z) - 24 * det_j(a) * D(cross(a, X), cross(a, Y), cross(a, Z))


def _literal_q(a, X, Y):
    """q_a as the module docstring states it."""
    return -6 * det_j(a) * d_expanded(X, Y, a) + 9 * d_expanded(X, a, a) * d_expanded(Y, a, a)


def _literal_phi(a, X, Y):
    """phi_a as the module docstring states it."""
    d = det_j(a)
    corr = d**2 * _literal_q(a, X, Y) - _literal_q(a, X, a) * _literal_q(a, Y, a)
    return cross(cross(X, a), cross(Y, a)).scale(4 * d**3) + a.scale(corr / 2)


def _big_singular(rng, bits):
    """det = 0 at height: s1 = 0 and x2 = x3 = 0 leave only -s1 norm(x1) = 0 in det."""
    c = [0 if n == 0 or n >= 11 else rng.randrange(-(2**bits), 2**bits) for n in range(27)]
    return AlbertElem.from_coords(c)


def test_index_reads_det_off_the_sharp(rng):
    # dn = p(S, A) / 6, from the sharp _index holds, against the det kernel: on the
    # basis, on singular elements, and on elements with negative det at every height
    singular = [rand_singular(rng) for _ in range(4)] + [_big_singular(rng, 63), ALBERT_ZERO]
    negative = []
    for draw in (rand_invertible, _big, _sparse, _two_dens, lambda r: _big(r, 200)):
        a = _invertible(draw, rng)
        negative.append(-a if det_j(a) > 0 else a)
    assert all(det_j(a) == 0 for a in singular) and all(det_j(a) < 0 for a in negative)
    for a in (*jbasis(), *singular, *negative, E):
        assert _index(a)[2] == _det_num(a.nums)


def test_forms_match_paper_literal(rng, sparse_point):
    # the integer forms against their definitions in D and det, at a sparse point's
    # coordinates, at 63 and 200 bits, and at singular index elements
    x = sparse_point(rng)
    cases = [(x.a, x.b, _sparse(rng), _sparse(rng)), (x.b, x.a, x.b, cross(x.a, x.b))]
    cases += [(_big(rng, bits), _big(rng, bits), _big(rng, bits), _big(rng, bits)) for bits in (63, 200)]
    singular = [_big_singular(rng, 63), _big_singular(rng, 200), rand_singular(rng)]
    assert all(det_j(a) == 0 for a in singular)
    cases += [(a, _big(rng), _big(rng, 200), _sparse(rng)) for a in singular]
    for a, X, Y, Z in cases:
        assert t_form(a, X, Y, Z) == _literal_t(a, X, Y, Z)
        assert q_a(a, X, Y) == _literal_q(a, X, Y)
        assert phi_a(a, X, Y) == _literal_phi(a, X, Y)


def test_tform_matches_solve_route(rng):
    basis = jbasis()
    for a in (E, diag_elem(1, 2, -3), rand_invertible(rng)):
        for i, j in ((0, 0), (0, 5), (4, 12), (26, 20)):
            X, Y = basis[i], basis[j]
            assert circ_a_tform(a, X, Y) == _solve_route(a, X, Y)
    # random index elements, then one with 63-bit integer numerators
    large = AlbertElem.from_coords([rng.randrange(-(2**63), 2**63) for _ in range(27)])
    assert det_j(large) != 0
    for a in [rand_invertible(rng) for _ in range(4)] + [large]:
        X, Y = rand_albert(rng), rand_albert(rng)
        assert circ_a_tform(a, X, Y) == _solve_route(a, X, Y)
    # against both independent routes: large, sparse, two-denominator and
    # det(a) < 0 index elements, and X in {0, a, a#}
    for a, X, Y in _differential_cases(rng):
        assert two_definitions_agree(a, X, Y)
        assert circ_a_tform(a, X, Y) == _solve_route(a, X, Y)


def test_adjoint_identity_of_the_cubic_norm(rng):
    # a# x (a x u) = (det(a) u + pair(a#, u) a) / 4 for every a, invertible or not;
    # with it the t_form equation reduces to the isotope kernel of circ_a_tform
    index = [rand_albert(rng), _big(rng), _sparse(rng), _two_dens(rng)]
    index += [rand_singular(rng), rand_singular(rng), diag_elem(0, 1, 1), ALBERT_ZERO]
    for a in index:
        for u in (rand_albert(rng), _big(rng), E):
            assert adjoint_identity(u, a)
    assert det_j(index[4]) == 0 and det_j(index[5]) == 0


def test_tform_makes_no_fraction(rng, sparse_point, monkeypatch, count_fractions):
    # circ_a_tform, s_map and circ_x, the users of the isotope kernel, run on integers
    # only, a singular a keeps its documented error, and each cubic-norm form reduces once
    args = [(rand_invertible(rng), rand_albert(rng), rand_albert(rng))]
    args.append((_invertible(_big, rng), _big(rng), _big(rng)))
    args.append((_invertible(_two_dens, rng), _sparse(rng), rand_albert(rng)))
    want = [circ_a_springer(*t) for t in args]
    x, X, Y = sparse_point(rng), _big(rng), _big(rng)
    d, k = delta(x), k_elem(x)
    want_circ = circ_a_springer(cross(k, k).scale(81 / d), X, Y)
    singular = diag_elem(0, 1, 1)
    made = count_fractions()
    got = [circ_a_tform(*t) for t in args]
    with pytest.raises(SingularPoint) as err:
        circ_a_tform(singular, E, E)
    got_s = s_map(x, X, Y)
    got_circ = circ_x(x, X, Y)
    assert made == []
    # the cubic-norm forms: one Fraction per scalar, none per element, one per Gram entry
    a, Z = args[1][0], _big(rng)
    forms = {}
    for name, fn, n in (
        ("d", lambda: trilinear_d(X, Y, Z), 1),
        ("t", lambda: t_form(a, X, Y, Z), 1),
        ("q", lambda: q_a(a, X, Y), 1),
        ("phi", lambda: phi_a(a, X, Y), 0),
        ("springer", lambda: circ_a_springer(a, X, Y), 0),
        ("gram", lambda: gram_qa(a), 729),
    ):
        made.clear()
        forms[name] = fn()
        assert len(made) == n, name
    monkeypatch.undo()
    assert forms["d"] == d_expanded(X, Y, Z)
    assert forms["t"] == _literal_t(a, X, Y, Z) and forms["q"] == _literal_q(a, X, Y)
    assert forms["phi"] == _literal_phi(a, X, Y) == forms["springer"].scale(det_j(a) ** 4)
    assert forms["gram"][3][20] == _literal_q(a, jbasis()[3], jbasis()[20])
    assert got == want
    assert got_circ == want_circ and got_s == want_circ.scale(d)
    assert str(err.value) == "det(a) = 0: the isotope at a is undefined"


def test_tform_and_delta_build_no_table(rng, sparse_point, monkeypatch):
    # the written-out kernels read no table, so a fresh process pays for neither on
    # these paths; circ_x reads the binary cubic of its point once, for k and delta
    a, X, Y, x = rand_invertible(rng), rand_albert(rng), rand_albert(rng), sparse_point(rng)
    want = circ_a_springer(a, X, Y)
    read, reads = pvs._cubic_nums, []
    for module in (pvs, smap):
        monkeypatch.setattr(module, "_cubic_nums", lambda x: reads.append(x) or read(x))
    cross_tables.cache_clear()
    det_table.cache_clear()
    got = circ_a_tform(a, X, Y)
    d = delta(x)
    s = s_map(x, X, Y)
    reads.clear()
    c = circ_x(x, X, Y)
    assert reads == [x]
    # the forms behind dform, tform, qa, qa --gram and isotope-mul --method springer
    forms = (trilinear_d(X, Y, a), t_form(a, X, Y, a), q_a(a, X, Y), gram_qa(a), circ_a_springer(a, X, Y))
    assert cross_tables.cache_info().currsize == 0
    assert det_table.cache_info().currsize == 0
    assert got == want == forms[-1] and d != 0 and c.scale(d) == s


# no shrink phase: each shrink candidate would run _solve_route (27 t_forms and a
# 27x27 solve), and a broken circ_a_tform would run for minutes before failing
@settings(max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(elems, elems, elems)
def test_tform_matches_solve_route_hypothesis(a, X, Y):
    assume(det_j(a) != 0)
    assert circ_a_tform(a, X, Y) == _solve_route(a, X, Y)


def test_defining_equation(rng):
    # Q_a(X circ_a Y, Z) recovers the cubic form T_a(X, Y, Z) / det(a)
    for _ in range(6):
        a = rand_invertible(rng)
        assert defining_equation(a, rand_albert(rng), rand_albert(rng), rand_albert(rng))


def test_pairing_a(rng):
    for _ in range(6):
        a = rand_invertible(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        assert pairing_a(a, X, Y) == q_a(a, X, Y) / det_j(a) ** 2
    assert pairing_a(E, E, E) == 3


def test_singular_point_rejected():
    a = diag_elem(0, 1, 1)
    assert det_j(a) == 0
    with pytest.raises(SingularPoint):
        circ_a_springer(a, E, E)
    with pytest.raises(SingularPoint):
        circ_a_tform(a, E, E)
    with pytest.raises(SingularPoint):
        pairing_a(a, E, E)


def test_jordan_axioms_for_isotope(rng):
    for _ in range(3):
        a = rand_invertible(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        assert circ_a_tform(a, X, Y) == circ_a_tform(a, Y, X)
        X2 = circ_a_tform(a, X, X)
        lhs = circ_a_tform(a, X2, circ_a_tform(a, X, Y))
        rhs = circ_a_tform(a, X, circ_a_tform(a, X2, Y))
        assert lhs == rhs


def _solve_unit(a):
    """Find the unit of circ_a by solving u circ_a E = E, then let the
    caller confirm the unit property on independent elements.

    u -> u circ_a E is linear, so its matrix in the standard basis gives
    a square exact system; nothing about the answer is assumed upfront.
    """
    basis = jbasis()
    cols = [circ_a_tform(a, b, E).coords() for b in basis]
    m = [[cols[k][i] for k in range(27)] for i in range(27)]
    return AlbertElem.from_coords(solve_exact(m, E.coords()))


def test_unit_solved_per_instance(rng):
    # the two-sided unit exists and is found by solving, not assumed
    for _ in range(2):
        a = rand_invertible(rng)
        u = _solve_unit(a)
        for X in (E, a, rand_albert(rng), rand_albert(rng)):
            assert circ_a_tform(a, u, X) == X
            assert circ_a_tform(a, X, u) == X
    assert _solve_unit(E) == E
