"""Seeded, exact verification suites for every identity the package relies on.

Each suite is a list of named checks; a check runs a number of trials
(or a fixed enumeration) and counts exact successes. Nothing is
approximate: a single failed comparison fails the check. Suites are
deterministic functions of (seed, trials).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import gaction, isotope, smap
from .albert import (
    AlbertElem,
    E,
    cross,
    det_j,
    diag_elem,
    jbasis,
    jordan_mul,
    pair,
    trace_j,
    trilinear_d,
)
from .errors import NotSemistable, ParseError, SingularMatrix, SingularPoint
from .linalg import solve_exact
from .octonion import (
    OCT_UNIT,
    Oct,
    ZORN_BASIS,
    oct_conj,
    oct_mul,
    oct_norm,
    oct_q,
    oct_trace,
)
from .pvs import VPoint, cubic_of, delta, is_semistable, w_point
from .reference import d_expanded, jordan_via_matrix, literal_k, te_expansion


class CheckResult(NamedTuple):
    name: str
    passed: int
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


# -- samplers ----------------------------------------------------------------

_DENOMS = (1, 1, 1, 2)


def rand_rat(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(_DENOMS))


def rand_rat_nonzero(rng: random.Random) -> Fraction:
    while True:
        t = rand_rat(rng)
        if t != 0:
            return t


def rand_oct(rng: random.Random) -> Oct:
    return Oct.from_coords([rand_rat(rng) for _ in range(8)])


def rand_albert(rng: random.Random) -> AlbertElem:
    return AlbertElem(
        (rand_rat(rng), rand_rat(rng), rand_rat(rng)),
        (rand_oct(rng), rand_oct(rng), rand_oct(rng)),
    )


def rand_invertible(rng: random.Random) -> AlbertElem:
    while True:
        a = rand_albert(rng)
        if det_j(a) != 0:
            return a


def rand_vpoint(rng: random.Random) -> VPoint:
    return VPoint(rand_albert(rng), rand_albert(rng))


def rand_semistable(rng: random.Random) -> VPoint:
    while True:
        x = rand_vpoint(rng)
        if is_semistable(x):
            return x


def _rand_gl2(rng: random.Random):
    while True:
        m = ((rand_rat(rng), rand_rat(rng)), (rand_rat(rng), rand_rat(rng)))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def rand_generator(rng: random.Random, with_gl2: bool = True) -> gaction.GroupElem:
    kinds = ("scalar", "diag", "perm") + (("gl2",) if with_gl2 else ())
    kind = rng.choice(kinds)
    if kind == "scalar":
        return gaction.scalar_elem(rand_rat_nonzero(rng))
    if kind == "diag":
        return gaction.diag_conj(
            rand_rat_nonzero(rng), rand_rat_nonzero(rng), rand_rat_nonzero(rng)
        )
    if kind == "perm":
        sigma = [1, 2, 3]
        rng.shuffle(sigma)
        return gaction.perm_elem(sigma)
    return gaction.gl2_elem(_rand_gl2(rng))


def rand_group(rng: random.Random, max_factors: int = 3, with_gl2: bool = True) -> gaction.GroupElem:
    g = rand_generator(rng, with_gl2)
    for _ in range(rng.randint(0, max_factors - 1)):
        g = g.compose(rand_generator(rng, with_gl2))
    return g


def rand_special(rng: random.Random) -> gaction.GroupElem:
    """A det-preserving (c = 1) element: permutations and unit-product diagonals."""
    g = gaction.perm_elem(rng.sample([1, 2, 3], 3))
    for _ in range(rng.randint(1, 2)):
        l1 = rand_rat_nonzero(rng)
        l2 = rand_rat_nonzero(rng)
        g = g.compose(gaction.diag_conj(l1, l2, 1 / (l1 * l2)))
    return g


# -- check plumbing ----------------------------------------------------------


def _check(name: str, n: int, body: Callable[[random.Random, int], bool], rng: random.Random) -> CheckResult:
    passed = failed = 0
    for i in range(n):
        if body(rng, i):
            passed += 1
        else:
            failed += 1
    return CheckResult(name, passed, failed)


# -- suites ------------------------------------------------------------------


def _suite_octonion(rng, trials):
    out = []

    def norm_basis(rng, i):
        x = ZORN_BASIS[i // 8]
        y = ZORN_BASIS[i % 8]
        return oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)

    out.append(_check("norm-multiplicative-basis", 64, norm_basis, rng))

    def norm_rand(rng, i):
        x, y = rand_oct(rng), rand_oct(rng)
        return oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)

    out.append(_check("norm-multiplicative-random", trials, norm_rand, rng))

    def conj_rand(rng, i):
        x = rand_oct(rng)
        return (
            oct_mul(x, oct_conj(x)) == OCT_UNIT.scale(oct_norm(x))
            and x + oct_conj(x) == OCT_UNIT.scale(oct_trace(x))
        )

    out.append(_check("conjugation", trials, conj_rand, rng))

    def quad_rand(rng, i):
        x = rand_oct(rng)
        lhs = oct_mul(x, x) - x.scale(oct_trace(x)) + OCT_UNIT.scale(oct_norm(x))
        return lhs.is_zero()

    out.append(_check("quadratic-relation", trials, quad_rand, rng))

    def q_rand(rng, i):
        x, y = rand_oct(rng), rand_oct(rng)
        return 2 * oct_q(x, y) == oct_trace(oct_mul(x, oct_conj(y))) and oct_q(x, x) == oct_norm(x)

    out.append(_check("q-form", trials, q_rand, rng))
    return out


def _suite_albert(rng, trials):
    out = []

    def comm(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return jordan_mul(X, Y) == jordan_mul(Y, X)

    out.append(_check("commutative", trials, comm, rng))

    def unit(rng, i):
        X = rand_albert(rng)
        return jordan_mul(E, X) == X

    out.append(_check("unit", trials, unit, rng))

    def jid(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        x2 = jordan_mul(X, X)
        return jordan_mul(x2, jordan_mul(X, Y)) == jordan_mul(X, jordan_mul(x2, Y))

    out.append(_check("jordan-identity", trials, jid, rng))

    def trace_assoc(rng, i):
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        return pair(jordan_mul(X, Y), Z) == pair(X, jordan_mul(Y, Z))

    out.append(_check("trace-associative", trials, trace_assoc, rng))

    def matrix_path(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return jordan_via_matrix(X, Y) == jordan_mul(X, Y)

    out.append(_check("matrix-product-path", trials, matrix_path, rng))
    return out


def _suite_cubic_form(rng, trials):
    out = []

    def anchors(rng, i):
        return det_j(E) == 1 and trilinear_d(E, E, E) == 1 and det_j(diag_elem(1, 1, 0)) == 0

    out.append(_check("det-anchors", 1, anchors, rng))

    def polar(rng, i):
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        return trilinear_d(X, Y, Z) == d_expanded(X, Y, Z)

    out.append(_check("polarization-match", trials, polar, rng))

    def symm(rng, i):
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        d = trilinear_d(X, Y, Z)
        return (
            d == trilinear_d(Y, X, Z)
            and d == trilinear_d(Z, Y, X)
            and d == trilinear_d(X, Z, Y)
        )

    out.append(_check("d-symmetric", trials, symm, rng))

    def det_sum(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return det_j(X + Y) == det_j(X) + 3 * trilinear_d(X, X, Y) + 3 * trilinear_d(
            X, Y, Y
        ) + det_j(Y)

    out.append(_check("det-of-sum", trials, det_sum, rng))
    return out


def _suite_cross_duality(rng, trials):
    out = []

    def duality(rng, i):
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        return pair(cross(X, Y), Z) == 3 * trilinear_d(X, Y, Z)

    out.append(_check("pair-cross-duality", trials, duality, rng))

    def adjoint(rng, i):
        X = rand_albert(rng)
        return jordan_mul(X, cross(X, X)) == E.scale(det_j(X))

    out.append(_check("adjoint-identity", trials, adjoint, rng))

    out.append(_check("unit-cross", 1, lambda rng, i: cross(E, E) == E, rng))

    def trace_cross(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return trace_j(cross(X, Y)) == (trace_j(X) * trace_j(Y) - pair(X, Y)) / 2

    out.append(_check("trace-of-cross", trials, trace_cross, rng))
    return out


def _suite_binary_cubic(rng, trials):
    out = []
    w = w_point()

    def anchors(rng, i):
        f = cubic_of(w)
        return (
            f.coeffs() == (0, 1, -1, 0)
            and delta(w) == 1
            and is_semistable(w)
            and f.evaluate(1, 1) == 0
        )

    out.append(_check("w-anchors", 1, anchors, rng))

    def homog(rng, i):
        x = rand_vpoint(rng)
        d = delta(x)
        return delta(x.scale(2)) == 2**12 * d and delta(x.scale(3)) == 3**12 * d

    out.append(_check("delta-degree-12", max(1, trials // 4), homog, rng))

    def degenerate(rng, i):
        a = rand_albert(rng)
        return delta(VPoint(a, a)) == 0 and not is_semistable(VPoint(E, E.scale(0)))

    out.append(_check("degenerate-points", max(1, trials // 4), degenerate, rng))
    return out


def _suite_smap_base_point(rng, trials):
    out = []
    w = w_point()

    def phi1_w(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        lhs = smap.phi1(w, X, Y).scale(-18)
        rhs = (
            jordan_mul(X, Y)
            - X.scale(trace_j(Y) / 2)
            - Y.scale(trace_j(X) / 2)
        )
        return lhs == rhs

    out.append(_check("phi1-at-w", trials, phi1_w, rng))

    def phi2_w(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return smap.phi2(w, X, Y).scale(3) == X.scale(trace_j(Y)) + Y.scale(trace_j(X))

    out.append(_check("phi2-at-w", trials, phi2_w, rng))

    def s_w(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return smap.s_map(w, X, Y) == jordan_mul(X, Y)

    out.append(_check("s-at-w", trials, s_w, rng))

    def circ_w(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return smap.circ_x(w, X, Y) == jordan_mul(X, Y)

    out.append(_check("circ-at-w", trials, circ_w, rng))
    return out


def _suite_smap_contraction(rng, trials):
    out = []

    def recombine(rng, i):
        x = rand_vpoint(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        direct = smap.phi1(x, X, Y).scale(-18) + smap.phi2(x, X, Y).scale(Fraction(3, 2))
        return smap.s_map(x, X, Y) == direct

    out.append(_check("literal-vs-contracted", max(1, trials // 2), recombine, rng))

    def tensor_rows(rng, i):
        x = rand_vpoint(rng)
        t = smap.structure_tensor(x)
        basis = jbasis()
        for _ in range(6):
            r = rng.randrange(27)
            c = rng.randrange(27)
            if t.product_coords(r, c) != smap.s_map(x, basis[r], basis[c]).coords():
                return False
        return True

    out.append(_check("tensor-matches-smap", max(1, min(trials // 6, 4)), tensor_rows, rng))

    def swap(rng, i):
        x = rand_vpoint(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        return smap.s_map(VPoint(x.b, x.a), X, Y) == smap.s_map(x, X, Y)

    out.append(_check("argument-swap", max(1, trials // 2), swap, rng))

    def diagonal_zero(rng, i):
        a = rand_albert(rng)
        x = VPoint(a, a)
        X, Y = rand_albert(rng), rand_albert(rng)
        return smap.phi1(x, X, Y).is_zero() and smap.phi2(x, X, Y).is_zero()

    out.append(_check("repeated-point-vanishes", max(1, trials // 2), diagonal_zero, rng))

    def tensor_isotope(rng, i):
        # all 378 unordered basis pairs against delta(x) circ_a_springer(a(x), b_i, b_j),
        # a(x) = 81 k#/delta(x), with k the literal signed sum: this route shares
        # neither the slot table nor the Hessian form of k_elem
        x = w_point() if i == 0 else rand_semistable(rng)
        t = smap.structure_tensor(x)
        d = delta(x)
        k = literal_k(x)
        a = cross(k, k).scale(81 / d)
        basis = jbasis()
        return all(
            t.product_coords(r, c) == isotope.circ_a_springer(a, basis[r], basis[c]).scale(d).coords()
            for r in range(27)
            for c in range(r, 27)
        )

    out.append(_check("tensor-is-isotope", max(1, trials // 10), tensor_isotope, rng))
    return out


def _suite_smap_equivariance(rng, trials):
    out = []

    def phi_law(rng, i):
        g = rand_group(rng)
        x = rand_vpoint(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        gx = gaction.act_v(g, x)
        factor = g.c**3 * gaction.det2(g.g2) ** 4
        for phi in (smap.phi1, smap.phi2):
            lhs = phi(gx, g.apply_j(X), g.apply_j(Y))
            if lhs != g.apply_j(phi(x, X, Y)).scale(factor):
                return False
        return True

    out.append(_check("phi-equivariance", max(1, trials // 2), phi_law, rng))

    def s_law(rng, i):
        g = rand_group(rng)
        x = rand_vpoint(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        gx = gaction.act_v(g, x)
        factor = g.c**3 * gaction.det2(g.g2) ** 4
        lhs = smap.s_map(gx, g.apply_j(X), g.apply_j(Y))
        return lhs == g.apply_j(smap.s_map(x, X, Y)).scale(factor)

    out.append(_check("s-equivariance", trials, s_law, rng))

    def gl2_only(rng, i):
        g = gaction.gl2_elem(_rand_gl2(rng))
        x = rand_vpoint(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        lhs = smap.s_map(gaction.act_v(g, x), X, Y)
        return lhs == smap.s_map(x, X, Y).scale(gaction.det2(g.g2) ** 4)

    out.append(_check("gl2-factor-degree-4", max(1, trials // 2), gl2_only, rng))

    def mu_law(rng, i):
        g = rand_group(rng)
        x = w_point() if i % 3 == 0 else rand_semistable(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        gx = gaction.act_v(g, x)
        if not is_semistable(gx):
            return False
        m = gaction.mu(g)
        lhs = smap.circ_x(gx, m.apply_j(X), m.apply_j(Y))
        return lhs == m.apply_j(smap.circ_x(x, X, Y))

    out.append(_check("normalized-isomorphism", max(1, trials // 2), mu_law, rng))
    return out


def _suite_group_character(rng, trials):
    out = []

    def soundness(rng, i):
        g = rand_group(rng)
        X = rand_albert(rng)
        return det_j(g.apply_j(X)) == g.c * det_j(X)

    out.append(_check("character-soundness", trials, soundness, rng))

    def chi_law(rng, i):
        g = rand_group(rng)
        x = rand_vpoint(rng)
        return delta(gaction.act_v(g, x)) == gaction.chi(g) * delta(x)

    out.append(_check("chi-law", trials, chi_law, rng))

    def tilde_adjoint(rng, i):
        g = rand_group(rng)
        gt = gaction.tilde(g)
        X, Y = rand_albert(rng), rand_albert(rng)
        return pair(g.apply_j(X), gt.apply_j(Y)) == pair(X, Y) and gaction.tilde(gt) == g

    out.append(_check("tilde-adjoint-involution", max(1, trials // 4), tilde_adjoint, rng))

    def tilde_cross(rng, i):
        g = rand_special(rng)
        gt = gaction.tilde(g)
        X, Y = rand_albert(rng), rand_albert(rng)
        return g.apply_j(cross(X, Y)) == cross(gt.apply_j(X), gt.apply_j(Y))

    out.append(_check("tilde-cross-compat", max(1, trials // 4), tilde_cross, rng))

    def double_cross(rng, i):
        g = rand_group(rng, with_gl2=False)
        X, Y, Z, W = (rand_albert(rng) for _ in range(4))
        lhs = g.apply_j(cross(cross(X, Y), cross(Z, W)))
        rhs = cross(
            cross(g.apply_j(X), g.apply_j(Y)), cross(g.apply_j(Z), g.apply_j(W))
        ).scale(1 / g.c)
        return lhs == rhs

    out.append(_check("double-cross-scaling", max(1, trials // 2), double_cross, rng))

    def mu_hom(rng, i):
        g, h = rand_group(rng), rand_group(rng)
        gh = g.compose(h)
        return (
            gaction.mu(gh) == gaction.mu(g).compose(gaction.mu(h))
            and gaction.chi(gh) == gaction.chi(g) * gaction.chi(h)
        )

    out.append(_check("mu-chi-multiplicative", max(1, trials // 2), mu_hom, rng))

    def scalar_chi(rng, i):
        t = rand_rat_nonzero(rng)
        return gaction.chi(gaction.scalar_elem(t)) == t**12

    out.append(_check("scalar-character", max(1, trials // 4), scalar_chi, rng))
    return out


def _suite_isotope_defs(rng, trials):
    out = []

    def tform_e(rng, i):
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        t = isotope.t_form(E, X, Y, Z)
        return t == trace_j(jordan_mul(jordan_mul(X, Y), Z)) and t == trace_j(
            jordan_mul(X, jordan_mul(Y, Z))
        )

    out.append(_check("tform-at-unit", trials, tform_e, rng))

    def te_transcribed(rng, i):
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        return isotope.t_form(E, X, Y, Z) == te_expansion(X, Y, Z)

    out.append(_check("te-expansion-match", trials, te_transcribed, rng))

    def qa_e(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return isotope.q_a(E, X, Y) == pair(X, Y)

    out.append(_check("qa-at-unit", trials, qa_e, rng))

    def springer_e(rng, i):
        X, Y = rand_albert(rng), rand_albert(rng)
        return isotope.circ_a_springer(E, X, Y) == jordan_mul(X, Y)

    out.append(_check("springer-at-unit", trials, springer_e, rng))

    def two_defs(rng, i):
        a = rand_invertible(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        return isotope.circ_a_tform(a, X, Y) == isotope.circ_a_springer(a, X, Y)

    out.append(_check("two-definitions-agree", max(1, trials // 4), two_defs, rng))

    def gram_path(rng, i):
        a = rand_invertible(rng)
        gram = isotope.gram_qa(a)
        basis = jbasis()
        for _ in range(8):
            r = rng.randrange(27)
            c = rng.randrange(27)
            if gram[r][c] != isotope.q_a(a, basis[r], basis[c]):
                return False
        return True

    out.append(_check("gram-fast-path", max(1, min(trials // 6, 4)), gram_path, rng))

    def pairing_tform_link(rng, i):
        a = rand_invertible(rng)
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        u = isotope.circ_a_tform(a, X, Y)
        return isotope.q_a(a, u, Z) == isotope.t_form(a, X, Y, Z) / det_j(a)

    out.append(_check("defining-equation", max(1, trials // 6), pairing_tform_link, rng))
    return out


def _suite_jordan_axioms(rng, trials):
    out = []

    def circ_x_axioms(rng, i):
        x = rand_semistable(rng)
        U, W = rand_albert(rng), rand_albert(rng)
        if smap.circ_x(x, U, W) != smap.circ_x(x, W, U):
            return False
        u2 = smap.circ_x(x, U, U)
        return smap.circ_x(x, u2, smap.circ_x(x, U, W)) == smap.circ_x(
            x, U, smap.circ_x(x, u2, W)
        )

    out.append(_check("circ-x-jordan", max(1, trials // 2), circ_x_axioms, rng))

    def circ_a_axioms(rng, i):
        a = rand_invertible(rng)
        U, W = rand_albert(rng), rand_albert(rng)
        if isotope.circ_a_springer(a, U, W) != isotope.circ_a_springer(a, W, U):
            return False
        u2 = isotope.circ_a_springer(a, U, U)
        return isotope.circ_a_springer(
            a, u2, isotope.circ_a_springer(a, U, W)
        ) == isotope.circ_a_springer(a, U, isotope.circ_a_springer(a, u2, W))

    out.append(_check("circ-a-jordan", max(1, trials // 4), circ_a_axioms, rng))
    return out


def _suite_homogeneity(rng, trials):
    out = []
    n = max(1, trials // 4)

    def s_deg(rng, i):
        x = rand_vpoint(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        base = smap.s_map(x, X, Y)
        return all(
            smap.s_map(x.scale(t), X, Y) == base.scale(Fraction(t) ** 8) for t in (2, 3)
        )

    out.append(_check("s-degree-8", n, s_deg, rng))

    def t_deg(rng, i):
        a = rand_albert(rng)
        X, Y, Z = rand_albert(rng), rand_albert(rng), rand_albert(rng)
        base = isotope.t_form(a, X, Y, Z)
        return all(
            isotope.t_form(a.scale(t), X, Y, Z) == Fraction(t) ** 6 * base for t in (2, 3)
        )

    out.append(_check("t-degree-6", n, t_deg, rng))

    def q_deg(rng, i):
        a = rand_albert(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        base = isotope.q_a(a, X, Y)
        return all(
            isotope.q_a(a.scale(t), X, Y) == Fraction(t) ** 4 * base for t in (2, 3)
        )

    out.append(_check("q-degree-4", n, q_deg, rng))

    def phi_deg(rng, i):
        a = rand_albert(rng)
        X, Y = rand_albert(rng), rand_albert(rng)
        base = isotope.phi_a(a, X, Y)
        return all(
            isotope.phi_a(a.scale(t), X, Y) == base.scale(Fraction(t) ** 11)
            for t in (2, 3)
        )

    out.append(_check("phi-a-degree-11", n, phi_deg, rng))

    def delta_deg(rng, i):
        x = rand_vpoint(rng)
        base = delta(x)
        return all(delta(x.scale(t)) == Fraction(t) ** 12 * base for t in (2, 3))

    out.append(_check("delta-degree-12", n, delta_deg, rng))
    return out


def _suite_isomorphism(rng, trials):
    out = []

    def unit_image(rng, i):
        g = rand_group(rng, with_gl2=False)
        a = g.apply_j(E)
        if det_j(a) == 0:
            return False
        X, Y = rand_albert(rng), rand_albert(rng)
        expected = g.apply_j(jordan_mul(X, Y))
        gx, gy = g.apply_j(X), g.apply_j(Y)
        return (
            isotope.circ_a_tform(a, gx, gy) == expected
            and isotope.circ_a_springer(a, gx, gy) == expected
        )

    out.append(_check("product-transport", max(1, trials // 4), unit_image, rng))

    def x_to_a(rng, i):
        # circ_x is the isotope product at a(x) = 81 (k x k) / delta(x); a(w) = e
        x = w_point() if i == 0 else rand_semistable(rng)
        k = smap.k_elem(x)
        d = delta(x)
        a = cross(k, k).scale(81 / d)
        if det_j(k) != d * d / 729 or (i == 0 and a != E):
            return False
        X, Y = rand_albert(rng), rand_albert(rng)
        return smap.circ_x(x, X, Y) == isotope.circ_a_springer(a, X, Y)

    out.append(_check("x-to-a-link", max(1, trials // 4), x_to_a, rng))
    return out


def _suite_errors(rng, trials):
    out = []

    def not_semistable(rng, i):
        try:
            smap.circ_x(VPoint(E, E.scale(0)), E, E)
        except NotSemistable:
            return True
        return False

    out.append(_check("circ-x-rejects-unstable", 1, not_semistable, rng))

    def singular_point(rng, i):
        a = diag_elem(0, 1, 1)
        for fn in (isotope.circ_a_springer, isotope.circ_a_tform):
            try:
                fn(a, E, E)
                return False
            except SingularPoint:
                pass
        try:
            isotope.pairing_a(a, E, E)
            return False
        except SingularPoint:
            return True

    out.append(_check("isotope-rejects-singular", 1, singular_point, rng))

    def singular_matrix(rng, i):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        try:
            solve_exact(m, [Fraction(1), Fraction(0)])
        except SingularMatrix:
            return True
        return False

    out.append(_check("solver-rejects-singular", 1, singular_matrix, rng))
    return out


_SUITES = (
    ("octonion", _suite_octonion),
    ("albert", _suite_albert),
    ("cubic-form", _suite_cubic_form),
    ("cross-duality", _suite_cross_duality),
    ("binary-cubic", _suite_binary_cubic),
    ("smap-base-point", _suite_smap_base_point),
    ("smap-contraction", _suite_smap_contraction),
    ("smap-equivariance", _suite_smap_equivariance),
    ("group-character", _suite_group_character),
    ("isotope-defs", _suite_isotope_defs),
    ("jordan-axioms", _suite_jordan_axioms),
    ("homogeneity", _suite_homogeneity),
    ("isomorphism", _suite_isomorphism),
    ("errors", _suite_errors),
)

SUITE_NAMES = tuple(name for name, _ in _SUITES) + ("all",)


def run_suite(name: str, seed: int = 0, trials: int = 20) -> list:
    """Run one suite (or "all") deterministically; returns CheckResults.

    An unknown name is a ParseError that lists the valid ones. Under "all"
    each check's name is prefixed with its suite's.
    """
    chosen = _SUITES if name == "all" else [s for s in _SUITES if s[0] == name]
    if not chosen:
        raise ParseError("unknown suite %r; choices: %s" % (name, ", ".join(SUITE_NAMES)))
    results = []
    for sub, fn in chosen:
        # string seeds hash stably (unlike tuples under PYTHONHASHSEED)
        rng = random.Random("%d:%s" % (seed, sub))
        prefix = sub + "/" if name == "all" else ""
        results.extend(CheckResult(prefix + r.name, r.passed, r.failed) for r in fn(rng, trials))
    return results
