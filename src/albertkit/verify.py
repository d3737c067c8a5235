"""Seeded, exact verification suites for every identity the package relies on.

A check is a draw and a predicate, registered by `_check` with its suite,
its name and its trial count. `draw(rng, i)` returns trial i's inputs and
`body(*inputs) -> bool` tests them: the body sees neither the rng nor the
trial index, so `predicate("suite/check")` hands the same identity to any
caller with inputs of its own. The count derives from `--trials`: `trials`
itself, `max(least, trials // per)` (optionally capped), or a fixed
enumeration. `run_suite` walks the registry with one seeded rng per suite,
the only caller of a draw, and counts exact successes. Nothing is
approximate: a single failed comparison fails the check. Suites are
deterministic functions of (seed, trials).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Callable, NamedTuple

from . import gaction, isotope, smap
from .albert import (
    AlbertElem,
    E,
    _elem,
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
    _reduced,
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


def _draw(rng: random.Random) -> tuple:
    """One coordinate's draw: a numerator in -3..3, then a denominator from _DENOMS."""
    return rng.randint(-3, 3), rng.choice(_DENOMS)


def _rand_value(cls, rng: random.Random, n: int):
    """The cls value of n drawn coordinates, in order, as ints over the lcm of their denominators."""
    draws = [_draw(rng) for _ in range(n)]
    den = lcm(*[d for _, d in draws])
    return _reduced(cls, [p * (den // d) for p, d in draws], den)


def rand_rat_nonzero(rng: random.Random) -> Fraction:
    while True:
        n, d = _draw(rng)
        if n:
            return Fraction(n, d)


def rand_oct(rng: random.Random) -> Oct:
    return _rand_value(Oct, rng, 8)


def rand_albert(rng: random.Random) -> AlbertElem:
    return _rand_value(AlbertElem, rng, 27)


def rand_invertible(rng: random.Random) -> AlbertElem:
    while True:
        a = rand_albert(rng)
        if det_j(a) != 0:
            return a


def rand_singular(rng: random.Random) -> AlbertElem:
    """A random a with det(a) = 0: det is affine in the first diagonal coordinate, which is solved for."""
    e1 = diag_elem(1, 0, 0)
    while True:
        a = rand_albert(rng)
        a = a - e1.scale(a.s[0])
        r = det_j(a)
        c = det_j(a + e1) - r
        if c != 0:
            return a - e1.scale(r / c)


def rand_vpoint(rng: random.Random) -> VPoint:
    return VPoint(rand_albert(rng), rand_albert(rng))


def rand_semistable(rng: random.Random) -> VPoint:
    while True:
        x = rand_vpoint(rng)
        if is_semistable(x):
            return x


# a GL(2) factor's four entries lie over four distinct ones of these primes, so
# the denominators of two factors seldom agree and a mix-up between them shows
_GL2_PRIMES = (2, 3, 5, 7, 11, 13)


def _rand_gl2(rng: random.Random):
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3), p) for p in rng.sample(_GL2_PRIMES, 4))
        if a * d - b * c != 0:
            return ((a, b), (c, d))


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


def rand_group(rng: random.Random, with_gl2: bool = True) -> gaction.GroupElem:
    """A word of one to three generators."""
    g = rand_generator(rng, with_gl2)
    for _ in range(rng.randint(0, 2)):
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


def _cells(n: int):
    """A sampler of n random (row, column) cells of the 27 x 27 basis table."""
    return lambda rng: [(rng.randrange(27), rng.randrange(27)) for _ in range(n)]


def _w_or_semistable(rng: random.Random, at_w: bool) -> VPoint:
    """The base point w when at_w, else a random semistable point (drawing nothing at w)."""
    return w_point() if at_w else rand_semistable(rng)


def _zorn_pair(rng: random.Random, i: int) -> tuple:
    """The draw of the 64 ordered pairs of Zorn basis octonions, one per trial."""
    return ZORN_BASIS[i // 8], ZORN_BASIS[i % 8]


# words of generators without a gl2 factor, which act on J alone
_rand_j_group = partial(rand_group, with_gl2=False)


# -- the registry ------------------------------------------------------------

# suite -> [(check name, trial count as a function of trials, draw, body)]; both
# the suites and their checks keep registration order, which fixes each suite's
# rng stream and so every result
_REGISTRY: dict = {}


def _of(*samplers):
    """The draw that calls each sampler once on the rng, in order, at every trial."""
    return lambda rng, i: tuple(s(rng) for s in samplers)


def _check(
    suite: str,
    name: str,
    draw: Callable[[random.Random, int], tuple],
    per: int = 1,
    cap: int | None = None,
    least: int = 1,
    fixed: int | None = None,
):
    """Register `body(*draw(rng, i)) -> bool` as check `name` of `suite`.

    It runs `fixed` trials when given, else `trials` itself when `per` is 1,
    else `max(least, trials // per)`, capped at `cap` when given.
    """

    def count(trials: int) -> int:
        if fixed is not None:
            return fixed
        if per == 1:
            return trials
        n = trials // per
        return max(least, n if cap is None else min(n, cap))

    def register(body: Callable[..., bool]):
        _REGISTRY.setdefault(suite, []).append((name, count, draw, body))
        return body

    return register


def predicate(name: str) -> Callable[..., bool]:
    """The body registered as "suite/check": a pure predicate of that check's inputs."""
    suite, _, check = name.partition("/")
    for entry in _REGISTRY.get(suite, ()):
        if entry[0] == check:
            return entry[3]
    raise ValueError("unknown check %r" % (name,))


def _same(f, g):
    """The predicate f(*inputs) == g(*inputs): two routes to one value."""
    return lambda *inputs: f(*inputs) == g(*inputs)


def _raises(error, f, *args) -> bool:
    """f(*args) raises `error`; any other exception propagates."""
    try:
        f(*args)
    except error:
        return True
    return False


@_check("octonion", "norm-multiplicative-basis", _zorn_pair, fixed=64)
def _norm_mul(x, y):
    return oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)


_check("octonion", "norm-multiplicative-random", _of(rand_oct, rand_oct))(_norm_mul)


@_check("octonion", "conjugation", _of(rand_oct))
def _conj(x):
    return (
        oct_mul(x, oct_conj(x)) == OCT_UNIT.scale(oct_norm(x))
        and x + oct_conj(x) == OCT_UNIT.scale(oct_trace(x))
    )


@_check("octonion", "quadratic-relation", _of(rand_oct))
def _quad(x):
    lhs = oct_mul(x, x) - x.scale(oct_trace(x)) + OCT_UNIT.scale(oct_norm(x))
    return lhs.is_zero()


@_check("octonion", "q-form", _of(rand_oct, rand_oct))
def _q(x, y):
    return 2 * oct_q(x, y) == oct_trace(oct_mul(x, oct_conj(y))) and oct_q(x, x) == oct_norm(x)


@_check("albert", "commutative", _of(rand_albert, rand_albert))
def _comm(X, Y):
    return jordan_mul(X, Y) == jordan_mul(Y, X)


@_check("albert", "unit", _of(rand_albert))
def _unit(X):
    return jordan_mul(E, X) == X


@_check("albert", "jordan-identity", _of(rand_albert, rand_albert))
def _jid(X, Y):
    x2 = jordan_mul(X, X)
    return jordan_mul(x2, jordan_mul(X, Y)) == jordan_mul(X, jordan_mul(x2, Y))


@_check("albert", "trace-associative", _of(*[rand_albert] * 3))
def _trace_assoc(X, Y, Z):
    return pair(jordan_mul(X, Y), Z) == pair(X, jordan_mul(Y, Z))


_check("albert", "matrix-product-path", _of(rand_albert, rand_albert))(_same(jordan_via_matrix, jordan_mul))


@_check("cubic-form", "det-anchors", _of(), fixed=1)
def _det_anchors():
    return det_j(E) == 1 and trilinear_d(E, E, E) == 1 and det_j(diag_elem(1, 1, 0)) == 0


_check("cubic-form", "polarization-match", _of(*[rand_albert] * 3))(_same(trilinear_d, d_expanded))


@_check("cubic-form", "d-symmetric", _of(*[rand_albert] * 3))
def _symm(X, Y, Z):
    d = trilinear_d(X, Y, Z)
    return (
        d == trilinear_d(Y, X, Z)
        and d == trilinear_d(Z, Y, X)
        and d == trilinear_d(X, Z, Y)
    )


@_check("cubic-form", "det-of-sum", _of(rand_albert, rand_albert))
def _det_sum(X, Y):
    return det_j(X + Y) == det_j(X) + 3 * trilinear_d(X, X, Y) + 3 * trilinear_d(
        X, Y, Y
    ) + det_j(Y)


@_check("cross-duality", "pair-cross-duality", _of(*[rand_albert] * 3))
def _duality(X, Y, Z):
    # pair(X x Y, Z) = 3 D(X, Y, Z), with D read off det by polarization: trilinear_d
    # itself is pair(X x Y, Z)/3, so comparing with it would test nothing
    polar = det_j(X + Y + Z) - det_j(X + Y) - det_j(Y + Z) - det_j(Z + X) + det_j(X) + det_j(Y) + det_j(Z)
    return 2 * pair(cross(X, Y), Z) == polar


@_check("cross-duality", "adjoint-identity", _of(rand_albert))
def _adjoint(X):
    return jordan_mul(X, cross(X, X)) == E.scale(det_j(X))


@_check("cross-duality", "unit-cross", _of(), fixed=1)
def _unit_cross():
    return cross(E, E) == E


@_check("cross-duality", "trace-of-cross", _of(rand_albert, rand_albert))
def _trace_cross(X, Y):
    return trace_j(cross(X, Y)) == (trace_j(X) * trace_j(Y) - pair(X, Y)) / 2


@_check("binary-cubic", "w-anchors", _of(), fixed=1)
def _w_anchors():
    w = w_point()
    f = cubic_of(w)
    return (
        f.coeffs() == (0, 1, -1, 0)
        and delta(w) == 1
        and is_semistable(w)
        and f.evaluate(1, 1) == 0
    )


@_check("binary-cubic", "degenerate-points", _of(rand_albert), per=4)
def _degenerate(a):
    return delta(VPoint(a, a)) == 0 and not is_semistable(VPoint(E, E.scale(0)))


@_check("smap-base-point", "phi1-at-w", _of(rand_albert, rand_albert))
def _phi1_w(X, Y):
    lhs = smap.phi1(w_point(), X, Y).scale(-18)
    rhs = (
        jordan_mul(X, Y)
        - X.scale(trace_j(Y) / 2)
        - Y.scale(trace_j(X) / 2)
    )
    return lhs == rhs


@_check("smap-base-point", "phi2-at-w", _of(rand_albert, rand_albert))
def _phi2_w(X, Y):
    return smap.phi2(w_point(), X, Y).scale(3) == X.scale(trace_j(Y)) + Y.scale(trace_j(X))


_check("smap-base-point", "s-at-w", _of(rand_albert, rand_albert))(
    _same(partial(smap.s_map, w_point()), jordan_mul)
)
_check("smap-base-point", "circ-at-w", _of(rand_albert, rand_albert))(
    _same(partial(smap.circ_x, w_point()), jordan_mul)
)


@_check("smap-contraction", "literal-vs-contracted", _of(rand_vpoint, rand_albert, rand_albert), per=2)
def _recombine(x, X, Y):
    direct = smap.phi1(x, X, Y).scale(-18) + smap.phi2(x, X, Y).scale(Fraction(3, 2))
    return smap.s_map(x, X, Y) == direct


def _slot_row(t, r, c) -> AlbertElem:
    """Row (r, c) of the tensor t, read at the slot bytes encode_stensor prints from."""
    values = smap.slot_values(t.kn)
    return _elem([values[s] for s in smap._slot_rows()[r * 27 + c]], t.den)


@_check("smap-contraction", "tensor-matches-smap", _of(rand_vpoint, _cells(6)), per=6, cap=4)
def _tensor_rows(x, cells):
    t = smap.structure_tensor(x)
    basis = jbasis()
    return all(_slot_row(t, r, c) == smap.s_map(x, basis[r], basis[c]) for r, c in cells)


@_check("smap-contraction", "argument-swap", _of(rand_vpoint, rand_albert, rand_albert), per=2)
def _swap(x, X, Y):
    return smap.s_map(VPoint(x.b, x.a), X, Y) == smap.s_map(x, X, Y)


@_check("smap-contraction", "repeated-point-vanishes", _of(*[rand_albert] * 3), per=2)
def _diagonal_zero(a, X, Y):
    x = VPoint(a, a)
    return smap.phi1(x, X, Y).is_zero() and smap.phi2(x, X, Y).is_zero()


# at least two trials, because k(w) = E/9 has 24 zero coordinates: a slot-row
# fault that touches only octonion coordinates of k passes at w
@_check(
    "smap-contraction",
    "tensor-is-isotope",
    lambda rng, i: (_w_or_semistable(rng, i == 0),),
    per=10,
    least=2,
)
def _tensor_isotope(x):
    # all 378 unordered basis pairs against delta(x) circ_a_springer(a(x), b_i, b_j),
    # a(x) = 81 k#/delta(x), with k the literal signed sum: this route shares
    # neither the slot rows nor the Hessian form of k_elem
    t = smap.structure_tensor(x)
    d = delta(x)
    k = literal_k(x)
    a = cross(k, k).scale(81 / d)
    basis = jbasis()
    return all(
        _slot_row(t, r, c) == isotope.circ_a_springer(a, basis[r], basis[c]).scale(d)
        for r in range(27)
        for c in range(r, 27)
    )


_group_point_pair = _of(rand_group, rand_vpoint, rand_albert, rand_albert)


def _equivariant(f, g, x, X, Y) -> bool:
    """f(g x; g X, g Y) == c^3 det(g2)^4 g f(x; X, Y), the law of S, phi1 and phi2."""
    factor = g.c**3 * gaction.det2(g.g2) ** 4
    return f(gaction.act_v(g, x), g.apply_j(X), g.apply_j(Y)) == g.apply_j(f(x, X, Y)).scale(factor)


@_check("smap-equivariance", "phi-equivariance", _group_point_pair, per=2)
def _phi_law(g, x, X, Y):
    return all(_equivariant(phi, g, x, X, Y) for phi in (smap.phi1, smap.phi2))


@_check("smap-equivariance", "s-equivariance", _group_point_pair)
def _s_law(g, x, X, Y):
    return _equivariant(smap.s_map, g, x, X, Y)


@_check(
    "smap-equivariance",
    "gl2-factor-degree-4",
    _of(lambda rng: gaction.gl2_elem(_rand_gl2(rng)), rand_vpoint, rand_albert, rand_albert),
    per=2,
)
def _gl2_only(g, x, X, Y):
    lhs = smap.s_map(gaction.act_v(g, x), X, Y)
    return lhs == smap.s_map(x, X, Y).scale(gaction.det2(g.g2) ** 4)


@_check(
    "smap-equivariance",
    "normalized-isomorphism",
    lambda rng, i: (rand_group(rng), _w_or_semistable(rng, i % 3 == 0), rand_albert(rng), rand_albert(rng)),
    per=2,
)
def _mu_law(g, x, X, Y):
    gx = gaction.act_v(g, x)
    if not is_semistable(gx):
        return False
    m = gaction.mu(g)
    lhs = smap.circ_x(gx, m.apply_j(X), m.apply_j(Y))
    return lhs == m.apply_j(smap.circ_x(x, X, Y))


@_check("group-character", "character-soundness", _of(rand_group, rand_albert))
def _soundness(g, X):
    return det_j(g.apply_j(X)) == g.c * det_j(X)


@_check("group-character", "chi-law", _of(rand_group, rand_vpoint))
def _chi_law(g, x):
    return delta(gaction.act_v(g, x)) == gaction.chi(g) * delta(x)


@_check("group-character", "tilde-adjoint-involution", _of(rand_group, rand_albert, rand_albert), per=4)
def _tilde_adjoint(g, X, Y):
    gt = gaction.tilde(g)
    return pair(g.apply_j(X), gt.apply_j(Y)) == pair(X, Y) and gaction.tilde(gt) == g


@_check("group-character", "tilde-cross-compat", _of(rand_special, rand_albert, rand_albert), per=4)
def _tilde_cross(g, X, Y):
    gt = gaction.tilde(g)
    return g.apply_j(cross(X, Y)) == cross(gt.apply_j(X), gt.apply_j(Y))


@_check("group-character", "double-cross-scaling", _of(_rand_j_group, *[rand_albert] * 4), per=2)
def _double_cross(g, X, Y, Z, W):
    lhs = g.apply_j(cross(cross(X, Y), cross(Z, W)))
    rhs = cross(
        cross(g.apply_j(X), g.apply_j(Y)), cross(g.apply_j(Z), g.apply_j(W))
    ).scale(1 / g.c)
    return lhs == rhs


@_check("group-character", "mu-chi-multiplicative", _of(rand_group, rand_group), per=2)
def _mu_hom(g, h):
    gh = g.compose(h)
    return (
        gaction.mu(gh) == gaction.mu(g).compose(gaction.mu(h))
        and gaction.chi(gh) == gaction.chi(g) * gaction.chi(h)
    )


@_check("group-character", "scalar-character", _of(rand_rat_nonzero), per=4)
def _scalar_chi(t):
    return gaction.chi(gaction.scalar_elem(t)) == t**12


def _twisted_words(rng: random.Random, i: int) -> tuple:
    """Two words, each a gl2 factor after a J word, whose GL(2) parts do not commute, and a point.

    act_v applying g2 transposed would act by h2^T g2^T for g.compose(h)
    but by g2^T h2^T in turn, so it fails at every trial, not only when
    two random words happen to carry such factors. Each word is
    gl2_elem(m).compose(j), whose g2 product m 1 keeps m's denominator
    as the left operand's; as the two words' denominators differ, a GL(2)
    product over the wrong operand's denominator shows in g.compose(h).
    """
    while True:
        g, h = (gaction.gl2_elem(_rand_gl2(rng)).compose(_rand_j_group(rng)) for _ in range(2))
        if g.compose(h).g2 != h.compose(g).g2:
            return g, h, rand_vpoint(rng)


@_check("group-character", "act-v-is-action", _twisted_words)
def _act_v_action(g, h, x):
    return gaction.act_v(g.compose(h), x) == gaction.act_v(g, gaction.act_v(h, x))


@_check("isotope-defs", "tform-at-unit", _of(*[rand_albert] * 3))
def _tform_e(X, Y, Z):
    t = isotope.t_form(E, X, Y, Z)
    return t == trace_j(jordan_mul(jordan_mul(X, Y), Z)) and t == trace_j(
        jordan_mul(X, jordan_mul(Y, Z))
    )


_check("isotope-defs", "te-expansion-match", _of(*[rand_albert] * 3))(
    _same(partial(isotope.t_form, E), te_expansion)
)
_check("isotope-defs", "qa-at-unit", _of(rand_albert, rand_albert))(_same(partial(isotope.q_a, E), pair))
_check("isotope-defs", "springer-at-unit", _of(rand_albert, rand_albert))(
    _same(partial(isotope.circ_a_springer, E), jordan_mul)
)
_check("isotope-defs", "two-definitions-agree", _of(rand_invertible, rand_albert, rand_albert), per=4)(
    _same(isotope.circ_a_tform, isotope.circ_a_springer)
)


@_check("isotope-defs", "gram-fast-path", _of(rand_invertible, _cells(8)), per=6, cap=4)
def _gram_path(a, cells):
    gram = isotope.gram_qa(a)
    basis = jbasis()
    return all(gram[r][c] == isotope.q_a(a, basis[r], basis[c]) for r, c in cells)


@_check("isotope-defs", "defining-equation", _of(rand_invertible, *[rand_albert] * 3), per=6)
def _pairing_tform_link(a, X, Y, Z):
    u = isotope.circ_a_tform(a, X, Y)
    return isotope.q_a(a, u, Z) == isotope.t_form(a, X, Y, Z) / det_j(a)


@_check("isotope-defs", "adjoint-identity", _of(rand_albert, rand_invertible, rand_singular))
def _adjoint_identity(u, *index):
    # a# x (a x u) = (det(a) u + pair(a#, u) a) / 4 at each a of index, invertible
    # or not: with it the t_form equation reduces to the isotope kernel at a#,
    # which circ_a_tform evaluates
    for a in index:
        a_sharp = cross(a, a)
        rhs = (u.scale(det_j(a)) + a.scale(pair(a_sharp, u))).scale(Fraction(1, 4))
        if cross(a_sharp, cross(a, u)) != rhs:
            return False
    return True


def _is_jordan(mul, U, W) -> bool:
    """mul is commutative at (U, W) and satisfies the Jordan identity there."""
    if mul(U, W) != mul(W, U):
        return False
    u2 = mul(U, U)
    return mul(u2, mul(U, W)) == mul(U, mul(u2, W))


@_check("jordan-axioms", "circ-x-jordan", _of(rand_semistable, rand_albert, rand_albert), per=2)
def _circ_x_axioms(x, U, W):
    return _is_jordan(partial(smap.circ_x, x), U, W)


@_check("jordan-axioms", "circ-a-jordan", _of(rand_invertible, rand_albert, rand_albert), per=4)
def _circ_a_axioms(a, U, W):
    return _is_jordan(partial(isotope.circ_a_springer, a), U, W)


def _degree(k: int, f):
    """The predicate f(t a, *rest) == t^k f(a, *rest) at t = 2 and 3."""

    def body(a, *rest):
        base = f(a, *rest)
        return all(f(a.scale(t), *rest) == Fraction(t) ** k * base for t in (2, 3))

    return body


_check("homogeneity", "s-degree-8", _of(rand_vpoint, rand_albert, rand_albert), per=4)(_degree(8, smap.s_map))
_check("homogeneity", "t-degree-6", _of(*[rand_albert] * 4), per=4)(_degree(6, isotope.t_form))
_check("homogeneity", "q-degree-4", _of(*[rand_albert] * 3), per=4)(_degree(4, isotope.q_a))
_check("homogeneity", "phi-a-degree-11", _of(*[rand_albert] * 3), per=4)(_degree(11, isotope.phi_a))
_check("homogeneity", "delta-degree-12", _of(rand_vpoint), per=4)(_degree(12, delta))


@_check("isomorphism", "product-transport", _of(_rand_j_group, rand_albert, rand_albert), per=4)
def _unit_image(g, X, Y):
    a = g.apply_j(E)
    if det_j(a) == 0:
        return False
    expected = g.apply_j(jordan_mul(X, Y))
    gx, gy = g.apply_j(X), g.apply_j(Y)
    return (
        isotope.circ_a_tform(a, gx, gy) == expected
        and isotope.circ_a_springer(a, gx, gy) == expected
    )


@_check(
    "isomorphism",
    "x-to-a-link",
    lambda rng, i: (_w_or_semistable(rng, i == 0), rand_albert(rng), rand_albert(rng)),
    per=4,
)
def _x_to_a(x, X, Y):
    # circ_x is the isotope product at a(x) = 81 (k x k) / delta(x), with
    # a(x)# = 9 k and det(a(x)) = delta(x); a(w) = e
    k = smap.k_elem(x)
    d = delta(x)
    a = cross(k, k).scale(81 / d)
    if det_j(k) != d * d / 729 or cross(a, a) != k.scale(9) or det_j(a) != d or (x == w_point() and a != E):
        return False
    return smap.circ_x(x, X, Y) == isotope.circ_a_springer(a, X, Y)


@_check("errors", "circ-x-rejects-unstable", _of(), fixed=1)
def _not_semistable():
    return _raises(NotSemistable, smap.circ_x, VPoint(E, E.scale(0)), E, E)


@_check("errors", "isotope-rejects-singular", _of(), fixed=1)
def _singular_point():
    a = diag_elem(0, 1, 1)
    fns = (isotope.circ_a_springer, isotope.circ_a_tform, isotope.pairing_a)
    return all(_raises(SingularPoint, fn, a, E, E) for fn in fns)


@_check("errors", "solver-rejects-singular", _of(), fixed=1)
def _singular_matrix():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    return _raises(SingularMatrix, solve_exact, m, [Fraction(1), Fraction(0)])


# -- the runner --------------------------------------------------------------

SUITE_NAMES = tuple(_REGISTRY) + ("all",)


def _trial(draw, body, rng: random.Random, i: int) -> bool:
    """Trial i of one check; an exception from the draw or the predicate fails it."""
    try:
        return bool(body(*draw(rng, i)))
    except Exception:
        return False


def run_suite(name: str, seed: int = 0, trials: int = 20) -> list:
    """Run one suite (or "all") deterministically; returns CheckResults.

    An unknown name is a ParseError that lists the valid ones, and trials
    below 1 a ValueError: a check that runs no trial would report ok.
    Under "all" each check's name is prefixed with its suite's. A draw or
    predicate that raises fails its trial, so a fault that raises in one
    check still leaves every other check reported.
    """
    if name != "all" and name not in _REGISTRY:
        raise ParseError("unknown suite %r; choices: %s" % (name, ", ".join(SUITE_NAMES)))
    if trials < 1:
        raise ValueError("trials must be at least 1, got %r" % (trials,))
    results = []
    for suite in _REGISTRY if name == "all" else (name,):
        # string seeds hash stably (unlike tuples under PYTHONHASHSEED)
        rng = random.Random("%d:%s" % (seed, suite))
        prefix = suite + "/" if name == "all" else ""
        for check, count, draw, body in _REGISTRY[suite]:
            runs = range(count(trials))
            passed = sum(1 for i in runs if _trial(draw, body, rng, i))
            results.append(CheckResult(prefix + check, passed, len(runs) - passed))
    return results
