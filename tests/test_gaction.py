"""Group elements: generators, composition, characters, tilde and mu."""

from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from albertkit.albert import (
    E,
    det_j,
    diag_elem,
    jbasis,
    pair_gram,
    slot_elem,
)
from albertkit.errors import SingularMatrix, ZeroScalar
from albertkit.gaction import (
    GroupElem,
    act_v,
    chi,
    det2,
    diag_conj,
    gl2_elem,
    identity_elem,
    mu,
    perm_elem,
    scalar_elem,
    tilde,
)
from albertkit.jsonio import decode_group, encode_group
from albertkit.linalg import inv_exact, mat_mul, mat_vec
from albertkit.octonion import Oct, oct_conj
from albertkit.pvs import cubic_of, w_point
from albertkit.reference import from_matrix, to_matrix
from albertkit.verify import predicate, rand_albert, rand_group, rand_special, rand_vpoint

character_soundness = predicate("group-character/character-soundness")
chi_law = predicate("group-character/chi-law")
tilde_adjoint = predicate("group-character/tilde-adjoint-involution")
tilde_cross = predicate("group-character/tilde-cross-compat")
act_v_action = predicate("group-character/act-v-is-action")


def test_identity_generators():
    ident = identity_elem()
    assert scalar_elem(1) == ident
    assert diag_conj(1, 1, 1) == ident
    assert perm_elem((1, 2, 3)) == ident
    assert ident.c == 1 and det2(ident.g2) == 1


def test_scalar_elem():
    g = scalar_elem(Fraction(2, 3))
    X = diag_elem(1, 0, 5)
    assert g.apply_j(X) == X.scale(Fraction(2, 3))
    assert g.c == Fraction(8, 27)
    with pytest.raises(ZeroScalar):
        scalar_elem(0)


def test_diag_conj():
    g = diag_conj(2, 3, 5)
    assert g.apply_j(diag_elem(1, 1, 1)) == diag_elem(4, 9, 25)
    c = Oct.from_coords([1, 0, 2, 0, 0, 1, 0, -1])
    assert g.apply_j(slot_elem(1, c)) == slot_elem(1, c.scale(15))
    assert g.apply_j(slot_elem(2, c)) == slot_elem(2, c.scale(10))
    assert g.apply_j(slot_elem(3, c)) == slot_elem(3, c.scale(6))
    assert g.c == 900
    with pytest.raises(ZeroScalar):
        diag_conj(1, 0, 1)


def test_perm_elem():
    g = perm_elem((2, 1, 3))
    c = Oct.from_coords([1, 2, 0, -1, 3, 0, 1, 2])
    assert g.apply_j(diag_elem(1, 2, 3)) == diag_elem(2, 1, 3)
    # a transposition conjugates the octonion entries
    assert g.apply_j(slot_elem(1, c)) == slot_elem(2, oct_conj(c))
    assert g.apply_j(slot_elem(3, c)) == slot_elem(3, oct_conj(c))
    cyc = perm_elem((2, 3, 1))
    assert cyc.apply_j(diag_elem(1, 2, 3)) == diag_elem(2, 3, 1)
    assert cyc.apply_j(slot_elem(1, c)) == slot_elem(3, c)
    assert g.c == 1 and cyc.c == 1
    # entries of any type but int are refused, equal values included
    for sigma in ((1, 1, 3), (1.0, 2.0, 3.0), [2, 3, 1.0], (True, 2, 3), (1, 2, Fraction(3))):
        with pytest.raises(ValueError, match="permutation of"):
            perm_elem(sigma)


def test_perm_elem_matches_matrix_route():
    # the closed-form monomial element of each sigma, against the matrix of the
    # basis images on the octonion-matrix route, for all six permutations
    for sigma in permutations((1, 2, 3)):
        cols = []
        for b in jbasis():
            M = to_matrix(b)
            N = tuple(tuple(M[sigma[i] - 1][sigma[j] - 1] for j in range(3)) for i in range(3))
            cols.append(from_matrix(N).coords())
        g = perm_elem(list(sigma))
        assert g.L == tuple(zip(*cols))
        # one shared element per sigma
        assert perm_elem(sigma) is g and g.c == 1


def test_gl2_elem():
    h = gl2_elem([[0, 1], [1, 0]])
    w = w_point()
    y = act_v(h, w)
    assert y.a == w.b and y.b == w.a
    with pytest.raises(SingularMatrix):
        gl2_elem([[1, 2], [2, 4]])


def test_group_elem_validation():
    ident = identity_elem()
    with pytest.raises(ZeroScalar):
        GroupElem(ident.perm, ident.scales, 0)
    with pytest.raises(SingularMatrix):
        GroupElem(ident.perm, ident.scales, 1, ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        GroupElem((0,) + tuple(range(26)), ident.scales, 1)
    with pytest.raises(ValueError):
        GroupElem(range(26), ident.scales, 1)
    # the permutation is checked before the scales are read or counted
    for scales in ((1,) * 26, ["x"] * 27, [0.5] * 27):
        with pytest.raises(ValueError, match="perm is not a permutation of range\\(27\\)"):
            GroupElem(range(26), scales, 1)
    with pytest.raises(ZeroScalar):
        GroupElem(ident.perm, (0,) + ident.scales[1:], 1)
    # a wrong count of scales is a shape error naming the count, not a zero scale
    for n in (26, 28):
        with pytest.raises(ValueError, match="L needs 27 scales, got %d" % n):
            GroupElem(ident.perm, (1,) * n, 1)
    # g2 must be 2x2: a ragged or short factor is rejected before chi or act_v reads it
    for g2 in ([[1, 0, 7], [0, 1], [5, 5]], [[1, 2]], [[1, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError, match="GL\\(2\\) factor must be 2x2"):
            GroupElem(range(27), (1,) * 27, 1, g2)
    # permutation entries must be ints: floats and bools compare equal to them but index nothing
    with pytest.raises(ValueError):
        GroupElem([float(i) for i in range(27)], (1,) * 27, 1)
    with pytest.raises(ValueError):
        GroupElem([False, True] + list(range(2, 27)), (1,) * 27, 1)
    # the constructor checks the det multiplier too: 2 L multiplies det by 8, and
    # scaling one coordinate alone is no similarity, so no c fits it
    with pytest.raises(ValueError, match="not the det multiplier"):
        GroupElem(range(27), [2] * 27, 1)
    assert GroupElem(range(27), [2] * 27, 8) == scalar_elem(2)
    with pytest.raises(ValueError, match="not the det multiplier"):
        GroupElem(range(27), [1] * 26 + [2], 1)
    # the claimed det multiplier of a word is checked exactly
    g = diag_conj(2, 3, 5) * perm_elem((2, 3, 1))
    assert GroupElem(g.perm, g.scales, g.c, g.g2) == g
    with pytest.raises(ValueError, match="not the det multiplier"):
        GroupElem(g.perm, g.scales, 2 * g.c, g.g2)


def test_group_elem_canonical_form(rng):
    # 27 int numerators over one den > 0 with gcd 1, so equal maps compare and hash equal
    half = scalar_elem(Fraction(2, 4))
    assert half == scalar_elem(Fraction(1, 2)) and hash(half) == hash(scalar_elem(Fraction(1, 2)))
    assert half.nums == (1,) * 27 and half.den == 2
    assert GroupElem(half.perm, [Fraction(3, 6)] * 27, Fraction(1, 8)) == half
    one = scalar_elem(2) * scalar_elem(Fraction(1, 2))
    assert one == identity_elem() and hash(one) == hash(identity_elem()) and one.den == 1
    elems = [rand_group(rng) for _ in range(6)] + [rand_special(rng) for _ in range(2)]
    elems += [f(g) for g in elems for f in (tilde, mu)] + [g * h for g, h in zip(elems, elems[1:])]
    for g in elems:
        assert type(g.nums) is tuple and len(g.nums) == 27 and all(type(n) is int for n in g.nums)
        assert type(g.den) is int and g.den > 0 and gcd(g.den, *g.nums) == 1
        assert g.scales == tuple(Fraction(n, g.den) for n in g.nums)
        assert GroupElem(g.perm, g.scales, g.c, g.g2) == g
    assert any(g.den > 1 for g in elems)


def test_group_ops_make_few_fractions(rng, monkeypatch, count_fractions):
    # the scales and g2 are integers over one denominator, and c and det(g2) are
    # int pairs read off L and g2: apply_j, act_v, compose, tilde and mu make no
    # Fraction, whatever the 27 scales and the 4 entries of g2 are, chi makes
    # one, its value, and decoding the full form makes none
    elems = [rand_group(rng) for _ in range(8)] + [rand_special(rng)] + _wide_elems()
    X, x = rand_albert(rng), rand_vpoint(rng)
    calls = []
    for g, h in zip(elems, elems[1:]):
        calls += [(GroupElem.apply_j, (g, X), 0), (act_v, (g, x), 0), (GroupElem.compose, (g, h), 0)]
        calls += [(tilde, (g,), 0), (mu, (g,), 0), (chi, (g,), 1), (decode_group, (encode_group(g),), 0)]
    want = [f(*args) for f, args, _ in calls]
    counts, got = [], []
    made = count_fractions()
    for f, args, _ in calls:
        made.clear()
        got.append(f(*args))
        counts.append(len(made))
    monkeypatch.undo()
    assert got == want
    assert all(n <= most for n, (_, _, most) in zip(counts, calls))


def test_integer_multipliers_match_fraction_formulas(rng):
    # c, det2, mu and chi from the int pairs against the literal Fraction
    # formulas, over the 63-bit words and random words
    elems = _wide_elems() + [rand_group(rng) for _ in range(12)]
    assert sum(g.g2.den > 1 for g in elems) >= 6
    for g in elems:
        c = det_j(g.apply_j(E))
        (a, b), (p, d) = _rows(g.g2)
        d2 = a * d - b * p
        assert g.c == c and det2(g.g2) == d2
        assert mu(g).L == tuple(tuple(c * d2**2 * v for v in row) for row in g.L)
        assert mu(g).g2 == identity_elem().g2
        assert chi(g) == c**4 * d2**6


def test_character_soundness(rng):
    # c, read off L as det(L e), is the factor det picks up at every X,
    # also for the 63-bit words
    for _ in range(12):
        assert character_soundness(rand_group(rng), rand_albert(rng))
    for g in _wide_elems():
        assert character_soundness(g, rand_albert(rng))


def test_compose_matches_function_composition(rng):
    for _ in range(8):
        g, h = rand_group(rng), rand_group(rng)
        X = rand_albert(rng)
        gh = g * h
        assert gh.apply_j(X) == g.apply_j(h.apply_j(X))
        assert gh.c == g.c * h.c
        assert _rows(gh.g2) == mat_mul(_rows(g.g2), _rows(h.g2))


def test_chi_multiplicative(rng):
    for _ in range(10):
        g, h = rand_group(rng), rand_group(rng)
        assert chi(g * h) == chi(g) * chi(h)
    assert chi(scalar_elem(2)) == 2 ** 12
    assert chi(gl2_elem([[2, 0], [0, 1]])) == 2 ** 6


def test_cubic_transport(rng):
    # F_{gx}(a, b) tracks F_x composed with the 2x2 part, scaled by c
    for _ in range(6):
        g = rand_group(rng)
        x = rand_vpoint(rng)
        fx, fgx = cubic_of(x), cubic_of(act_v(g, x))
        p, q, r, s = g.g2.coords()
        for u, v in ((1, 0), (0, 1), (1, 1), (2, -1)):
            assert fgx.evaluate(u, v) == g.c * fx.evaluate(p * u + r * v, q * u + s * v)


def test_delta_transport(rng):
    for _ in range(8):
        assert chi_law(rand_group(rng), rand_vpoint(rng))
    for g in _wide_elems():
        assert chi_law(g, rand_vpoint(rng))


def test_tilde_is_pairing_adjoint(rng):
    # pair(g X, tilde(g) Y) == pair(X, Y), and tilde(tilde(g)) == g
    for _ in range(8):
        assert tilde_adjoint(rand_group(rng), rand_albert(rng), rand_albert(rng))


def test_tilde_cross_compatibility(rng):
    # norm-preserving elements: applying g inside a cross product
    # matches applying the inverse-adjoint outside
    for _ in range(8):
        g = rand_special(rng)
        assert g.c == 1
        assert tilde_cross(g, rand_albert(rng), rand_albert(rng))


def test_mu_properties(rng):
    basis = jbasis()
    for _ in range(8):
        g, h = rand_group(rng), rand_group(rng)
        m = mu(g)
        assert m.c == chi(g)
        assert m.g2 == identity_elem().g2
        scale = g.c * det2(g.g2) ** 2
        for k in (0, 5, 14):
            assert m.apply_j(basis[k]) == g.apply_j(basis[k]).scale(scale)
        prod = mu(g * h)
        assert prod.L == tuple(tuple(r) for r in mat_mul(mu(g).L, mu(h).L))


def test_act_v_is_group_action(rng):
    for _ in range(8):
        assert act_v_action(rand_group(rng), rand_group(rng), rand_vpoint(rng))
    x = rand_vpoint(rng)
    assert act_v(identity_elem(), x) == x


def _dense_reference_elems(rng):
    """One element of each generator kind, then 8 rand_group words, some with gl2 and perm factors."""
    words = [rand_group(rng) for _ in range(8)]
    assert any(g.perm != identity_elem().perm for g in words)
    assert any(g.g2 != identity_elem().g2 for g in words)
    return [
        scalar_elem(Fraction(-3, 2)),
        diag_conj(2, Fraction(1, 3), -5),
        perm_elem((3, 1, 2)),
        gl2_elem([[1, 2], [3, 5]]),
    ] + words


def _rows(m) -> tuple:
    """The GL(2) factor m as its 2x2 rows of Fractions."""
    a, b, c, d = m.coords()
    return ((a, b), (c, d))


def _wide_elems():
    """Words whose scales have negative and 63-bit numerators over many distinct denominators.

    The last two carry a GL(2) factor with 63-bit numerators over the
    distinct primes 3, 7 and 2^61 - 1: the first composes it with a
    factor over 1, the second with itself.
    """
    big = 2**62 + 135
    d1 = diag_conj(Fraction(-big, 3), Fraction(big - 2, 5), Fraction(-7, 2**61 - 1))
    d2 = diag_conj(Fraction(11, 13), Fraction(-(2**63 - 25), 17), Fraction(19, 23))
    wide2 = gl2_elem([[Fraction(big, 3), Fraction(-(2**63 - 25), 7)], [Fraction(5, 2**61 - 1), big - 4]])
    return [
        d1,
        d1 * perm_elem((2, 3, 1)) * d2,
        scalar_elem(Fraction(-big, 29)) * d2 * gl2_elem([[1, -2], [3, 7]]) * perm_elem((3, 2, 1)),
        wide2 * d1 * gl2_elem([[1, -2], [3, 7]]),
        perm_elem((3, 1, 2)) * wide2 * d2 * wide2,
    ]


def test_monomial_form_matches_dense_reference(rng):
    # the dense 27x27 algebra, kept here as the oracle of the monomial form
    M = pair_gram()
    wide = _wide_elems()
    scales = [s for g in wide for s in g.scales]
    assert any(s < 0 for s in scales) and max(abs(s.numerator) for s in scales).bit_length() >= 63
    assert all(len({s.denominator for s in g.scales}) >= 4 for g in wide)
    assert any(g.g2.den.bit_length() > 61 and max(map(abs, g.g2.nums)).bit_length() > 63 for g in wide)
    elems = _dense_reference_elems(rng) + wide
    for g, h in zip(elems, elems[1:] + elems[:1]):
        L = g.L
        X = rand_albert(rng)
        assert g.apply_j(X).coords() == mat_vec(L, X.coords())
        assert (g * h).L == mat_mul(L, h.L)
        assert tilde(g).L == mat_mul(mat_mul(M, inv_exact(tuple(zip(*L)))), M)
        factor = g.c * det2(g.g2) ** 2
        assert mu(g).L == tuple(tuple(factor * v for v in row) for row in L)
        # g2: the 2x2 product of compose, and act_v as (a LA + b LB, c LA + d LB)
        assert _rows((g * h).g2) == mat_mul(_rows(g.g2), _rows(h.g2))
        (a, b), (c, d) = _rows(g.g2)
        x = rand_vpoint(rng)
        LA, LB = mat_vec(L, x.a.coords()), mat_vec(L, x.b.coords())
        y = act_v(g, x)
        assert y.a.coords() == tuple(a * s + b * t for s, t in zip(LA, LB))
        assert y.b.coords() == tuple(c * s + d * t for s, t in zip(LA, LB))


def _respell(v: str, k: int):
    """Another spelling of the entry v: "-0", "0/7" or 0 for a zero, then p/q doubled or a JSON int."""
    if v == "0":
        return ("-0", "0/7", 0)[k % 3]
    x = Fraction(v)
    if k % 2:
        return int(x) if x.denominator == 1 else v
    return "%d/%d" % (2 * x.numerator, 2 * x.denominator)


def test_full_form_decodes_wide_words():
    # the full form decodes on integers, over the lcm of the column denominators,
    # and so does a respelling of every entry of L, g2 and c
    ints = 0
    for g in _wide_elems() + [perm_elem((2, 1, 3)) * scalar_elem(-3)]:
        doc = encode_group(g)
        assert decode_group(doc) == g
        L = [[_respell(v, 27 * i + j) for j, v in enumerate(row)] for i, row in enumerate(doc["L"])]
        g2 = [[_respell(v, 2 * i + j) for j, v in enumerate(row)] for i, row in enumerate(doc["g2"])]
        assert decode_group({"L": L, "c": _respell(doc["c"], 0), "g2": g2}) == g
        ints += sum(type(v) is int and v != 0 for row in L for v in row)
    assert ints > 0
