"""Exact linear algebra: fraction-free elimination and inversion."""

from fractions import Fraction

import pytest

from albertkit.errors import SingularMatrix
from albertkit.linalg import inv_exact, mat_mul, mat_vec, solve_exact


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def test_identity_solve():
    rhs = [Fraction(3, 7), Fraction(-2), Fraction(5, 2)]
    assert solve_exact(identity(3), rhs) == tuple(rhs)


def test_known_system():
    m = [[2, 1], [1, 3]]
    # 2u + v = 5, u + 3v = 10 -> u = 1, v = 3
    assert solve_exact(m, [5, 10]) == (Fraction(1), Fraction(3))


def test_fractional_entries():
    # Hilbert-style matrix: brutal for floating point, trivial for exact arithmetic
    n = 6
    m = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    x = [Fraction(k + 1, 2) for k in range(n)]
    rhs = mat_vec(m, x)
    assert solve_exact(m, rhs) == tuple(x)


def test_random_round_trip(rng):
    for _ in range(10):
        n = rng.randint(1, 8)
        while True:
            m = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)] for _ in range(n)]
            try:
                inv = inv_exact(m)
                break
            except SingularMatrix:
                continue
        assert mat_mul(m, inv) == identity(n)
        assert mat_mul(inv, m) == identity(n)
        x = [Fraction(rng.randint(-9, 9), rng.choice((1, 3))) for _ in range(n)]
        assert solve_exact(m, mat_vec(m, x)) == tuple(x)


def test_singular_raises():
    m = [[1, 2], [2, 4]]
    with pytest.raises(SingularMatrix):
        solve_exact(m, [1, 0])
    with pytest.raises(SingularMatrix):
        inv_exact(m)
    with pytest.raises(SingularMatrix):
        solve_exact([[0]], [1])


def test_pivot_requires_row_swap():
    m = [[0, 1], [1, 0]]
    assert solve_exact(m, [2, 3]) == (Fraction(3), Fraction(2))


def test_mat_vec():
    m = [[1, 2, 3], [4, 5, 6]]
    assert mat_vec(m, [1, 0, -1]) == (-2, -2)
