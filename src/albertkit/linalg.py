"""Exact dense linear algebra over Q.

Matrices are tuples of tuples of Fraction. The solver clears denominators
row by row and then runs fraction-free (Bareiss) elimination over the
integers, which keeps intermediate entries at the size of minors instead of
letting rational numerators and denominators grow independently. It is
the only elimination loop: inv_exact runs it once per unit column.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import SingularMatrix


def mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a, b):
    """a @ b, skipping zero terms: a product of monomial matrices costs O(n^2) Fraction work."""
    bt = tuple(zip(*b))
    zero = Fraction(0)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), zero) for col in bt) for row in a
    )


def _integer_rows(aug):
    """Scale each augmented row by the lcm of its denominators (solution-preserving)."""
    rows = []
    for row in aug:
        mult = lcm(*(x.denominator for x in row))
        rows.append([int(x * mult) for x in row])
    return rows


def solve_exact(m, rhs):
    """Solve m @ u = rhs exactly. Raises SingularMatrix if rank < n."""
    n = len(m)
    if any(len(row) != n for row in m) or len(rhs) != n:
        raise ValueError("need a square system")
    a = _integer_rows(
        [tuple(m[i]) + (rhs[i],) for i in range(n)]
    )

    # Bareiss fraction-free forward elimination; all divisions below are exact.
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise SingularMatrix("rank < %d" % n)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi, rowk = a[i], a[k]
            for j in range(k + 1, n + 1):
                rowi[j] = (akk * rowi[j] - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = akk

    u = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = a[i][n] - sum(a[i][j] * u[j] for j in range(i + 1, n))
        u[i] = Fraction(s, 1) / a[i][i]
    return tuple(u)


def inv_exact(m):
    """Exact inverse, one solve_exact per unit column. Raises SingularMatrix if not invertible."""
    n = len(m)
    cols = [solve_exact(m, [int(i == j) for i in range(n)]) for j in range(n)]
    return tuple(zip(*cols))
