"""Literal routes over Fractions and Octs, the references the integer kernels are tested against.

Only verify, the tests and albert.basis_crosses import this module; no
command runs it.
"""

from __future__ import annotations

from fractions import Fraction

from .albert import E, AlbertElem, cross, trace_j, trilinear_d
from .octonion import Oct, oct_conj, oct_mul, oct_q, trace_prod3
from .smap import SIGNED_TERMS

_HALF = Fraction(1, 2)


def to_matrix(X: AlbertElem):
    """The underlying 3x3 octonion matrix (diagonal entries as scalar octonions)."""
    s1, s2, s3 = X.s
    x1, x2, x3 = X.x
    sc = lambda a: Oct(a, (0, 0, 0), (0, 0, 0), a)
    return (
        (sc(s1), x3, oct_conj(x2)),
        (oct_conj(x3), sc(s2), x1),
        (x2, oct_conj(x1), sc(s3)),
    )


def mat3_mul(A, B):
    row = lambda i, j: oct_mul(A[i][0], B[0][j]) + oct_mul(A[i][1], B[1][j]) + oct_mul(A[i][2], B[2][j])
    return tuple(tuple(row(i, j) for j in range(3)) for i in range(3))


def from_matrix(M) -> AlbertElem:
    """Read a Hermitian octonion matrix back into an AlbertElem (checked)."""
    for i in range(3):
        d = M[i][i]
        if d.nums[0] != d.nums[7] or any(d.nums[1:7]):
            raise ValueError("diagonal entry %d is not scalar" % (i + 1))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if M[j][i] != oct_conj(M[i][j]):
            raise ValueError("matrix is not Hermitian at (%d, %d)" % (i, j))
    return AlbertElem(
        (M[0][0].alpha, M[1][1].alpha, M[2][2].alpha),
        (M[1][2], M[2][0], M[0][1]),
    )


def jordan_via_matrix(X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """(XY + YX)/2 through the octonion matrix product; the reference for jordan_mul."""
    M, N = to_matrix(X), to_matrix(Y)
    P, Q = mat3_mul(M, N), mat3_mul(N, M)
    return from_matrix(
        tuple(tuple((P[i][j] + Q[i][j]).scale(_HALF) for j in range(3)) for i in range(3))
    )


def cross_via_matrix(X: AlbertElem, Y: AlbertElem) -> AlbertElem:
    """The closed form of the cross product on jordan_via_matrix; the reference for cross."""
    m = jordan_via_matrix(X, Y)
    tx, ty = trace_j(X), trace_j(Y)
    ec = (tx * ty - trace_j(m)) * _HALF
    return m - Y.scale(tx * _HALF) - X.scale(ty * _HALF) + E.scale(ec)


def _slot_traces(x, y, z) -> Fraction:
    """The sum of tr((A_1 B_2) C_3) over the six assignments of the triples x, y, z to A, B, C.

    Only this reading, in slot order, is symmetric and agrees with the trace term of det.
    """
    orders = ((x, y, z), (y, x, z), (y, z, x), (x, z, y), (z, x, y), (z, y, x))
    return sum(trace_prod3(A[0], B[1], C[2]) for A, B, C in orders)


def d_expanded(X: AlbertElem, Y: AlbertElem, Z: AlbertElem) -> Fraction:
    """Multilinear expansion of D; the reference for det_table().

    6D = sum over index permutations of s_i t_j u_k
       + sum over argument-to-slot assignments of tr((slot1 slot2) slot3)
       - 2 sum_i [s_i Q(y_i, z_i) + t_i Q(x_i, z_i) + u_i Q(x_i, y_i)].
    """
    s, t, u = X.s, Y.s, Z.s
    x, y, z = X.x, Y.x, Z.x
    acc = _slot_traces(x, y, z)
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        acc += s[i] * t[j] * u[k]
    for i in range(3):
        acc -= 2 * (s[i] * oct_q(y[i], z[i]) + t[i] * oct_q(x[i], z[i]) + u[i] * oct_q(x[i], y[i]))
    return acc / 6


def te_expansion(X: AlbertElem, Y: AlbertElem, Z: AlbertElem) -> Fraction:
    """t_form at a = e, expanded; the reference for isotope.t_form:

    sum_i s_i t_i u_i + (1/2) sum over slot assignments of tr(x_i y_j z_k)
    + (1/2) sum_{i != j} [s_i tr(y_j conj(z_j)) + t_i tr(x_j conj(z_j))
                          + u_i tr(x_j conj(y_j))].
    """
    s, t, u = X.s, Y.s, Z.s
    x, y, z = X.x, Y.x, Z.x
    acc = s[0] * t[0] * u[0] + s[1] * t[1] * u[1] + s[2] * t[2] * u[2] + _slot_traces(x, y, z) / 2
    ts, tt, tu = sum(s), sum(t), sum(u)
    for j in range(3):
        # (1/2) tr(p conj(q)) = Q(p, q)
        acc += (ts - s[j]) * oct_q(y[j], z[j])
        acc += (tt - t[j]) * oct_q(x[j], z[j])
        acc += (tu - u[j]) * oct_q(x[j], y[j])
    return acc


def literal_k(x) -> AlbertElem:
    """The 16-term signed sum of SIGNED_TERMS, sign * D(v2,v5,v7) D(v4,v6,v8) * (v1 x v3); the reference for k_elem."""
    acc = AlbertElem((0, 0, 0))
    ab = (x.a, x.b)
    for sign, picks in SIGNED_TERMS:
        v = [ab[p] for p in picks]
        dd = trilinear_d(v[1], v[4], v[6]) * trilinear_d(v[3], v[5], v[7])
        acc = acc + cross(v[0], v[2]).scale(sign * dd)
    return acc
