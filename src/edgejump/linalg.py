"""Dense LU determinant over mpmath scalars.

Determinants of moment matrices are transcendental, so exact (fraction-free)
elimination is unavailable; complex LU with partial pivoting at high working
precision is the robust route.  Matrices are plain lists of row lists so the
same code runs on floats, complex, mpf and mpc entries.
"""
from __future__ import annotations

import mpmath as mp

from .precision import PrecisionCtx


def _as_rows(M, ctx: PrecisionCtx | None):
    if ctx is None:
        return [list(row) for row in M]
    return [[mp.mpmathify(x) for x in row] for row in M]


def lu_det(M, ctx: PrecisionCtx | None = None):
    """Determinant by LU with partial pivoting.

    The 0x0 matrix yields 1 (empty-product convention, consistent with the
    zeroth Hankel determinant).  An exactly zero pivot column signals a
    singular matrix and returns exact 0.
    """
    rows = list(M)
    n = len(rows)
    if n == 0:
        return mp.mpf(1) if ctx is not None else 1.0
    if any(len(r) != n for r in rows):
        raise ValueError("lu_det needs a square matrix")

    if ctx is not None:
        with ctx.workprec(10):
            return _lu_det_inner(_as_rows(rows, ctx))
    return _lu_det_inner(_as_rows(rows, None))


def _lu_det_inner(A):
    n = len(A)
    det = A[0][0] * 0 + 1  # one in the entry field
    sign = 1
    for col in range(n):
        piv, pmax = col, abs(A[col][col])
        for r in range(col + 1, n):
            a = abs(A[r][col])
            if a > pmax:
                piv, pmax = r, a
        if pmax == 0:
            return A[0][0] * 0  # exact zero pivot: singular
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            sign = -sign
        p = A[col][col]
        det = det * p
        for r in range(col + 1, n):
            f = A[r][col] / p
            if f != 0:
                Ar, Ac = A[r], A[col]
                for c in range(col + 1, n):
                    Ar[c] -= f * Ac[c]
    return det if sign == 1 else -det
