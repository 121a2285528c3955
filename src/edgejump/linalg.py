"""Two dense factorizations: LU over mpmath scalars, unpivoted LDL^T in doubles.

Determinants of moment matrices are transcendental, so exact (fraction-free)
elimination is unavailable; complex LU with partial pivoting at high working
precision is the robust route.  Its matrices are plain lists of row lists,
whose entries it converts to mpf or mpc under an explicit precision context.

``ldlt`` factors a symmetric ``I + E`` in float64 or complex128 without
pivoting, so its pivots are ratios of consecutive leading minors: the Gram
route of ``weightlab`` and the Airy Nystrom determinant of ``fredholm`` both
read those minors off it.
"""
from __future__ import annotations

import mpmath as mp
import numpy as np

from .precision import PrecisionCtx

__all__ = ["lu_det", "ldlt", "SingularMinor", "PIVOT_FLOOR"]


def lu_det(M, ctx: PrecisionCtx):
    """Determinant by LU with partial pivoting, in big floats at ``ctx`` precision.

    The 0x0 matrix yields 1 (empty-product convention, consistent with the
    zeroth Hankel determinant).  An exactly zero pivot column signals a
    singular matrix and returns exact 0.
    """
    rows = list(M)
    n = len(rows)
    if n == 0:
        return mp.mpf(1)
    if any(len(r) != n for r in rows):
        raise ValueError("lu_det needs a square matrix")
    with ctx.workprec(10):
        return _lu_det_inner([[mp.mpmathify(x) for x in row] for row in rows])


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


class SingularMinor(ArithmeticError):
    """A leading k x k minor vanished.

    For the jump weight this is a Hankel minor H_k; its zeros are meaningful
    for complex beta, not numerical noise, and no regularization is applied.
    Callers should perturb parameters.
    """

    def __init__(self, k: int):
        super().__init__(f"leading minor of order {k} vanished")
        self.k = k


#: Smallest pivot magnitude, relative to the largest entry, that the
#: unpivoted factorization accepts.  A smaller pivot has lost half the double
#: mantissa or more to cancellation, so its leading minor is treated as
#: vanished.
PIVOT_FLOOR = 2.0 ** -26

#: Columns factored by scalar steps before one matrix product updates the rest.
_BLOCK = 32


def ldlt(E: np.ndarray) -> np.ndarray:
    """Unpivoted ``I + E = L diag(1 + e) L^T`` of a symmetric E, packed in one array.

    E is real symmetric or complex symmetric (the transpose, not the
    conjugate transpose), and L is unit lower triangular.  The returned
    array holds L below its diagonal (the unit diagonal is implied) and the
    pivots as ``e = D - 1`` on it; its upper triangle is scratch.  The
    Schur complements of ``I + E`` are ``I`` plus those of E, so e is
    accumulated directly and ``log1p(e)`` keeps its relative accuracy when
    E is tiny.  Pivot k is the ratio of the leading minors of orders k + 1
    and k.

    Right-looking and blocked: scalar steps inside each block of ``_BLOCK``
    columns, then one matrix product for the trailing update.  Raises
    SingularMinor(k + 1) when ``|1 + e_k|`` is at or below ``PIVOT_FLOOR``
    times the largest entry of ``I + E``: the leading (k + 1) x (k + 1) minor
    vanished to double precision.
    """
    A = np.array(E, dtype=complex if np.iscomplexobj(E) else float)
    n = len(A)
    diag = np.diagonal(A).copy()
    np.fill_diagonal(A, 1 + diag)  # I + E while the floor is taken, a block of rows at a time
    floor = PIVOT_FLOOR * max((np.abs(A[j:j + _BLOCK]).max() for j in range(0, n, _BLOCK)),
                              default=0.0)
    np.fill_diagonal(A, diag)
    for j0 in range(0, n, _BLOCK):
        j1 = min(j0 + _BLOCK, n)
        for k in range(j0, j1):
            d = 1 + A[k, k]
            if not abs(d) > floor:
                raise SingularMinor(k + 1)
            col = A[k + 1:, k] / d
            A[k + 1:, k + 1:j1] -= np.outer(col, A[k, k + 1:j1])
            A[k + 1:, k] = col
        L21 = A[j1:, j0:j1]
        A[j1:, j1:] -= (L21 * (1 + np.diagonal(A)[j0:j1])) @ L21.T
    return A
