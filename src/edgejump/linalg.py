"""Two dense factorizations: LU over mpmath scalars, unpivoted LDL^T in doubles.

Determinants of moment matrices are transcendental, so exact (fraction-free)
elimination is unavailable; complex LU with partial pivoting at high working
precision is the robust route.  Its matrices are plain lists of row lists,
whose entries it converts to mpf or mpc under an explicit precision context.

``ldlt`` factors a symmetric ``I + cG`` in float64 or complex128 without
pivoting, so its pivots are ratios of consecutive leading minors: the Gram
route of ``weightlab`` and the Airy Nystrom determinant of ``fredholm`` both
read those minors off it.  A real positive-definite ``I + cG`` goes through
LAPACK's Cholesky; a complex or indefinite one through scalar elimination.
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
#: Columns per LAPACK Cholesky block of the positive-definite path.
_CHOLESKY_BLOCK = 64


def ldlt(G: np.ndarray, c) -> np.ndarray:
    """Unpivoted ``I + cG = L diag(1 + e) L^T`` of a symmetric G, packed in one array.

    G is real symmetric or complex symmetric (the transpose, not the
    conjugate transpose), c a real or complex scale, and L is unit lower
    triangular.  The returned array holds L below its diagonal (the unit
    diagonal is implied) and the pivots as ``e = D - 1`` on it; its upper
    triangle is scratch.  e is accumulated apart from the 1, so ``log1p(e)``
    keeps its relative accuracy when cG is tiny.  Pivot k is the ratio of
    the leading minors of orders k + 1 and k.  The array is real when G and
    c are (a complex c with zero imaginary part counts as real).

    Two paths give the same factors.  When G and c are real and the
    Cholesky factorization ``I + cG = C C^T`` succeeds (I + cG positive
    definite; LAPACK on blocks, in place, see ``_cholesky_in_place``), L is
    C with each column divided by its diagonal entry, and each pivot is read
    from the off-diagonal part, ``e_k = cG_kk - sum_(j<k) C_kj^2``.  For a
    complex c or G, or an I + cG that is not positive definite, scalar
    elimination steps run in doubles (see ``_ldlt_blocked``).  Both work in
    place in the array they return, so a factorization holds one matrix
    beside G, not three as a copy handed to ``numpy.linalg.cholesky`` would.

    Either path raises SingularMinor(k + 1) at the first k where
    ``|1 + e_k|`` is at or below ``PIVOT_FLOOR`` times the largest entry of
    ``I + cG``: the leading (k + 1) x (k + 1) minor vanished to double
    precision.
    """
    c = complex(c)
    if c.imag == 0 and not np.iscomplexobj(G):
        c = c.real
    A = c * np.asarray(G)
    n = len(A)
    cg_diag = np.diagonal(A).copy()
    np.fill_diagonal(A, 1 + cg_diag)  # I + cG while the floor is taken, a block of rows at a time
    floor = PIVOT_FLOOR * max((np.abs(A[j:j + _BLOCK]).max() for j in range(0, n, _BLOCK)),
                              default=0.0)
    if np.iscomplexobj(A):
        np.fill_diagonal(A, cg_diag)
    else:
        try:
            _cholesky_in_place(A)
        except np.linalg.LinAlgError:
            A = c * np.asarray(G)  # the failed factorization overwrote part of I + cG
        else:
            d = np.diagonal(A).copy()
            np.fill_diagonal(A, 0.0)
            e = cg_diag - np.einsum("ij,ij->i", A, A)
            small = np.flatnonzero(~(np.abs(1 + e) > floor))
            if small.size:
                raise SingularMinor(int(small[0]) + 1)
            A /= d
            np.fill_diagonal(A, e)
            return A
    return _ldlt_blocked(A, floor)


def _cholesky_in_place(A: np.ndarray) -> None:
    """Overwrite a real symmetric A with its lower Cholesky factor, upper triangle zeroed.

    Blocks of ``_CHOLESKY_BLOCK`` columns, left to right: LAPACK's Cholesky
    of the diagonal block, the panel below it times that factor's inverse
    transpose, then the update of the trailing lower triangle a block of
    columns at a time, so no temporary is larger than a panel.  Raises
    ``numpy.linalg.LinAlgError`` when A is not positive definite, with A
    partly overwritten.
    """
    n = len(A)
    b = _CHOLESKY_BLOCK
    for j0 in range(0, n, b):
        j1 = min(j0 + b, n)
        L11 = np.linalg.cholesky(A[j0:j1, j0:j1])
        A[j0:j1, j0:j1] = L11
        A[j0:j1, j1:] = 0.0
        P = A[j1:, j0:j1]
        P[...] = P @ np.linalg.inv(L11).T  # L21 L11^T = A21
        for k0 in range(j1, n, b):
            A[k0:, k0:k0 + b] -= P[k0 - j1:] @ P[k0 - j1:k0 - j1 + b].T


def _ldlt_blocked(A: np.ndarray, floor: float) -> np.ndarray:
    """``ldlt`` of ``I + A`` in place, by scalar steps and blocked updates.

    Right-looking: scalar steps inside each block of ``_BLOCK`` columns,
    then one matrix product for the trailing update.  The Schur complements
    of ``I + A`` are I plus those of A, so the pivots e are accumulated
    directly.  Raises SingularMinor(k + 1) at the first ``|1 + e_k|`` at or
    below ``floor``.
    """
    n = len(A)
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
