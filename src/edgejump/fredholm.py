"""Two determinant engines for the deformed edge statistics.

* ``airy_fredholm_det``: the Airy-kernel Fredholm determinant
  det(1 - kappa^2 K_Ai) on [t, inf), by Nystrom discretization on a
  Gauss-Legendre rule over [t, T].  The discretized kernel matrix is real
  symmetric, so one eigendecomposition per (t, rule) serves every kappa,
  and log-determinants of tiny values stay accurate through log1p sums.

* ``finite_n_det``: the exact finite-n determinant det(1 - kappa^2 K_n) on
  [lambda0, inf) through the rank-n Gram matrix of orthonormal Hermite
  functions.  The Gram matrix has a closed form in the Hermite functions at
  lambda0 and erfc(lambda0), with no quadrature; one body computes it in
  double precision by default, or in big floats under a precision context
  for the high-precision Hankel identity checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
import scipy.linalg
import scipy.special as sps

from .linalg import lu_det
from .precision import PrecisionCtx
from .quadrature import gauss_legendre
from .specfun import hermite_functions, hermite_functions_mp

__all__ = [
    "NystromConfig", "GramMatrix", "TailBoundViolated",
    "airy_fredholm_det", "airy_fredholm_logdet", "hermite_gram", "finite_n_det",
    "airy_kernel_diagonal",
]


#: log of the smallest and largest normal doubles: the range finite_n_det returns.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HUGE = math.log(np.finfo(float).max)


class TailBoundViolated(ValueError):
    """Requested tolerance unreachable at the given truncation point."""


@dataclass(frozen=True)
class NystromConfig:
    """Node count, truncation point and target error for the Airy Nystrom grid."""

    m: int
    T: float
    tol: float = 1e-10

    def __post_init__(self):
        if self.m < 40:
            raise ValueError("need at least 40 quadrature nodes")


def airy_kernel_diagonal(x):
    """K_Ai(x, x) = Ai'(x)^2 - x Ai(x)^2 (confluent limit of the kernel)."""
    ai, aip, _, _ = sps.airy(x)
    return aip * aip - x * ai * ai


def default_nystrom(t: float, tol: float = 1e-10) -> NystromConfig:
    """Truncation T = max(t,0) + 14 and node count scaled to the interval.

    Node density grows once t drops below -12, where the kernel oscillates
    faster and the default budget would lose accuracy.
    """
    T = max(t, 0.0) + 14.0
    m = max(160, int(12 * (T - t)))
    if t < -12:
        m = max(m, int(16 * (T - t)))
    return NystromConfig(m=m, T=T, tol=tol)


def _check_tail(cfg: NystromConfig):
    tail = float(airy_kernel_diagonal(np.array([cfg.T]))[0])
    if not tail < cfg.tol / 10:
        raise TailBoundViolated(
            f"kernel tail {tail:.2e} at T = {cfg.T} exceeds tol/10 = {cfg.tol / 10:.2e}")


def _airy_kernel_matrix(t: float, cfg: NystromConfig) -> np.ndarray:
    """Symmetrized Nystrom matrix sqrt(w_i w_j) K_Ai(x_i, x_j)."""
    rule = gauss_legendre(cfg.m, t, cfg.T)
    x = rule.nodes_array()
    w = rule.weights_array()
    ai, aip, _, _ = sps.airy(x)
    num = np.outer(ai, aip) - np.outer(aip, ai)
    dx = x[:, None] - x[None, :]
    near = np.abs(dx) < 1e-6 * (1.0 + np.abs(x)[:, None])
    np.fill_diagonal(near, True)
    K = np.where(near, 0.0, num / np.where(near, 1.0, dx))
    # near-diagonal pairs: divided difference cancels catastrophically, use
    # the derivative form at the midpoint instead
    idx = np.argwhere(near)
    mid = 0.5 * (x[idx[:, 0]] + x[idx[:, 1]])
    K[idx[:, 0], idx[:, 1]] = airy_kernel_diagonal(mid)
    sw = np.sqrt(w)
    return sw[:, None] * K * sw[None, :]


@lru_cache(maxsize=64)
def _airy_kernel_eigs(t: float, m: int, T: float) -> tuple:
    A = _airy_kernel_matrix(t, NystromConfig(m=m, T=T))
    return tuple(scipy.linalg.eigh(A, eigvals_only=True))


def airy_fredholm_logdet(kappa_sq, t: float, cfg: NystromConfig | None = None) -> complex:
    """log det(1 - kappa^2 K_Ai restricted to [t, inf)).

    The sum of log(1 - z) over z = kappa^2 lambda, lambda the eigenvalues of
    the symmetrized Nystrom matrix; accurate even when the determinant
    underflows toward zero.  The real part is ``log1p(|z|^2 - 2 Re z) / 2``,
    which keeps full relative accuracy for tiny complex z (numpy's complex
    log1p does not), except where |1 - z| < 1/2 and that log1p argument
    would cancel: there it is ``log|1 - z|``.  The imaginary part is
    ``atan2(Im(1 - z), Re(1 - z))``.
    """
    if cfg is None:
        cfg = default_nystrom(t)
    _check_tail(cfg)
    z = complex(kappa_sq) * np.asarray(_airy_kernel_eigs(t, cfg.m, cfg.T))
    one_minus_z = 1 - z  # a +0 imaginary part for real kappa^2
    x = z.real * z.real + z.imag * z.imag - 2 * z.real  # |1 - z|^2 - 1
    log_abs = np.where(x > -0.75, 0.5 * np.log1p(np.maximum(x, -0.75)),
                       np.log(np.abs(one_minus_z)))
    return complex(np.sum(log_abs + 1j * np.arctan2(one_minus_z.imag, one_minus_z.real)))


def airy_fredholm_det(kappa_sq, t: float, cfg: NystromConfig | None = None) -> complex:
    """det(1 - kappa^2 K_Ai restricted to [t, inf)) by Nystrom quadrature."""
    if complex(kappa_sq) == 0:
        return 1.0 + 0j
    return complex(np.exp(airy_fredholm_logdet(kappa_sq, t, cfg)))


@dataclass(frozen=True)
class GramMatrix:
    """G_jk = integral_{lambda0}^inf H_j H_k e^(-x^2) dx, orthonormal Hermite.

    Symmetric with spectrum in [0, 1]; the trace equals the integrated
    diagonal of the rank-n Christoffel-Darboux kernel.
    """

    n: int
    lambda0: float
    entries: np.ndarray  # float64, or object dtype holding mpf

    def eigenvalues(self) -> np.ndarray:
        return scipy.linalg.eigh(np.asarray(self.entries, dtype=float),
                                 eigvals_only=True)

    def trace(self):
        return np.trace(self.entries)


def _gram_closed_form(psi: np.ndarray, g00, sqrt) -> np.ndarray:
    """The Gram matrix from psi_0..psi_n at lambda0 and G_00.

    Runs unchanged on float64 arrays and on object arrays of mpf, with
    ``sqrt`` the matching square root.
    """
    n = psi.size - 1
    r = np.array([sqrt(k / 2) for k in range(n + 1)])
    p = psi[:n]
    dp = r[:n] * np.roll(p, 1) - r[1:] * psi[1:]  # psi_k'; r[0] = 0 drops psi_(-1)
    k = np.arange(n)
    two_dk = 2 * (k[None, :] - k[:, None])
    np.fill_diagonal(two_dk, 1)
    G = (np.outer(p, dp) - np.outer(dp, p)) / two_dk
    steps = np.concatenate(([g00], p[1:] * p[:-1] / (2 * r[1:n])))
    G[k, k] = np.cumsum(steps)
    return G


def hermite_gram(n: int, lambda0: float, ctx: PrecisionCtx | None = None) -> GramMatrix:
    """Gram matrix of the first n orthonormal Hermite functions on [lambda0, inf).

    Closed form, from n + 1 Hermite function values at lambda0 and one
    erfc, with no quadrature: in double precision by default, in big floats
    at ``ctx`` precision.  ``psi_k'' = (x^2 - 2k - 1) psi_k`` makes
    ``W = psi_j psi_k' - psi_j' psi_k`` an antiderivative of
    ``2(j - k) psi_j psi_k``, and
    ``psi_k' = sqrt(k/2) psi_(k-1) - sqrt((k+1)/2) psi_(k+1)``, so

    * ``G_jk = -W(lambda0) / (2(j - k))`` for j != k,
    * ``G_kk = G_(k-1,k-1) + psi_k psi_(k-1)(lambda0) / sqrt(2k)``,
    * ``G_00 = erfc(lambda0) / 2``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if ctx is None:
        lam = float(lambda0)
        psi = hermite_functions(n + 1, np.array([lam]))[:, 0]
        G = _gram_closed_form(psi, sps.erfc(lam) / 2, math.sqrt)
    else:
        with ctx.workprec(10):
            psi = np.array(hermite_functions_mp(n + 1, lambda0, ctx), dtype=object)
            G = _gram_closed_form(psi, mp.erfc(mp.mpf(lambda0)) / 2, mp.sqrt)
    return GramMatrix(n=n, lambda0=float(lambda0), entries=G)


def finite_n_det(n: int, lambda0, kappa_sq, ctx: PrecisionCtx | None = None,
                 gram: GramMatrix | None = None):
    """det(1 - kappa^2 K_n restricted to [lambda0, inf)) via the Hermite Gram matrix.

    Equals the thinned gap generating function sum_k (1-kappa^2)^k E_n(k) and
    the Hankel-determinant ratio of the jump weight.  Double precision by
    default (G is well conditioned), as the exponential of the summed logs of
    1 - kappa^2 lambda_k over the eigenvalues of G; it raises
    ``FloatingPointError`` when |det| underflows or overflows double range
    rather than return +-0 or inf.  Pass ``ctx`` to run the determinant in
    big floats for the exact identity tests.  A ``gram`` passed in must have
    been built for this (n, lambda0).
    """
    if gram is None:
        gram = hermite_gram(n, lambda0, ctx=ctx)
    elif (gram.n, gram.lambda0) != (n, float(lambda0)):
        raise ValueError(f"Gram matrix for (n, lambda0) = ({gram.n}, {gram.lambda0}) "
                         f"passed for ({n}, {float(lambda0)})")
    if ctx is None:
        k2 = complex(kappa_sq)
        with np.errstate(divide="ignore"):  # a zero factor gives log = -inf
            log_det = np.sum(np.log(1.0 - k2 * gram.eigenvalues()))
        if not _LOG_TINY <= log_det.real <= _LOG_HUGE:
            raise FloatingPointError(
                f"det(1 - kappa^2 K_n) at (n, lambda0, kappa^2) = ({n}, {float(lambda0)}, "
                f"{k2}): log|det| comes out as {log_det.real:.6g} in double precision, "
                "outside double range; pass ctx to compute it in big floats")
        return complex(np.exp(log_det))
    with ctx.workprec(10):
        k2 = mp.mpc(kappa_sq)
        A = [[(1 if i == j else 0) - k2 * gram.entries[i, j] for j in range(n)]
             for i in range(n)]
        return lu_det(A, ctx)
