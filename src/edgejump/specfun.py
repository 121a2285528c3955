"""Special functions feeding every closed-form expression in the lab.

The Barnes G-function is delegated to mpmath; the half-range Gaussian
moment tables and the orthonormal Hermite function recurrences are
implemented here.  Callers take Airy and Gamma values straight from the
libraries (``scipy.special.airy``, ``mpmath.gamma``), with no wrapper.
Every function here, and the library Airy and Gamma functions, are pinned
down by independent oracles in the test suite (Maclaurin series,
reflection/recursion identities, log-Gamma integral quadrature, big-float
Gauss-Legendre quadrature, Hermite polynomials).
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .precision import PrecisionCtx

__all__ = ["barnes_g", "half_gauss_moments", "hermite_functions", "hermite_functions_mp"]


def barnes_g(z, ctx: PrecisionCtx | None = None):
    """Barnes G-function on the principal branch.

    Satisfies G(z+1) = Gamma(z) G(z) with G(1) = 1; relative error below
    ~1e-12 in the double instantiation.  Only arguments within a unit strip
    of 1 occur in this project, so no branch crossings arise.
    """
    if ctx is None:
        return complex(mp.barnesg(mp.mpc(z)))
    with ctx.workprec(10):
        return mp.barnesg(mp.mpc(z))


def half_gauss_moments(lambda0, K: int, ctx: PrecisionCtx) -> tuple:
    """Half-range Gaussian moments J_0..J_K, integral_{lambda0}^inf x^k e^(-x^2) dx.

    J_0 comes from erfc, J_1 is e^(-lambda0^2)/2, and higher orders follow
    the integration-by-parts recursion
    ``J_k = ((k-1) J_{k-2} + lambda0^(k-1) e^(-lambda0^2)) / 2``,
    which is stable upward for lambda0 >= 0 (all terms positive).  Negative
    cuts are mapped to positive ones by parity against the full moments,
    avoiding cancellation for deep-negative lambda0.  Returns a tuple of
    mpf at ``ctx`` precision.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    with ctx.workprec(20):
        lam = mp.mpf(lambda0)
        if lam < 0:
            pos = _half_moments_nonneg(-lam, K)
            full = [_full_gauss_moment(j) for j in range(K + 1)]
            vals = [full[j] - pos[j] if j % 2 == 0 else full[j] + pos[j]
                    for j in range(K + 1)]
        else:
            vals = _half_moments_nonneg(lam, K)
    with ctx.workprec():
        return tuple(+v for v in vals)


def _full_gauss_moment(j: int):
    """integral_R x^j e^(-x^2) dx: Gamma((j+1)/2) for even j, 0 for odd."""
    if j % 2 == 1:
        return mp.mpf(0)
    return mp.gamma(mp.mpf(j + 1) / 2)


def _half_moments_nonneg(lam, K: int):
    w = mp.exp(-lam * lam)
    vals = [mp.sqrt(mp.pi) * mp.erfc(lam) / 2]
    if K >= 1:
        vals.append(w / 2)
    lam_pow = w  # lambda0^(k-1) e^(-lambda0^2) running product
    for k in range(2, K + 1):
        lam_pow *= lam
        vals.append(((k - 1) * vals[k - 2] + lam_pow) / 2)
    return vals


def hermite_functions(nmax: int, x: np.ndarray) -> np.ndarray:
    """Hermite functions psi_k = H_k(x) e^(-x^2/2) for k = 0..nmax-1.

    The recurrence runs on mantissas with a separate power-of-two exponent
    per point, started from ``e^(-x^2/2) = m 2^e``, so neither the Gaussian
    factor (e^-800 at x = 40) nor the growing polynomial part leaves the
    double range: psi_k is right wherever it is representable.  Returns an
    array of shape (nmax, len(x)).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax, x.size))
    e = np.floor(-0.5 * x * x / math.log(2.0))
    h = np.pi ** -0.25 * np.exp(-0.5 * x * x - e * math.log(2.0))
    e = e.astype(np.int64)
    h_prev = np.zeros_like(x)
    for k in range(nmax):
        out[k] = np.ldexp(h, e)
        h, h_prev = (x * math.sqrt(2.0 / (k + 1)) * h
                     - math.sqrt(k / (k + 1.0)) * h_prev), h
        big = np.abs(h) > 2.0 ** 500
        if big.any():
            shift = np.where(big, np.frexp(h)[1], 0)
            h, h_prev, e = np.ldexp(h, -shift), np.ldexp(h_prev, -shift), e + shift
    return out


def hermite_functions_mp(nmax: int, x, ctx: PrecisionCtx):
    """Big-float Hermite functions at a single point; list of length nmax."""
    with ctx.workprec(10):
        xv = mp.mpf(x)
        vals = [mp.pi ** mp.mpf("-0.25") * mp.exp(-xv * xv / 2)]
        if nmax > 1:
            vals.append(xv * mp.sqrt(2) * vals[0])
        for k in range(1, nmax - 1):
            vals.append(xv * mp.sqrt(mp.mpf(2) / (k + 1)) * vals[k]
                        - mp.sqrt(mp.mpf(k) / (k + 1)) * vals[k - 1])
        return vals
