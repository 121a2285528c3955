"""Special functions feeding every closed-form expression in the lab.

Airy Ai/Ai', the complex Gamma function, the Barnes double-Gamma function and
the complementary error function are delegated to mpmath (double-precision
vector paths use scipy); the half-range Gaussian moment tables and the
orthonormal Hermite recurrences are implemented here.  Every delegated
function is still pinned down by independent oracles in the test suite
(Maclaurin series, defining ODE residuals, reflection/recursion identities,
log-Gamma integral quadrature).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import scipy.special as sps

from .precision import PrecisionCtx

__all__ = [
    "airy_ai", "airy_ai_prime", "gamma_complex", "barnes_g",
    "half_gauss_moments", "HalfMomentTable", "hermite_orthonormal",
    "hermite_functions", "PrecisionExhausted", "PoleAtNonpositiveInteger",
]


class PrecisionExhausted(ArithmeticError):
    """The requested argument needs more guard bits than the context allows."""


class PoleAtNonpositiveInteger(ZeroDivisionError):
    """Gamma evaluated at 0, -1, -2, ..."""


# A deep-negative Airy evaluation cancels ~ |x|^(3/2) bits; cap the implied
# internal precision at this many bits beyond the context.
_AIRY_GUARD_CAP = 1 << 16


def _airy_guard_bits(x: float) -> int:
    if x >= 0:
        return 16
    return 16 + int(3.0 * abs(x) ** 1.5 / math.log(2))


def airy_ai(x, ctx: PrecisionCtx | None = None):
    """Airy function Ai(x) for real x, |x| <= 1e4.

    With ``ctx`` the value is an mpf with relative error below
    2^(32 - bits) for x >= -50; without a context it is a float64 from
    scipy.
    """
    xf = float(x)
    if abs(xf) > 1e4:
        raise ValueError("airy_ai restricted to |x| <= 1e4")
    if ctx is None:
        return sps.airy(xf)[0]
    guard = _airy_guard_bits(xf)
    if guard > _AIRY_GUARD_CAP + ctx.bits:
        raise PrecisionExhausted(
            f"Ai({xf}) needs ~{guard} guard bits, beyond this context")
    with ctx.workprec(guard):
        v = mp.airyai(mp.mpf(x))
    with ctx.workprec():
        return +v


def airy_ai_prime(x, ctx: PrecisionCtx | None = None):
    """Derivative Ai'(x); same contract as :func:`airy_ai`."""
    xf = float(x)
    if abs(xf) > 1e4:
        raise ValueError("airy_ai_prime restricted to |x| <= 1e4")
    if ctx is None:
        return sps.airy(xf)[1]
    guard = _airy_guard_bits(xf)
    if guard > _AIRY_GUARD_CAP + ctx.bits:
        raise PrecisionExhausted(
            f"Ai'({xf}) needs ~{guard} guard bits, beyond this context")
    with ctx.workprec(guard):
        v = mp.airyai(mp.mpf(x), derivative=1)
    with ctx.workprec():
        return +v


def gamma_complex(z, ctx: PrecisionCtx | None = None):
    """Gamma(z) for complex z off the nonpositive integers.

    Double instantiation keeps relative error below ~1e-14; reflection and
    argument shifts for Re z < 1/2 are handled by the backend.
    """
    zc = complex(z) if ctx is None else mp.mpc(z)
    if zc.real <= 0 and zc.imag == 0 and float(zc.real) == int(zc.real):
        raise PoleAtNonpositiveInteger(f"Gamma pole at z = {zc}")
    if ctx is None:
        return sps.gamma(complex(zc))
    with ctx.workprec(10):
        return mp.gamma(zc)


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


@dataclass(frozen=True)
class HalfMomentTable:
    """J_k = integral_{lambda0}^inf x^k e^(-x^2) dx for k = 0..K."""

    lambda0: float
    values: tuple

    def __getitem__(self, k: int):
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def half_gauss_moments(lambda0, K: int, ctx: PrecisionCtx | None = None) -> HalfMomentTable:
    """Half-range Gaussian moments J_0..J_K at arbitrary precision.

    J_0 comes from erfc, J_1 is e^(-lambda0^2)/2, and higher orders follow
    the integration-by-parts recursion
    ``J_k = ((k-1) J_{k-2} + lambda0^(k-1) e^(-lambda0^2)) / 2``,
    which is stable upward for lambda0 >= 0 (all terms positive).  Negative
    cuts are mapped to positive ones by parity against the full moments,
    avoiding cancellation for deep-negative lambda0.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if ctx is None:
        ctx_eff = PrecisionCtx(64)
        table = half_gauss_moments(lambda0, K, ctx_eff)
        return HalfMomentTable(float(lambda0), tuple(float(v) for v in table.values))

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
        vals = [+v for v in vals]
    return HalfMomentTable(float(lambda0), tuple(vals))


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


def hermite_orthonormal(k: int, x):
    """Degree-k Hermite polynomial, orthonormal for the weight e^(-x^2).

    Uses the stable recurrence on the orthonormal normalization,
    ``H_{k+1} = x sqrt(2/(k+1)) H_k - sqrt(k/(k+1)) H_{k-1}``,
    starting from H_0 = pi^(-1/4).  Accepts scalars or numpy arrays.
    Beware float overflow for |x| beyond ~35 at large k; quadrature code
    should use :func:`hermite_functions` instead.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    h_prev = 0.0 * x if not np.isscalar(x) else 0.0
    h = np.pi ** -0.25 + 0.0 * x if not np.isscalar(x) else np.pi ** -0.25
    for j in range(k):
        h, h_prev = x * math.sqrt(2.0 / (j + 1)) * h - math.sqrt(j / (j + 1.0)) * h_prev, h
    return h


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
