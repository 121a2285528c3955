"""Special functions feeding every closed-form expression in the lab.

The double-precision Airy pair, the half-range Gaussian moment tables and
the orthonormal Hermite function recurrences are implemented here.  Callers
take Gamma and Barnes G values straight from ``mpmath.gamma`` and
``mpmath.barnesg``, with no wrapper.  Every function here, and mpmath's
Airy, Gamma and Barnes G functions, are pinned down by independent oracles
in the test suite (Maclaurin series, reflection/recursion identities,
log-Gamma integral quadrature, big-float Gauss-Legendre quadrature, Hermite
polynomials, a second double-precision Airy library).
"""
from __future__ import annotations

import math
import operator

import mpmath as mp
import numpy as np

from .precision import PrecisionCtx

__all__ = ["airy", "half_gauss_moments", "hermite_functions", "hermite_functions_mp"]

# The Airy table: Taylor coefficients of Ai at the anchors _AIRY_TOP,
# _AIRY_TOP - _AIRY_STEP, ..., _AIRY_BOTTOM.  The march between anchors runs
# on integers scaled by 2^_AIRY_BITS, so its rounding stays far below double
# precision over all ~150 steps.
_AIRY_TOP = 10.0
_AIRY_STEP = 0.5
_AIRY_BOTTOM = -64.0
_AIRY_BITS = 128


def _airy_asymptotic(x, series: np.ndarray, exp, sqrt, pi):
    """(Ai, Ai') from the series in zeta = 2/3 x^(3/2) (DLMF 9.7.5, 9.7.6).

    ``series`` holds the rows ((-1)^k u_k, (-1)^k v_k): the sums are one
    Vandermonde matrix in 1/zeta times it.  Runs on a float array, or on one
    mpf with rows of mpf (each value back in a one-element array).  At
    zeta >= 21 (x >= 10) the terms fall to 1e-17 relative by k = 24 and to
    their minimum, 3e-20, at k = 43.
    """
    zeta = 2 * x * sqrt(x) / 3
    su, sv = (np.vander(np.atleast_1d(1 / zeta), len(series), increasing=True) @ series).T
    pre = exp(-zeta) / (2 * sqrt(pi))
    q = sqrt(sqrt(x))
    return pre / q * su, -pre * q * sv


def _taylor_terms(a: float, base: int) -> int:
    # Ai's Taylor coefficients at a scale like sqrt|a|^k / k!: past these many
    # terms they fall below 1e-21 of the local value at a step of 1/2 (base
    # 26), or below double rounding at |h| <= 1/4 (base 12)
    return base + 2 * math.ceil(math.sqrt(abs(a)))


def _airy_march(top: float, y: int, yp: int, count: int) -> tuple:
    """Taylor rows of y'' = x y at ``count`` anchors from ``top`` down, and the state below.

    ``y``, ``yp`` are the values at ``top`` scaled by 2^_AIRY_BITS.  Row j
    holds c_k at a = top - j/2, from c_(k+2) = (a c_k + c_(k-1)) / ((k+1)(k+2));
    the step to the next anchor sums c_k (-1/2)^k exactly, rounding once.
    Downward is the stable direction: Ai is recessive at +inf.
    """
    rows = []
    for j in range(count):
        ia = int(2 * top) - j  # 2a
        K = _taylor_terms(ia / 2, 26)
        c = [y, yp, ia * y // 4]
        for k in range(1, K - 2):
            c.append((ia * c[k] + (c[k - 1] << 1)) // (2 * (k + 1) * (k + 2)))
        rows.append(c)
        shifts = range(K - 1, -1, -1)
        y = (sum(map(operator.lshift, c[::2], shifts[::2]))
             - sum(map(operator.lshift, c[1::2], shifts[1::2]))) >> (K - 1)
        kc = list(map(operator.mul, range(K), c))
        yp = (sum(map(operator.lshift, kc[1::2], shifts[1::2]))
              - sum(map(operator.lshift, kc[2::2], shifts[2::2]))) >> (K - 2)
    return rows, (y, yp)


def _airy_table(rows: list, width: int) -> np.ndarray:
    """The first ``width`` Taylor coefficients of each row as floats, zero-padded."""
    c = np.array([row[:width] + [0] * (width - len(row)) for row in rows], dtype=float)
    return c * 2.0 ** -_AIRY_BITS


def _build_airy_table() -> tuple:
    with mp.workprec(_AIRY_BITS + 20):
        uv = [(mp.mpf(1), mp.mpf(1))]
        for k in range(1, 44):
            u = -uv[-1][0] * ((6 * k - 5) * (6 * k - 3) * (6 * k - 1)) / ((2 * k - 1) * 216 * k)
            uv.append((u, -u * (6 * k + 1) / (6 * k - 1)))
        series = np.array(uv)
        ai, aip = _airy_asymptotic(mp.mpf(_AIRY_TOP), series, mp.exp, mp.sqrt, mp.pi)
        y, yp = (int(mp.nint(mp.ldexp(v[0], _AIRY_BITS))) for v in (ai, aip))
    count = int((_AIRY_TOP - _AIRY_BOTTOM) / _AIRY_STEP) + 1
    rows, below = _airy_march(_AIRY_TOP, y, yp, count)
    return _airy_table(rows, _taylor_terms(_AIRY_BOTTOM, 12)), below, series[:25].astype(float)


_AIRY_TAYLOR, _AIRY_BELOW, _AIRY_SERIES = _build_airy_table()  # series rows 0..24 in doubles


def airy(x) -> tuple:
    """(Ai(x), Ai'(x)) in double precision, elementwise; x a number or an array.

    Past x = 10 from the asymptotic series; elsewhere a Taylor sum from the
    nearest anchor (|h| <= 1/4) of a table built once at import: the series
    at x = 10 in big floats, then y'' = x y marched down to x = -64 in steps
    of 1/2 (below -64 the march goes on for the call).  The error is a few
    eps of the envelope max(|Ai|, |x|^(-1/4)/sqrt(pi)) (for Ai',
    max(|Ai'|, |x|^(1/4)/sqrt(pi))), and a few eps relative for x in
    [0, 10]; past 10 the relative error grows like zeta eps, as rounding x
    alone would cause.  Non-finite x raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("airy needs finite arguments")
    flat = x.ravel()
    big = flat > _AIRY_TOP
    near = np.where(big, _AIRY_TOP, flat)
    j = np.rint((_AIRY_TOP - near) / _AIRY_STEP).astype(int)
    c = _AIRY_TAYLOR
    if flat.size and j.max() >= len(c):  # below the table: march on for this call
        rows, _ = _airy_march(_AIRY_BOTTOM - _AIRY_STEP, *_AIRY_BELOW, j.max() + 1 - len(c))
        more = _airy_table(rows, _taylor_terms(_AIRY_TOP - _AIRY_STEP * j.max(), 12))
        c = np.vstack((np.pad(c, ((0, 0), (0, more.shape[1] - c.shape[1]))), more))
    c = c[j]
    hp = np.vander(near - (_AIRY_TOP - _AIRY_STEP * j), c.shape[1], increasing=True)
    ai = np.sum(c * hp, axis=1)
    aip = (c[:, 1:] * hp[:, :-1]) @ np.arange(1.0, c.shape[1])
    if big.any():
        # both underflow to 0 past x ~ 105; the cap keeps x^(3/2) finite
        ai[big], aip[big] = _airy_asymptotic(np.minimum(flat[big], 200.0), _AIRY_SERIES,
                                             np.exp, np.sqrt, math.pi)
    return ai.reshape(x.shape)[()], aip.reshape(x.shape)[()]


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
        if not mp.isfinite(lam):
            raise ValueError(f"lambda0 must be finite, got {lambda0}")
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


def hermite_functions(nmax: int, x: float) -> list:
    """Hermite functions psi_k = H_k(x) e^(-x^2/2) for k = 0..nmax-1 at one point.

    The recurrence runs in Python floats on a mantissa with a separate
    power-of-two exponent, started from ``e^(-x^2/2) = m 2^e``, so neither
    the Gaussian factor (e^-800 at x = 40) nor the growing polynomial part
    leaves the double range: psi_k is right wherever it is representable.
    Returns a list of length nmax.
    """
    x = float(x)
    e = math.floor(-0.5 * x * x / math.log(2.0))
    h = math.pi ** -0.25 * math.exp(-0.5 * x * x - e * math.log(2.0))
    h_prev = 0.0
    out = []
    for k in range(nmax):
        out.append(math.ldexp(h, e))
        h, h_prev = (x * math.sqrt(2.0 / (k + 1)) * h
                     - math.sqrt(k / (k + 1.0)) * h_prev), h
        if abs(h) > 2.0 ** 500:
            shift = math.frexp(h)[1]
            h, h_prev, e = math.ldexp(h, -shift), math.ldexp(h_prev, -shift), e + shift
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
