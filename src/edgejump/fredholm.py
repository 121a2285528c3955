"""Two determinant engines for the deformed edge statistics.

* ``airy_fredholm_logdet`` / ``airy_fredholm_det``: the Airy-kernel Fredholm
  determinant det(1 - kappa^2 K_Ai) on [t, inf), by Nystrom discretization,
  for a whole sweep of t at once.  One composite Gauss-Legendre grid covers
  [min t, T]: a breakpoint at every requested t and at T, and between
  breakpoints panels of equal width w <= 1 with ``m`` nodes per unit length
  (ceil(m w), at least ceil(m/2)), so the nodes above any requested t are
  exactly a composite rule on [t, T] (Bornemann, Math. Comp. 79 (2010), "On
  the numerical evaluation of Fredholm determinants").  With the nodes in
  decreasing order, the leading blocks of the symmetrized Nystrom matrix A
  discretize [x_s, T] for every node x_s, so one unpivoted
  ``I - kappa^2 A = L diag(1 + e) L^T`` (``linalg.ldlt``) per kappa gives
  every log-determinant at once: the cumulative sum of ``log1p(e_k)`` is
  log det on [x_s, inf) at node s, and stays accurate for tiny kappa^2.  A
  does not depend on kappa, so a sweep of kappa builds it once and factors
  it once per kappa.

  Branch: each pivot is the ratio of consecutive leading determinants.  The
  factors 1 - kappa^2 lambda_i of a real symmetric A lie on one segment
  through 1, and their arguments Arg(1 - kappa^2 lambda) are monotone along
  it and span less than pi when kappa^2 is not real.  By Cauchy interlacing
  the eigenvalues before and after adding a node alternate, so the change
  in sum_i Arg(1 - kappa^2 lambda_i) lies within that span: less than pi in
  magnitude.  So the principal log of each pivot is exactly that change,
  and the cumulative sum is the sum of principal logs of the factors.  For
  real kappa^2 < 1 every factor and pivot is positive; for real
  kappa^2 > 1 the number of negative factors grows by 0 or 1 per node, so
  each negative pivot adds one negative factor, +i pi.  A pivot can vanish
  only where a leading determinant does, which needs a real kappa^2 >= 1
  with kappa^2 lambda_max = 1 for some block; at ``linalg.PIVOT_FLOOR``
  that raises ``SingularMinor`` rather than return a number.

* ``finite_n_det``: the exact finite-n determinant det(1 - kappa^2 K_n) on
  [lambda0, inf) through the rank-n Gram matrix G of orthonormal Hermite
  functions, det(I - kappa^2 G).  The Gram matrix has a closed form in the
  Hermite functions at lambda0 and erfc(lambda0), with no quadrature; one
  body computes it in double precision by default, or in big floats under a
  precision context for the high-precision Hankel identity checks.  G is
  real, symmetric and the same for every kappa, so a sweep of kappa builds
  once: in doubles one ``numpy.linalg.eigvalsh`` of G, in big floats one
  Householder reduction ``Q^T G Q = T`` to a real tridiagonal T with
  diagonal a and off-diagonal b (Golub & Van Loan, 8.3.1).  Each
  kappa then costs O(n): det(I - kappa^2 T) is the last term of the
  continuant D_j = (1 - kappa^2 a_j) D_(j-1) - kappa^4 b_(j-1)^2 D_(j-2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .linalg import ldlt
from .precision import PrecisionCtx, agreed_digits
from .quadrature import gauss_legendre
from .specfun import airy, hermite_functions, hermite_functions_mp

__all__ = [
    "NystromConfig", "TailBoundViolated",
    "airy_fredholm_det", "airy_fredholm_logdet", "hermite_gram", "finite_n_det",
    "airy_kernel_diagonal",
]


#: log of the smallest and largest normal doubles: the range finite_n_det returns.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HUGE = math.log(np.finfo(float).max)
_EPS = np.finfo(float).eps

#: Largest relative error the double path of finite_n_det accepts in a factor.
_DOUBLE_REL_ERR = 1e-10
#: Digits two big-float runs must share before finite_n_det trusts them, and
#: the most bits it spends on them.
_AGREED_DIGITS = 20
_MAX_RESOLVE_BITS = 8192


class TailBoundViolated(ValueError):
    """Requested tolerance unreachable at the given truncation point."""


@dataclass(frozen=True)
class NystromConfig:
    """Gauss nodes per unit length, truncation point and target error of the Airy grid."""

    m: int
    T: float
    tol: float = 1e-10

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one node per unit length")


def airy_kernel_diagonal(x):
    """K_Ai(x, x) = Ai'(x)^2 - x Ai(x)^2 (confluent limit of the kernel)."""
    ai, aip = airy(x)
    return aip * aip - x * ai * ai


def default_nystrom(t, tol: float = 1e-10) -> NystromConfig:
    """12 nodes per unit length and truncation T = max(t, 0) + 14.

    ``t`` is one point or a sweep; T is taken past the largest.
    """
    return NystromConfig(m=12, T=max(float(np.max(t)), 0.0) + 14.0, tol=tol)


def _check_tail(cfg: NystromConfig):
    tail = float(airy_kernel_diagonal(np.array([cfg.T]))[0])
    if not tail < cfg.tol / 10:
        raise TailBoundViolated(
            f"kernel tail {tail:.2e} at T = {cfg.T} exceeds tol/10 = {cfg.tol / 10:.2e}")


def _airy_nystrom(ts: np.ndarray, cfg: NystromConfig) -> tuple:
    """(A, above): the Nystrom matrix of the panel grid and the nodes above each t.

    A is ``sqrt(w_i w_j) K_Ai(x_i, x_j)`` with the nodes x in decreasing
    order, so its leading ``above[i]`` rows and columns discretize
    [ts[i], T].  Every gap between consecutive breakpoints (the t's and T)
    is cut into ceil(width) panels of equal width w <= 1, each with
    max(ceil(m w), ceil(m/2)) Gauss-Legendre nodes: ``cfg.m`` per unit
    length, and never fewer than half of that on a short panel.
    """
    if ts.max() >= cfg.T:
        raise ValueError(f"need every t below the truncation point T = {cfg.T}")
    edges = np.unique(np.append(ts, cfg.T))[::-1]
    gaps = edges[:-1] - edges[1:]
    panels = np.ceil(gaps).astype(int)
    sizes = np.maximum(np.ceil(cfg.m * gaps / panels), (cfg.m + 1) // 2).astype(int)
    rules = {size: gauss_legendre(size, -1.0, 1.0) for size in set(sizes.tolist())}
    xs, ws = [], []
    for b, a, k, size in zip(edges, edges[1:], panels, sizes):
        nodes, weights = rules[size]
        cut = np.linspace(b, a, k + 1)
        half = (cut[:-1] - cut[1:])[:, None] / 2
        xs.append(((cut[:-1] + cut[1:])[:, None] / 2 + half * nodes[::-1]).ravel())
        ws.append((half * weights[::-1]).ravel())
    x, w = np.concatenate(xs), np.concatenate(ws)
    above = np.cumsum(panels * sizes)[np.searchsorted(-edges[1:], -ts)]
    ai, aip = airy(x)
    dx = x[:, None] - x
    near = np.abs(dx) < 1e-6 * (1.0 + np.abs(x)[:, None])
    np.fill_diagonal(near, True)
    dx[near] = 1.0
    K = (np.outer(ai, aip) - np.outer(aip, ai)) / dx
    # near-diagonal pairs: divided difference cancels catastrophically, use
    # the derivative form at the midpoint instead
    i, j = np.nonzero(near)
    K[i, j] = airy_kernel_diagonal(0.5 * (x[i] + x[j]))
    sw = np.sqrt(w)
    K *= sw[:, None]
    K *= sw
    return K, above


def _log1p(e: np.ndarray) -> np.ndarray:
    """Principal log(1 + e), accurate for tiny complex e.

    The real part is ``log1p(|1 + e|^2 - 1) / 2``, which keeps full relative
    accuracy for tiny e (numpy's complex log1p does not), except where
    |1 + e| < 1/2 and that argument would cancel: there it is
    ``log|1 + e|``.  A real e has imaginary part +0, so a negative 1 + e
    gives +i pi.
    """
    e = np.asarray(e, dtype=complex)
    x = e.real * (2 + e.real) + e.imag * e.imag  # |1 + e|^2 - 1
    log_abs = np.where(x > -0.75, 0.5 * np.log1p(np.maximum(x, -0.75)),
                       np.log(np.abs(1 + e)))
    return log_abs + 1j * np.arctan2(e.imag, 1 + e.real)


def airy_fredholm_logdet(kappa_sq, t, cfg: NystromConfig | None = None):
    """log det(1 - kappa^2 K_Ai restricted to [t, inf)) at one t or a sweep.

    ``kappa_sq`` and ``t`` are each one number or a sequence.  A number for
    both gives a complex; a sequence gives one entry per value, kappa first:
    an array of shape (len(kappa_sq), len(t)) when both are sequences.
    Every entry comes from one panel grid and one LDL^T per kappa (see the
    module docstring).  The value is the sum of principal logs of the
    factors 1 - kappa^2 lambda, accurate even when the determinant
    underflows.  Raises ``linalg.SingularMinor`` when a leading determinant
    of the grid vanishes (real kappa^2 >= 1 only).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if cfg is None:
        cfg = default_nystrom(ts)
    _check_tail(cfg)
    A, above = _airy_nystrom(ts, cfg)
    k2s = [complex(k2) for k2 in np.atleast_1d(kappa_sq)]
    logdet = np.empty((len(k2s), len(ts)), dtype=complex)
    for row, k2 in zip(logdet, k2s):
        e = np.diagonal(ldlt(-k2.real * A if k2.imag == 0 else -k2 * A))
        row[:] = np.cumsum(_log1p(e))[above - 1]
    if np.ndim(t) == 0:
        logdet = logdet[:, 0]
    if np.ndim(kappa_sq) == 0:
        logdet = logdet[0]
    return complex(logdet) if np.ndim(logdet) == 0 else logdet


def airy_fredholm_det(kappa_sq, t, cfg: NystromConfig | None = None):
    """det(1 - kappa^2 K_Ai restricted to [t, inf)), shaped as ``airy_fredholm_logdet``."""
    logdet = airy_fredholm_logdet(kappa_sq, t, cfg)
    return complex(np.exp(logdet)) if np.ndim(logdet) == 0 else np.exp(logdet)


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


def hermite_gram(n: int, lambda0: float, ctx: PrecisionCtx | None = None) -> np.ndarray:
    """Gram matrix of the first n orthonormal Hermite functions on [lambda0, inf).

    G_jk = integral_{lambda0}^inf psi_j psi_k dx, symmetric with spectrum in
    [0, 1]: float64, or an object array of mpf under ``ctx``.  Closed form,
    from n + 1 Hermite function values at lambda0 and one erfc, with no
    quadrature: in double precision by default, in big floats at ``ctx``
    precision.  ``psi_k'' = (x^2 - 2k - 1) psi_k`` makes
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
        return _gram_closed_form(psi, math.erfc(lam) / 2, math.sqrt)
    with ctx.workprec(10):
        psi = np.array(hermite_functions_mp(n + 1, lambda0, ctx), dtype=object)
        return _gram_closed_form(psi, mp.erfc(mp.mpf(lambda0)) / 2, mp.sqrt)


def finite_n_det(n: int, lambda0, kappa_sq, ctx: PrecisionCtx | None = None):
    """det(1 - kappa^2 K_n restricted to [lambda0, inf)) via the Hermite Gram matrix.

    Equals the thinned gap generating function sum_k (1-kappa^2)^k E_n(k) and
    the Hankel-determinant ratio of the jump weight.  ``kappa_sq`` is one
    number or a sequence; a sequence gives one determinant per kappa^2 (an
    array in double precision, a list under ``ctx``), all from one build of
    G (see the module docstring) and each equal to its own single call.

    Double precision by default, as the exponential of the summed logs of
    1 - kappa^2 lambda_k over the eigenvalues of G.  ``eigvalsh`` resolves
    each lambda_k only to about n eps, so a factor that small cancels (kappa^2
    near 1 and lambda_k near 1, deep in the left tail): when the worst
    factor's relative error could exceed ``_DOUBLE_REL_ERR``, the
    determinant is recomputed in big floats at doubling precision until two
    runs agree to ``_AGREED_DIGITS`` digits, unless bounds on log|det| from
    the double factors already place it outside double range.  Either way it
    raises ``FloatingPointError`` when |det| underflows or overflows double
    range rather than return +-0 or inf.  Pass ``ctx`` to run the
    determinant in big floats at that precision for the exact identity
    tests: one Householder reduction of G, then one continuant per kappa^2.
    """
    gram = hermite_gram(n, lambda0, ctx=ctx)
    sweep = np.ndim(kappa_sq) > 0
    k2s = list(kappa_sq) if sweep else [kappa_sq]
    if ctx is not None:
        dets = _big_float_det(gram, k2s, ctx)
        return dets if sweep else dets[0]
    eigs = np.linalg.eigvalsh(gram)
    dets = [_double_det(n, lambda0, complex(k2), eigs) for k2 in k2s]
    return np.array(dets) if sweep else dets[0]


def _double_det(n: int, lambda0, k2: complex, eigs: np.ndarray) -> complex:
    """det(I - kappa^2 G) from the eigenvalues of G, or big floats when they do not resolve it."""
    factors = 1.0 - k2 * eigs
    err = (abs(k2) * n + 1) * _EPS  # absolute error of each factor
    with np.errstate(divide="ignore"):  # a zero factor gives log = -inf, err = inf
        worst_err = np.max(err / np.abs(factors))
        if worst_err <= _DOUBLE_REL_ERR:
            log_det = np.sum(np.log(factors))
        else:
            # |factor| +- err brackets each true factor, so log|det| lies
            # between these sums; outside double range nothing is resolved
            mag = np.abs(factors)
            log_det = np.sum(np.log(mag + err))
            if log_det >= _LOG_TINY:
                log_det = np.sum(np.log(np.maximum(mag - err, 0.0)))
                if log_det <= _LOG_HUGE:
                    log_det = complex(mp.log(_resolved_det(n, lambda0, k2)))
    if not _LOG_TINY <= log_det.real <= _LOG_HUGE:
        raise FloatingPointError(
            f"det(1 - kappa^2 K_n) at (n, lambda0, kappa^2) = ({n}, {float(lambda0)}, "
            f"{k2}): log|det| lies at or past {log_det.real:.6g}, outside double "
            "range; pass ctx to compute it in big floats")
    return complex(np.exp(log_det))


def _householder_tridiagonal(G) -> tuple:
    """(a, b2): diagonal and squared off-diagonal of a tridiagonal Q^T G Q.

    G is real symmetric (rows of mpf); each step reflects the column below
    the diagonal onto its first entry (Golub & Van Loan 8.3.1), and only the
    lower triangle of the trailing block is updated.
    """
    A = [list(row) for row in G]
    n = len(A)
    b2 = []
    for k in range(n - 2):
        x = [A[i][k] for i in range(k + 1, n)]
        s = mp.fdot(x, x)
        b2.append(s)  # the reflected column is (-sign(x_0) sqrt(s), 0, ..., 0)
        if not any(x[1:]):
            continue  # already reduced
        r = mp.sqrt(s)
        v = x
        v[0] = x[0] + r if x[0] >= 0 else x[0] - r
        beta = 1 / (r * abs(v[0]))  # 2 / (v . v)
        B = [A[i][k + 1:] for i in range(k + 1, n)]
        p = [beta * mp.fdot(row, v) for row in B]
        w = [pi - (beta / 2) * mp.fdot(p, v) * vi for pi, vi in zip(p, v)]
        for i, row in enumerate(B):
            vi, wi = v[i], w[i]
            for j in range(i + 1):
                A[k + 1 + j][k + 1 + i] = A[k + 1 + i][k + 1 + j] = (
                    row[j] - vi * w[j] - wi * v[j])
    a = [A[i][i] for i in range(n)]
    if n >= 2:
        b2.append(A[n - 1][n - 2] ** 2)
    return a, b2


def _big_float_det(gram: np.ndarray, kappa_sqs, ctx: PrecisionCtx) -> list:
    """det(I - kappa^2 G) for each kappa^2, in big floats at ``ctx`` precision.

    One Householder reduction of G, then one continuant per kappa^2.
    """
    with ctx.workprec(10):
        a, b2 = _householder_tridiagonal(gram)
        dets = []
        for k2 in kappa_sqs:
            k2 = mp.mpc(k2)
            k4 = k2 * k2
            prev, cur = mp.mpc(1), 1 - k2 * a[0]
            for aj, bj2 in zip(a[1:], b2):
                prev, cur = cur, (1 - k2 * aj) * cur - k4 * bj2 * prev
            dets.append(cur)
        return dets


def _resolved_det(n: int, lambda0, kappa_sq: complex):
    """Big-float determinant at 128, 256, ... bits until two runs agree."""
    bits = 128
    lo = _big_float_det(hermite_gram(n, lambda0, ctx=PrecisionCtx(bits)), [kappa_sq],
                        PrecisionCtx(bits))[0]
    while 2 * bits <= _MAX_RESOLVE_BITS:
        bits *= 2
        ctx = PrecisionCtx(bits)
        hi = _big_float_det(hermite_gram(n, lambda0, ctx=ctx), [kappa_sq], ctx)[0]
        if agreed_digits(lo, hi) >= _AGREED_DIGITS:
            return hi
        lo = hi
    raise FloatingPointError(
        f"det(1 - kappa^2 K_n) at (n, lambda0, kappa^2) = ({n}, {float(lambda0)}, "
        f"{kappa_sq}) not resolved at {_MAX_RESOLVE_BITS} bits")
