"""Two determinant engines for the deformed edge statistics.

* ``airy_fredholm_logdet`` / ``airy_fredholm_det``: the Airy-kernel Fredholm
  determinant det(1 - kappa^2 K_Ai) on [t, inf), by Nystrom discretization,
  for a whole sweep of t at once.  One composite Gauss-Legendre grid covers
  [min t, T] with T = max(t, 9) + 1, past which the kernel is negligible
  (trace 2.9e-22 on [10, inf)): a breakpoint at every requested t and at T, and
  between breakpoints panels of equal width w <= 1 with ``nodes`` per unit
  length (ceil(nodes w), at least ceil(nodes/2)), so the nodes above any
  requested t are exactly a composite rule on [t, T] (Bornemann, Math.
  Comp. 79 (2010), "On the numerical evaluation of Fredholm
  determinants").  With the nodes in decreasing order, the leading blocks
  of the symmetrized Nystrom matrix A discretize [x_s, T] for every node
  x_s, so one unpivoted ``I - kappa^2 A = L diag(1 + e) L^T``
  (``linalg.ldlt``) per kappa gives every log-determinant at once: the
  cumulative sum of ``log1p(e_k)`` is log det on [x_s, inf) at node s, and
  stays accurate for tiny kappa^2.  A does not depend on kappa, so a sweep
  of kappa builds it once and factors it once per kappa.

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
  functions, det(I - kappa^2 G).  G has a closed form in the Hermite
  functions at lambda0 and erfc(lambda0), with no quadrature, and is the
  same for every kappa, so a sweep of kappa builds it once.  In doubles
  that is one ``numpy.linalg.eigvalsh`` of G.  In big floats, for the exact
  identity checks, 0 <= G <= I keeps every entry in [-1, 1], so G is built
  straight in fixed point, as ints scaled by 2^S (S = working precision +
  16 guard bits), and one Householder reduction ``Q^T G Q = T`` (Golub &
  Van Loan, 8.3.1) runs on those ints to a real tridiagonal T with
  diagonal a and off-diagonal b, one rounding per product: an absolute
  error of 2^-S per step, normwise as in floating point.  Each kappa then
  costs O(n): det(I - kappa^2 T) is the last term of the continuant
  D_j = (1 - kappa^2 a_j) D_(j-1) - kappa^4 b_(j-1)^2 D_(j-2).
"""
from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

import mpmath as mp
import numpy as np

from .linalg import ldlt
from .precision import PrecisionCtx, agreed_digits
from .quadrature import gauss_legendre
from .specfun import airy, hermite_functions, hermite_functions_mp
from .util import DomainError

__all__ = [
    "airy_fredholm_det", "airy_fredholm_logdet", "hermite_gram", "finite_n_det",
    "airy_kernel_diagonal",
]


#: log of the smallest and largest normal doubles: the range finite_n_det returns.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HUGE = math.log(np.finfo(float).max)
_EPS = np.finfo(float).eps
#: Rows of the Nystrom matrix built per block.
_ROWS = 64

#: Largest relative error the double path of finite_n_det accepts in a factor.
_DOUBLE_REL_ERR = 1e-10
#: Digits two big-float runs must share before finite_n_det trusts them, and
#: the most bits it spends on them.
_AGREED_DIGITS = 20
_MAX_RESOLVE_BITS = 8192


def airy_kernel_diagonal(x):
    """K_Ai(x, x) = Ai'(x)^2 - x Ai(x)^2 (confluent limit of the kernel)."""
    ai, aip = airy(x)
    return aip * aip - x * ai * ai


def _airy_nystrom(ts: np.ndarray, nodes: int) -> tuple:
    """(A, above): the Nystrom matrix of the panel grid and the nodes above each t.

    A is ``sqrt(w_i w_j) K_Ai(x_i, x_j)`` with the nodes x in decreasing
    order, so its leading ``above[i]`` rows and columns discretize
    [ts[i], T], T = max(t, 9) + 1.  Every gap between consecutive
    breakpoints (the t's and T) is cut into ceil(width) panels of equal
    width w <= 1, each with max(ceil(nodes w), ceil(nodes/2)) Gauss-Legendre
    nodes: ``nodes`` per unit length, and never fewer than half of that on a
    short panel.
    """
    if nodes < 1:
        raise DomainError("need at least one node per unit length")
    if not ts.size:
        raise DomainError("need at least one t")
    if not np.isfinite(ts).all():
        raise DomainError("need finite t")
    edges = np.unique(np.append(ts, max(ts.max(), 9.0) + 1.0))[::-1]
    gaps = edges[:-1] - edges[1:]
    panels = np.ceil(gaps).astype(int)
    sizes = np.maximum(np.ceil(nodes * gaps / panels), (nodes + 1) // 2).astype(int)
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
    K = np.empty((x.size, x.size))
    near_i, near_j = [], []
    for r in range(0, x.size, _ROWS):  # a block of rows at a time keeps temporaries small
        rows = slice(r, r + _ROWS)
        dx = x[rows, None] - x
        near = np.abs(dx) < 1e-6 * (1.0 + np.abs(x[rows])[:, None])
        np.fill_diagonal(near[:, r:], True)
        dx[near] = 1.0
        K[rows] = (np.outer(ai[rows], aip) - np.outer(aip[rows], ai)) / dx
        i, j = np.nonzero(near)
        near_i.append(i + r)
        near_j.append(j)
    # near-diagonal pairs: divided difference cancels catastrophically, use
    # the derivative form at the midpoint instead
    i, j = np.concatenate(near_i), np.concatenate(near_j)
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


def airy_fredholm_logdet(kappa_sq, t, nodes: int = 12):
    """log det(1 - kappa^2 K_Ai restricted to [t, inf)) at one t or a sweep.

    ``kappa_sq`` and ``t`` are each one number or a sequence.  A number for
    both gives a complex; a sequence gives one entry per value, kappa first:
    an array of shape (len(kappa_sq), len(t)) when both are sequences.
    Every entry comes from one panel grid of ``nodes`` Gauss nodes per unit
    length and one LDL^T per kappa (see the module docstring).  The value is
    the sum of principal logs of the factors 1 - kappa^2 lambda, accurate
    even when the determinant underflows.  Raises ``linalg.SingularMinor`` when a leading determinant
    of the grid vanishes (real kappa^2 >= 1 only).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    A, above = _airy_nystrom(ts, nodes)
    k2s = [complex(k2) for k2 in np.atleast_1d(kappa_sq)]
    logdet = np.empty((len(k2s), len(ts)), dtype=complex)
    for row, k2 in zip(logdet, k2s):
        e = np.diagonal(ldlt(A, -k2))
        row[:] = np.cumsum(_log1p(e))[above - 1]
    if np.ndim(t) == 0:
        logdet = logdet[:, 0]
    if np.ndim(kappa_sq) == 0:
        logdet = logdet[0]
    return complex(logdet) if np.ndim(logdet) == 0 else logdet


def airy_fredholm_det(kappa_sq, t, nodes: int = 12):
    """det(1 - kappa^2 K_Ai restricted to [t, inf)), shaped as ``airy_fredholm_logdet``."""
    logdet = airy_fredholm_logdet(kappa_sq, t, nodes)
    return complex(np.exp(logdet)) if np.ndim(logdet) == 0 else np.exp(logdet)


def _gram_closed_form(psi: np.ndarray, lambda0: float) -> np.ndarray:
    """The n x n Gram matrix on [lambda0, inf) in doubles, from psi_0..psi_n at lambda0."""
    n = psi.size - 1
    r = np.sqrt(np.arange(n + 1) / 2)
    p = psi[:n]
    dp = r[:n] * np.roll(p, 1) - r[1:] * psi[1:]  # psi_k'; r[0] = 0 drops psi_(-1)
    k = np.arange(n)
    two_dk = 2 * (k[None, :] - k[:, None])
    np.fill_diagonal(two_dk, 1)
    G = (np.outer(p, dp) - np.outer(dp, p)) / two_dk
    steps = np.concatenate(([math.erfc(lambda0) / 2], p[1:] * p[:-1] / (2 * r[1:n])))
    G[k, k] = np.cumsum(steps)
    return G


def _gram_fixed(n: int, lambda0, ctx: PrecisionCtx) -> tuple:
    """(G, S): the closed-form Gram matrix as rows of ints G 2^S, S = ctx.bits + 26.

    psi_k(lambda0) and erfc(lambda0)/2 are mpf at ``ctx`` precision + 10, sqrt(k/2)
    an exact integer square root; each product is rounded once (``>> S`` or ``//``)."""
    with ctx.workprec(10):
        S = mp.mp.prec + 16
        p = [mp.libmp.to_fixed(x._mpf_, S) for x in hermite_functions_mp(n + 1, lambda0, ctx)]
        g00 = mp.libmp.to_fixed((mp.erfc(lambda0) / 2)._mpf_, S)
    r = [math.isqrt(k << (2 * S - 1)) for k in range(n + 1)]  # sqrt(k/2) 2^S
    dp = [(r[k] * p[k - 1] - r[k + 1] * p[k + 1]) >> S for k in range(n)]  # r[0] = 0 drops psi_(-1)
    diag = list(accumulate([g00] + [p[k] * p[k - 1] // (2 * r[k]) for k in range(1, n)]))
    return [[diag[j] if j == k else (p[j] * dp[k] - dp[j] * p[k]) // ((k - j) << (S + 1))
             for k in range(n)] for j in range(n)], S


def hermite_gram(n: int, lambda0: float, ctx: PrecisionCtx | None = None) -> np.ndarray:
    """Gram matrix of the first n orthonormal Hermite functions on [lambda0, inf).

    G_jk = integral_{lambda0}^inf psi_j psi_k dx, symmetric with spectrum in
    [0, 1]: float64, or an object array of mpf under ``ctx`` (from the
    fixed-point ``_gram_fixed``).  Closed form, from n + 1 Hermite function
    values at lambda0 and one erfc, with no quadrature.
    ``psi_k'' = (x^2 - 2k - 1) psi_k`` makes
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
        return _gram_closed_form(np.array(hermite_functions(n + 1, lam)), lam)
    G, S = _gram_fixed(n, lambda0, ctx)
    with ctx.workprec(10):
        return np.array([[mp.mpf((x, -S)) for x in row] for row in G], dtype=object)


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
    sweep = np.ndim(kappa_sq) > 0
    k2s = list(kappa_sq) if sweep else [kappa_sq]
    if ctx is not None:
        dets = _big_float_det(*_gram_fixed(n, lambda0, ctx), k2s, ctx)
        return dets if sweep else dets[0]
    eigs = np.linalg.eigvalsh(hermite_gram(n, lambda0))
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


def _householder_tridiagonal(A: list, S: int) -> tuple:
    """(a, b2): diagonal and squared off-diagonal of a tridiagonal Q^T G Q, as mpf.

    Fixed point: G is real symmetric with 0 <= G <= I, so every entry stays
    in [-1, 1]; it comes as rows of ints ``A`` = G 2^S (``_gram_fixed``),
    and the reduction overwrites them.  Dot products are exact and each product is
    rounded once (``>> S`` or ``// den``), an absolute error of 2^-S per
    step: the normwise backward error of floating-point Householder.  Each
    step reflects the column below the diagonal onto its first entry (Golub
    & Van Loan 8.3.1), scaled by the exact v.v, and updates the lower
    triangle of the trailing block.
    """
    n = len(A)
    b2 = []
    for k in range(n - 2):
        x = [A[i][k] for i in range(k + 1, n)]
        s = sum(map(mul, x, x))
        b2.append(s)  # the reflected column is (-sign(x_0) sqrt(s), 0, ..., 0)
        if not any(x[1:]):
            continue  # already reduced
        r = math.isqrt(s)
        den = s + r * (r + 2 * abs(x[0]))  # v . v
        v = x
        v[0] = x[0] + r if x[0] >= 0 else x[0] - r
        B = [A[i][k + 1:] for i in range(k + 1, n)]
        p = [(sum(map(mul, row, v)) << (S + 1)) // den for row in B]  # 2 B v / (v . v)
        pv = sum(map(mul, p, v))
        w = [pi - pv * vi // den for pi, vi in zip(p, v)]
        for i, row in enumerate(B):
            vi, wi = v[i], w[i]
            for j in range(i + 1):
                A[k + 1 + j][k + 1 + i] = A[k + 1 + i][k + 1 + j] = (
                    row[j] - ((vi * w[j] + wi * v[j]) >> S))
    a = [mp.mpf((A[i][i], -S)) for i in range(n)]
    if n >= 2:
        b2.append(A[n - 1][n - 2] ** 2)
    return a, [mp.mpf((s, -2 * S)) for s in b2]


def _big_float_det(G: list, S: int, kappa_sqs, ctx: PrecisionCtx) -> list:
    """det(I - kappa^2 G) for each kappa^2, in big floats at ``ctx`` precision.

    One Householder reduction of the ints G 2^S, then one continuant per kappa^2.
    """
    with ctx.workprec(10):
        a, b2 = _householder_tridiagonal(G, S)
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
    lo, bits = None, 128
    while bits <= _MAX_RESOLVE_BITS:
        hi = finite_n_det(n, lambda0, kappa_sq, ctx=PrecisionCtx(bits))
        if lo is not None and agreed_digits(lo, hi) >= _AGREED_DIGITS:
            return hi
        lo, bits = hi, 2 * bits
    raise FloatingPointError(
        f"det(1 - kappa^2 K_n) at (n, lambda0, kappa^2) = ({n}, {float(lambda0)}, "
        f"{kappa_sq}) not resolved at {_MAX_RESOLVE_BITS} bits")
