"""Finite-n orthogonal-polynomial systems for the jump-discontinuous Gaussian weight.

The weight is ``e^(-x^2)`` times a pure phase jump: ``e^(i pi beta)`` left of
the cut point lambda0 and ``e^(-i pi beta)`` right of it.  Two independent
routes build its Hankel determinants H_k, norms h_k, monic three-term
recurrence coefficients R_k and Q_k and polynomial values.  The split
between them is one rule: the moment route serves the exact identities, the
Gram route every asymptotic comparison.

* ``build_op_system`` (moment route, big floats): the moment sequence and
  one O(N^2) moment-to-recurrence (Chebyshev) pass over modified moment
  tables.  It is algebraically identical to solving the k x k moment systems
  minor by minor, and the test suite pins it against the pivoted-LU route on
  small systems.  The map from moments to recurrence coefficients is
  exponentially ill-conditioned, which is paid for with mantissa bits (see
  ``precision.hankel_ctx``), and a checked system is built twice (bits,
  2 bits) so only agreeing digits are reported.  It serves the exact checks
  (criteria 1, 2 and 11), ``edgejump hankel`` and demos 01 and 03, and
  exposes the two exact internal identities (the jump identity for Q_n and
  the log-derivative identity for the Hankel determinant) as residual
  operations.  Polynomial values and derivatives come from the recurrence.
  A real weight (Re beta = 0) runs in real arithmetic.  Each modified
  moment is summed exactly on integer mantissas and rounded once per part,
  to nearest with ties to even: the values of ``mp.fdot``.

* ``gram_system`` (Gram route, complex128): in the orthonormal Hermite basis
  the weight's moment matrix is ``e^(i pi beta) (I - kappa^2 G)``, with G the
  closed-form Gram matrix of ``fredholm.hermite_gram``, so one unpivoted
  ``L D L^T`` of ``I - kappa^2 G`` gives every system quantity (the matrix
  form of the modified Chebyshev algorithm; Gautschi, *Orthogonal
  Polynomials: Computation and Approximation*, 2004, section 2.1.7).  It is
  well conditioned, needs no extra bits, and keeps H_n, h_n and p_n in log
  scale, so it reaches n in the thousands.  It serves every asymptotic
  comparison: the edge expansions (criteria 5, 6 and 7), the bulk check and
  demo 05.

Both routes take the cut as given.  At the spectral edge it comes from
``edge_cut(n, t)``, one double, whichever route builds the system, so a
printed lambda0 is exactly the cut its system was built at.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .fredholm import _gram_closed_form
from .linalg import PIVOT_FLOOR, SingularMinor, ldlt
from .precision import PrecisionCtx, agreed_digits
from .specfun import _full_gauss_moment, half_gauss_moments, hermite_functions
from .util import kappa_sq_from_beta

__all__ = [
    "WeightParams", "edge_cut", "OPSystem", "SingularMinor", "moments", "build_op_system",
    "GramSystem", "gram_system", "PIVOT_FLOOR", "eval_pn_prime",
    "qn_jump_identity_residual", "diff_identity_residual",
    "gaussian_hankel", "hankel_matrix",
]


@dataclass(frozen=True)
class WeightParams:
    """Jump parameters: exponent beta (|Re beta| <= 1/2) and cut point lambda0.

    An edge-form cut comes from :func:`edge_cut`:
    ``WeightParams(beta, edge_cut(n, t))``.
    """

    beta: complex
    lambda0: object  # float or mpf; pinned at construction precision

    def __post_init__(self):
        if not cmath.isfinite(complex(self.beta)):
            raise ValueError("beta must be finite")
        if not mp.isfinite(self.lambda0):
            raise ValueError(f"lambda0 must be finite, got {self.lambda0}")
        # The weight is 2-periodic in beta, so any real part is accepted;
        # |Re beta| <= 1/2 is the canonical band and the asymptotic
        # evaluators enforce their own narrower domains.

    def jump_phases(self):
        """(e^(i pi beta), e^(-i pi beta)) at current working precision: mpf when Re beta = 0."""
        b = mp.mpc(self.beta)
        if b.real == 0:  # a real weight
            return mp.exp(-mp.pi * b.imag), mp.exp(mp.pi * b.imag)
        ipb = mp.mpc(0, 1) * mp.pi * b
        return mp.exp(ipb), mp.exp(-ipb)


def edge_cut(n: int, t: float) -> float:
    """The cut ``lambda0 = sqrt(2 n) (1 + t n^(-2/3) / 2)`` at edge coordinate t, in doubles."""
    return math.sqrt(2 * n) * (1 + t * n ** (-2 / 3) / 2)


def moments(params: WeightParams, kmax: int, ctx: PrecisionCtx):
    """Weight moments mu_0..mu_kmax.

    mu_j = e^(i pi beta) (M_j - J_j) + e^(-i pi beta) J_j with M_j the full
    Gaussian moment and J_j the half-range table from the cut point up.
    """
    J = half_gauss_moments(params.lambda0, kmax, ctx)
    with ctx.workprec(20):
        eplus, eminus = params.jump_phases()
        out = [eplus * (_full_gauss_moment(j) - J[j]) + eminus * J[j] for j in range(kmax + 1)]
    with ctx.workprec():
        return tuple(+m for m in out)


#: A zero's exponent in the integer kernel: above any real one, so never a sum's least exponent.
_ZERO_EXP = 1 << 62


def _entry(x):
    """An mpf as exact (signed mantissa, exponent); an mpc as (re, im, one exponent)."""
    if isinstance(x, mp.mpc):
        (re, er), (im, ei) = map(_entry, (x.real, x.imag))
        return re << er - (e := min(er, ei)), im << ei - e, e
    sign, man, exp, _ = x._mpf_
    if exp and not man:
        raise ValueError("moments must be finite")
    return (-man if sign else man), (exp if man else _ZERO_EXP)


def _round(man: int, exp: int, prec: int):
    """``man 2^exp`` rounded to ``prec`` bits, to nearest with ties to even: the value of
    ``mpmath.libmp.from_man_exp(man, exp, prec, 'n')``, with a zero at _ZERO_EXP."""
    if not man:
        return 0, _ZERO_EXP
    a = -man if man < 0 else man
    n = a.bit_length() - prec
    if n > 0:
        t = a >> (n - 1)  # the kept bits, then the half bit
        a, exp = (t >> 1) + bool(t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1))), exp + n
    return (-a if man < 0 else a), exp


def _chebyshev(mu, N: int):
    """Moment-to-recurrence pass: (Q_0..Q_N, R_0..R_N, h_0..h_N), R_0 = 0.

    Each sigma_{k,l} = sigma_{k-1,l+1} - Q_{k-1} sigma_{k-1,l} - R_{k-1} sigma_{k-2,l}
    is held as exact integers, a signed mantissa per part (real moments have
    no imaginary part) on one exponent.  Its update is summed exactly (Gauss's
    three products for a complex one) and each part rounded once to nearest
    even: ``mp.fdot``'s values, save where fdot's ``mpf_sum`` drops a term
    over 2 prec bits below its running sum.  That tells only at an exact tie
    or after a cancellation of over 2 prec bits, where the exact sum is the
    correctly rounded one.  Raises SingularMinor when sigma_{k,k} is zero."""
    if mu[0] == 0:
        raise SingularMinor(1)
    prec, L, cplx = mp.mp.prec, 2 * N + 2, isinstance(mu[0], mp.mpc)
    value = (lambda s: mp.mpc(mp.mpf(s[::2]), mp.mpf(s[1:]))) if cplx else mp.mpf  # s: (re, im, e)
    sig, prev = [_entry(x) for x in mu[:L]], [_entry(mu[0] * 0)] * L
    Q, R, h = [mu[1] / mu[0]], [mu[0] * 0], [mu[0]]
    for k in range(1, N + 1):
        new, rows = [None] * L, zip(range(k, L - k), sig[k + 1:], sig[k:], prev[k:])
        if cplx:
            (qr, qi, eq), (rr, ri, er) = _entry(Q[-1]), _entry(R[-1])
            for l, (r1, i1, e1), (r2, i2, e2), (r3, i3, e3) in rows:
                br, bi = (g := r2 * (qr + qi)) - qi * (r2 + i2), g + qr * (i2 - r2)  # Q sig[l]
                cr, ci = (g := r3 * (rr + ri)) - ri * (r3 + i3), g + rr * (i3 - r3)  # R prev[l]
                e = min(e1, eb := eq + e2, ec := er + e3)
                mr, xr = _round((r1 << e1 - e) - (br << eb - e) - (cr << ec - e), e, prec)
                mi, xi = _round((i1 << e1 - e) - (bi << eb - e) - (ci << ec - e), e, prec)
                new[l] = mr << xr - (e := min(xr, xi)), mi << xi - e, e
        else:
            (mq, eq), (mr, er) = _entry(Q[-1]), _entry(R[-1])
            for l, (m1, e1), (m2, e2), (m3, e3) in rows:
                e = min(e1, eb := eq + e2, ec := er + e3)
                new[l] = _round((m1 << e1 - e) - (mq * m2 << eb - e) - (mr * m3 << ec - e), e, prec)
        if not any(new[k][:-1]):
            raise SingularMinor(k + 1)
        h.append(value(new[k]))
        Q.append(value(new[k + 1]) / h[-1] - value(sig[k]) / h[-2])
        R.append(h[-1] / h[-2])
        prev, sig = sig, new
    return Q, R, h


@dataclass(frozen=True)
class OPSystem:
    """One orthogonal-polynomial system at fixed (beta, lambda0).

    Fields follow the standard identities: H_0 = 1, h_k = H_{k+1}/H_k,
    R_k = H_{k+1} H_{k-1} / H_k^2, and Q_k is the difference of adjacent
    subleading monic coefficients.  ``agreed`` carries the digit counts from
    the doubled-precision self check (None when the check was skipped).
    """

    params: WeightParams
    N: int
    bits: int
    H: tuple       # H_0..H_{N+1}
    h: tuple       # h_0..h_N
    R: tuple       # R_0 (unused, 0) .. R_N
    Q: tuple       # Q_0..Q_N
    agreed: dict | None = None


def _build_once(params: WeightParams, N: int, ctx: PrecisionCtx):
    mu = moments(params, 2 * N + 1, ctx)
    with ctx.workprec(10):
        Q, R, h = _chebyshev(mu, N)
        H = [mp.mpf(1)]
        for k in range(N + 1):
            H.append(H[-1] * h[k])
        return OPSystem(params=params, N=N, bits=ctx.bits,
                        H=tuple(H), h=tuple(h), R=tuple(R), Q=tuple(Q))


def build_op_system(params: WeightParams, N: int, ctx: PrecisionCtx,
                    *, check: bool = True) -> OPSystem:
    """Build the OPSystem for degrees 0..N at ``ctx`` precision.

    ``precision.hankel_ctx(N)`` is a precision that suits the size.  With
    ``check`` (default) the system is computed at ctx.bits and at twice
    that, values are taken from the high run, and the agreeing digit counts
    per field family are attached.  Requires all leading Hankel minors
    nonzero; raises SingularMinor otherwise.
    """
    lo = _build_once(params, N, ctx)
    if not check:
        return lo
    hi = _build_once(params, N, ctx.doubled())
    agreed = {
        "H": min(agreed_digits(a, b) for a, b in zip(lo.H, hi.H)),
        "h": min(agreed_digits(a, b) for a, b in zip(lo.h, hi.h)),
        "R": min(agreed_digits(a, b) for a, b in zip(lo.R[1:], hi.R[1:])) if N >= 1 else 9999,
        "Q": min(agreed_digits(a, b) for a, b in zip(lo.Q, hi.Q)),
    }
    return OPSystem(params=hi.params, N=N, bits=ctx.bits,
                    H=hi.H, h=hi.h, R=hi.R, Q=hi.Q, agreed=agreed)


def hankel_matrix(params: WeightParams, n: int, ctx: PrecisionCtx):
    """The n x n moment matrix (mu_{i+j}), for determinant cross-checks."""
    mu = moments(params, max(0, 2 * n - 2), ctx)
    return [[mu[i + j] for j in range(n)] for i in range(n)]


#: Half an ulp of 1: entries of kappa^2 G below it leave I - kappa^2 G equal
#: to the identity in double rounding.
_HALF_ULP = np.finfo(float).eps / 2


@dataclass(frozen=True)
class GramSystem:
    """The system at (beta, lambda0) for degrees 0..n, from the Gram route.

    Read off ``I - kappa^2 G = L D L^T`` with G the Gram matrix of the first
    n + 2 orthonormal Hermite functions on [lambda0, inf) and
    ``kappa^2 = 1 - e^(-2 pi i beta)``.  The values that leave double range
    at large n are logarithms (principal branch per factor).
    """

    beta: complex
    n: int
    lambda0: float
    D: np.ndarray         # pivots D_0..D_(n+1); h_k(beta)/h_k(0) = e^(i pi beta) D_k
    R: np.ndarray         # R_0 (unused, 0) .. R_(n+1)
    Q: np.ndarray         # Q_0..Q_n
    log_H_ratio: complex  # log(H_n(beta) / H_n(0))
    log_h: complex        # log h_n
    log_pn: complex       # log of monic p_n(lambda0)


def gram_system(beta, n: int, lambda0) -> GramSystem:
    """The jump-weight system for degrees 0..n by one complex128 LDL^T.

    With ``gamma_k`` the leading coefficient of the orthonormal Hermite
    polynomial, ``gamma_k^2 = 2^k / (k! sqrt(pi))``, the factorization gives

    * ``H_n(beta)/H_n(0) = e^(i pi beta n) prod_{k<n} D_k`` and
      ``h_n = e^(i pi beta) D_n / gamma_n^2``;
    * ``R_k = (k/2) D_k / D_(k-1)``;
    * ``Q_k = sqrt((k+1)/2) L_(k+1,k) - sqrt(k/2) L_(k,k-1)``;
    * ``p_n(lambda0) = y_n e^(lambda0^2/2) / gamma_n`` from ``L y = psi``,
      psi the Hermite functions at lambda0, the values G is built from.

    Leading rows whose entries of kappa^2 G all lie below half an ulp of 1
    are rows of the identity in double rounding (low-degree Hermite functions
    carry no mass past an edge cut): their pivots are ``1 - kappa^2 G_kk``
    and their off-diagonal L entries are dropped, so only the trailing block
    is factored.  There is no pivoting; a vanishing leading minor raises
    SingularMinor (see ``PIVOT_FLOOR``).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lam = float(lambda0)
    if not math.isfinite(lam):
        raise ValueError(f"lambda0 must be finite, got {lambda0}")
    k2 = kappa_sq_from_beta(beta)
    N = n + 2
    psi = hermite_functions(N + 1, lam)
    G = _gram_closed_form(np.array(psi), lam, math)
    small = abs(k2) * np.abs(G).max(axis=1) <= _HALF_ULP
    m = N if small.all() else int(np.argmin(small))
    try:
        L = ldlt(G[m:, m:], -k2)  # packed: e on the diagonal, L below it
    except SingularMinor as exc:
        raise SingularMinor(m + exc.k) from None
    D = np.concatenate((1 - k2 * np.diag(G)[:m], 1 + np.diagonal(L)))
    sub = np.zeros(n + 1, dtype=complex)  # L_(k+1,k), k = 0..n
    sub[m:] = np.diagonal(L, -1)
    r = np.sqrt(np.arange(N) / 2)
    Q = r[1:] * sub - r[:-1] * np.concatenate(([0.0], sub[:-1]))
    R = np.concatenate(([0.0], r[1:] ** 2 * D[1:] / D[:-1]))
    y = np.array(psi[:n + 1], dtype=complex)
    for i, row in enumerate(L[:n + 1 - m]):  # forward substitution, L unit lower
        y[m + i] -= row[:i] @ y[m:m + i]
    log_gamma = (n * math.log(2) - math.lgamma(n + 1) - math.log(math.pi) / 2) / 2
    ipb = 1j * math.pi * complex(beta)
    return GramSystem(
        beta=complex(beta), n=n, lambda0=lam, D=D, R=R, Q=Q,
        log_H_ratio=complex(ipb * n + np.sum(np.log(D[:n]))),
        log_h=complex(ipb + np.log(D[n]) - 2 * log_gamma),
        log_pn=cmath.log(y[n]) + lam * lam / 2 - log_gamma)


def gaussian_hankel(n: int, ctx: PrecisionCtx):
    """Closed form of the pure-Gaussian Hankel determinant.

    (2 pi)^(n/2) 2^(-n^2/2) prod_{k=1}^{n-1} k!; independent of the cut
    point, and the exact reference for every beta = 0 comparison.  The
    factorial product is one exact integer, rounded once.
    """
    with ctx.workprec(10):
        v = (2 * mp.pi) ** (mp.mpf(n) / 2) * mp.mpf(2) ** (-mp.mpf(n) ** 2 / 2)
        return v * math.prod(map(math.factorial, range(1, n)))


def eval_pn_prime(sys: OPSystem, k: int, x):
    """(p_k(x), p_k'(x)) from the three-term recurrence and its derivative.

    Monic p_k runs forward as ``p_(j+1) = (x - Q_j) p_j - R_j p_(j-1)``, and
    p_k' by the same recurrence differentiated.
    """
    if k > sys.N + 1:
        raise ValueError("degree exceeds the system order")
    with mp.workprec(sys.bits + 10):
        xv = mp.mpmathify(x)
        p_prev, p = mp.mpf(1), xv - sys.Q[0]
        d_prev, d = mp.mpf(0), mp.mpf(1)
        if k == 0:
            return p_prev, d_prev
        for j in range(1, k):
            p, p_prev, d, d_prev = (
                (xv - sys.Q[j]) * p - sys.R[j] * p_prev,
                p,
                p + (xv - sys.Q[j]) * d - sys.R[j] * d_prev,
                d,
            )
        return p, d


def qn_jump_identity_residual(sys: OPSystem, n: int):
    """Residual of the exact jump identity for Q_n.

    Multiplying the three-term recurrence by p_n w and integrating by parts
    collapses to ``Q_n h_n = -p_n(lambda0)^2 e^(-lambda0^2) sinh(i pi beta)``;
    the returned magnitude is pure round-off.
    """
    if n > sys.N:
        raise ValueError("n exceeds the system order")
    with mp.workprec(sys.bits + 10):
        lam = mp.mpf(sys.params.lambda0)
        b = mp.mpc(sys.params.beta)
        pn, _ = eval_pn_prime(sys, n, lam)
        rhs = -pn * pn * mp.exp(-lam * lam) * mp.sinh(mp.mpc(0, 1) * mp.pi * b) / sys.h[n]
        return abs(sys.Q[n] - rhs)


def diff_identity_residual(params: WeightParams, n: int, ctx: PrecisionCtx, delta=None):
    """Residual of the log-derivative identity for H_n against central differences.

    The cut-point derivative of log H_n equals
    ``(2i/h_{n-1}) (p_n' p_{n-1} - p_n p_{n-1}')(lambda0) sin(pi beta) e^(-lambda0^2)``
    (the diagonal Christoffel-Darboux kernel times the jump strength).  The
    derivative is probed by central differencing of log H_n in lambda0 with
    step ``delta`` (default 2^(-bits/3), balancing truncation against
    cancellation), all at ``ctx`` precision.
    """
    sys = build_op_system(params, n, ctx, check=False)
    with ctx.workprec(10):
        lam = mp.mpf(params.lambda0)
        b = mp.mpc(params.beta)
        if delta is None:
            delta = mp.mpf(2) ** (-(ctx.bits // 3))
        else:
            delta = mp.mpf(delta)
        pn, dpn = eval_pn_prime(sys, n, lam)
        pm, dpm = eval_pn_prime(sys, n - 1, lam)
        closed = (2j * (dpn * pm - pn * dpm) * mp.sin(mp.pi * b)
                  * mp.exp(-lam * lam) / sys.h[n - 1])
        p_plus = WeightParams(beta=params.beta, lambda0=lam + delta)
        p_minus = WeightParams(beta=params.beta, lambda0=lam - delta)
        Hp = build_op_system(p_plus, n - 1, ctx, check=False).H[n]
        Hm = build_op_system(p_minus, n - 1, ctx, check=False).H[n]
        fd = mp.log(Hp / Hm) / (2 * delta)
        return abs(fd - closed)
