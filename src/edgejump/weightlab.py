"""Finite-n orthogonal-polynomial systems for the jump-discontinuous Gaussian weight.

The weight is ``e^(-x^2)`` times a pure phase jump: ``e^(i pi beta)`` left of
the cut point lambda0 and ``e^(-i pi beta)`` right of it.  This module builds,
at controlled precision, the moment sequence, the Hankel determinants H_k, the
norms h_k and the monic three-term recurrence coefficients R_k and Q_k, and
exposes the two exact internal identities (the jump identity for Q_n and the
log-derivative identity for the Hankel determinant) as residual operations.
Polynomial values come from the recurrence; a monic coefficient row is built
from it on demand, for cross-checks only.

Recurrence data is produced by the classical moment-to-recurrence (Chebyshev)
algorithm, one O(N^2) pass over modified moment tables.  It is algebraically
identical to solving the k x k moment systems minor by minor but feasible at
N = 256 and beyond; the test suite pins it against the pivoted-LU route on
small systems.  The map from moments to recurrence coefficients is
exponentially ill-conditioned, which is paid for with mantissa bits (see
``precision.hankel_ctx``), and every system is built twice (bits, 2 bits) so
only agreeing digits are reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .precision import PrecisionCtx, agreed_digits, hankel_ctx
from .specfun import _full_gauss_moment, half_gauss_moments

__all__ = [
    "WeightParams", "OPSystem", "SingularMinor", "moments", "build_op_system",
    "eval_pn", "eval_pn_prime", "monic_coefficients", "eval_pn_from_coeffs",
    "qn_jump_identity_residual", "diff_identity_residual",
    "gaussian_hankel", "hankel_matrix",
]


class SingularMinor(ArithmeticError):
    """A leading Hankel minor vanished at this (lambda0, beta).

    Zeros of H_k are meaningful for complex beta, not numerical noise; no
    regularization is applied.  Callers should perturb parameters.
    """

    def __init__(self, k: int):
        super().__init__(f"Hankel minor H_{k} vanished")
        self.k = k


@dataclass(frozen=True)
class WeightParams:
    """Jump parameters: exponent beta (|Re beta| <= 1/2) and cut point lambda0.

    Either construct directly from (beta, lambda0) or in edge form from
    (beta, n, t), which places the cut at
    ``lambda0 = sqrt(2 n) (1 + t n^(-2/3) / 2)`` near the spectral edge.
    """

    beta: complex
    lambda0: object  # float or mpf; pinned at construction precision
    n: int | None = None
    t: float | None = None

    def __post_init__(self):
        b = complex(self.beta) if not isinstance(self.beta, mp.mpc) else self.beta
        if not (abs(complex(b).real) < 1e308 and abs(complex(b).imag) < 1e308):
            raise ValueError("beta must be finite")
        # The weight is 2-periodic in beta, so any real part is accepted;
        # |Re beta| <= 1/2 is the canonical band and the asymptotic
        # evaluators enforce their own narrower domains.

    @classmethod
    def direct(cls, beta, lambda0) -> "WeightParams":
        return cls(beta=beta, lambda0=lambda0)

    @classmethod
    def edge(cls, beta, n: int, t, ctx: PrecisionCtx) -> "WeightParams":
        if n < 1:
            raise ValueError("n must be a positive integer")
        with ctx.workprec():
            tn = mp.mpf(t)
            lam0 = mp.sqrt(2 * mp.mpf(n)) * (1 + tn * mp.mpf(n) ** mp.mpf("-2/3") / 2)
        return cls(beta=beta, lambda0=lam0, n=n, t=float(t))

    def jump_phases(self):
        """(e^(i pi beta), e^(-i pi beta)) at current working precision."""
        b = mp.mpc(self.beta)
        ipb = mp.mpc(0, 1) * mp.pi * b
        return mp.exp(ipb), mp.exp(-ipb)


def moments(params: WeightParams, kmax: int, ctx: PrecisionCtx):
    """Weight moments mu_0..mu_kmax.

    mu_j = e^(i pi beta) (M_j - J_j) + e^(-i pi beta) J_j with M_j the full
    Gaussian moment and J_j the half-range table from the cut point up.
    """
    J = half_gauss_moments(params.lambda0, kmax, ctx)
    with ctx.workprec(20):
        eplus, eminus = params.jump_phases()
        out = []
        for j in range(kmax + 1):
            Mj = _full_gauss_moment(j)
            out.append(eplus * (Mj - J[j]) + eminus * J[j])
    with ctx.workprec():
        return tuple(+m for m in out)


def _chebyshev(mu, N: int):
    """Moment-to-recurrence pass: (Q_0..Q_N, R_0..R_N, h_0..h_N).

    R_0 is set to zero (the p_{-1} term of the recurrence never enters).
    Raises SingularMinor when a diagonal modified moment vanishes exactly.
    """
    if mu[0] == 0:
        raise SingularMinor(1)
    zero = mu[0] * 0
    sig_prev = [zero] * (2 * N + 2)
    sig = list(mu[:2 * N + 2])
    Q = [mu[1] / mu[0]]
    R = [zero]
    h = [mu[0]]
    for k in range(1, N + 1):
        new = [zero] * (2 * N + 2)
        # sigma_{k,l} = sigma_{k-1,l+1} - Q_{k-1} sigma_{k-1,l} - R_{k-1} sigma_{k-2,l}
        qkm, rkm = Q[k - 1], R[k - 1]
        for l in range(k, 2 * N + 2 - k):
            new[l] = sig[l + 1] - qkm * sig[l] - rkm * sig_prev[l]
        if new[k] == 0:
            raise SingularMinor(k + 1)
        Q.append(new[k + 1] / new[k] - sig[k] / sig[k - 1])
        R.append(new[k] / sig[k - 1])
        h.append(new[k])
        sig_prev, sig = sig, new
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

    @property
    def ctx(self) -> PrecisionCtx:
        return PrecisionCtx(self.bits)


def _build_once(params: WeightParams, N: int, ctx: PrecisionCtx):
    mu = moments(params, 2 * N + 1, ctx)
    with ctx.workprec(10):
        Q, R, h = _chebyshev(mu, N)
        H = [mp.mpf(1)]
        for k in range(N + 1):
            H.append(H[-1] * h[k])
        return OPSystem(params=params, N=N, bits=ctx.bits,
                        H=tuple(H), h=tuple(h), R=tuple(R), Q=tuple(Q))


def build_op_system(params: WeightParams, N: int, ctx: PrecisionCtx | None = None,
                    *, check: bool = True) -> OPSystem:
    """Build the OPSystem for degrees 0..N.

    With ``check`` (default) the system is computed at ctx.bits and at twice
    that, values are taken from the high run, and the agreeing digit counts
    per field family are attached.  Requires all leading Hankel minors
    nonzero; raises SingularMinor otherwise.
    """
    if ctx is None:
        ctx = hankel_ctx(N)
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


def gaussian_hankel(n: int, ctx: PrecisionCtx):
    """Closed form of the pure-Gaussian Hankel determinant.

    (2 pi)^(n/2) 2^(-n^2/2) prod_{k=1}^{n-1} k!; independent of the cut
    point, and the exact reference for every beta = 0 comparison.
    """
    with ctx.workprec(10):
        v = (2 * mp.pi) ** (mp.mpf(n) / 2) * mp.mpf(2) ** (-mp.mpf(n) ** 2 / 2)
        for k in range(1, n):
            v *= mp.factorial(k)
        return +v


def eval_pn(sys: OPSystem, k: int, x):
    """Monic p_k(x) by the forward three-term recurrence."""
    if k > sys.N + 1:
        raise ValueError("degree exceeds the system order")
    with mp.workprec(sys.bits + 10):
        xv = mp.mpmathify(x)
        p_prev, p = mp.mpf(1), xv - sys.Q[0]
        if k == 0:
            return p_prev
        for j in range(1, k):
            p, p_prev = (xv - sys.Q[j]) * p - sys.R[j] * p_prev, p
        return p


def eval_pn_prime(sys: OPSystem, k: int, x):
    """(p_k(x), p_k'(x)) from the differentiated recurrence."""
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


def monic_coefficients(sys: OPSystem, k: int) -> tuple:
    """Coefficients of monic p_k, constant term first, from the recurrence.

    O(k^2) work: rows p_0..p_k are built by ``p_{j+1} = (x - Q_j) p_j -
    R_j p_{j-1}`` and only row k is kept.
    """
    if k > sys.N + 1:
        raise ValueError("degree exceeds the system order")
    with mp.workprec(sys.bits + 10):
        prev, cur = (), (mp.mpf(1),)
        for j in range(k):
            nxt = [mp.mpc(0)] * (j + 2)
            for i, c in enumerate(cur):       # x * p_j
                nxt[i + 1] += c
            for i, c in enumerate(cur):       # - Q_j p_j
                nxt[i] -= sys.Q[j] * c
            for i, c in enumerate(prev):      # - R_j p_{j-1}
                nxt[i] -= sys.R[j] * c
            prev, cur = cur, tuple(nxt)
        return cur


def eval_pn_from_coeffs(sys: OPSystem, k: int, x):
    """Monic p_k(x) by Horner on its coefficient row (cross-check route)."""
    row = monic_coefficients(sys, k)
    with mp.workprec(sys.bits + 10):
        xv = mp.mpmathify(x)
        acc = mp.mpc(0)
        for c in reversed(row):
            acc = acc * xv + c
        return acc


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
        pn = eval_pn(sys, n, lam)
        rhs = -pn * pn * mp.exp(-lam * lam) * mp.sinh(mp.mpc(0, 1) * mp.pi * b) / sys.h[n]
        return abs(sys.Q[n] - rhs)


def diff_identity_residual(params: WeightParams, n: int, delta=None,
                           ctx: PrecisionCtx | None = None):
    """Residual of the log-derivative identity for H_n against central differences.

    The cut-point derivative of log H_n equals
    ``(2i/h_{n-1}) (p_n' p_{n-1} - p_n p_{n-1}')(lambda0) sin(pi beta) e^(-lambda0^2)``
    (the diagonal Christoffel-Darboux kernel times the jump strength).  The
    derivative is probed by central differencing of log H_n in lambda0 with
    step ``delta`` (default 2^(-bits/3), balancing truncation against
    cancellation).
    """
    if ctx is None:
        ctx = hankel_ctx(n)
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
