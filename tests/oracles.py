"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written from first principles (series,
Gram-Schmidt, panel quadrature, patience sorting, hook lengths) so that the
values asserted in the test suite do not share code paths with the library
implementations they check.
"""
from __future__ import annotations

import cmath
import inspect
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.special import airy, eval_hermite, gammaln

from edgejump import verify
from edgejump.linalg import SingularMinor


def _edge_cuts(check) -> set:
    """The (n, t) edge cuts of a one-call check: its sweep over its driver's defaults."""
    (driver, sweep), = check.calls
    params = inspect.signature(getattr(verify, driver)).parameters
    kwargs = {name: p.default for name, p in params.items()} | sweep
    ts = kwargs["ts"] if "ts" in kwargs else (kwargs["t"],)
    return {(n, t) for n in kwargs["ns"] for t in ts}


#: The (n, t) edge cuts of criteria 5, 6 and 7 at their acceptance sweeps.
CRITERIA_5_TO_7_CUTS = sorted(set().union(*(
    _edge_cuts(verify.CHECKS[name]) for _, _, names in verify.CRITERIA[4:7] for name in names)))


def _legendre_pair(m: int, x):
    """(P_m(x), P_m'(x)) by the three-term recurrence."""
    p0, p1 = mp.mpf(1), x
    for k in range(1, m):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    if m == 0:
        return mp.mpf(1), mp.mpf(0)
    dp = m * (x * p1 - p0) / (x * x - 1)
    return p1, dp


@lru_cache(maxsize=32)
def _reference_rule_mp(m: int, bits: int):
    """Nodes/weights on [-1, 1] at the given precision."""
    with mp.workprec(bits + 20):
        nodes = [mp.mpf(0)] * m
        weights = [mp.mpf(0)] * m
        tol = mp.mpf(2) ** (-bits - 8)
        for k in range(m // 2 + m % 2):
            x = mp.mpf(mp.cos(mp.pi * (k + 0.75) / (m + 0.5)))
            for _ in range(100):
                p, dp = _legendre_pair(m, x)
                dx = p / dp
                x -= dx
                if abs(dx) < tol * max(1, abs(x)):
                    break
            p, dp = _legendre_pair(m, x)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes[k] = -x  # cos ordering is descending; store ascending
            weights[k] = w
            nodes[m - 1 - k] = x
            weights[m - 1 - k] = w
        if m % 2 == 1:
            nodes[m // 2] = mp.mpf(0)
            p, dp = _legendre_pair(m, mp.mpf(0))
            weights[m // 2] = 2 / (dp * dp)
        return tuple(nodes), tuple(weights)


def gauss_legendre_mp(m: int, a, b, bits: int):
    """m-point Gauss-Legendre (nodes, weights) on [a, b] as mpf tuples.

    The rule on [-1, 1] comes from Newton iteration on the Legendre
    recurrence, cached per (m, bits), and is mapped affinely onto [a, b] at
    bits + 10.
    """
    xs, ws = _reference_rule_mp(m, bits)
    with mp.workprec(bits + 10):
        half = (mp.mpf(b) - mp.mpf(a)) / 2
        mid = (mp.mpf(b) + mp.mpf(a)) / 2
        return tuple(half * x + mid for x in xs), tuple(half * w for w in ws)


def hermite_gram_quadrature(n: int, lambda0: float, m: int = 200) -> np.ndarray:
    """Gram matrix of the first n orthonormal Hermite functions on [lambda0, inf).

    Double-precision brute force: numpy's m-point Gauss-Legendre rule on
    [lambda0, b], b = 12 past the larger of lambda0 and the turning point
    sqrt(2n + 1), where every psi_k is below e^-70; psi_k from scipy's
    physicists' Hermite polynomials with the normalization taken in logs.
    """
    b = max(lambda0, math.sqrt(2 * n + 1)) + 12.0
    xs, ws = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (b - lambda0) * xs + 0.5 * (b + lambda0)
    w = 0.5 * (b - lambda0) * ws
    k = np.arange(n)[:, None]
    log_norm = -0.5 * (k * math.log(2.0) + gammaln(k + 1) + 0.5 * math.log(math.pi))
    psi = eval_hermite(k, x) * np.exp(log_norm - 0.5 * x * x)
    return (psi * w) @ psi.T


def airy_maclaurin(x, prec: int = 256):
    """Ai(x) by the Maclaurin series of the two Airy seed solutions.

    Ai = c1 f - c2 g with f, g the even/odd series solutions of y'' = x y,
    c1 = Ai(0) = 3^(-2/3)/Gamma(2/3), c2 = -Ai'(0) = 3^(-1/3)/Gamma(1/3).
    Converges for all x; cancellation handled with guard precision.
    """
    guard = prec + 32 + int(3.0 * abs(float(x)) ** 1.5 / math.log(2))
    with mp.workprec(guard):
        xv = mp.mpf(x)
        c1 = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
        c2 = mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf(1) / 3)
        # f: term_{k+1}/term_k = x^3 (3k+1)/((3k+1)(3k+2)(3k+3)) etc.
        f = term = mp.mpf(1)
        k = 0
        while True:
            term *= xv ** 3 * (3 * k + 1) / ((3 * k + 1) * (3 * k + 2) * (3 * k + 3))
            f += term
            k += 1
            if abs(term) < mp.mpf(2) ** (-guard) * (1 + abs(f)):
                break
        g = term = xv
        k = 0
        while True:
            term *= xv ** 3 * (3 * k + 2) / ((3 * k + 2) * (3 * k + 3) * (3 * k + 4))
            g += term
            k += 1
            if abs(term) < mp.mpf(2) ** (-guard) * (1 + abs(g)):
                break
        out = c1 * f - c2 * g
    with mp.workprec(prec):
        return +out


def hermite_orthonormal(k: int, x):
    """Degree-k Hermite polynomial, orthonormal for the weight e^(-x^2).

    Uses the recurrence on the orthonormal normalization,
    ``H_{k+1} = x sqrt(2/(k+1)) H_k - sqrt(k/(k+1)) H_{k-1}``,
    starting from H_0 = pi^(-1/4).  Accepts scalars or numpy arrays; the
    values overflow for |x| beyond ~35 at large k.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    h_prev = 0.0 * x if not np.isscalar(x) else 0.0
    h = np.pi ** -0.25 + 0.0 * x if not np.isscalar(x) else np.pi ** -0.25
    for j in range(k):
        h, h_prev = x * math.sqrt(2.0 / (j + 1)) * h - math.sqrt(j / (j + 1.0)) * h_prev, h
    return h


def moment_limit_check(t: float, m: int = 240) -> tuple:
    """(quadrature, closed form) for the limiting mean count above the edge.

    integral_t^inf (tau - t) Ai(tau)^2 d tau, by numpy's m-point
    Gauss-Legendre rule on [t, max(t, 0) + 16] with scipy's Ai, against
    (2 t^2 Ai^2 - Ai Ai' - 2 t Ai'^2)/3.
    """
    hi = max(t, 0.0) + 16.0
    xs, ws = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (hi - t) * xs + 0.5 * (hi + t)
    ai = airy(x)[0]
    quad = float(np.sum(0.5 * (hi - t) * ws * (x - t) * ai * ai))
    ai_t, aip_t = airy(t)[:2]
    closed = (2 * t * t * ai_t * ai_t - ai_t * aip_t - 2 * t * aip_t * aip_t) / 3.0
    return quad, float(closed)


def jump_weight_integral(f, beta, lambda0, bits: int = 320, span: float = 14.0,
                         m: int = 260):
    """integral f(x) w(x) dx for the phase-jump Gaussian weight.

    Panel Gauss-Legendre split exactly at the jump point, with mpmath nodes.
    """
    with mp.workprec(bits + 10):
        b = mp.mpc(beta)
        lam = mp.mpf(lambda0)
        ejp = mp.exp(mp.mpc(0, 1) * mp.pi * b)
        ejm = mp.exp(-mp.mpc(0, 1) * mp.pi * b)
        total = mp.mpc(0)
        for lo, hi, phase in ((-span, lam, ejp), (lam, span, ejm)):
            acc = mp.mpc(0)
            for x, w in zip(*gauss_legendre_mp(m, lo, hi, bits)):
                acc += w * f(x) * mp.exp(-x * x)
            total += phase * acc
        return total


def gram_schmidt_monic(beta, lambda0, degree: int, bits: int = 320):
    """Monic orthogonal polynomials by explicit Gram-Schmidt on {1, x, ...}.

    Returns coefficient rows (low to high) and the norms h_k, computed with
    panel quadrature inner products.  Small degrees only.
    """
    with mp.workprec(bits + 20):
        polys = [[mp.mpf(1)]]
        norms = []

        def inner(p, q):
            def f(x):
                px = sum(c * x ** i for i, c in enumerate(p))
                qx = sum(c * x ** i for i, c in enumerate(q))
                return px * qx
            return jump_weight_integral(f, beta, lambda0, bits=bits)

        for k in range(degree + 1):
            if k > 0:
                cand = [mp.mpc(0)] * (k + 1)
                cand[k] = mp.mpc(1)
                for j in range(k):
                    pj = polys[j]
                    coef = inner(cand, pj) / norms[j]
                    for i, c in enumerate(pj):
                        cand[i] -= coef * c
                polys.append(cand)
            norms.append(inner(polys[k], polys[k]))
        return polys, norms


def monic_coefficients(sys, k: int) -> tuple:
    """Coefficients of monic p_k, constant term first, from the recurrence of ``sys``.

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


def eval_pn_from_coeffs(sys, k: int, x):
    """Monic p_k(x) by Horner on its coefficient row."""
    row = monic_coefficients(sys, k)
    with mp.workprec(sys.bits + 10):
        xv = mp.mpmathify(x)
        acc = mp.mpc(0)
        for c in reversed(row):
            acc = acc * xv + c
        return acc


def barnes_g_via_loggamma_integral(z, bits: int = 220):
    """log G(1+z) from the classical integral of log Gamma.

    log G(1+z) = z(1-z)/2 + z/2 log(2 pi) + z log Gamma(z)
                 - integral_0^z log Gamma(x) dx,
    with the integral done on dyadic panels toward the integrable log
    singularity at 0.  Real z in (0, 1] only (enough for the cross-check).
    """
    with mp.workprec(bits + 10):
        zv = mp.mpf(z)
        total = mp.mpf(0)
        hi = zv
        for _ in range(60):
            lo = hi / 2
            nodes, weights = gauss_legendre_mp(40, lo, hi, bits)
            total += sum(w * mp.loggamma(x) for x, w in zip(nodes, weights))
            hi = lo
            if hi < mp.mpf(2) ** (-bits // 2):
                break
        # remaining [0, hi]: log Gamma(x) ~ -log x - gamma_E x, integrable
        total += hi - hi * mp.log(hi) - mp.euler * hi ** 2 / 2
        return (zv * (1 - zv) / 2 + zv / 2 * mp.log(2 * mp.pi)
                + zv * mp.loggamma(zv) - total)


def p34_residual(sol, t) -> float:
    """Residual of y'' = 4 y^2 + 2 t y + y'^2/(2y) for y = u^2 of a Painleve solution.

    Derivatives come from the dense output of ``sol``.  Undefined where u
    vanishes (in particular for the zero solution kappa = 0).
    """
    seg = sol._segment_for(t)
    if seg is None:
        raise ValueError("residual is only defined on integrated segments")
    u, up = seg(t)[:2]
    if abs(u) < 1e-8:
        raise ValueError("Painleve XXXIV residual undefined where u = 0")
    upp = seg.derivative(t, 1)
    y = u * u
    yp = 2 * u * up
    ypp = 2 * up * up + 2 * u * upp
    return abs(ypp - 4 * y * y - 2 * t * y - yp * yp / (2 * y))


def v_asymptote_minus(t, beta, form: str = "auto") -> complex:
    """Closed-form large negative-t behavior of the antiderivative branch.

    Evaluates the stated expansions of the relevant Riemann-Hilbert matrix
    entry: the general-beta form, the purely-imaginary-beta cosine form, and
    the boundary form Re beta = 1/2.  The undocumented phase symbol in the
    general form is taken as ``(4/3)(-t)^(3/2) - 3 i beta (log(-t) + 2 log 2)``,
    which reproduces the imaginary-beta case exactly; the overall sign
    convention relative to v(t) from the ODE is resolved empirically (see
    tests).
    """
    b = complex(beta)
    mt = -t
    if t >= 0:
        raise ValueError("asymptote needs t < 0")
    if form == "auto":
        if abs(b.real) < 1e-12:
            form = "imag"
        elif abs(b.real - 0.5) < 1e-12:
            form = "half"
        else:
            form = "general"
    if form == "imag":
        kt = b.imag
        if abs(kt) < 1e-12:
            return 0j
        phase = ((4.0 / 3.0) * mt ** 1.5 + 3 * kt * math.log(mt)
                 + 6 * kt * math.log(2.0) - 2 * float(mp.arg(mp.gamma(mp.mpc(0, kt)))))
        return (2 * kt * math.sqrt(mt) + kt / (2 * mt) * math.cos(phase)
                + 3 * kt * kt / (2 * mt))
    if form == "half":
        gamma = b.imag
        # the singular phase on the line Re beta = 1/2
        phase = ((2.0 / 3.0) * mt ** 1.5 + 1.5 * gamma * math.log(mt)
                 + 3.0 * gamma * math.log(2.0) - float(mp.arg(mp.gamma(mp.mpc(0.5, gamma)))))
        return math.sqrt(mt) * (2 * gamma - math.tan(phase))
    theta = (4.0 / 3.0) * mt ** 1.5 - 3j * b * (math.log(mt) + 2 * math.log(2.0))
    g = lambda z: complex(mp.gamma(mp.mpc(z)))
    osc = (g(1 - b) / g(b) * cmath.exp(1j * theta)
           - g(1 + b) / g(-b) * cmath.exp(-1j * theta))
    return -2j * b * cmath.sqrt(mt) - osc / (4j * mt) - 3 * b * b / (2 * mt)


def pii_taylor_index_sum(t, y, K):
    """Taylor coefficients of (u, u', v, F) for u'' = t u + 2 u^3, v' = -u^2, F' = -v.

    The Cauchy products of u^2 and u^3 by their index sums, term by term in
    the order j = 0..k.
    """
    u, p, v, F = ([c] for c in y)
    u2, u3 = [], []
    for k in range(K):
        u2.append(sum(u[j] * u[k - j] for j in range(k + 1)))
        u3.append(sum(u2[j] * u[k - j] for j in range(k + 1)))
        tu = t * u[k] + (u[k - 1] if k else 0)
        u.append(p[k] / (k + 1))
        p.append((tu + 2 * u3[k]) / (k + 1))
        v.append(-u2[k] / (k + 1))
        F.append(-v[k] / (k + 1))
    return u, p, v, F


def gaussian_hankel_closed_form(n: int, bits: int = 200):
    """H_n at beta = 0: (2 pi)^(n/2) 2^(-n^2/2) G(n + 1), G the Barnes G-function."""
    with mp.workprec(bits):
        return (2 * mp.pi) ** (mp.mpf(n) / 2) * mp.mpf(2) ** (-mp.mpf(n) ** 2 / 2) * mp.barnesg(n + 1)


def edge_hankel_product(n: int, beta, F, bits: int = 200):
    """Predicted edge H_n as the product e^(i pi beta n) H_n(0) e^(-F), F = F(t)."""
    with mp.workprec(bits):
        return (mp.exp(1j * mp.pi * mp.mpc(beta) * n) * gaussian_hankel_closed_form(n, bits)
                * mp.exp(-mp.mpc(F)))


def bulk_hankel_product(n: int, lam: float, beta, bits: int = 200):
    """Predicted bulk H_n: H_n(0) G(1+b) G(1-b) (1-lam^2)^(-3b^2/2) (8n)^(-b^2) e^(i phase).

    The phase is 2 n b (arcsin lam + lam sqrt(1 - lam^2)).
    """
    with mp.workprec(bits):
        b, lm = mp.mpc(beta), mp.mpf(lam)
        return (gaussian_hankel_closed_form(n, bits) * mp.barnesg(1 + b) * mp.barnesg(1 - b)
                * (1 - lm ** 2) ** (-3 * b ** 2 / 2) * (8 * mp.mpf(n)) ** (-b ** 2)
                * mp.exp(2j * n * b * (mp.asin(lm) + lm * mp.sqrt(1 - lm ** 2))))


def norm_expansion_products(n: int, beta, u, v, bits: int = 200) -> tuple:
    """Predicted h_n, with the -v and the +v first-order sign, as products.

    sqrt(pi) n! / 2^n e^(i pi beta) (1 -+ n^(-1/3) v + n^(-2/3) (v^2 - u^2)/2).
    """
    with mp.workprec(bits):
        nn = mp.mpf(n)
        pref = mp.sqrt(mp.pi) * mp.factorial(n) / 2 ** nn * mp.exp(1j * mp.pi * mp.mpc(beta))
        third = nn ** mp.mpf("-1/3")
        un, vn = mp.mpc(u), mp.mpc(v)
        second = third ** 2 * (vn * vn - un * un) / 2
        return pref * (1 - third * vn + second), pref * (1 + third * vn + second)


def polynomial_value_product(n: int, t: float, kappa, u, bits: int = 200):
    """Predicted monic p_n at the edge cut: (sqrt(2 pi)/kappa) (n e/2)^(n/2) n^(1/6) e^(t n^(1/3)) u."""
    with mp.workprec(bits):
        nn = mp.mpf(n)
        return (mp.sqrt(2 * mp.pi) / mp.mpc(kappa) * (nn * mp.e / 2) ** (nn / 2)
                * nn ** mp.mpf("1/6") * mp.exp(mp.mpf(t) * nn ** mp.mpf("1/3")) * mp.mpc(u))


def lis_length(seq) -> int:
    """Longest increasing subsequence by patience sorting (tails array)."""
    tails: list = []
    for x in seq:
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
    return len(tails)


def partitions_of(n: int):
    """All partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    def gen(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest
    yield from gen(n, n)


def hook_length_dimension(shape) -> int:
    """Number of standard Young tableaux via the hook length formula."""
    shape = list(shape)
    n = sum(shape)
    cols = [0] * (shape[0] if shape else 0)
    for row in shape:
        for j in range(row):
            cols[j] += 1
    denom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j) + (cols[j] - i) - 1
            denom *= hook
    return math.factorial(n) // denom


def plancherel_probability(shape) -> Fraction:
    """(dim shape)^2 / n! as an exact fraction."""
    d = hook_length_dimension(shape)
    return Fraction(d * d, math.factorial(sum(shape)))


def gap_probability_from_spectra(eigs: np.ndarray, lambda0: float) -> tuple:
    """P(no point above lambda0) and its standard error from whole spectra.

    ``eigs`` holds one spectrum per row, sorted descending.
    """
    trials = eigs.shape[0]
    hit = float((eigs[:, 0] <= lambda0).mean())
    return hit, math.sqrt(max(hit * (1 - hit), 1e-12) / trials)


def thinning_from_spectra(eigs: np.ndarray, s: float, lambda0: float,
                          rng: np.random.Generator) -> dict:
    """Thinned largest-point estimates from whole spectra (rows sorted descending).

    Point (i, j) is removed when the (i, j) entry of one (trials, n) uniform
    draw from ``rng`` is below s.
    """
    trials = eigs.shape[0]
    X = (eigs > lambda0).sum(axis=1)
    removed = rng.random(eigs.shape) < s
    survives = (eigs > lambda0) & ~removed
    bern = float((~survives.any(axis=1)).mean())
    weights = s ** X.astype(float)
    return {
        "bernoulli": bern,
        "bernoulli_stderr": math.sqrt(max(bern * (1 - bern), 1e-12) / trials),
        "analytic": float(weights.mean()),
        "analytic_stderr": float(weights.std(ddof=1)) / math.sqrt(trials),
    }


def thinned_max_cdf_per_trial(N: int, s: float, ts, trials: int, master: int,
                              stream: int = 0) -> dict:
    """``rmtsim.thinned_max_cdf`` one trial at a time, as the library computed it before.

    Trial i is ``plancherel_sample`` (one permutation, row by row) on
    ``stream_rng(master, stream + i)``; the estimates are computed from
    the same (trials, len(ts)) array of s^(rows above each threshold).
    """
    from edgejump.rmtsim import plancherel_sample, stream_rng

    ts = list(ts)
    thresholds = [2.0 * math.sqrt(N) + t * N ** (1.0 / 6.0) for t in ts]
    acc = np.zeros((trials, len(ts)))
    for i in range(trials):
        rng = stream_rng(master, stream + i)
        shape = plancherel_sample(N, rng, min(thresholds))
        for j, thr in enumerate(thresholds):
            above = int((shape > thr).sum())
            acc[i, j] = s ** above
    mean = acc.mean(axis=0)
    return {"t": ts, "cdf": mean.tolist(),
            "stderr": (acc.std(axis=0, ddof=1) / math.sqrt(trials)).tolist()}


def cross_pole_two_detours(t_s, y_s, side: int, tol: float):
    """The pole crossing by both semicircles, as the library made it before.

    Integrates around the pole in front of the real stop point t_s on the
    semicircle through the upper and on the one through the lower
    half-plane, and returns the pole record (with its Laurent window), the
    mirror point and the mean of the two end states there, -i (turn) added
    back to F on each.  Each end state must agree with the Laurent
    prediction.  The library goes once, counterclockwise, and takes the
    real part; this keeps the two-sided mean as its reference.  It shares
    the Laurent solve and the Taylor stepper with the library on purpose, so
    that a comparison isolates the crossing itself.
    """
    from edgejump.ode import along_path
    from edgejump.painleve import (FitFailure, PoleRecord, _laurent_data,
                                   _laurent_state, _pii_taylor)

    chords = 16
    rec = _laurent_data(t_s, y_s, side)
    a, r = rec.location, abs(t_s - rec.location)
    t_e = 2 * a - t_s
    th0 = 0.0 if side > 0 else math.pi
    pred = _laurent_state(rec, t_e)
    ends = []
    for turn in (math.pi, -math.pi):
        nodes = ([t_s] + [a + r * cmath.exp(1j * (th0 + turn * j / chords))
                          for j in range(1, chords)] + [t_e])
        y = list(along_path(_pii_taylor, y_s, nodes, tol))
        y[3] += 1j * turn
        worst = max(abs(got - want) / max(1.0, abs(want)) for got, want in zip(y, pred))
        if worst > 1e-6:
            raise FitFailure(f"detour around t = {a:.6g} misses by {worst:.2e}")
        ends.append(y)
    lo, hi = sorted((t_s, t_e))
    rec = PoleRecord(a, rec.sign, rec.cubic, rec.c_v, rec.c_f, gap_lo=lo, gap_hi=hi)
    return rec, t_e, tuple((p + q) / 2 for p, q in zip(*ends))


def laurent_data_newton(t_s, y_s, side: int):
    """Pole location and cubic coefficient fitted to u and u' at t_s, as the library once did.

    A two-variable Newton iteration on (a, h), its Jacobian from finite
    differences with steps 1e-7 |t_s - a| and 1e-3, stopped at a residual of
    1e-12 relative in both u and u'.  It shares the Laurent series with the
    library, so a comparison isolates how the location is found.
    """
    from edgejump.painleve import FitFailure, PoleRecord, _laurent_state

    u, up = y_s[0].real, y_s[1].real
    eps = 1 if u * side > 0 else -1
    a, h = t_s - eps / u, 0.0

    def residual(a, h):
        u_fit, up_fit, _, _ = _laurent_state(PoleRecord(a, eps, h), t_s)
        return u_fit - u, up_fit - up

    for _ in range(30):
        r0, r1 = residual(a, h)
        if abs(r0) <= 1e-12 * abs(u) and abs(r1) <= 1e-12 * abs(up):
            return a, h
        da, dh = 1e-7 * abs(t_s - a), 1e-3
        ra, rh = residual(a + da, h), residual(a, h + dh)
        j00, j10 = (ra[0] - r0) / da, (ra[1] - r1) / da
        j01, j11 = (rh[0] - r0) / dh, (rh[1] - r1) / dh
        det = j00 * j11 - j01 * j10
        a, h = a - (r0 * j11 - r1 * j01) / det, h - (j00 * r1 - j10 * r0) / det
    raise FitFailure(f"Newton fit near t = {t_s:.6g} did not converge")


def laurent_data_four_series(t_s, y_s, side: int):
    """The Laurent data of the pole in front of t_s, its secant on all four series.

    As the library once did it: every probe of the cubic coefficient h
    builds the Laurent coefficients of u, u', v and F and sums all four,
    though the secant compares only u.  Location, sign and the constants of
    v and F are found as the library finds them, so a comparison isolates
    the secant's probes.
    """
    from dataclasses import replace

    from edgejump.painleve import (_RATIO_MATCH, _SECANT_STEPS, FitFailure, PoleRecord,
                                   _laurent_state, _pii_taylor)
    from edgejump.ode import _ORDER

    c0, c1, c2 = (c.real for c in _pii_taylor(t_s, y_s, _ORDER)[0][-3:])
    if not (c1 and c2 and abs(c0 * c2 - c1 * c1) <= _RATIO_MATCH * c1 * c1):
        raise FitFailure(f"no pole dominates the Taylor series at t = {t_s:.6g}")
    a, u = t_s + c1 / c2, y_s[0].real
    eps = 1 if u * side > 0 else -1

    def miss(h):
        return _laurent_state(PoleRecord(a, eps, h), t_s)[0] - u

    (h0, m0), (h, m) = (0.0, miss(0.0)), (1.0, miss(1.0))
    for _ in range(_SECANT_STEPS):
        h_new = h - m * (h - h0) / (m - m0)
        m_new = miss(h_new)
        if not abs(m_new) < abs(m):
            break
        h0, m0, h, m = h, m, h_new, m_new
    else:
        raise FitFailure(f"Laurent solve near t = {t_s:.6g} did not converge")
    rec = PoleRecord(a, eps, h)
    rec = replace(rec, c_v=y_s[2].real - _laurent_state(rec, t_s)[2])
    return replace(rec, c_f=y_s[3].real - _laurent_state(rec, t_s)[3])


def step_size_all_roots(coeffs, tol):
    """The Taylor step-size rule with every root computed on every call.

    Largest h with |c_k| h^k <= tol max_(m<k) |c_m| h^m for k = K-1, K and
    every component: the minimum over (component, k) of the largest root
    (tol |c_m| / |c_k|)^(1/(k-m)).  A component whose last two
    coefficients vanish sets no bound.
    """
    h = math.inf
    for c in coeffs:
        mags = [abs(x) for x in c]
        for k in (len(c) - 2, len(c) - 1):
            mk = mags[k]
            if mk:
                h = min(h, max(map(pow, [tol * x / mk for x in mags[:k]],
                                   [1.0 / (k - m) for m in range(k)]), default=0.0))
    return h


def householder_tridiagonal_mpf(G) -> tuple:
    """(a, b2) of a tridiagonal Q^T G Q by Householder reflections in mpf.

    The floating-point form of the reduction (Golub & Van Loan 8.3.1) at the
    current working precision: each step reflects the column below the
    diagonal onto its first entry, and only the lower triangle of the
    trailing block is updated.  G is real symmetric (rows of mpf).
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


def chebyshev_fdot(mu, N: int) -> tuple:
    """(Q_0..Q_N, R_0..R_N, h_0..h_N) by the modified Chebyshev pass on ``mp.fdot``.

    Each modified moment sigma_{k,l} = sigma_{k-1,l+1} - Q_{k-1} sigma_{k-1,l}
    - R_{k-1} sigma_{k-2,l} is one ``mp.fdot`` at the current working
    precision: mpmath sums the exact products with ``mpf_sum`` and rounds the
    real and imaginary parts once each.  Raises SingularMinor when a diagonal
    modified moment vanishes exactly.
    """
    if mu[0] == 0:
        raise SingularMinor(1)
    zero, one = mu[0] * 0, mp.mpf(1)
    sig_prev = [zero] * (2 * N + 2)
    sig = list(mu[:2 * N + 2])
    Q, R, h = [mu[1] / mu[0]], [zero], [mu[0]]
    for k in range(1, N + 1):
        new = [zero] * (2 * N + 2)
        coeffs = (one, -Q[k - 1], -R[k - 1])
        for l in range(k, 2 * N + 2 - k):
            new[l] = mp.fdot(coeffs, (sig[l + 1], sig[l], sig_prev[l]))
        if new[k] == 0:
            raise SingularMinor(k + 1)
        Q.append(new[k + 1] / new[k] - sig[k] / sig[k - 1])
        R.append(new[k] / sig[k - 1])
        h.append(new[k])
        sig_prev, sig = sig, new
    return Q, R, h


def op_system_mpc_phases(beta, lambda0, N: int, bits: int) -> tuple:
    """(H, h, R, Q) of the jump weight, every step in complex arithmetic.

    The moments mu_j = e^(i pi beta) (M_j - J_j) + e^(-i pi beta) J_j take
    mpc phases whatever beta is, with the full moments M_j = Gamma((j+1)/2)
    (even j) and the half-range moments J_j = integral_lambda0^inf x^j
    e^(-x^2) dx from J_0 = sqrt(pi) erfc(lambda0) / 2, J_1 = e^(-lambda0^2) / 2
    and J_j = lambda0^(j-1) e^(-lambda0^2) / 2 + (j - 1) J_(j-2) / 2 (upward,
    for moderate lambda0), rounded to ``bits``.  The modified Chebyshev pass
    then runs at bits + 10 with each modified moment updated by three
    separately rounded complex operations.
    """
    kmax = 2 * N + 1
    with mp.workprec(bits + 20):
        lam = mp.mpf(lambda0)
        w = mp.exp(-lam * lam)
        J = [mp.sqrt(mp.pi) * mp.erfc(lam) / 2, w / 2]
        for j in range(2, kmax + 1):
            J.append(lam ** (j - 1) * w / 2 + (j - 1) * J[j - 2] / 2)
        ipb = mp.mpc(0, 1) * mp.pi * mp.mpc(beta)
        eplus, eminus = mp.exp(ipb), mp.exp(-ipb)
        mu = [eplus * ((mp.gamma(mp.mpf(j + 1) / 2) if j % 2 == 0 else 0) - J[j])
              + eminus * J[j] for j in range(kmax + 1)]
    with mp.workprec(bits):
        mu = [+m for m in mu]
    with mp.workprec(bits + 10):
        zero = mp.mpc(0)
        sig_prev, sig = [zero] * (kmax + 1), mu
        Q, R, h = [mu[1] / mu[0]], [zero], [mu[0]]
        for k in range(1, N + 1):
            new = [zero] * (kmax + 1)
            for l in range(k, kmax + 1 - k):
                new[l] = sig[l + 1] - Q[k - 1] * sig[l] - R[k - 1] * sig_prev[l]
            Q.append(new[k + 1] / new[k] - sig[k] / sig[k - 1])
            R.append(new[k] / sig[k - 1])
            h.append(new[k])
            sig_prev, sig = sig, new
        H = [mp.mpc(1)]
        for hk in h:
            H.append(H[-1] * hk)
        return H, h, R, Q
