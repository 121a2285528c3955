"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written from first principles (series,
Gram-Schmidt, panel quadrature, patience sorting, hook lengths) so that the
values asserted in the test suite do not share code paths with the library
implementations they check.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.special import eval_hermite, gammaln


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
