"""Closed-form asymptotic predictions for the finite-n objects, as logs.

Every evaluator takes the edge coordinate t (the cut point then sits at
``sqrt(2n) (1 + t n^(-2/3)/2)``) or the bulk coordinate ``lambda`` in (-1, 1),
and returns the natural log of the predicted finite-n value as a complex, in
doubles: H_n, h_n and p_n(lambda0) leave double range from n ~ 40 on, their
logs do not.  A log sums the principal logs of its factors; a multiple of
2 pi i drops out of the ratio ``exp(log finite - log prediction)``.  The
distinction between t and its slightly deformed conformal image is absorbed
into the error terms, matching the asymptotic statements being tested.
"""
from __future__ import annotations

import cmath
import math
from statistics import fmean

import mpmath as mp
import numpy as np

__all__ = [
    "edge_hankel_asymptote", "bulk_hankel_asymptote", "recurrence_asymptotes",
    "polynomial_value_asymptote", "airy_tail_residual", "fit_order",
]


def edge_hankel_asymptote(n: int, t: float, beta, sol) -> complex:
    """Predicted log(H_n(beta)/H_n(0)) near the edge: i pi beta n - F(t).

    ``sol`` must be the Painleve solution for kappa^2 = 1 - e^(-2 pi i beta);
    F is its second antiderivative, the Tracy-Widom exponent.
    """
    return 1j * math.pi * complex(beta) * n - complex(sol.F(t))


def bulk_hankel_asymptote(n: int, lam: float, beta) -> complex:
    """Predicted log(H_n(beta)/H_n(0)) with the cut at lambda sqrt(2n) inside the bulk.

    Valid for |Re beta| < 1/4 and lambda in compact subsets of (-1, 1);
    accuracy degrades visibly as |lambda| approaches 1.
    """
    if not -1 < lam < 1:
        raise ValueError("bulk asymptote needs lambda in (-1, 1)")
    b = complex(beta)
    if abs(b.real) >= 0.25:
        raise ValueError("bulk asymptote needs |Re beta| < 1/4")
    pref = complex(mp.log(mp.barnesg(1 + b) * mp.barnesg(1 - b)))
    return (pref - 1.5 * b * b * math.log(1 - lam * lam) - b * b * math.log(8 * n)
            + 2j * n * b * (math.asin(lam) + lam * math.sqrt(1 - lam * lam)))


def recurrence_asymptotes(n: int, t: float, sol) -> dict:
    """Predicted R_n, Q_n and log h_n from the Painleve data at t.

    R = n/2 - u^2 n^(1/3)/2 and Q = -u^2 n^(-1/6)/sqrt(2).  The norm
    h_n = h_n(0) e^(i pi beta) (1 + ...), with the exact Gaussian norm
    h_n(0) = sqrt(pi) n!/2^n, comes in two variants:
    ``log_h`` uses the correction that the matrix-entry route and the finite-n
    data confirm, ``(1 - n^(-1/3) v + n^(-2/3)(v^2 - u^2)/2)``, while
    ``log_h_printed`` keeps the +v first-order sign of the published display.
    """
    u, v = complex(sol.u(t)), complex(sol.v(t))
    u2 = u * u
    R = n / 2 - u2 * n ** (1.0 / 3.0) / 2
    Q = -u2 * n ** (-1.0 / 6.0) / math.sqrt(2)
    log_pref = (math.log(math.pi) / 2 + math.lgamma(n + 1) - n * math.log(2)
                + 1j * math.pi * complex(sol.beta))
    third = n ** (-1.0 / 3.0)
    second = third * third * (v * v - u2) / 2
    return {"R": R, "Q": Q,
            "log_h": log_pref + cmath.log(1 - third * v + second),
            "log_h_printed": log_pref + cmath.log(1 + third * v + second)}


def polynomial_value_asymptote(n: int, t: float, sol) -> complex:
    """Predicted log of the monic polynomial value at the cut point.

    The log of ``(sqrt(2 pi)/kappa) (n e/2)^(n/2) n^(1/6) e^(t n^(1/3)) u(t; kappa)``;
    reduces to the classical Plancherel-Rotach form with Ai(t) as kappa -> 0.
    """
    return (math.log(2 * math.pi) / 2 - cmath.log(complex(sol.kappa))
            + n / 2 * math.log(n * math.e / 2) + math.log(n) / 6 + t * n ** (1.0 / 3.0)
            + cmath.log(complex(sol.u(t))))


def airy_tail_residual(t, beta, logdet):
    """Residual of the conjectured large-gap expansion of the Airy determinant.

    |log det(1 - kappa^2 K_Ai) + (4/3) i beta (-t)^(3/2)
      + (3/2) beta^2 log(-t) - log(G(1+beta) G(1-beta)) + 3 beta^2 log 2|,
    with ``logdet`` = log det(1 - kappa^2 K_Ai) on [t, inf); it should tend
    to 0 as t -> -infinity.  ``t`` is one point (a float back) or a sequence
    with one ``logdet`` per point (an array back); the Barnes G constant is
    evaluated once per call.
    """
    b = complex(beta)
    mt = -np.asarray(t, dtype=float)
    if not np.all(mt > 0):
        raise ValueError("the large-gap expansion needs t < 0")
    g = complex(mp.log(mp.barnesg(1 + mp.mpc(b))) + mp.log(mp.barnesg(1 - mp.mpc(b))))
    res = np.abs(np.asarray(logdet, dtype=complex) + (4.0 / 3.0) * 1j * b * mt ** 1.5
                 + 1.5 * b * b * np.log(mt) - g + 3 * b * b * math.log(2.0))
    return float(res) if res.ndim == 0 else res


def fit_order(ns, errs) -> float:
    """Empirical convergence order from errors ``errs`` at the sizes ``ns``.

    Mean over consecutive rungs of log(err_i / err_(i+1)) / log(n_(i+1) / n_i),
    so the ladder may grow by any factor from rung to rung.
    """
    if len(errs) < 2:
        raise ValueError("need at least two error values")
    if len(ns) != len(errs):
        raise ValueError(f"need one size per error, got {len(ns)} sizes for {len(errs)} errors")
    steps = []
    for n0, n1, a, b in zip(ns, ns[1:], errs, errs[1:]):
        if a <= 0 or b <= 0:
            raise ValueError("orders need positive errors")
        steps.append(math.log(a / b) / math.log(n1 / n0))
    return fmean(steps)
