"""Closed-form asymptotic predictions for the finite-n objects.

Every evaluator takes the edge coordinate t (the cut point then sits at
``sqrt(2n) (1 + t n^(-2/3)/2)``) or the bulk coordinate ``lambda`` in (-1, 1),
and returns the predicted value of the matching finite-n quantity.  The
distinction between t and its slightly deformed conformal image is absorbed
into the error terms, matching the asymptotic statements being tested.

All fractional powers and logarithms act on positive real arguments here
(principal branches throughout).
"""
from __future__ import annotations

import math
from statistics import fmean

import mpmath as mp

from .precision import PrecisionCtx
from .weightlab import gaussian_hankel

__all__ = [
    "edge_hankel_asymptote", "bulk_hankel_asymptote", "recurrence_asymptotes",
    "polynomial_value_asymptote", "airy_tail_residual", "fit_order",
]


def edge_hankel_asymptote(n: int, t: float, beta, sol, ctx: PrecisionCtx) -> mp.mpc:
    """Predicted H_n near the edge: e^(i pi beta n) H_n(0) exp(-F(t)).

    ``sol`` must be the Painleve solution for kappa^2 = 1 - e^(-2 pi i beta);
    F is its second antiderivative, the Tracy-Widom exponent.
    """
    F = complex(sol.F(t))
    with ctx.workprec(10):
        return (mp.exp(1j * mp.pi * mp.mpc(beta) * n) * gaussian_hankel(n, ctx)
                * mp.exp(-mp.mpc(F)))


def bulk_hankel_asymptote(n: int, lam: float, beta, ctx: PrecisionCtx) -> mp.mpc:
    """Predicted H_n with the cut at lambda sqrt(2n) strictly inside the bulk.

    Valid for |Re beta| < 1/4 and lambda in compact subsets of (-1, 1);
    accuracy degrades visibly as |lambda| approaches 1.
    """
    if not -1 < lam < 1:
        raise ValueError("bulk asymptote needs lambda in (-1, 1)")
    b = complex(beta)
    if abs(b.real) >= 0.25:
        raise ValueError("bulk asymptote needs |Re beta| < 1/4")
    with ctx.workprec(10):
        bb = mp.mpc(beta)
        lamm = mp.mpf(lam)
        pref = mp.barnesg(1 + bb) * mp.barnesg(1 - bb)
        pw = (1 - lamm ** 2) ** (-3 * bb ** 2 / 2) * (8 * mp.mpf(n)) ** (-bb ** 2)
        osc = mp.exp(2j * n * bb * (mp.asin(lamm) + lamm * mp.sqrt(1 - lamm ** 2)))
        return gaussian_hankel(n, ctx) * pref * pw * osc


def recurrence_asymptotes(n: int, t: float, sol, ctx: PrecisionCtx | None = None) -> dict:
    """Predicted R_n, Q_n and norm h_n from the Painleve data at t.

    R = n/2 - u^2 n^(1/3)/2 and Q = -u^2 n^(-1/6)/sqrt(2).  The norm
    expansion is returned in two variants: ``h`` uses the coefficients that
    the matrix-entry route and the finite-n data confirm,
    ``(1 - n^(-1/3) v + n^(-2/3)(v^2 - u^2)/2)``, while ``h_printed`` keeps
    the +v first-order sign of the published display; residual reports
    print both.
    """
    u = complex(sol.u(t))
    v = complex(sol.v(t))
    u2 = u * u
    R = n / 2 - u2 * n ** (1.0 / 3.0) / 2
    Q = -u2 * n ** (-1.0 / 6.0) / math.sqrt(2)
    bits = ctx.bits if ctx is not None else 64
    with mp.workprec(bits + 10):
        nn = mp.mpf(n)
        pref = (mp.pi * mp.sqrt(2 * nn) * nn ** nn / (2 ** nn * mp.exp(nn))
                * mp.exp(1j * mp.pi * mp.mpc(sol.beta)))
        un, vn = mp.mpc(u2), mp.mpc(v)
        third = nn ** mp.mpf("-1/3")
        second = (vn * vn - un) / 2
        h = pref * (1 - third * vn + third ** 2 * second)
        h_printed = pref * (1 + third * vn + third ** 2 * second)
    return {"R": R, "Q": Q, "h": h, "h_printed": h_printed}


def polynomial_value_asymptote(n: int, t: float, sol, ctx: PrecisionCtx | None = None) -> mp.mpc:
    """Predicted monic polynomial value at the cut point.

    ``(sqrt(2 pi)/kappa) (n e/2)^(n/2) n^(1/6) e^(t n^(1/3)) u(t; kappa)``;
    reduces to the classical Plancherel-Rotach form with Ai(t) as kappa -> 0.
    """
    u = complex(sol.u(t))
    kap = complex(sol.kappa)
    bits = ctx.bits if ctx is not None else 64
    with mp.workprec(bits + 10):
        nn = mp.mpf(n)
        return (mp.sqrt(2 * mp.pi) / mp.mpc(kap) * (nn * mp.e / 2) ** (nn / 2)
                * nn ** mp.mpf("1/6") * mp.exp(mp.mpf(t) * nn ** mp.mpf("1/3"))
                * mp.mpc(u))


def airy_tail_residual(t: float, beta, logdet: complex) -> float:
    """Residual of the conjectured large-gap expansion of the Airy determinant.

    |log det(1 - kappa^2 K_Ai) + (4/3) i beta (-t)^(3/2)
      + (3/2) beta^2 log(-t) - log(G(1+beta) G(1-beta)) + 3 beta^2 log 2|,
    with ``logdet`` = log det(1 - kappa^2 K_Ai) on [t, inf); it should tend
    to 0 as t -> -infinity.
    """
    b = complex(beta)
    if b == 0:
        return 0.0
    mt = -t
    g = complex(mp.log(mp.barnesg(1 + mp.mpc(b))) + mp.log(mp.barnesg(1 - mp.mpc(b))))
    val = (complex(logdet) + (4.0 / 3.0) * 1j * b * mt ** 1.5
           + 1.5 * b * b * math.log(mt) - g + 3 * b * b * math.log(2.0))
    return abs(val)


def fit_order(errs, ratio: float = 2.0) -> float:
    """Empirical convergence order from errors at successively scaled sizes.

    Mean of log_ratio(err_i / err_{i+1}) over the supplied sequence (sizes
    assumed to grow by ``ratio`` each step).
    """
    if len(errs) < 2:
        raise ValueError("need at least two error values")
    steps = []
    for a, b in zip(errs, errs[1:]):
        if a <= 0 or b <= 0:
            raise ValueError("orders need positive errors")
        steps.append(math.log(a / b) / math.log(ratio))
    return fmean(steps)
