"""Parameter conversions between the jump exponent beta and kappa."""
from __future__ import annotations

import cmath

import mpmath as mp

from .precision import PrecisionCtx


def kappa_sq_from_beta(beta, ctx: PrecisionCtx | None = None):
    """kappa^2 = 1 - exp(-2 pi i beta)."""
    if ctx is None:
        return 1 - cmath.exp(-2j * cmath.pi * complex(beta))
    with ctx.workprec(10):
        return 1 - mp.exp(-2j * mp.pi * mp.mpc(beta))


def kappa_from_beta(beta) -> complex:
    """Principal square root of ``kappa_sq_from_beta``."""
    return cmath.sqrt(kappa_sq_from_beta(beta))


def beta_from_kappa(kappa) -> complex:
    """Jump exponent on the branch |Re beta| <= 1/2.

    Inverts kappa^2 = 1 - exp(-2 pi i beta) with the principal logarithm,
    which lands Re beta in (-1/2, 1/2] automatically.
    """
    z = 1 - complex(kappa) ** 2
    if z == 0:
        raise ValueError("kappa = +-1 (Hastings-McLeod) is out of scope")
    return 1j * cmath.log(z) / (2 * cmath.pi)
