"""Arbitrary-precision working context.

All exact finite-n computations (moments, Hankel determinants, recurrence
coefficients) run on mpmath big floats under an explicit :class:`PrecisionCtx`.
The context is immutable and is threaded through as a plain argument, so every
operation stays a pure function of its inputs.  Routines that accept
``ctx=None`` fall back to ordinary double precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

#: Fewest mantissa bits a context may have.
MIN_BITS = 64

#: Floor used by the Hankel precision heuristic.
MIN_HANKEL_BITS = 192


@dataclass(frozen=True)
class PrecisionCtx:
    """Immutable mantissa-bit configuration (round-to-nearest)."""

    bits: int

    def __post_init__(self):
        if self.bits < MIN_BITS:
            raise ValueError(f"need at least {MIN_BITS} mantissa bits, got {self.bits}")

    def workprec(self, extra: int = 0):
        """Context manager setting mpmath precision to ``bits + extra``."""
        return mp.workprec(self.bits + extra)

    def doubled(self) -> "PrecisionCtx":
        return PrecisionCtx(2 * self.bits)


def hankel_ctx(n: int) -> PrecisionCtx:
    """Default context for moment/Hankel work with matrices of size ``n``.

    Hankel matrices of analytic weights are exponentially ill-conditioned in
    the size, so the bit budget grows linearly: ``max(192, 64 + 12 n)``.  The
    slope is calibrated so that the doubled-precision agreement check retains
    hundreds of digits even at n = 256.
    """
    return PrecisionCtx(max(MIN_HANKEL_BITS, 64 + 12 * n))


def agreed_digits(a, b) -> int:
    """Number of agreeing decimal digits between two estimates of a value.

    Used by the compute-twice policy: a value is recomputed at doubled
    precision and only the agreeing digits are trusted.  Returns a large
    sentinel (9999) for exact agreement.
    """
    a, b = mp.mpmathify(a), mp.mpmathify(b)
    diff = abs(a - b)
    if diff == 0:
        return 9999
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 9999
    rel = diff / scale
    return max(0, int(-mp.log10(rel)))
