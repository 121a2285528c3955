"""Gauss-Legendre rules in double precision.

Nodes and weights come from numpy's ``leggauss`` on [-1, 1] and are mapped
affinely onto the requested interval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for an interval [a, b]; weights sum to b - a."""

    nodes: tuple
    weights: tuple
    a: float
    b: float

    def nodes_array(self) -> np.ndarray:
        return np.array(self.nodes)

    def weights_array(self) -> np.ndarray:
        return np.array(self.weights)


def gauss_legendre(m: int, a, b) -> QuadratureRule:
    """m-point Gauss-Legendre rule on [a, b], exact on degree <= 2m-1."""
    if m < 1:
        raise ValueError("need at least one node")
    if not (a < b):
        raise ValueError("need a < b")
    xs, ws = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(tuple(half * xs + mid), tuple(half * ws),
                          float(a), float(b))
