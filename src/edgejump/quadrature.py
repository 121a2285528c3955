"""Gauss-Legendre rules in double precision.

Nodes and weights come from numpy's ``leggauss`` on [-1, 1] and are mapped
affinely onto the requested interval.
"""
from __future__ import annotations

import numpy as np


def gauss_legendre(m: int, a, b) -> tuple:
    """(nodes, weights) arrays of the m-point rule on [a, b], exact on degree <= 2m-1."""
    if m < 1:
        raise ValueError("need at least one node")
    if not (a < b):
        raise ValueError("need a < b")
    xs, ws = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return half * xs + mid, half * ws
