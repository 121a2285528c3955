"""Fixed-order Taylor-series integration with dense output.

The caller supplies the Taylor coefficients of the solution at a point,
``taylor(t, y, K) -> [[c_0, ..., c_K] per component]`` with ``c_0 = y``.
For a polynomial ODE they follow from Cauchy products in O(K^2) per step
(Jorba & Zou, Exp. Math. 14, 2005).  Each step evaluates that degree-K
polynomial, and the polynomial is also the dense output: the trajectory and
its derivative between steps are the polynomial and its derivative.

The step size comes from the decay of the last two coefficients of every
component, measured against the largest earlier term of the same component,
so it is unchanged when a component is multiplied by a constant and does
not collapse where a component crosses zero.  The step follows the local
radius of convergence, so it shrinks geometrically toward a singularity;
when it falls below a floor, or the state overflows,
:class:`StepUnderflow` carries the partial trajectory, which is how
downstream code detects solution singularities.

Steps may be complex: :func:`along_path` integrates through a chain of
points in the complex t-plane, which is how a caller goes around a pole.
"""
from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right

__all__ = ["adaptive_rk", "along_path", "DenseTrajectory", "StepUnderflow"]

_ORDER = 24  # degree of the Taylor polynomial of every step
_EPS = sys.float_info.epsilon
_MAX_STEPS = 100_000
# The rule bounds the last terms of the value; the slope of the polynomial
# (the dense derivative) carries K/h times that.  Shrinking every step by
# 0.8 cuts both by 0.8^K ~ 5e-3.
_SAFETY = 0.8


class StepUnderflow(RuntimeError):
    """Step size fell below the floor at ``t_star``; a singularity is near.

    Carries the partial trajectory computed so far.
    """

    def __init__(self, t_star, trajectory):
        super().__init__(f"step size underflow near t = {complex(t_star).real:.6g}")
        self.t_star = t_star
        self.trajectory = trajectory


def _horner(c, s):
    acc = 0 * s
    for ck in reversed(c):
        acc = acc * s + ck
    return acc


def _horner_derivative(c, s):
    acc = 0 * s
    for k in range(len(c) - 1, 0, -1):
        acc = acc * s + k * c[k]
    return acc


class DenseTrajectory:
    """Piecewise Taylor polynomials of one run on a line in the t-plane.

    Evaluates the state, or its component ``k`` alone, and the t-derivative
    of component ``k`` at any point of the span, whichever the direction of
    integration.
    """

    def __init__(self, ts, coeffs, direction, y_end, event_t=None):
        self.ts = ts            # step start points, plus the final point
        self.coeffs = coeffs    # per step: one coefficient list per component
        self.direction = direction
        self.y_end = y_end      # state at the final point
        self.event_t = event_t
        self._key = [self._param(t) for t in ts]

    def _param(self, t):
        return ((t - self.ts[0]) / self.direction).real

    @property
    def t_begin(self):
        return self.ts[0]

    @property
    def t_end(self):
        return self.ts[-1]

    @property
    def n_steps(self) -> int:
        return len(self.coeffs)

    def _locate(self, t):
        key = self._param(t)
        slack = 1e-9 * (1.0 + abs(t))
        if not self.coeffs or not (-slack <= key <= self._key[-1] + slack):
            lo, hi = sorted((complex(self.ts[0]).real, complex(self.ts[-1]).real))
            raise ValueError(f"t = {t} outside trajectory span [{lo}, {hi}]")
        i = min(max(bisect_right(self._key, key) - 1, 0), len(self.coeffs) - 1)
        return i, t - self.ts[i]

    def __call__(self, t, k=None):
        i, s = self._locate(t)
        c = self.coeffs[i]
        return tuple(_horner(ck, s) for ck in c) if k is None else _horner(c[k], s)

    def derivative(self, t, k):
        i, s = self._locate(t)
        return _horner_derivative(self.coeffs[i][k], s)


#: _ROOT_EXPONENTS[k][m] = 1/(k - m), the exponent of the step-size root.
_ROOT_EXPONENTS = [[1.0 / (k - m) for m in range(k)] for k in range(_ORDER + 1)]


def _step_size(coeffs, tol):
    """Largest h with |c_k| h^k <= tol max_(m<k) |c_m| h^m, k = K-1, K, every component.

    A component whose last two coefficients vanish sets no bound.  A zero
    c_m gives a zero root, which never raises the max.
    """
    h = math.inf
    for c in coeffs:
        mags = [abs(x) for x in c]
        for k in (len(c) - 2, len(c) - 1):
            mk = mags[k]
            if mk:
                h = min(h, max(map(pow, [tol * x / mk for x in mags[:k]],
                                   _ROOT_EXPONENTS[k]), default=0.0))
    return h


def _march(taylor, y0, t0, t1, tol, event):
    if tol <= 0:
        raise ValueError("tol must be positive")
    direction = (t1 - t0) / abs(t1 - t0) if t1 != t0 else 1
    t, y = t0, tuple(y0)
    ts, coeffs = [t0], []
    event_t = None
    while abs(t1 - t) > 4 * _EPS * max(1.0, abs(t)):
        if len(coeffs) >= _MAX_STEPS:
            raise RuntimeError(f"exceeded {_MAX_STEPS} steps")
        c = taylor(t, y, _ORDER)
        h = _SAFETY * _step_size(c, tol)
        if not h >= 64 * _EPS * max(1.0, abs(t)):
            raise StepUnderflow(t, DenseTrajectory(ts, coeffs, direction, y))
        last = h >= abs(t1 - t)
        step = t1 - t if last else direction * h
        y_new = tuple(_horner(ci, step) for ci in c)
        if not all(cmath.isfinite(v) for v in y_new):
            raise StepUnderflow(t, DenseTrajectory(ts, coeffs, direction, y))
        t = t1 if last else t + step
        ts.append(t)
        coeffs.append(c)
        y = y_new
        if event is not None and event(t, y):
            event_t = t
            break
    return DenseTrajectory(ts, coeffs, direction, y, event_t)


def adaptive_rk(taylor, y0, t0, t1, tol, *, event=None):
    """Integrate from real t0 to real t1 (either direction) by Taylor steps.

    (The name predates the Taylor stepper and is kept for the callers and
    tools that bind it.)

    Parameters
    ----------
    taylor : callable(t, y_tuple, K) -> sequence of coefficient lists
        The Taylor coefficients ``c_0 .. c_K`` of every component of the
        solution through ``y`` at ``t``, with ``c_0 = y``.
    y0 : sequence
        Initial state; float or complex scalars.
    tol : float
        Local relative error per step: the last two terms of every
        component stay below ``tol`` times its largest earlier term.
    event : callable(t, y) -> bool, optional
        Stop after the first step where it returns True; the trajectory
        records the stop point in ``event_t``.

    Returns
    -------
    DenseTrajectory

    Raises
    ------
    StepUnderflow
        If the step size falls below ``64 eps max(1, |t|)`` or the state
        overflows, which signals a solution singularity near
        ``t_star``; the partial trajectory is attached to the exception.
    """
    return _march(taylor, y0, float(t0), float(t1), tol, event)


def along_path(taylor, y0, nodes, tol):
    """Integrate through the points ``nodes`` of the complex t-plane.

    Straight legs join consecutive nodes; returns the state at the last one.
    """
    y = tuple(y0)
    for t0, t1 in zip(nodes, nodes[1:]):
        y = _march(taylor, y, t0, t1, tol, None).y_end
    return y
