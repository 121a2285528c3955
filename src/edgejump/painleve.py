"""Oscillatory Painleve II transcendents pinned by Airy decay at +infinity.

``solve_as`` integrates u'' = t u + 2 u^3 downward from truncated Airy initial
data ``u ~ kappa Ai(t)``, carrying the two antiderivatives needed elsewhere:

* v(t)  = integral_t^inf u^2            (v' = -u^2),
* F(t)  = integral_t^inf (tau - t) u^2  (F' = -v),

as an augmented 4-component system, so u, v and F stay mutually consistent
to stepper tolerance.  The system is polynomial, so its Taylor coefficients
come from Cauchy products and :mod:`edgejump.ode` steps it with a
fixed-order Taylor series whose polynomial is also the dense output.
Integration is downward only; the decaying direction t -> +inf is unstable
and is never integrated toward +infinity.

For real |kappa| > 1 the solution has real poles.  A run stops in front of
one once |u| reaches 20, reads the pole's location off u's Taylor series
there, which the pole dominates, solves the free cubic coefficient from u, and
goes around the pole through complex t to the mirror point (Fornberg & Weideman,
J. Comput. Phys. 230, 2011); each crossing is recorded, and the Laurent
expansion, its coefficients from a Cauchy-product recurrence as the Taylor
ones are, answers real t inside the small window the detour skips.  The
solution is real, so the detours above and below the pole are mirror images
(Schwarz reflection): one serves, and the continuation is the real part of
its end state.  u, u' and v are meromorphic there; F picks up -log(t - a)
and takes the real part -log|t - a| (F is only used on pole-free runs).
A real kappa runs on Python floats, complex only on the detour legs; the Airy
initial data are numpy scalars, converted first, as float * numpy.float64 is a
numpy.float64, slower in every operation.  A non-real kappa runs complex.

Closed-form asymptotic evaluators for the oscillatory regime t -> -inf and
for the squared transcendent in the singular |Re beta| = 1/2 regime are
provided alongside.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import partialmethod
from operator import mul

import mpmath as mp
import numpy as np

from .ode import _ORDER, StepUnderflow, _horner, adaptive_rk, along_path
from .specfun import airy
from .util import DomainError, beta_from_kappa

__all__ = [
    "ASolution", "PoleRecord", "solve_as", "PoleEncountered", "FitFailure",
    "TooCloseToPole", "as_asymptote_minus", "p34_singular_asymptote",
    "pii_residual", "phase_oscillatory", "phase_singular",
    "pole_roundtrip_error", "pole_free_scan",
]


class PoleEncountered(RuntimeError):
    """Blow-up on the real line with traversal disabled."""

    def __init__(self, t_star):
        super().__init__(f"Painleve II pole near t = {float(t_star):.6g}")
        self.t_star = t_star


class FitFailure(RuntimeError):
    """The Laurent data of a pole could not be solved for, or a detour missed it."""


class TooCloseToPole(ValueError):
    """Requested evaluation point sits under a trigonometric pole guard."""


# A real-axis run stops in front of a pole once |u| reaches this value,
# about 1/20 from the pole, and goes around it on a semicircle of that
# radius made of this many chords.  The Laurent data solved at the stop
# point fix the free cubic coefficient only to about eps/r^4 at distance r,
# so a stop much closer perturbs the continued solution.  The state at the
# end of the detour must match the Laurent expansion to this relative
# accuracy.
_POLE_THRESHOLD = 20.0
_DETOUR_CHORDS = 16
_LAURENT_MATCH = 1e-10
#: Most relative gap between the last two ratios of u's Taylor coefficients at a stop.
_RATIO_MATCH = 1e-12
_SECANT_STEPS = 8
#: Highest index k of the Laurent coefficients c_k of x^(k-1) in u: u through x^11.
_LAURENT_ORDER = 12
#: Most poles one real-axis run crosses.
_MAX_POLES = 500


def _pii_taylor(t, y, K):
    """Taylor coefficients of (u, u', v, F) at t: Cauchy products for u^2, u^3."""
    u, p, v, F = ([c] for c in y)
    u2, u3 = [], []
    for k in range(K):
        # sum_j u_j u_(k-j) and sum_j (u^2)_j u_(k-j), j = 0..k: u holds u_0..u_k
        u2.append(sum(map(mul, u, reversed(u))))
        u3.append(sum(map(mul, u2, reversed(u))))
        tu = t * u[k] + (u[k - 1] if k else 0)
        u.append(p[k] / (k + 1))
        p.append((tu + 2 * u3[k]) / (k + 1))
        v.append(-u2[k] / (k + 1))
        F.append(-v[k] / (k + 1))
    return u, p, v, F


def _laurent_u(a, eps, h):
    """Laurent coefficients c_k of x u, and those of x^2 u^2, at a pole t = a, in x = t - a.

    With u = sum_k c_k x^(k-1) and c_0 = eps = +-1, u'' = t u + 2 u^3 reads
    (k - 4)(k + 1) c_k = a c_(k-2) + c_(k-3) + 2 (u^3)_k, where the Cauchy
    product (u^3)_k leaves out its c_k terms, 3 c_k.  The resonance k = 4
    leaves the cubic coefficient c_4 = h free.  Both lists run through
    index _LAURENT_ORDER.
    """
    c, u2 = [eps, 0], [1, 0]  # c_1 = 0: the k = 1 equation has nothing on its right
    for k in range(2, _LAURENT_ORDER + 1):
        # sum_j c_j c_(k-j) and sum_j (u^2)_j c_(k-j) with c_k = 0 for now
        c.append(0)
        u2.append(sum(map(mul, c, reversed(c))))
        tu = a * c[k - 2] + (c[k - 3] if k > 2 else 0)
        c[k] = h if k == 4 else (tu + 2 * sum(map(mul, u2, reversed(c)))) / ((k - 4) * (k + 1))
        u2[k] += 2 * eps * c[k]
    return c, u2


def _pii_laurent(a, eps, h, c_v, c_f):
    """Laurent coefficients of (u, u', v, F) at a pole t = a, in x = t - a.

    u's come from :func:`_laurent_u`; v' = -u^2 and F' = -v integrate term
    by term from the constants c_v and c_f.  Returns the coefficients of
    x u, x^2 u', x v and F + log|x| through index _LAURENT_ORDER.
    """
    c, u2 = _laurent_u(a, eps, h)
    v = [-s / (k - 1) if k != 1 else c_v for k, s in enumerate(u2)]
    return (c, [(k - 1) * ck for k, ck in enumerate(c)], v,
            [c_f] + [-vk / k for k, vk in enumerate(v[1:], 1)])


@dataclass(frozen=True)
class PoleRecord:
    """One traversed real pole: location, residue sign, free cubic coefficient."""

    location: float
    sign: int
    cubic: float
    c_v: float = 0.0
    c_f: float = 0.0
    gap_lo: float = 0.0  # Laurent-evaluation window around the pole
    gap_hi: float = 0.0


def _laurent_data(t_s, y_s, side: int) -> PoleRecord:
    """Laurent data of the pole in front of the real stop point t_s.

    The pole dominates u's Taylor series at t_s (Darboux's principle; Chang &
    Corliss, IMA J. Appl. Math. 25, 1980), so the ratio c_(k+1)/c_k of its
    last two coefficients is -1/(t_s - a), and the ratio before must agree.
    The residue sign is that of u on the approach side (``side`` = +1 when t_s
    lies above the pole, -1 below it); a secant on u(t_s), affine in the cubic
    coefficient h through x^6, solves h, and v and F at t_s give their constants.
    """
    c0, c1, c2 = (c.real for c in _pii_taylor(t_s, y_s, _ORDER)[0][-3:])
    if not (c1 and c2 and abs(c0 * c2 - c1 * c1) <= _RATIO_MATCH * c1 * c1):
        raise FitFailure(f"no pole dominates the Taylor series at t = {t_s:.6g}")
    a, u = t_s + c1 / c2, y_s[0].real
    eps, x = (1 if u * side > 0 else -1), t_s - a

    def miss(h):  # u alone: v and F enter only through their constants
        return _horner(_laurent_u(a, eps, h)[0], x) / x - u

    (h0, m0), (h, m) = (0.0, miss(0.0)), (1.0, miss(1.0))
    for _ in range(_SECANT_STEPS):
        h_new = h - m * (h - h0) / (m - m0)
        m_new = miss(h_new)
        if not abs(m_new) < abs(m):  # round-off reached: keep h
            break
        h0, m0, h, m = h, m, h_new, m_new
    else:
        raise FitFailure(f"Laurent solve near t = {t_s:.6g} did not converge")
    rec = PoleRecord(a, eps, h)
    rec = replace(rec, c_v=y_s[2].real - _laurent_state(rec, t_s)[2])
    return replace(rec, c_f=y_s[3].real - _laurent_state(rec, t_s)[3])


def _laurent_state(rec: PoleRecord, t):
    """(u, u', v, F) at real t from the Laurent series of ``rec``; F on the -log|t - a| branch."""
    x = t - rec.location
    u, p, v, F = _pii_laurent(rec.location, rec.sign, rec.cubic, rec.c_v, rec.c_f)
    return (_horner(u, x) / x, _horner(p, x) / (x * x), _horner(v, x) / x,
            _horner(F, x) - math.log(abs(x)))


def _cross_pole(t_s, y_s, side: int, tol: float):
    """Go around the pole in front of the real stop point t_s to its mirror point.

    Integrates counterclockwise on the semicircle of radius |t_s - a| and
    returns the pole record (with its Laurent window), 2a - t_s and the real
    part of the state there: for a real state at t_s, the mean of the
    continuations above and below the pole, which are mirror images.  u, u'
    and v are meromorphic at the pole; F has a logarithm and picks up -i pi,
    which is added back.  The end state must agree with the Laurent
    prediction, F on the principal-value branch of :func:`_laurent_state`.
    """
    if any(c.imag for c in y_s):
        raise ValueError(f"detour from a complex state at t = {t_s:.6g}: no mirror symmetry")
    rec = _laurent_data(t_s, y_s, side)
    a, r = rec.location, abs(t_s - rec.location)
    t_e = 2 * a - t_s
    th0 = 0.0 if side > 0 else math.pi
    nodes = ([t_s] + [a + r * cmath.exp(1j * (th0 + math.pi * j / _DETOUR_CHORDS))
                      for j in range(1, _DETOUR_CHORDS)] + [t_e])
    y = list(along_path(_pii_taylor, y_s, nodes, tol))
    y[3] += 1j * math.pi
    pred = _laurent_state(rec, t_e)
    worst = max(abs(got - want) / max(1.0, abs(want)) for got, want in zip(y, pred))
    if worst > _LAURENT_MATCH:
        raise FitFailure(f"state after the detour around t = {a:.6g} misses the "
                         f"Laurent prediction by {worst:.2e}")
    rec = replace(rec, gap_lo=min(t_s, t_e), gap_hi=max(t_s, t_e))
    return rec, t_e, tuple(c.real for c in y)


class ASolution:
    """Dense trajectory of (u, u', v, F) for one kappa, plus traversed poles.

    Evaluation falls back to the Laurent expansions inside the small windows
    that the detours around the traversed poles skip.  Values are floats for
    a real kappa, else complex.
    """

    def __init__(self, kappa, beta, tol, t_start, t_min, segments, poles):
        self.kappa = kappa
        self.beta = beta
        self.tol = tol
        self.t_start = t_start
        self.t_min = t_min
        self.segments = segments
        self.poles = poles

    def _segment_for(self, t):
        for seg in self.segments:
            lo, hi = sorted((float(seg.t_begin), float(seg.t_end)))
            if lo <= t <= hi:
                return seg
        return None

    def _pole_for(self, t):
        for p in self.poles:
            if p.gap_lo <= t <= p.gap_hi:
                return p
        return None

    def state(self, t, k=None):
        """(u, u', v, F), or component k alone, at t: dense output or pole-window expansion."""
        seg = self._segment_for(t)
        if seg is not None:
            return seg(t, k)
        p = self._pole_for(t)
        if p is None:
            raise ValueError(f"t = {t} not covered by this solution")
        y = _laurent_state(p, t)
        return y if k is None else y[k]

    u = partialmethod(state, k=0)
    v = partialmethod(state, k=2)
    F = partialmethod(state, k=3)

    def grid(self, num: int = 200, t_lo=None, t_hi=None):
        """num points uniform over the covered span, skipping pole windows."""
        lo = self.t_min if t_lo is None else t_lo
        hi = self.t_start if t_hi is None else t_hi
        pts = [lo + (hi - lo) * i / (num - 1) for i in range(num)]
        return [t for t in pts if self._segment_for(t) is not None]


def pii_residual(sol: ASolution, t) -> float:
    """|u'' - t u - 2 u^3| with u'' taken from the dense interpolant slope."""
    seg = sol._segment_for(t)
    if seg is None:
        raise ValueError("residual is only defined on integrated segments")
    u = seg(t, 0)
    return abs(seg.derivative(t, 1) - t * u - 2 * u ** 3)


def _pick_t_start(kappa_sq_mag: float, tol: float) -> float:
    ladder = np.arange(2.0, 12.0, 0.25)
    ai = airy(ladder)[0]
    fit = np.flatnonzero(kappa_sq_mag * ai * ai < tol * 1e-4)
    return float(ladder[fit[0]]) if fit.size else 12.0


def _airy_initial_state(kappa, t0: float):
    ai, aip = map(float, airy(t0))
    k2 = kappa * kappa
    v = k2 * (aip * aip - t0 * ai * ai)
    F = k2 * (2 * t0 * t0 * ai * ai - ai * aip - 2 * t0 * aip * aip) / 3.0
    return (kappa * ai, kappa * aip, v, F)


def _integrate_with_poles(y0, t0, t1, tol, *, traverse):
    """March toward t1, going around real poles as they are met."""
    side = 1 if t1 < t0 else -1  # the stop point lies on the side we come from

    def near_pole(t, y):  # |u| past the threshold and still growing
        return abs(y[0]) >= _POLE_THRESHOLD and (y[0] * y[1].conjugate()).real * side < 0

    segments, poles = [], []
    t_cur, y_cur = t0, y0
    while True:
        try:
            traj = adaptive_rk(_pii_taylor, y_cur, t_cur, t1, tol, event=near_pole)
        except StepUnderflow as exc:
            raise PoleEncountered(exc.t_star) from exc
        segments.append(traj)
        if traj.event_t is None:
            return segments, poles
        if not traverse:
            raise PoleEncountered(traj.event_t)
        if len(poles) >= _MAX_POLES:
            raise RuntimeError("pole budget exhausted")
        rec, t_cur, y_cur = _cross_pole(traj.event_t, traj.y_end, side, tol)
        poles.append(rec)
        if (t1 - t_cur) * side >= 0:
            return segments, poles


def solve_as(kappa, t_min: float, tol: float = 1e-12, *, t_start=None,
             traverse=None) -> ASolution:
    """Integrate the Airy-pinned Painleve II family down to t_min.

    The start point is chosen adaptively so the truncated initial data
    ``u = kappa Ai`` contributes below ``tol * 1e-4`` through the squared
    amplitude.  A run stops in front of a real pole once |u| reaches
    ``_POLE_THRESHOLD``.  Pole traversal defaults to on exactly when kappa
    sits on the real cut |kappa| > 1 (elsewhere the solution is pole-free
    on the real line); with traversal off, a blow-up raises
    :class:`PoleEncountered`.  A real kappa runs in real arithmetic, on floats.

    kappa = +-1 (Hastings-McLeod) is out of scope.
    """
    kappa = complex(kappa)
    if kappa in (1 + 0j, -1 + 0j):
        raise DomainError("kappa = +-1 is the Hastings-McLeod point, out of scope")
    if t_min < -60:
        raise DomainError("t_min below -60 is outside the validated window", "t_min")
    beta = beta_from_kappa(kappa) if kappa != 0 else 0j
    if traverse is None:
        traverse = kappa.imag == 0 and abs(kappa.real) > 1
    t0 = _pick_t_start(abs(kappa) ** 2, tol) if t_start is None else float(t_start)
    if t_min >= t0:
        raise DomainError(f"t_min = {t_min} is not below the start point {t0}; runs go down",
                          "t_min")
    y0 = _airy_initial_state(kappa.real if kappa.imag == 0 else kappa, t0)
    segments, poles = _integrate_with_poles(y0, t0, t_min, tol, traverse=traverse)
    return ASolution(kappa, beta, tol, t0, t_min, segments, poles)


def pole_roundtrip_error(sol: ASolution, pole: PoleRecord, offset: float = 0.3) -> float:
    """Re-cross a traversed pole upward and compare u on the far side.

    Starts from the dense state below the pole, integrates upward around it
    (a fresh detour), and returns |u_roundtrip - u_original| at a + offset.
    """
    t_lo, t_hi = pole.location - offset, pole.location + offset
    segments, _ = _integrate_with_poles(sol.state(t_lo), t_lo, t_hi, sol.tol, traverse=True)
    return abs(segments[-1](t_hi, 0) - sol.u(t_hi))


def pole_free_scan(kappas, t_min: float = -25.0, tol: float = 1e-12):
    """Integrate each kappa with traversal disabled; collect blow-up events.

    Supports the no-real-poles statement for kappa off the real cut: the
    returned event list, one (kappa, t*) per blow-up in grid order, is
    expected to be empty for such a grid.
    """
    events = []
    for kappa in kappas:
        try:
            solve_as(complex(kappa), t_min, tol, traverse=False)
        except PoleEncountered as exc:
            events.append((complex(kappa), float(exc.t_star)))
    return events


# ---------------------------------------------------------------------------
# closed-form asymptotics as t -> -infinity
# ---------------------------------------------------------------------------

def phase_oscillatory(t, beta) -> complex:
    """Phase of the oscillatory asymptote for |Re beta| < 1/2, t < 0.

    The constant term is ``pi/4 - (i/2)(ln Gamma(1-beta) - ln Gamma(1+beta))``,
    i.e. half the Gamma-ratio logarithm on the branch that is continuous
    through beta = 0 (where the phase reduces to the Airy phase pi/4).  This
    normalization was calibrated against the downward ODE solution for the
    principal kappa branch on both sides of the real-beta axis, and its
    double is consistent with the verified cosine phase of the
    antiderivative expansion.
    """
    b = mp.mpc(beta)
    mt = -t
    const = complex(-0.5j * (mp.loggamma(1 - b) - mp.loggamma(1 + b)))
    return (math.pi / 4 + const
            + (2.0 / 3.0) * mt ** 1.5
            - 1.5j * complex(b) * math.log(mt)
            - 3j * complex(b) * math.log(2.0))


def phase_singular(t, gamma: float):
    """Phase of the singular asymptote on the boundary line Re beta = 1/2.

    ``t`` is one point (a float back) or a sweep (an array back); arg
    Gamma(1/2 + i gamma) is evaluated once per call.
    """
    arg_g = float(mp.arg(mp.gamma(mp.mpc(0.5, gamma))))
    phases = [(2.0 / 3.0) * mt ** 1.5 + 1.5 * gamma * math.log(mt)
              + 3.0 * gamma * math.log(2.0) - arg_g
              for mt in (-float(x) for x in np.ravel(t))]
    return np.array(phases) if np.ndim(t) else phases[0]


def as_asymptote_minus(t, beta) -> complex:
    """Leading oscillatory asymptote of u(t) for large negative t.

    ``(-t)^(-1/4) sqrt(2 i beta) sin(phase)``, with the square-root branch
    fixed by calibration against the downward ODE solution at t = -15,
    kappa = 0.5 (the principal branch matches the solution normalized by the
    principal square root of kappa^2).  Degenerates as beta -> 0, so inputs
    with |beta| < 1e-3 are rejected.
    """
    b = complex(beta)
    if t >= 0:
        raise ValueError("oscillatory asymptote needs t < 0")
    if abs(b) < 1e-3:
        raise ValueError("phase degenerates as beta -> 0; use the Airy linearization")
    if abs(b.real) >= 0.5:
        raise ValueError("needs |Re beta| < 1/2")
    amp = cmath.sqrt(2j * b)
    return (-t) ** -0.25 * amp * cmath.sin(phase_oscillatory(t, b))


def p34_singular_asymptote(t, gamma: float):
    """Two-term expansion of y = u^2 on the boundary line Re beta = 1/2.

    Valid for large negative t away from the trigonometric poles; requires
    |cos(phase)| > 0.15 at every point and raises :class:`TooCloseToPole`
    otherwise.  ``t`` is one point or a sweep, as in :func:`phase_singular`.
    """
    ts = [float(x) for x in np.ravel(t)]
    if any(x >= 0 for x in ts):
        raise ValueError("singular asymptote needs t < 0")
    vals = []
    for x, ph in zip(ts, phase_singular(ts, gamma).tolist()):
        c = math.cos(ph)
        if abs(c) <= 0.15:
            raise TooCloseToPole(f"|cos phase| = {abs(c):.3f} <= 0.15 at t = {x}")
        s = math.sin(ph)
        mt = -x
        lead = mt / (c * c)
        sub = (-gamma + 0.5 * (s / c) + 2 * gamma / (c * c)
               + 3.0 * (12 * gamma * gamma - 1) * s / (16 * c ** 3))
        vals.append(lead + sub / math.sqrt(mt))
    return np.array(vals) if np.ndim(t) else vals[0]


def kappa_for_gamma(gamma: float) -> float:
    """kappa > 1 on the real cut matching beta = 1/2 + i gamma."""
    return math.sqrt(1 + math.exp(2 * math.pi * gamma))


def oscillation_envelope(beta) -> float:
    """|sqrt(2 i beta)|, the limiting envelope of |(-t)^(1/4) u|."""
    return abs(cmath.sqrt(2j * complex(beta)))
