"""Verification drivers: each acceptance check as a reusable function.

Every driver compares finite-size computations against their closed-form
predictions (or two independent engines against each other), fills a
:class:`~edgejump.report.Report` with tagged rows, and judges them only
through the report: ``Report.add`` judges one row, and ``Report.judge`` a
gate over several rows (a trend) or over the whole run.  A check takes
what to compute (sweeps, sizes, precision, seeds), not how to judge it:
each gate is one module constant, read when the check runs, and so is
``_ODE_TOL``, the tolerance of its Painleve runs (tw-identity alone takes
its own).  :data:`CHECKS` names every check: its driver calls and their
sweeps.  :data:`CRITERIA` lists the twelve acceptance criteria by those
names; ``edgejump verify``, ``edgejump mc`` and the acceptance suite all run
that one table.

Trend verdicts rest on the data alone: a trend check applies its stated
rule (ratio cap, strict decrease, fitted order, a bound at the largest size)
to the whole ladder it is given, with no exception path.  Residual and
identity checks are absolute.

The finite-n side comes from two routes of :mod:`~edgejump.weightlab`.  The
exact checks (Gaussian closed form, the finite-n Fredholm identity, the
internal identities) build big-float systems from moments
(``build_op_system``).  Every asymptotic comparison (edge and bulk Hankel
determinants, recurrence coefficients, polynomial value) reads the
complex128 Gram-route system (``gram_system``), the edge ones at the cut
``weightlab.edge_cut(n, t)`` through :func:`op_system_cached`.  So the
Fredholm identity confronts the moment route with the Gram determinant.
Each system and each Painleve solution is built where it is judged: no
driver asks for the same one twice, so nothing is kept between calls.

Those comparisons run in doubles: the Gram route keeps H_n, h_n and
p_n(lambda0) as logs, the :mod:`~edgejump.asympt` predictions are logs, the
edge cut point is a double, and a ratio row holds
``exp(log finite - log prediction)`` against 1.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import asympt, fredholm, painleve, rmtsim, specfun, weightlab
from .linalg import lu_det
from .precision import PrecisionCtx, hankel_ctx
from .report import Report, ReportRow
from .util import kappa_from_beta, kappa_sq_from_beta

#: Tolerance of the checks' Painleve II runs (tw-identity takes its own).
_ODE_TOL = 1e-12

#: Criterion 1: relative error of H_n at beta = 0 against its closed form.
_CLOSED_FORM_TOL = 1e-30
#: Criterion 2: |e^(-i pi n beta) H_n(beta)/H_n(0) - det(1 - kappa^2 G)|.
_FINITE_N_TOL = 1e-18
#: Criterion 3: |Nystrom determinant - exp(-F(t))| at every t.
_TW_BOUND = 1e-8
#: Criterion 4: scaled Painleve II residual along the trajectory, and the
#: relative gap of u/kappa to Ai at kappa = 1e-6.
_PII_RESIDUAL_TOL = 1e-12
_LINEARIZATION_BOUND = 1e-10
#: Criterion 5: largest ratio of consecutive R and scaled Q gaps.
_GROWTH_CAP = 1.5
#: Criteria 5 and 6: the R gap and the polynomial-value error decay like
#: n^(-1/3); each fitted order must lie within _GAP_ORDER_TOL of that.
_GAP_ORDER = 1.0 / 3.0
_GAP_ORDER_TOL = 0.15
#: Criterion 7: deviation of |H_n/prediction| from 1 at the largest n.
_EDGE_FINAL_BOUND = 0.05
#: Criterion 8: large-gap residual envelope at the deepest t.
_AIRY_TAIL_BOUND = 0.05
#: Criterion 9: relative error of the singular expansion where
#: |cos(phase)| > _COS_GUARD (away from its zeros), and the pole round trip.
_SINGULAR_REL_BOUND = 0.05
_COS_GUARD = 0.3
_ROUNDTRIP_BOUND = 1e-6
#: Criterion 11: the Q_n jump identity holds to 2^(_QN_GUARD_BITS - bits)
#: times |Q_n|; the log-derivative identity to _DIFF_FD_BOUND by a finite
#: difference and to _DIFF_EXACT_BOUND in closed form; the norm product
#: matches pivoted LU to _NORM_PRODUCT_REL_TOL.
_QN_GUARD_BITS = 32
_DIFF_FD_BOUND = 1e-9
_DIFF_EXACT_BOUND = 1e-20
_NORM_PRODUCT_REL_TOL = 1e-80
#: Criterion 12: Monte-Carlo estimates lie within _MC_SIGMAS standard errors
#: of the determinant; the Plancherel CDF adds the finite-N band _FINITE_BAND.
_MC_SIGMAS = 3.0
_FINITE_BAND = 0.03
#: Bulk check: the deviation at the largest n is at most _BULK_LOG_FACTOR
#: log(n)/n, and its edge-degradation row puts the cut at
#: ``_DEGRADE_LAMBDA sqrt(2 n)``.
_BULK_LOG_FACTOR = 5.0
_DEGRADE_LAMBDA = 0.9

def op_system_cached(beta, n: int, t: float) -> weightlab.GramSystem:
    """Gram-route system at the cut ``weightlab.edge_cut(n, t)``, built on every call.

    No driver asks for one (beta, n, t) twice, so nothing is kept; the name
    stays because the benchmark's tracer wraps it.
    """
    return weightlab.gram_system(beta, n, weightlab.edge_cut(n, t))


def solution_cached(kappa, t_min: float, tol: float = _ODE_TOL) -> painleve.ASolution:
    """``painleve.solve_as(kappa, t_min, tol)``, solved on every call.

    No driver asks for one (kappa, t_min, tol) twice, so nothing is kept;
    the name stays because the benchmark's tracer wraps it.
    """
    return painleve.solve_as(kappa, t_min, tol)


# ---------------------------------------------------------------------------
# exact finite-n checks
# ---------------------------------------------------------------------------

def check_gaussian_closed_form(ns=tuple(range(1, 31))) -> Report:
    """H_n at beta = 0 against the factorial closed form (the cut is immaterial there).

    One moment-route build at ``hankel_ctx(max(ns))`` serves every n.
    """
    rep = Report("gaussian-closed-form")
    ctx, lambda0 = hankel_ctx(max(ns)), 0.3
    params = weightlab.WeightParams(0.0, lambda0)
    sys = weightlab.build_op_system(params, max(ns), ctx, check=False)
    with ctx.workprec():
        for n in ns:
            closed = weightlab.gaussian_hankel(n, ctx)
            rel = float(abs(sys.H[n] - closed) / abs(closed))
            rep.add(ReportRow(label="gaussian-hankel", n=n, lambda0=lambda0,
                              beta=0j, finite=sys.H[n], asym=closed, rel_res=rel),
                    not rel > _CLOSED_FORM_TOL,
                    f"n={n} rel err {rel:.2e} > {_CLOSED_FORM_TOL:.0e}")
    return rep


def check_finite_n_identity(ns=(4, 10, 20), betas=(0.4j, 0.3, 0.2 + 0.1j),
                            lambda0s=(-1.0, 0.5, "edge"), bits: int = 0) -> Report:
    """e^(-i pi n beta) H_n(beta)/H_n(0) against det(1 - kappa^2 G).

    Both sides of rung n build at ``hankel_ctx(n)``, or at ``bits`` when it
    is not 0; H_n(0) is the closed form, taken once per n.
    """
    rep = Report("finite-n-fredholm-identity")
    for n in ns:
        ctx = PrecisionCtx(bits) if bits else hankel_ctx(n)
        k2s = [kappa_sq_from_beta(b, ctx) for b in betas]
        closed = weightlab.gaussian_hankel(n, ctx)
        for lam_spec in lambda0s:
            with ctx.workprec():
                lam0 = mp.sqrt(2 * mp.mpf(n)) if lam_spec == "edge" else mp.mpf(lam_spec)
            rhss = fredholm.finite_n_det(n, lam0, k2s, ctx=ctx)
            for beta, rhs in zip(betas, rhss):
                params = weightlab.WeightParams(beta, lam0)
                sys = weightlab.build_op_system(params, n, ctx, check=False)
                with ctx.workprec():
                    lhs = mp.exp(-1j * mp.pi * n * mp.mpc(beta)) * sys.H[n] / closed
                    err = float(abs(lhs - rhs))
                rep.add(ReportRow(label="hankel-gram-identity", n=n,
                                  lambda0=float(lam0), beta=complex(beta),
                                  kappa=kappa_from_beta(beta),
                                  finite=complex(lhs), asym=complex(rhs), abs_res=err),
                        err <= _FINITE_N_TOL, f"n={n} lambda0={float(lam0):.3f} beta={beta}: "
                                              f"|diff| = {err:.2e} > {_FINITE_N_TOL:.0e}")
    return rep


def check_exact_identities() -> Report:
    """Round-off-level internal identities of the jump-weight systems."""
    rep = Report("exact-identities")
    # jump identity for Q_n at the documented parameter points
    cases = [
        (weightlab.WeightParams(0.0, 0.7), 4, PrecisionCtx(256)),
        (weightlab.WeightParams(0.4j, 1.1), 8, PrecisionCtx(512)),
        (weightlab.WeightParams(0.3, weightlab.edge_cut(20, 0.0)), 20, hankel_ctx(20)),
    ]
    for params, n, ctx in cases:
        sys = weightlab.build_op_system(params, n, ctx, check=False)
        res = float(weightlab.qn_jump_identity_residual(sys, n))
        with ctx.workprec():
            scale = max(float(abs(sys.Q[n])), 1e-30)
        bound = 2.0 ** (_QN_GUARD_BITS - ctx.bits) * (scale if scale > 1e-30 else 1.0)
        rep.add(ReportRow(label="qn-jump-identity", n=n, lambda0=float(params.lambda0),
                          beta=complex(params.beta), abs_res=res),
                res <= bound, f"qn identity n={n}: {res:.2e} > {bound:.2e}")
    # differential identity
    for params, n, delta, bound, ctx in (
            (weightlab.WeightParams(0.5j, 0.9), 6, 1e-6, _DIFF_FD_BOUND, PrecisionCtx(320)),
            (weightlab.WeightParams(0.3j, 0.4), 1, None, _DIFF_EXACT_BOUND, PrecisionCtx(320))):
        res = float(weightlab.diff_identity_residual(params, n, delta=delta, ctx=ctx))
        rep.add(ReportRow(label="diff-identity", n=n, lambda0=float(params.lambda0),
                          beta=complex(params.beta), abs_res=res),
                res <= bound, f"diff identity n={n}: {res:.2e} > {bound:.0e}")
    # norm product vs pivoted determinant route
    ctx = PrecisionCtx(384)
    params = weightlab.WeightParams(0.2 + 0.1j, 0.6)
    sys = weightlab.build_op_system(params, 10, ctx, check=False)
    with ctx.workprec():
        det = lu_det(weightlab.hankel_matrix(params, 10, ctx), ctx)
        rel = float(abs(sys.H[10] - det) / abs(det))
    rep.add(ReportRow(label="norm-product-vs-lu", n=10, lambda0=0.6,
                      beta=0.2 + 0.1j, rel_res=rel),
            rel <= _NORM_PRODUCT_REL_TOL, f"norm product vs LU: rel {rel:.2e}")
    return rep


# ---------------------------------------------------------------------------
# Painleve / Fredholm cross checks
# ---------------------------------------------------------------------------

def check_tw_identity(kappas=(0.3, 0.7, 0.95), t_min: float = -8.0, t_hi: float = 4.0,
                      step: float = 0.5, tol: float = 1e-10) -> Report:
    """Nystrom determinant against exp(-F(t)), F integrated at ODE tolerance ``tol``."""
    rep = Report("tracy-widom-identity")
    ts = np.arange(t_min, t_hi + step / 2, step)
    det_rows = fredholm.airy_fredholm_det([complex(kap) ** 2 for kap in kappas], ts)
    for kap, dets in zip(kappas, det_rows):
        sol = solution_cached(kap, t_min - 0.5, tol)
        worst = 0.0
        for t, det in zip(ts, dets.tolist()):
            pred = cmath.exp(-complex(sol.F(float(t))))
            gap = abs(det - pred)
            worst = max(worst, gap)
            rep.add(ReportRow(label="tw-identity", t=float(t), kappa=kap,
                              finite=det, asym=pred, abs_res=gap), gap <= _TW_BOUND)
        rep.judge(not worst > _TW_BOUND, f"kappa={kap}: max gap {worst:.2e} > {_TW_BOUND:.0e}")
    return rep


def check_pii_solution() -> Report:
    """Residual invariant of the integrated trajectories plus the Airy limit."""
    rep = Report("pii-solution")
    sol = solution_cached(0.5, -30.0, _ODE_TOL)
    worst = 0.0
    for t in sol.grid(200):
        r = painleve.pii_residual(sol, t) / (1 + abs(sol.u(t)) ** 3)
        worst = max(worst, r)
    rep.add(ReportRow(label="pii-residual", kappa=0.5, abs_res=worst),
            worst <= _PII_RESIDUAL_TOL, f"residual {worst:.2e} > tol {_PII_RESIDUAL_TOL:.0e}")

    kap = 1e-6
    lin = painleve.solve_as(kap, -10.5, 1e-13, t_start=5.0)
    ts = np.arange(-10, 5.01, 0.25)
    worst_l = max(abs(complex(lin.u(t)) / kap - ai) / abs(ai)
                  for t, ai in zip(ts.tolist(), specfun.airy(ts)[0].tolist()))
    rep.add(ReportRow(label="airy-linearization", kappa=kap, abs_res=worst_l),
            worst_l <= _LINEARIZATION_BOUND,
            f"linearization err {worst_l:.2e} > {_LINEARIZATION_BOUND:.0e}")
    return rep


def check_pole_freeness(radii=(0.3, 0.7, 0.95, 1.3),
                        angles=(math.pi / 6, math.pi / 2, 5 * math.pi / 6),
                        depth: float = -25.0, control_kappa: float = 1.5) -> Report:
    """No blow-ups off the real cut down to t = depth; at least one pole on it (control run)."""
    rep = Report("pole-freeness")
    kappas = [r * cmath.exp(1j * th) for r in radii for th in angles]
    events = painleve.pole_free_scan(kappas, t_min=depth, tol=_ODE_TOL)
    for kap in kappas:
        hit = [e for e in events if e[0] == kap]
        rep.add(ReportRow(label="pole-free-scan", kappa=kap, abs_res=float(len(hit))),
                not hit)
    rep.judge(not events, f"{len(events)} unexpected blow-ups: {events}")
    control = painleve.solve_as(control_kappa, -12.0, _ODE_TOL)
    rep.add(ReportRow(label="pole-control-run", kappa=control_kappa,
                      abs_res=float(len(control.poles))),
            len(control.poles) >= 1, f"kappa={control_kappa}: no pole found on [-12, start]")
    return rep


def check_singular_regime(gamma: float = 0.0, center: float = -12.0) -> Report:
    """Squared transcendent between consecutive poles against the singular expansion."""
    rep = Report("singular-asymptote")
    kap = painleve.kappa_for_gamma(gamma)
    sol = painleve.solve_as(kap, center - 2.0, _ODE_TOL)
    locs = sorted(p.location for p in sol.poles)
    pair = None
    for a, b in zip(locs, locs[1:]):
        if a <= center <= b or pair is None:
            if pair is None or abs((a + b) / 2 - center) < abs(sum(pair) / 2 - center):
                pair = (a, b)
    rep.judge(pair is not None, "no pole pair found")
    if pair is None:
        return rep
    a_lo, a_hi = pair
    margin = 0.06 * (a_hi - a_lo)
    ts = np.linspace(a_lo + margin, a_hi - margin, 80).tolist()
    ts = [t for t, ph in zip(ts, painleve.phase_singular(ts, gamma).tolist())
          if not abs(math.cos(ph)) <= _COS_GUARD]
    worst = 0.0
    npts = len(ts)
    for t, y_pred in zip(ts, painleve.p34_singular_asymptote(ts, gamma).tolist()):
        y_ode = complex(sol.u(t)) ** 2
        rel = abs(y_ode.real - y_pred) / abs(y_pred)
        worst = max(worst, rel)
        rep.add(ReportRow(label="singular-asymptote", t=t, kappa=kap,
                          finite=y_ode, asym=y_pred, rel_res=rel), rel <= _SINGULAR_REL_BOUND)
    rep.judge(not (npts == 0 or worst > _SINGULAR_REL_BOUND),
              f"singular comparison worst {worst:.3f} over {npts} points")
    mid_pole = min(sol.poles, key=lambda p: abs(p.location - center))
    rt = painleve.pole_roundtrip_error(sol, mid_pole, offset=0.3)
    rep.add(ReportRow(label="pole-roundtrip", t=mid_pole.location, kappa=kap,
                      abs_res=float(rt)),
            rt <= _ROUNDTRIP_BOUND, f"roundtrip error {rt:.2e} > {_ROUNDTRIP_BOUND:.0e}")
    return rep


# ---------------------------------------------------------------------------
# asymptotic trend checks
# ---------------------------------------------------------------------------

def check_edge_hankel(beta=0.4j, ts=(0.0, 2.0), ns=(20, 40, 80)) -> Report:
    """| |H_n(beta)/prediction| - 1 | decreasing in n, small at the largest n."""
    rep = Report("edge-hankel-asymptote")
    kap = kappa_from_beta(beta)
    sol = solution_cached(kap, min(ts) - 1.0, _ODE_TOL)
    for t in ts:
        devs = []
        for n in ns:
            ratio = cmath.exp(op_system_cached(beta, n, t).log_H_ratio
                              - asympt.edge_hankel_asymptote(n, t, beta, sol))
            dev = abs(abs(ratio) - 1)
            devs.append(dev)
            rep.add(ReportRow(label="edge-hankel", n=n, t=t, beta=complex(beta),
                              kappa=kap, finite=ratio, asym=1.0, rel_res=dev))
        rep.judge(all(a > b for a, b in zip(devs, devs[1:])) and devs[-1] <= _EDGE_FINAL_BOUND,
                  f"t={t}: deviations {['%.3g' % d for d in devs]}", rep.rows[-len(ns):])
    return rep


def check_recurrence_asymptotics(beta=0.4j, ts=(-2.0, 0.0, 2.0), ns=(256, 512, 1024)) -> Report:
    """R_n and Q_n against the Painleve predictions: bounded error terms.

    The R gap and the Q gap scaled by sqrt(n) must not grow: every
    consecutive ratio stays at or below ``_GROWTH_CAP``.  The R gap must also
    decay at the fitted order ``_GAP_ORDER +- _GAP_ORDER_TOL``.  Norm rows are
    informational, with the confirmed sign and the printed one.
    """
    rep = Report("recurrence-asymptotics")
    kap = kappa_from_beta(beta)
    sol = solution_cached(kap, min(ts) - 1.0, _ODE_TOL)
    whys = []
    for t in ts:
        gaps_R, gaps_Q = [], []
        for n in ns:
            sys = op_system_cached(beta, n, t)
            pred = asympt.recurrence_asymptotes(n, t, sol)
            gap_R = float(abs(sys.R[n] - pred["R"]))
            gap_Q = float(abs(sys.Q[n] - pred["Q"])) * math.sqrt(n)
            h_rel = abs(cmath.exp(sys.log_h - pred["log_h"]) - 1)
            h_rel_printed = abs(cmath.exp(sys.log_h - pred["log_h_printed"]) - 1)
            gaps_R.append(gap_R)
            gaps_Q.append(gap_Q)
            rep.add(ReportRow(label="recurrence-R", n=n, t=t, beta=complex(beta),
                              kappa=kap, finite=complex(sys.R[n]),
                              asym=complex(pred["R"]), abs_res=gap_R))
            rep.add(ReportRow(label="recurrence-Q-scaled", n=n, t=t, beta=complex(beta),
                              kappa=kap, finite=complex(sys.Q[n]),
                              asym=complex(pred["Q"]), abs_res=gap_Q))
            rep.add(ReportRow(label="norm-expansion", n=n, t=t, beta=complex(beta),
                              kappa=kap, rel_res=h_rel))
            rep.add(ReportRow(label="norm-expansion-printed-sign", n=n, t=t,
                              beta=complex(beta), kappa=kap, rel_res=h_rel_printed))
        for name, gaps in (("R", gaps_R), ("scaled Q", gaps_Q)):
            ratios = [b / a if a > 0 else math.inf for a, b in zip(gaps, gaps[1:])]
            if max(ratios) > _GROWTH_CAP:
                whys.append(f"t={t}: {name} gap ratios {['%.3g' % r for r in ratios]} "
                            f"exceed {_GROWTH_CAP}")
        order = asympt.fit_order(ns, gaps_R)
        for row in rep.rows[-4 * len(ns):]:
            if row.label == "recurrence-R":
                row.order_est = order
        if abs(order - _GAP_ORDER) > _GAP_ORDER_TOL:
            whys.append(f"t={t}: R gap order {order:.3f} outside "
                        f"{_GAP_ORDER:.3f} +- {_GAP_ORDER_TOL}")
    rep.judge(not whys, "; ".join(whys),
              [row for row in rep.rows if row.label.startswith("recurrence")])
    return rep


def check_polynomial_asymptote(beta=0.4j, t: float = 0.5, ns=(64, 128, 256)) -> Report:
    """Relative error of the polynomial value prediction decays at order ~ 1/3."""
    rep = Report("polynomial-asymptote")
    kap = kappa_from_beta(beta)
    sol = solution_cached(kap, t - 1.0, _ODE_TOL)
    errs = []
    for n in ns:
        ratio = cmath.exp(op_system_cached(beta, n, t).log_pn
                          - asympt.polynomial_value_asymptote(n, t, sol))
        rel = abs(ratio - 1)
        errs.append(rel)
        rep.add(ReportRow(label="polynomial-at-cut", n=n, t=t, beta=complex(beta),
                          kappa=kap, finite=ratio, asym=1.0, rel_res=rel))
    est = asympt.fit_order(ns, errs)
    for row in rep.rows:
        row.order_est = est
    rep.judge(abs(est - _GAP_ORDER) <= _GAP_ORDER_TOL,
              f"fitted order {est:.3f} outside {_GAP_ORDER:.3f} +- {_GAP_ORDER_TOL}", rep.rows)
    return rep


def check_bulk_hankel(beta=0.2j, lam: float = 0.0, ns=(30, 60, 120)) -> Report:
    """Bulk-regime prediction: decreasing deviation, log(n)/n-scale at the end.

    The cut sits at ``lam sqrt(2 n)``; a last row moves it to
    ``_DEGRADE_LAMBDA sqrt(2 n)`` at the middle n, where the deviation must
    be larger.
    """
    rep = Report("bulk-hankel-asymptote")

    def deviation(n, lam):
        lam0 = lam * math.sqrt(2.0 * n)
        ratio = cmath.exp(weightlab.gram_system(beta, n, lam0).log_H_ratio
                          - asympt.bulk_hankel_asymptote(n, lam, beta))
        return lam0, ratio, abs(ratio - 1)

    devs = []
    for n in ns:
        lam0, ratio, dev = deviation(n, lam)
        devs.append(dev)
        rep.add(ReportRow(label="bulk-hankel", n=n, lambda0=lam0, beta=complex(beta),
                          finite=ratio, asym=1.0, rel_res=dev))
    n_last = ns[-1]
    rep.judge(all(a > b for a, b in zip(devs, devs[1:]))
              and devs[-1] <= _BULK_LOG_FACTOR * math.log(n_last) / n_last,
              f"deviations {['%.3g' % d for d in devs]}", rep.rows)
    lam0, _, dev_edge = deviation(ns[1], _DEGRADE_LAMBDA)
    rep.add(ReportRow(label="bulk-hankel-edge-degradation", n=ns[1], lambda0=lam0,
                      beta=complex(beta), rel_res=dev_edge),
            not dev_edge <= devs[1], "no visible degradation toward the edge")
    return rep


def check_airy_tail(beta=0.15j, depths=(-10.0, -25.0)) -> Report:
    """Large-gap expansion residual of the Airy determinant: decreasing, small.

    The vanishing correction term oscillates in t (its local period is
    pi/sqrt(-t)), so a single probe point can land on an accidental zero of
    the oscillation.  Each t of ``depths`` is therefore probed together with two
    phase companions a quarter and half period away and the envelope (the
    maximum of the three) must decrease; the absolute bound applies to the
    envelope as well.
    """
    rep = Report("airy-determinant-tail")
    periods = [math.pi / math.sqrt(-t) for t in depths]
    probes = np.array([[t, t - p / 4, t - p / 2] for t, p in zip(depths, periods)])
    logdets = fredholm.airy_fredholm_logdet(kappa_sq_from_beta(beta), probes.ravel())
    residuals = asympt.airy_tail_residual(probes.ravel(), beta, logdets)
    for tp, r in zip(probes.ravel().tolist(), residuals.tolist()):
        rep.add(ReportRow(label="airy-tail-residual", t=tp, beta=complex(beta),
                          kappa=kappa_from_beta(beta), abs_res=r))
    env = residuals.reshape(probes.shape).max(axis=1).tolist()
    ok = env[-1] < env[0] and env[-1] <= _AIRY_TAIL_BOUND
    rep.judge(ok, f"residual envelopes {['%.3g' % r for r in env]}", rep.rows)
    if ok:
        rep.note(f"envelopes {['%.3g' % r for r in env]} (bound {_AIRY_TAIL_BOUND})")
    return rep


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _in_units(gap: float, unit: float) -> float:
    """gap / unit; a zero unit (every trial alike) gives inf, or 0 for a zero gap."""
    return gap / unit if unit else (math.inf if gap else 0.0)


def check_mc_gue(n: int = 8, lambda0: float = 3.0, trials: int = 100_000,
                 seed: int = 20240 + 8) -> Report:
    """Empirical gap probability within 3 sigma of the determinant."""
    rep = Report("mc-gue-gap")
    p, sig = rmtsim.gap_probability_mc(n, lambda0, trials, seed)
    det = fredholm.finite_n_det(n, lambda0, 1.0).real
    z = abs(p - det) / sig
    rep.add(ReportRow(label="gue-gap-probability", n=n, lambda0=lambda0,
                      finite=p, asym=det, abs_res=abs(p - det), rel_res=z),
            z <= _MC_SIGMAS, f"gap probability off by {z:.2f} sigma")
    return rep


def check_mc_thinning(size: int = 50, s: float = 0.5, trials: int = 200_000,
                      seed: int = 20240 + 50) -> Report:
    """Thinned largest-particle probability of a GUE of ``size`` within 3 sigma of the determinant.

    Both estimators are gated: thin-and-count, and the average of s^X with
    the removal randomness integrated out.
    """
    rep = Report("mc-thinning")
    lam0 = math.sqrt(2.0 * size)
    res = rmtsim.thinning_check(size, s, lam0, trials, seed)
    det = fredholm.finite_n_det(size, lam0, 1.0 - s).real
    for label, key in (("thinned-max", "bernoulli"), ("thinned-max-analytic", "analytic")):
        z = _in_units(abs(res[key] - det), res[key + "_stderr"])
        rep.add(ReportRow(label=label, n=size, lambda0=lam0, finite=res[key], asym=det,
                          abs_res=abs(res[key] - det), rel_res=z),
                z <= _MC_SIGMAS, f"{key} estimate off by {z:.2f} sigma")
    return rep


def check_mc_plancherel(n: int = 10_000, s: float = 0.5, ts=(-2.0, 0.0, 1.0),
                        trials: int = 800, seed: int = 31337) -> Report:
    """Thinned Plancherel maximum CDF against the deformed Airy determinant."""
    rep = Report("mc-plancherel")
    est = rmtsim.thinned_max_cdf(n, s, ts, trials, seed)
    dets = fredholm.airy_fredholm_det(1.0 - s, est["t"]).real.tolist()
    for t, cdf, sig, det in zip(est["t"], est["cdf"], est["stderr"], dets):
        band = _MC_SIGMAS * sig + _FINITE_BAND
        gap = abs(cdf - det)
        rep.add(ReportRow(label="plancherel-thinned-cdf", n=n, t=float(t),
                          finite=cdf, asym=det, abs_res=gap, rel_res=_in_units(gap, band)),
                gap <= band, f"t={t}: |cdf - det| = {gap:.4f} > band {band:.4f}")
    return rep


# ---------------------------------------------------------------------------
# the registry: every named check, and the acceptance criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """A named check: a tuple of driver calls ``(driver, sweep)``.

    ``driver`` is looked up here by name when the check runs, so a wrapped or
    replaced driver is the one called.  ``sweep`` holds the criterion's
    keywords that differ from the driver's defaults.  The command line sets
    keywords over it by name (see :mod:`edgejump.cli`).  ``min_ns`` is the
    fewest rungs a trend check judges.
    """

    calls: tuple
    min_ns: int = 0

    def run(self, keywords=None) -> list:
        """The calls' reports: the i-th call runs its sweep with ``keywords[i]`` over it."""
        return [globals()[name](**{**sweep, **(keywords[i] if keywords else {})})
                for i, (name, sweep) in enumerate(self.calls)]


_EXACT = Check((("check_exact_identities", {}),))

# Criteria 5 to 7 run longer ladders than their drivers' defaults, which stay:
# the benchmark's ``hankel`` workload runs the polynomial and edge checks at them.
CHECKS = {
    "closed-form": Check((("check_gaussian_closed_form", {}),)),
    "finite-n-identity": Check((("check_finite_n_identity", {}),)),
    "tw-identity": Check((("check_tw_identity", {}),)),
    "pii": Check((("check_pii_solution", {}),)),
    "thm1.4": Check((("check_recurrence_asymptotics", {"ns": (256, 512, 1024, 2048)}),), min_ns=2),
    "thm1.5": Check((("check_polynomial_asymptote", {"ns": (64, 128, 256, 512, 1024, 2048)}),),
                    min_ns=2),
    "thm1.2": Check((("check_edge_hankel", {"ns": (20, 40, 80, 160, 320, 640)}),), min_ns=2),
    "conj1.3": Check((("check_airy_tail", {}),)),
    "thm1.6": Check((("check_singular_regime", {}),)),
    "pole-free": Check((("check_pole_freeness", {}),)),
    "exact-identities": _EXACT, "diff-identity": _EXACT, "qn-identity": _EXACT,
    "mc-gue": Check((("check_mc_gue", {}), ("check_mc_thinning", {}))),
    "mc-plancherel": Check((("check_mc_plancherel", {}),)),
    "noncrit": Check((("check_bulk_hankel", {}),), min_ns=2),
}

#: The acceptance criteria in order: title, budget in seconds, checks that must all pass.
CRITERIA = (
    ("Gaussian closed form", 10.0, ("closed-form",)),
    ("finite-n Fredholm identity", 60.0, ("finite-n-identity",)),
    ("Tracy-Widom identity", 30.0, ("tw-identity",)),
    ("PII residual and Airy matching", 10.0, ("pii",)),
    ("recurrence coefficient asymptotics", 300.0, ("thm1.4",)),
    ("polynomial asymptote order", 300.0, ("thm1.5",)),
    ("edge Hankel trend", 120.0, ("thm1.2",)),
    ("Airy determinant tail", 60.0, ("conj1.3",)),
    ("singular regime", 120.0, ("thm1.6",)),
    ("pole-freeness scan", 180.0, ("pole-free",)),
    ("exact identities", 120.0, ("exact-identities",)),
    ("Monte Carlo", 600.0, ("mc-gue", "mc-plancherel")),
)
