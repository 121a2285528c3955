"""Acceptance suite: every verification criterion at its stated tolerance.

Each test runs one criterion through the same driver the command line uses,
with that criterion's sweep, prints a single PASS/FAIL line (run with
``pytest -s`` to see them all), and asserts both the verdict and the stated
runtime budget.  The checks judge at the gate constants of
:mod:`edgejump.verify`; ``test_gates_at_stated_tolerances`` pins each of
them to the tolerance its criterion states.
"""
import math
import time

from edgejump import verify

_LINES = []


def _criterion(number, name, report, elapsed, budget):
    status = "PASS" if report.passed else "FAIL"
    line = (f"[{status}] criterion {number:2d} ({name}): {elapsed:.3f}s"
            + (f" | {report.detail}" if report.detail else ""))
    _LINES.append(line)
    print("\n" + line)
    assert report.passed, f"{name}: {report.detail}"
    assert elapsed <= budget, f"{name} exceeded its {budget}s budget ({elapsed:.3f}s)"


def test_criterion_01_gaussian_closed_form():
    t0 = time.perf_counter()
    rep = verify.check_gaussian_closed_form(ns=tuple(range(1, 31)), bits=512)
    _criterion(1, "Gaussian Hankel closed form", rep, time.perf_counter() - t0, 10.0)


def test_criterion_02_finite_n_fredholm_identity():
    t0 = time.perf_counter()
    rep = verify.check_finite_n_identity(ns=(4, 10, 20),
                                         betas=(0.4j, 0.3, 0.2 + 0.1j),
                                         lambda0s=(-1.0, 0.5, "edge"))
    _criterion(2, "finite-n Fredholm/Hankel identity", rep, time.perf_counter() - t0, 60.0)


def test_criterion_03_tracy_widom_identity():
    t0 = time.perf_counter()
    rep = verify.check_tw_identity(kappas=(0.3, 0.7, 0.95), t_lo=-8.0,
                                   t_hi=4.0, step=0.5)
    _criterion(3, "Tracy-Widom identity", rep, time.perf_counter() - t0, 30.0)


def test_criterion_04_pii_residual_and_airy_matching():
    t0 = time.perf_counter()
    rep = verify.check_pii_solution()
    _criterion(4, "PII residual + Airy linearization", rep, time.perf_counter() - t0, 10.0)


def test_criterion_05_recurrence_coefficient_asymptotics():
    t0 = time.perf_counter()
    rep = verify.check_recurrence_asymptotics(beta=0.4j, ts=(-2.0, 0.0, 2.0),
                                              ns=(256, 512, 1024, 2048))
    _criterion(5, "recurrence coefficient expansions", rep, time.perf_counter() - t0, 300.0)


def test_criterion_06_polynomial_asymptote_order():
    t0 = time.perf_counter()
    rep = verify.check_polynomial_asymptote(beta=0.4j, t=0.5,
                                            ns=(64, 128, 256, 512, 1024, 2048))
    _criterion(6, "polynomial value expansion order", rep, time.perf_counter() - t0, 300.0)


def test_criterion_07_edge_hankel_trend():
    t0 = time.perf_counter()
    rep = verify.check_edge_hankel(beta=0.4j, ts=(0.0, 2.0),
                                   ns=(20, 40, 80, 160, 320, 640))
    _criterion(7, "edge Hankel expansion trend", rep, time.perf_counter() - t0, 120.0)


def test_criterion_08_airy_determinant_tail():
    t0 = time.perf_counter()
    rep = verify.check_airy_tail(beta=0.15j, ts=(-10.0, -25.0))
    _criterion(8, "Airy determinant tail expansion", rep, time.perf_counter() - t0, 60.0)


def test_criterion_09_singular_regime():
    t0 = time.perf_counter()
    rep = verify.check_singular_regime(gamma=0.0, center=-12.0)
    _criterion(9, "boundary-line singular expansion", rep, time.perf_counter() - t0, 120.0)


def test_criterion_10_pole_freeness_scan():
    t0 = time.perf_counter()
    rep = verify.check_pole_freeness(radii=(0.3, 0.7, 0.95, 1.3),
                                     angles=(math.pi / 6, math.pi / 2,
                                             5 * math.pi / 6),
                                     t_min=-25.0, control_kappa=1.5)
    _criterion(10, "pole-freeness scan + control run", rep, time.perf_counter() - t0, 180.0)


def test_criterion_11_exact_identities():
    t0 = time.perf_counter()
    rep = verify.check_exact_identities()
    _criterion(11, "exact internal identities", rep, time.perf_counter() - t0, 120.0)


def test_criterion_12_monte_carlo():
    t0 = time.perf_counter()
    reps = [verify.check_mc_thinning(n=50, s=0.5, trials=200_000),
            verify.check_mc_gue(n=8, lambda0=3.0, trials=100_000),
            verify.check_mc_plancherel(N=10_000, s=0.5, ts=(-2.0, 0.0, 1.0),
                                       trials=800)]
    elapsed = time.perf_counter() - t0
    merged = verify.Report("monte-carlo")
    merged.rows = [r for rep in reps for r in rep.rows]
    merged.passed = all(r.passed for r in reps)
    merged.detail = "; ".join(r.detail for r in reps if r.detail)
    _criterion(12, "Monte-Carlo thinning/gap/partitions", merged, elapsed, 600.0)


#: Each gate constant of ``edgejump.verify`` and the value its criterion states.
_STATED_GATES = {
    "_CLOSED_FORM_TOL": 1e-30,      # criterion 1
    "_FINITE_N_TOL": 1e-18,         # criterion 2
    "_TW_BOUND": 1e-8,              # criterion 3
    "_PII_RESIDUAL_TOL": 1e-12,     # criterion 4
    "_LINEARIZATION_BOUND": 1e-10,  # criterion 4
    "_GROWTH_CAP": 1.5,             # criterion 5
    "_GAP_ORDER": 1.0 / 3.0,        # criteria 5 and 6
    "_GAP_ORDER_TOL": 0.15,         # criteria 5 and 6
    "_EDGE_FINAL_BOUND": 0.05,      # criterion 7
    "_AIRY_TAIL_BOUND": 0.05,       # criterion 8
    "_SINGULAR_REL_BOUND": 0.05,    # criterion 9
    "_COS_GUARD": 0.3,              # criterion 9
    "_ROUNDTRIP_BOUND": 1e-6,       # criterion 9
    "_QN_GUARD_BITS": 32,           # criterion 11
    "_DIFF_FD_BOUND": 1e-9,         # criterion 11
    "_DIFF_EXACT_BOUND": 1e-20,     # criterion 11
    "_NORM_PRODUCT_REL_TOL": 1e-80, # criterion 11
    "_MC_SIGMAS": 3.0,              # criterion 12
    "_FINITE_BAND": 0.03,           # criterion 12
    "_BULK_LOG_FACTOR": 5.0,        # the bulk check
    "_DEGRADE_LAMBDA": 0.9,         # the bulk check
    "_ODE_TOL": 1e-12,              # criteria 4 to 7, 9 and 10
}


def test_gates_at_stated_tolerances():
    # a loosened (or tightened) gate constant fails here, not silently
    assert {name: getattr(verify, name) for name in _STATED_GATES} == _STATED_GATES


def test_zz_summary():
    print("\n" + "=" * 72)
    for line in _LINES:
        print(line)
    print("=" * 72)
    assert len(_LINES) == 12
