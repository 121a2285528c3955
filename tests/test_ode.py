import cmath
import math

import numpy as np
import pytest
import scipy.special as sps

from edgejump.ode import _ORDER, StepUnderflow, _step_size, adaptive_rk, along_path
from edgejump.painleve import pole_roundtrip_error, solve_as

from oracles import step_size_all_roots


def exp_taylor(t, y, K):
    # y' = y
    c = [y[0]]
    for k in range(K):
        c.append(c[k] / (k + 1))
    return (c,)


def sine_taylor(t, y, K):
    # y0' = y1, y1' = -y0
    s, c = [y[0]], [y[1]]
    for k in range(K):
        s.append(c[k] / (k + 1))
        c.append(-s[k] / (k + 1))
    return s, c


def airy_taylor(t, y, K):
    # u'' = t u: the t u term shifts one order
    u, p = [y[0]], [y[1]]
    for k in range(K):
        u.append(p[k] / (k + 1))
        p.append((t * u[k] + (u[k - 1] if k else 0)) / (k + 1))
    return u, p


def pii_taylor(t, y, K):
    # u'' = t u + 2 u^3 through the Cauchy products u^2 and u^3
    u, p, u2, u3 = [y[0]], [y[1]], [], []
    for k in range(K):
        u2.append(sum(u[j] * u[k - j] for j in range(k + 1)))
        u3.append(sum(u2[j] * u[k - j] for j in range(k + 1)))
        u.append(p[k] / (k + 1))
        p.append((t * u[k] + (u[k - 1] if k else 0) + 2 * u3[k]) / (k + 1))
    return u, p


def square_taylor(t, y, K):
    # y' = y^2
    c = [y[0]]
    for k in range(K):
        c.append(sum(c[j] * c[k - j] for j in range(k + 1)) / (k + 1))
    return (c,)


def test_scalar_exponential():
    tr = adaptive_rk(exp_taylor, (1.0,), 0.0, 1.0, 1e-12)
    assert abs(tr(1.0)[0] - math.e) < 1e-10


def test_sine_second_order_system():
    tr = adaptive_rk(sine_taylor, (0.0, 1.0), 0.0, math.pi, 1e-12)
    assert abs(tr(math.pi)[0]) < 1e-9
    # dense output mid-span
    assert abs(tr(1.0)[0] - math.sin(1.0)) < 1e-11
    assert abs(tr.derivative(2.2, 0) - math.cos(2.2)) < 1e-10


def test_backward_integration():
    tr = adaptive_rk(exp_taylor, (1.0,), 0.0, -1.0, 1e-12)
    assert abs(tr(-1.0)[0] - math.exp(-1.0)) < 1e-12
    assert abs(tr(-0.3)[0] - math.exp(-0.3)) < 1e-12


def test_complex_path_around_a_pole():
    # y' = y^2 through y(0) = 1 is 1/(1 - t): around its pole at t = 1 on
    # a half-octagon in the upper half-plane and back to the real axis
    nodes = [0.5] + [1 + 0.5 * complex(math.cos(a), math.sin(a))
                     for a in (math.pi * (1 - j / 4) for j in range(5))]
    y = along_path(square_taylor, (2.0,), nodes, 1e-12)
    assert abs(y[0] - 1 / (1 - 1.5)) < 1e-12


def test_tolerance_halving_reduces_error():
    # endpoint error of Ai(-20) from the Airy ODE started at t = 0
    ai0, aip0, _, _ = sps.airy(0.0)
    ref = sps.airy(-20.0)[0]
    errs = []
    for tol in (1e-5, 1e-6, 1e-7, 1e-8):
        tr = adaptive_rk(airy_taylor, (ai0, aip0), 0.0, -20.0, tol)
        errs.append(abs(tr(-20.0)[0] - ref))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_step_underflow_near_blowup():
    # y' = y^2 blows up at t = 1
    with pytest.raises(StepUnderflow) as exc:
        adaptive_rk(square_taylor, (1.0,), 0.0, 2.0, 1e-10)
    assert abs(float(exc.value.t_star) - 1.0) < 1e-3
    traj = exc.value.trajectory
    assert traj.n_steps > 10
    assert abs(traj(0.5)[0] - 2.0) < 1e-7  # 1/(1-t)


def test_event_stop():
    tr = adaptive_rk(exp_taylor, (1.0,), 0.0, 5.0, 1e-10,
                     event=lambda t, y: y[0] > 10.0)
    assert tr.event_t is not None
    assert tr(tr.event_t)[0] >= 10.0


def test_dense_output_satisfies_the_ode():
    # the slope of the Taylor polynomial between steps, not just the nodes
    tol = 1e-10
    tr = adaptive_rk(pii_taylor, (0.3, 0.1), 0.0, -6.0, tol)
    lo, hi = -6.0, 0.0
    for i in range(60):
        t = lo + (hi - lo) * i / 59
        u = tr(t)[0]
        upp = tr.derivative(t, 1)
        assert abs(upp - t * u - 2 * u ** 3) <= tol * (1 + abs(u) ** 3)


@pytest.mark.parametrize("t0, t1, tol", [(0.0, 1.0, math.nan), (0.0, 1.0, 0.0),
                                         (0.0, math.nan, 1e-10), (math.inf, 1.0, 1e-10)])
def test_non_finite_span_or_tolerance_raises(t0, t1, tol):
    # a NaN tolerance once took one step across the whole span, and a NaN
    # end returned a trajectory of no steps
    with pytest.raises(ValueError, match="must be positive|must be finite"):
        adaptive_rk(exp_taylor, (1.0,), t0, t1, tol)
    with pytest.raises(ValueError, match="must be positive|must be finite"):
        along_path(exp_taylor, (1.0,), [t0, complex(t1, 0.5), t1], tol)
    if math.isnan(t1):  # solve_as(0.5, nan) once returned a solution of no steps
        with pytest.raises(ValueError, match="must be finite"):
            solve_as(0.5, t1, tol)


def test_out_of_span_eval_raises():
    tr = adaptive_rk(exp_taylor, (1.0,), 0.0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        tr(2.0)


# ---------------------------------------------------------------------------
# the Painleve II runs of the acceptance criteria
# ---------------------------------------------------------------------------

def test_criterion_4_run_step_budget():
    sol = solve_as(0.5, -30.0, 1e-12)
    assert sum(seg.n_steps for seg in sol.segments) <= 2000


@pytest.fixture(scope="module")
def sol_sqrt2():
    return solve_as(math.sqrt(2.0), -14.0, 1e-12)


def test_real_cut_detours_stay_real(sol_sqrt2):
    assert len(sol_sqrt2.poles) >= 10
    for t in sol_sqrt2.grid(200):
        assert abs(complex(sol_sqrt2.u(t)).imag) <= 1e-8
        assert abs(complex(sol_sqrt2.F(t)).imag) <= 1e-8


def test_roundtrip_across_every_pole(sol_sqrt2):
    for pole in sol_sqrt2.poles:
        assert pole_roundtrip_error(sol_sqrt2, pole, offset=0.3) <= 1e-6


def test_step_size_matches_the_all_roots_rule():
    # the scan that stops at a pair's first deciding root gives the same h,
    # bit for bit, as computing every root: real and complex coefficients
    # with geometric decay, three tolerances, and zero, infinite and NaN
    # entries in some sets
    rng = np.random.default_rng(2024)
    specials = (0.0, math.inf, -math.inf, math.nan, complex(math.nan, 1.0))
    for trial in range(3000):
        tol = (1e-10, 1e-12, 1e-13)[trial % 3]
        coeffs = []
        for _ in range(4):
            mags = 10.0 ** (rng.uniform(-8, 3) + rng.uniform(-3, 1) * np.arange(_ORDER + 1)
                            + rng.normal(size=_ORDER + 1))
            c = (mags * rng.choice((-1.0, 1.0), _ORDER + 1)).tolist()
            if trial % 2:
                turns = rng.uniform(0, 2 * math.pi, _ORDER + 1)
                c = [x * cmath.exp(1j * a) for x, a in zip(c, turns)]
            for _ in range(rng.integers(0, 4)):
                pool = specials if trial % 5 == 0 else specials[:1]
                c[rng.integers(0, _ORDER + 1)] = pool[rng.integers(0, len(pool))]
            coeffs.append(c)
        got, want = _step_size(coeffs, tol), step_size_all_roots(coeffs, tol)
        assert got == want or (math.isnan(got) and math.isnan(want)), (trial, got, want)
