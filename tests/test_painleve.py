import cmath
import math

import numpy as np
import pytest
import scipy.special as sps

from edgejump import painleve
from edgejump.ode import _horner, _horner_derivative
from edgejump.painleve import (FitFailure, PoleEncountered, TooCloseToPole,
                               as_asymptote_minus, kappa_for_gamma,
                               oscillation_envelope, p34_singular_asymptote,
                               phase_singular, pii_residual, pole_free_scan,
                               pole_roundtrip_error, solve_as, _cross_pole,
                               _laurent_data, _laurent_state, _pii_laurent, _pii_taylor)
from edgejump.util import DomainError, beta_from_kappa, kappa_from_beta

from oracles import (cross_pole_two_detours, laurent_data_four_series, laurent_data_newton,
                     p34_residual, pii_taylor_index_sum, v_asymptote_minus)

TOL = 1e-12


@pytest.fixture(scope="module")
def sol_half():
    return solve_as(0.5, -41.0, TOL)


@pytest.fixture(scope="module")
def sol_cut():
    # on the real cut: traversal on by default
    return solve_as(1.5, -7.0, TOL)


class TestSolveBasics:
    def test_zero_deformation_is_zero_solution(self):
        sol = solve_as(0.0, -5.0, TOL)
        for t in sol.grid(20):
            assert sol.u(t) == 0
            assert sol.v(t) == 0
            assert sol.F(t) == 0

    def test_hastings_mcleod_rejected(self):
        with pytest.raises(ValueError):
            solve_as(1.0, -5.0, TOL)
        with pytest.raises(ValueError):
            solve_as(-1.0, -5.0, TOL)

    def test_linearization_limit(self):
        kap = 1e-6
        sol = solve_as(kap, -8.0, 1e-13, t_start=5.0)
        for t in np.arange(-7.5, 5.0, 0.5):
            ai = sps.airy(float(t))[0]
            assert abs(complex(sol.u(float(t))) / kap - ai) <= 1e-10 * abs(ai)

    def test_residual_invariant(self, sol_half):
        for t in sol_half.grid(60):
            r = pii_residual(sol_half, t)
            assert r <= TOL * (1 + abs(sol_half.u(t)) ** 3)

    def test_antiderivative_consistency(self, sol_half):
        # v' = -u^2 and F' = -v from the dense interpolant slopes
        for t in sol_half.grid(25, t_lo=-20.0, t_hi=3.0):
            seg = sol_half._segment_for(t)
            u, _, v, _ = seg(t)
            assert abs(seg.derivative(t, 2) + u * u) <= 1e-11 * (1 + abs(u) ** 2)
            assert abs(seg.derivative(t, 3) + v) <= 1e-11 * (1 + abs(v))

    def test_real_parameter_solution_is_real(self, sol_half):
        for t in sol_half.grid(20):
            assert abs(complex(sol_half.u(t)).imag) < 1e-13

    def test_imaginary_kappa_ratio_is_real(self):
        kap = 0.8j
        sol = solve_as(kap, -10.0, TOL)
        for t in sol.grid(20):
            assert abs((complex(sol.u(t)) / kap).imag) < 1e-11

    def test_parity_in_kappa(self, sol_half):
        sol_neg = solve_as(-0.5, -15.0, TOL)
        for t in sol_neg.grid(15):
            assert abs(complex(sol_neg.u(t)) + complex(sol_half.u(t))) < 1e-10

    def test_exponential_decay_envelope(self, sol_half):
        for t in np.arange(2.0, sol_half.t_start, 0.5):
            assert abs(complex(sol_half.u(float(t)))) <= 2 * 0.5 * sps.airy(float(t))[0]

    def test_t_min_guard(self):
        with pytest.raises(DomainError, match="outside the validated window"):
            solve_as(0.5, -80.0, TOL)

    @pytest.mark.parametrize("t_min, t_start", [(20.0, None), (30.0, 5.0), (5.0, 5.0)])
    def test_upward_run_refused(self, t_min, t_start):
        # toward +inf the Airy-decaying solution is unstable: solve_as(0.5, 20.0)
        # once returned u(16) = -1.8e-14 against 0.5 Ai(16) = 2.1e-20
        with pytest.raises(DomainError, match="not below the start point"):
            solve_as(0.5, t_min, TOL, t_start=t_start)


class TestOscillatoryAsymptote:
    def test_matches_ode_solution(self, sol_half):
        # absolute band: the correction term scales like the envelope times
        # (-t)^(-2) for purely imaginary beta
        beta = beta_from_kappa(0.5)
        for t in (-15.0, -30.0, -40.0):
            pred = as_asymptote_minus(t, beta)
            got = complex(sol_half.u(t))
            band = 3 * oscillation_envelope(beta) * abs(t) ** -0.25 * abs(t) ** -2
            assert abs(got - pred) <= band

    def test_documented_imaginary_beta_point(self):
        beta = 0.2j
        sol = solve_as(kappa_from_beta(beta), -41.0, TOL)
        pred = as_asymptote_minus(-40.0, beta)
        got = complex(sol.u(-40.0))
        assert abs(got - pred) <= 2e-3 * abs(got)

    def test_small_beta_rejected(self):
        with pytest.raises(ValueError):
            as_asymptote_minus(-10.0, 1e-4)

    def test_envelope(self, sol_half):
        beta = beta_from_kappa(0.5)
        env = max(abs(complex(sol_half.u(float(t)))) * (-float(t)) ** 0.25
                  for t in np.linspace(-40.5, -34, 300))
        assert env == pytest.approx(oscillation_envelope(beta), rel=2e-3)


class TestP34:
    def test_residual_small_on_oscillatory_branch(self, sol_half):
        assert p34_residual(sol_half, -5.0) <= 1e-7

    def test_zero_solution_rejected(self):
        sol = solve_as(0.0, -5.0, TOL)
        with pytest.raises(ValueError):
            p34_residual(sol, -2.0)

    def test_complex_kappa(self):
        sol = solve_as(0.9j, -3.0, TOL)
        assert p34_residual(sol, 2.0) <= 1e-7

    def test_singular_asymptote_formula_gamma0(self):
        # the gamma = 0 reduction: -t/cos^2 + tan/(2 sqrt(-t)) - 3 sin/(16 sqrt(-t) cos^3)
        t = -20.0
        ph = phase_singular(t, 0.0)
        want = (-t) / math.cos(ph) ** 2 + math.tan(ph) / (2 * math.sqrt(-t)) \
            - 3.0 * math.sin(ph) / (16 * math.sqrt(-t) * math.cos(ph) ** 3)
        assert p34_singular_asymptote(t, 0.0) == pytest.approx(want, rel=1e-13)

    def test_pole_guard(self):
        # find a point where |cos phase| dips below the guard
        t = -20.0
        while abs(math.cos(phase_singular(t, 0.0))) > 0.1:
            t -= 1e-3
        with pytest.raises(TooCloseToPole):
            p34_singular_asymptote(t, 0.0)


class TestPoles:
    def test_real_cut_has_poles(self, sol_cut):
        assert len(sol_cut.poles) >= 1
        rec = sol_cut.poles[0]
        assert rec.sign in (-1, 1)
        assert -7.0 < rec.location < 5.0

    def test_oscillatory_family_is_pole_free(self):
        sol = solve_as(0.5, -40.0, TOL)
        assert sol.poles == []

    def test_roundtrip_across_pole(self, sol_cut):
        rec = sol_cut.poles[0]
        assert pole_roundtrip_error(sol_cut, rec, offset=0.3) <= 1e-6

    def test_pole_locations_converge_with_tol(self):
        # each crossing restarts from Laurent data solved at the stop point;
        # stopping too close to the pole (|u| = 100) let the locations of 11
        # poles drift by 2.6e-8 between these two tolerances
        locs = [np.array([p.location for p in solve_as(math.sqrt(2), -14.0, tol).poles])
                for tol in (1e-12, 1e-13)]
        assert len(locs[0]) == len(locs[1]) == 11
        assert np.max(np.abs(locs[0] - locs[1])) <= 1e-9

    def test_one_detour_equals_both_on_the_way_down(self):
        # the chord nodes of the lower semicircle are exact conjugates of the
        # upper ones, so the two-sided mean is the real part of one, bit for bit
        sol = solve_as(math.sqrt(2), -14.0, TOL)
        assert len(sol.segments) == len(sol.poles) + 1 == 12
        for seg, pole in zip(sol.segments, sol.poles):
            got = _cross_pole(seg.event_t, seg.y_end, 1, TOL)
            want = cross_pole_two_detours(seg.event_t, seg.y_end, 1, TOL)
            assert got == want and got[0] == pole

    def test_one_detour_matches_both_on_the_way_up(self, monkeypatch):
        import edgejump.painleve as painleve
        sol = solve_as(math.sqrt(2), -14.0, TOL)
        calls = []

        def spy(*args):
            calls.append(args)
            return _cross_pole(*args)

        monkeypatch.setattr(painleve, "_cross_pole", spy)
        pole_roundtrip_error(sol, sol.poles[5], offset=0.3)
        assert [args[2] for args in calls] == [-1]
        rec, t_e, y = _cross_pole(*calls[0])
        rec_o, t_e_o, y_o = cross_pole_two_detours(*calls[0])
        # the Laurent data come from the stop state alone; only the end states differ
        assert rec == rec_o and t_e == t_e_o
        assert all(abs(p - q) <= 1e-12 * max(1.0, abs(q)) for p, q in zip(y, y_o))

    def test_complex_state_refused(self):
        # off the real cut the solution is not real on the real axis, so one
        # detour's real part is not the continuation: raise, return nothing
        with pytest.raises(ValueError):
            solve_as(1.5 + 1e-9j, -7.0, TOL, traverse=True)
        with pytest.raises(ValueError):
            _cross_pole(-1.65, (20.0 + 1e-12j, -400.0, 1.0, 1.0), 1, TOL)

    def test_traversal_disabled_raises(self):
        with pytest.raises(PoleEncountered):
            solve_as(1.5, -7.0, TOL, traverse=False)

    def test_pole_free_scan_off_cut(self):
        kappas = [0.7 * cmath.exp(1j * math.pi / 2), 1.3 * cmath.exp(1j * math.pi / 6)]
        assert pole_free_scan(kappas, t_min=-12.0, tol=TOL) == []

    def test_laurent_window_evaluation(self, sol_cut):
        rec = sol_cut.poles[0]
        x = 0.5 * (rec.gap_hi - rec.location)
        u = complex(sol_cut.u(rec.location + x))
        assert abs(u) > 1 / (2 * abs(x))  # pole-dominated magnitude


class TestLaurentSeries:
    # (a, eps, h): the first and the deepest pole of solve_as(sqrt 2, -14), the
    # third with its residue sign flipped, and a point t > 0 with h = 0
    POLES = [(-1.822, 1, 0.058), (-13.479, 1, 3.532), (-5.185, -1, 0.520), (3.0, -1, 0.0)]

    def test_low_coefficients(self):
        for a, eps, h in self.POLES:
            c = _pii_laurent(a, eps, h, 0.0, 0.0)[0]
            assert c[:5] == [eps, 0, -a * eps / 6, -eps / 4, h]

    @staticmethod
    def _residuals(a, eps, h, x):
        """Relative residuals of u' = du/dx, u'' = t u + 2 u^3, v' = -u^2 and
        F' = -v, every derivative taken from the series itself."""
        U, P, V, F = _pii_laurent(a, eps, h, 0.3, -0.1)
        u, up, v = _horner(U, x) / x, _horner(P, x) / x ** 2, _horner(V, x) / x
        du = (_horner_derivative(U, x) * x - _horner(U, x)) / x ** 2
        upp = (_horner_derivative(P, x) * x - 2 * _horner(P, x)) / x ** 3
        dv = (_horner_derivative(V, x) * x - _horner(V, x)) / x ** 2
        dF = _horner_derivative(F, x) - 1 / x
        return (abs(du - up) / abs(up), abs(upp - (a + x) * u - 2 * u ** 3) / abs(upp),
                abs(dv + u * u) / (u * u), abs(dF + v) / abs(v))

    @pytest.mark.parametrize("a, eps, h", POLES)
    def test_series_solves_the_system(self, a, eps, h, monkeypatch):
        # through x^15 the truncation sits below round-off for |x| <= 0.06
        monkeypatch.setattr(painleve, "_LAURENT_ORDER", 16)
        for x in np.linspace(-0.06, 0.06, 24):
            assert max(self._residuals(a, eps, h, float(x))) <= 4e-15

    def test_kept_order_in_the_first_window(self, sol_cut, monkeypatch):
        # u through x^11: u' and F' stay exact, and u'' = t u + 2 u^3 and
        # v' = -u^2 keep their truncation below round-off, 4.4e-16 and 4.2e-16
        # relative at |x| <= 0.06 here
        rec = sol_cut.poles[0]
        for x in np.linspace(-0.06, 0.06, 24):
            assert max(self._residuals(rec.location, rec.sign, rec.cubic, float(x))) <= 1e-15
        states = []
        for order in (painleve._LAURENT_ORDER, 20):
            monkeypatch.setattr(painleve, "_LAURENT_ORDER", order)
            states.append([_laurent_state(rec, rec.location + x) for x in (-0.05, 0.05)])
        for kept, ref in zip(*states):
            assert abs(kept[2] - ref[2]) <= 1e-14 and abs(kept[3] - ref[3]) <= 1e-14

    def test_fit_reproduces_the_stop_state(self):
        # u' and v are not fitted: the location comes from the Taylor series, h from u
        sol = solve_as(math.sqrt(2), -14.0, TOL)
        for seg, rec in zip(sol.segments, sol.poles):
            y = _laurent_state(rec, seg.event_t)
            for got, want in zip(y, seg.y_end):
                assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kappa, t_min", [(math.sqrt(2), -14.0), (1.5, -40.0)])
    def test_location_matches_the_two_variable_fit(self, kappa, t_min):
        # the ratio of u's last two Taylor coefficients at each stop point
        # against the Newton fit of a and h to u and u' there: 1.0e-14 apart
        sol = solve_as(kappa, t_min, TOL)
        for seg, rec in zip(sol.segments, sol.poles):
            a, _ = laurent_data_newton(seg.event_t, seg.y_end, 1)
            assert abs(rec.location - a) <= 1e-13

    def test_secant_on_u_alone_equals_the_four_series_secant(self):
        # each probe of h sums u's series only; v and F enter through their constants
        sol = solve_as(math.sqrt(2), -14.0, TOL)
        assert sol.poles
        for seg, rec in zip(sol.segments, sol.poles):
            ref = laurent_data_four_series(seg.event_t, seg.y_end, 1)
            assert (rec.location, rec.sign, rec.cubic, rec.c_v, rec.c_f) == (
                ref.location, ref.sign, ref.cubic, ref.c_v, ref.c_f)

    @pytest.mark.parametrize("order", [16, 20])
    def test_fit_does_not_depend_on_the_kept_order(self, order, monkeypatch):
        # the location does not read the Laurent series at all; h, solved from
        # u(t_s) to round-off, agrees bit for bit at these poles
        sol = solve_as(math.sqrt(2), -14.0, TOL)
        monkeypatch.setattr(painleve, "_LAURENT_ORDER", order)
        for seg, rec in zip(sol.segments, sol.poles):
            deep = _laurent_data(seg.event_t, seg.y_end, 1)
            assert deep.location == rec.location and abs(deep.cubic - rec.cubic) <= 1e-10

    def test_windows_hold_the_series_at_the_kept_order(self, monkeypatch):
        # |x| = 0.05 at every pole: order 20 adds at most 5.7e-16 relative
        sol = solve_as(math.sqrt(2), -14.0, TOL)
        points = [(rec, rec.location + x) for rec in sol.poles for x in (-0.05, 0.05)]
        kept = [_laurent_state(rec, t) for rec, t in points]
        monkeypatch.setattr(painleve, "_LAURENT_ORDER", 20)
        for y, (rec, t) in zip(kept, points):
            for got, want in zip(y, _laurent_state(rec, t)):
                assert abs(got - want) <= 1e-14 * abs(want)

    def test_no_dominant_pole_refused(self, sol_half):
        # the kappa = 0.5 solution has no real pole; at t = -5 its nearest
        # singularities are a complex-conjugate pair, and the ratios of u's
        # Taylor coefficients there do not settle on any one location
        with pytest.raises(FitFailure, match="no pole dominates"):
            _laurent_data(-5.0, sol_half.state(-5.0), 1)


class TestVAsymptote:
    def test_leading_term_imaginary_beta(self):
        t = -40.0
        val = v_asymptote_minus(t, 0.3j)
        lead = 2 * 0.3 * math.sqrt(-t)
        assert abs(complex(val).real - lead) <= (0.3 / 2 + 3 * 0.09 / 2) / 40 + 1e-12

    def test_sign_resolved_against_ode(self):
        # the printed matrix-entry expansions carry the opposite sign to
        # v = integral of u^2 from the ODE; with that flip they agree to the
        # stated next-order scale
        beta = 0.3j
        sol = solve_as(kappa_from_beta(beta), -41.0, TOL)
        t = -40.0
        pred = complex(v_asymptote_minus(t, beta))
        got = complex(sol.v(t))
        assert abs(got + pred) <= 5 * (-t) ** -2.5
        assert abs(got - pred) > 1.0

    def test_general_form_reduces_to_imaginary_case(self):
        for t in (-25.0, -40.0):
            a = complex(v_asymptote_minus(t, 0.25j, form="general"))
            b = complex(v_asymptote_minus(t, 0.25j, form="imag"))
            assert abs(a - b) < 1e-12 * (1 + abs(b))

    def test_oscillatory_term_envelope_scaling(self):
        # the oscillatory part of the general form scales as 1/(-t)
        beta = 0.1 + 0.2j
        for t in (-20.0, -40.0, -80.0):
            full = complex(v_asymptote_minus(t, beta, form="general"))
            smooth = (-2j * complex(beta) * math.sqrt(-t)
                      - 3 * complex(beta) ** 2 / (2 * (-t)))
            assert abs(full - smooth) * (-t) < 2.0

    def test_half_line_form_uses_singular_phase(self):
        t = -30.0
        val = complex(v_asymptote_minus(t, 0.5 + 0.2j, form="half"))
        want = math.sqrt(-t) * (2 * 0.2 - math.tan(phase_singular(t, 0.2)))
        assert val.real == pytest.approx(want, rel=1e-12)


def test_singular_regime_matches_ode():
    # between consecutive poles the squared transcendent follows the
    # two-term singular expansion
    sol = solve_as(kappa_for_gamma(0.0), -9.0, TOL)
    locs = sorted(p.location for p in sol.poles)
    pairs = [(a, b) for a, b in zip(locs, locs[1:])]
    a_lo, a_hi = pairs[0]
    margin = 0.08 * (a_hi - a_lo)
    checked = 0
    for t in np.linspace(a_lo + margin, a_hi - margin, 40):
        if abs(math.cos(phase_singular(float(t), 0.0))) <= 0.3:
            continue
        y = complex(sol.u(float(t))) ** 2
        pred = p34_singular_asymptote(float(t), 0.0)
        assert abs(y.real - pred) <= 0.08 * abs(pred)
        checked += 1
    assert checked > 5


@pytest.mark.parametrize("complex_state", [False, True])
def test_taylor_coefficients_match_index_sums(complex_state):
    # the Cauchy products sum the same pairs in the same order as the index
    # sums, so every coefficient agrees bit for bit
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = rng.normal(size=4) * 3
        t = rng.normal() * 10
        if complex_state:
            y = y + 1j * rng.normal(size=4)
            t = complex(t, rng.normal())
        y = tuple(y.tolist())
        assert _pii_taylor(t, y, 24) == pii_taylor_index_sum(t, y, 24)


@pytest.mark.parametrize("kappa", [0.5, -0.7, 0.95, math.sqrt(2), 1.5])
def test_real_kappa_marches_on_floats(kappa):
    # a real kappa runs in real arithmetic: every coefficient is a Python
    # float, neither a complex nor a numpy.float64 (which would slow every
    # step).  The same run from the complex-promoted start state takes the
    # same steps and crosses the same poles, with imaginary parts exactly 0
    # and real parts within 4 ulp: equal on CPython 3.11, where sum adds
    # floats in order, while from 3.12 on sum may compensate float sums
    import edgejump.painleve as painleve
    sol = solve_as(kappa, -14.0, TOL)
    coeffs = [c for seg in sol.segments for step in seg.coeffs for comp in step for c in comp]
    assert {type(c) for c in coeffs} == {float}
    assert {type(y) for t in sol.grid(60) for y in sol.state(t)} == {float}
    y0 = tuple(complex(comp[0]) for comp in sol.segments[0].coeffs[0])
    segments, poles = painleve._integrate_with_poles(y0, sol.t_start, -14.0, TOL,
                                                     traverse=abs(kappa) > 1)
    assert len(poles) == len(sol.poles) == (11 if abs(kappa) > 1 else 0)
    assert [p.location for p in poles] == pytest.approx([p.location for p in sol.poles],
                                                        rel=1e-12)
    assert [seg.n_steps for seg in segments] == [seg.n_steps for seg in sol.segments]
    promoted = [c for seg in segments for step in seg.coeffs for comp in step for c in comp]
    assert isinstance(promoted[0], complex) and len(promoted) == len(coeffs)
    assert all(c.imag == 0 for c in promoted)
    assert all(abs(c.real - f) <= 4 * math.ulp(f) for c, f in zip(promoted, coeffs))
