import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from edgejump.asympt import (airy_tail_residual, bulk_hankel_asymptote,
                             edge_hankel_asymptote, fit_order,
                             polynomial_value_asymptote, recurrence_asymptotes)
from edgejump.painleve import _airy_initial_state, solve_as
from edgejump.util import kappa_from_beta

from oracles import (bulk_hankel_product, edge_hankel_product, gaussian_hankel_closed_form,
                     moment_limit_check, norm_expansion_products, polynomial_value_product)


class TestMomentLimit:
    # the closed form is the kappa -> 0 limit of F / kappa^2 that starts the
    # Painleve integration (``painleve._airy_initial_state``)
    def test_value_at_zero(self):
        quad, closed = moment_limit_check(0.0)
        ai, aip = sps.airy(0.0)[:2]
        want = -ai * aip / 3.0
        assert closed == pytest.approx(want, rel=1e-14)
        assert quad == pytest.approx(want, abs=1e-12)

    def test_deep_tail(self):
        # the closed form at t = 5 evaluates to ~5.3e-10 (not zero); both
        # routes agree and the common value is negligible on the unit scale
        quad, closed = moment_limit_check(5.0)
        assert abs(quad) < 1e-8
        assert abs(closed) < 1e-8
        assert quad == pytest.approx(closed, abs=1e-14)

    @pytest.mark.parametrize("t", [-4.0, -2.0, 0.0, 1.0, 2.0])
    def test_quadrature_matches_closed_form(self, t):
        quad, closed = moment_limit_check(t)
        assert quad == pytest.approx(closed, abs=1e-10)
        assert _airy_initial_state(1.0, t)[3] == pytest.approx(quad, abs=1e-10)


class TestFitOrder:
    def test_exact_power_law(self):
        ns = (16, 32, 64)
        errs = [10.0 * n ** -0.5 for n in ns]
        assert fit_order(ns, errs) == pytest.approx(0.5, abs=1e-12)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            fit_order((16,), [1.0])
        with pytest.raises(ValueError, match="one size per error"):
            fit_order((16, 32, 64), [1.0, 0.5])

    def test_reads_the_ladder(self):
        # a ladder that grows by 1.5 once read 0.2 where the order is 1/3,
        # as every rung was taken to double n
        def err(n):
            return n ** (-1.0 / 3.0) * (1 + 0.5 * n ** (-1.0 / 3.0))

        orders = [fit_order(ns, [err(n) for n in ns])
                  for ns in ((64, 96, 144, 216), (64, 128, 256, 512))]
        assert orders[0] == pytest.approx(orders[1], abs=0.02)
        assert orders[0] == pytest.approx(1.0 / 3.0, abs=0.1)


class TestDegenerateLimits:
    def test_edge_hankel_beta_zero(self):
        # the prediction is log(H_n(beta)/H_n(0)), so 0 at beta = 0
        sol = solve_as(0.0, -3.0, 1e-12)
        assert abs(edge_hankel_asymptote(12, 0.0, 0.0, sol)) < 1e-60

    def test_recurrence_kappa_zero(self):
        sol = solve_as(0.0, -3.0, 1e-12)
        pred = recurrence_asymptotes(40, 0.0, sol)
        assert pred["R"] == pytest.approx(20.0, abs=1e-15)
        assert pred["Q"] == pytest.approx(0.0, abs=1e-15)

    def test_polynomial_asymptote_reduces_to_hermite_form(self):
        # kappa -> 0: (sqrt(2 pi)/kappa) u -> sqrt(2 pi) Ai(t), the classical
        # Plancherel-Rotach factor for monic Hermite polynomials
        kap = 1e-7
        t, n = 0.5, 64
        sol = solve_as(kap, t - 1.0, 1e-13, t_start=6.0)
        log_pred = polynomial_value_asymptote(n, t, sol)
        with mp.workprec(256):
            nn = mp.mpf(n)
            hermite_form = (mp.sqrt(2 * mp.pi) * (nn * mp.e / 2) ** (nn / 2)
                            * nn ** mp.mpf("1/6") * mp.exp(t * nn ** mp.mpf("1/3"))
                            * mp.airyai(t))
            log_form = complex(mp.log(hermite_form))
        assert abs(cmath.exp(log_pred - log_form) - 1) < 1e-8

    def test_airy_tail_beta_zero_is_exact(self):
        # beta = 0 is kappa = 0, where the Airy determinant is 1
        assert airy_tail_residual(-9.0, 0.0, logdet=0j) == 0.0

    def test_airy_tail_sweep_equals_one_call_per_t(self):
        ts, lds = [-10.0, -10.25, -25.0], [0.3 - 4.2j, 0.31 - 4.4j, 1.1 - 16.6j]
        swept = airy_tail_residual(ts, 0.15j, lds)
        assert swept.shape == (3,)
        for t, ld, got in zip(ts, lds, swept):
            assert got == pytest.approx(airy_tail_residual(t, 0.15j, ld), rel=1e-14)
        with pytest.raises(ValueError):
            airy_tail_residual([-1.0, 0.5], 0.15j, [0j, 0j])


def test_bulk_asymptote_domain_guards():
    with pytest.raises(ValueError):
        bulk_hankel_asymptote(30, 1.2, 0.1j)
    with pytest.raises(ValueError):
        bulk_hankel_asymptote(30, 0.0, 0.3)


def test_norm_expansion_variants_differ():
    beta = 0.4j
    sol = solve_as(kappa_from_beta(beta), -1.0, 1e-12)
    pred = recurrence_asymptotes(64, 0.0, sol)
    assert abs(pred["log_h"] - pred["log_h_printed"]) > 0


def _log_gap(log_pred, oracle, divisor=1) -> float:
    """|exp(log_pred - log(oracle / divisor)) - 1|, the log of the oracle taken in its precision."""
    with mp.workprec(200):
        log_oracle = complex(mp.log(oracle / divisor))
    return abs(cmath.exp(log_pred - log_oracle) - 1)


class TestLogsAgainstProducts:
    # the evaluators sum logs in doubles; the oracles multiply the same
    # factors at 200 bits with H_n(0) from its closed form
    BETA = 0.4j

    @pytest.fixture(scope="class")
    def sol(self):
        return solve_as(kappa_from_beta(self.BETA), -3.0, 1e-12)

    @pytest.mark.parametrize("n", [20, 640, 2048])
    @pytest.mark.parametrize("t", [-2.0, 0.0, 2.0])
    def test_edge_recurrence_polynomial(self, sol, n, t):
        F, u, v = complex(sol.F(t)), complex(sol.u(t)), complex(sol.v(t))
        assert _log_gap(edge_hankel_asymptote(n, t, self.BETA, sol),
                        edge_hankel_product(n, self.BETA, F),
                        gaussian_hankel_closed_form(n)) <= 1e-10
        pred = recurrence_asymptotes(n, t, sol)
        h, h_printed = norm_expansion_products(n, self.BETA, u, v)
        assert _log_gap(pred["log_h"], h) <= 1e-10
        assert _log_gap(pred["log_h_printed"], h_printed) <= 1e-10
        assert _log_gap(polynomial_value_asymptote(n, t, sol),
                        polynomial_value_product(n, t, sol.kappa, u)) <= 1e-10

    @pytest.mark.parametrize("n", [30, 120])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("beta", [0.2j, 0.1])
    def test_bulk(self, n, lam, beta):
        assert _log_gap(bulk_hankel_asymptote(n, lam, beta), bulk_hankel_product(n, lam, beta),
                        gaussian_hankel_closed_form(n)) <= 1e-10
