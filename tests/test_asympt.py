import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from edgejump.asympt import (airy_tail_residual, bulk_hankel_asymptote,
                             edge_hankel_asymptote, fit_order,
                             polynomial_value_asymptote, recurrence_asymptotes)
from edgejump.painleve import _airy_initial_state, solve_as
from edgejump.precision import PrecisionCtx
from edgejump.weightlab import gaussian_hankel

from oracles import moment_limit_check

CTX = PrecisionCtx(256)


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
        errs = [10.0 * n ** -0.5 for n in (16, 32, 64)]
        assert fit_order(errs) == pytest.approx(0.5, abs=1e-12)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            fit_order([1.0])


class TestDegenerateLimits:
    def test_edge_hankel_beta_zero(self):
        sol = solve_as(0.0, -3.0, 1e-12)
        pred = edge_hankel_asymptote(12, 0.0, 0.0, sol, CTX)
        with CTX.workprec():
            assert abs(pred - gaussian_hankel(12, CTX)) < mp.mpf(10) ** -60

    def test_recurrence_kappa_zero(self):
        sol = solve_as(0.0, -3.0, 1e-12)
        pred = recurrence_asymptotes(40, 0.0, sol, ctx=CTX)
        assert pred["R"] == pytest.approx(20.0, abs=1e-15)
        assert pred["Q"] == pytest.approx(0.0, abs=1e-15)

    def test_polynomial_asymptote_reduces_to_hermite_form(self):
        # kappa -> 0: (sqrt(2 pi)/kappa) u -> sqrt(2 pi) Ai(t), the classical
        # Plancherel-Rotach factor for monic Hermite polynomials
        kap = 1e-7
        t, n = 0.5, 64
        sol = solve_as(kap, t - 1.0, 1e-13, t_start=6.0)
        pred = polynomial_value_asymptote(n, t, sol, CTX)
        with CTX.workprec():
            nn = mp.mpf(n)
            hermite_form = (mp.sqrt(2 * mp.pi) * (nn * mp.e / 2) ** (nn / 2)
                            * nn ** mp.mpf("1/6") * mp.exp(t * nn ** mp.mpf("1/3"))
                            * mp.airyai(t))
            assert abs(pred / hermite_form - 1) < 1e-8

    def test_airy_tail_beta_zero_is_exact(self):
        # beta = 0 is kappa = 0, where the Airy determinant is 1
        assert airy_tail_residual(-9.0, 0.0, logdet=0j) == 0.0


def test_bulk_asymptote_domain_guards():
    with pytest.raises(ValueError):
        bulk_hankel_asymptote(30, 1.2, 0.1j, CTX)
    with pytest.raises(ValueError):
        bulk_hankel_asymptote(30, 0.0, 0.3, CTX)


def test_norm_expansion_variants_differ():
    beta = 0.4j
    from edgejump.util import kappa_from_beta
    sol = solve_as(kappa_from_beta(beta), -1.0, 1e-12)
    pred = recurrence_asymptotes(64, 0.0, sol, ctx=CTX)
    with CTX.workprec():
        assert abs(pred["h"] - pred["h_printed"]) > 0
