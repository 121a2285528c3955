import math

import mpmath as mp
import numpy as np
import pytest

from edgejump.precision import PrecisionCtx
from edgejump.quadrature import gauss_legendre
from edgejump.specfun import (PoleAtNonpositiveInteger, airy_ai, airy_ai_prime,
                              barnes_g, gamma_complex, half_gauss_moments,
                              hermite_functions, hermite_functions_mp,
                              hermite_orthonormal)

from oracles import airy_maclaurin, barnes_g_via_loggamma_integral, gauss_legendre_mp

CTX = PrecisionCtx(256)


class TestAiry:
    def test_value_at_zero_closed_form(self):
        with CTX.workprec():
            closed = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
            assert abs(airy_ai(0, CTX) - closed) < mp.mpf(2) ** (32 - CTX.bits)

    @pytest.mark.parametrize("x", [0.0, 1.0, -1.5, 2.5, -5.0])
    def test_against_maclaurin_oracle(self, x):
        with CTX.workprec():
            oracle = airy_maclaurin(x, prec=CTX.bits)
            assert abs(airy_ai(x, CTX) - oracle) <= mp.mpf(2) ** (32 - CTX.bits) * (1 + abs(oracle))

    def test_defining_ode_residual(self):
        # Ai'' = x Ai probed by high-order central differences at 256 bits
        with CTX.workprec():
            h = mp.mpf(2) ** -40
            for x in range(-5, 6):
                vals = [airy_ai(x + k * h, CTX) for k in (-2, -1, 0, 1, 2)]
                second = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
                assert abs(second - x * vals[2]) < mp.mpf(10) ** -15

    def test_leading_asymptotic_factor(self):
        t = mp.mpf(100)
        with mp.workprec(400):
            val = airy_ai(t, PrecisionCtx(380))
            factor = val * mp.exp(mp.mpf(2) / 3 * t ** mp.mpf("1.5")) * 2 * mp.sqrt(mp.pi) * t ** mp.mpf("0.25")
            # next term of the series is -c1 * (2/3 t^(3/2))^(-1) with c1 = 5/72
            assert abs(factor - 1) < 2 * (5.0 / 72.0) / ((2.0 / 3.0) * 1000.0)

    def test_derivative_consistency(self):
        with CTX.workprec():
            h = mp.mpf(2) ** -40
            fd = (airy_ai(1 + h, CTX) - airy_ai(1 - h, CTX)) / (2 * h)
            assert abs(fd - airy_ai_prime(1, CTX)) < mp.mpf(10) ** -18

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            airy_ai(2e4)


class TestGamma:
    def test_gamma_one(self):
        assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half_is_sqrt_pi(self):
        # reflection at z = 1/2: Gamma(1/2)^2 = pi
        assert gamma_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_recurrence_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            if abs(z.imag) < 0.05:
                z += 0.3j
            val = gamma_complex(z + 1) / (z * gamma_complex(z))
            assert val == pytest.approx(1.0, rel=1e-12)

    def test_reflection_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = complex(rng.uniform(0.1, 0.9), rng.uniform(-1, 1))
            lhs = gamma_complex(z) * gamma_complex(1 - z) * np.sin(np.pi * z) / np.pi
            assert lhs == pytest.approx(1.0, rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma_complex(-3.0)


class TestBarnesG:
    def test_small_integers(self):
        for z, want in ((1, 1.0), (2, 1.0), (3, 1.0), (4, 2.0)):
            assert barnes_g(z) == pytest.approx(want, rel=1e-12)

    def test_recursion(self):
        z = 1.37 + 0.21j
        assert barnes_g(z + 1) == pytest.approx(
            complex(gamma_complex(z) * barnes_g(z)), rel=1e-11)

    def test_identity_prefactor_at_beta_zero(self):
        assert barnes_g(1.0) * barnes_g(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_against_loggamma_integral_oracle(self):
        # Alexeiewsky: log G(1+z) via the integral of log Gamma; z = 1/2
        # gives G(3/2), and G(1/2) = G(3/2)/Gamma(1/2)
        oracle_log_g32 = barnes_g_via_loggamma_integral(0.5, bits=200)
        with mp.workprec(200):
            g_half = mp.exp(oracle_log_g32) / mp.sqrt(mp.pi)
            assert abs(barnes_g(0.5, PrecisionCtx(200)) - g_half) < 1e-30


class TestHalfMoments:
    def test_half_gaussian_values(self):
        J = half_gauss_moments(0.0, 2, CTX)
        with CTX.workprec():
            assert abs(J[0] - mp.sqrt(mp.pi) / 2) < mp.mpf(10) ** -60
            assert abs(J[1] - mp.mpf("0.5")) < mp.mpf(10) ** -60
            assert abs(J[2] - mp.sqrt(mp.pi) / 4) < mp.mpf(10) ** -60

    def test_recursion_exact_by_construction(self):
        J = half_gauss_moments(1.3, 12, CTX)
        with CTX.workprec():
            lam = mp.mpf(1.3)  # the same double the table was built from
            w = mp.exp(-lam * lam)
            for k in range(2, 13):
                rhs = ((k - 1) * J[k - 2] + lam ** (k - 1) * w) / 2
                assert abs(J[k] - rhs) <= mp.mpf(2) ** (8 - CTX.bits) * abs(J[k])

    @pytest.mark.parametrize("lam", [-2.0, 0.0, 1.5])
    def test_against_quadrature(self, lam):
        J = half_gauss_moments(lam, 12, CTX)
        with CTX.workprec(10):
            hi = max(lam, 0.0) + 18.0
            nodes, weights = gauss_legendre_mp(160, lam, hi, CTX.bits)
            for k in range(13):
                quad = sum(w * x ** k * mp.exp(-x * x) for x, w in zip(nodes, weights))
                assert abs(J[k] - quad) < mp.mpf(10) ** -40

    def test_deep_tail_against_erfc_and_quadrature(self):
        J = half_gauss_moments(8.0, 0, CTX)
        with CTX.workprec(10):
            assert abs(J[0] - mp.sqrt(mp.pi) * mp.erfc(8) / 2) < mp.mpf(10) ** -60
            nodes, weights = gauss_legendre_mp(200, 8.0, 20.0, CTX.bits)
            quad = sum(w * mp.exp(-x * x) for x, w in zip(nodes, weights))
            assert abs(J[0] - quad) < 1e-25

    def test_positive_for_nonnegative_cut(self):
        J = half_gauss_moments(0.7, 9, CTX)
        assert all(v > 0 for v in J.values)


class TestHermite:
    def test_constant_normalization(self):
        assert hermite_orthonormal(0, 0.37) == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_norm_via_quadrature(self):
        # node count fixed by a doubling check: 160 and 320 nodes on [-8, 8]
        # agree beyond 1e-13 (40 nodes under-resolve the Gaussian on this
        # interval and leave ~1e-4 errors)
        rule = gauss_legendre(160, -8.0, 8.0)
        x = rule.nodes_array()
        w = rule.weights_array()
        h2 = hermite_orthonormal(2, x)
        val = float(np.sum(w * h2 * h2 * np.exp(-x * x)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_parity_orthogonality(self):
        rule = gauss_legendre(160, -8.0, 8.0)
        x = rule.nodes_array()
        w = rule.weights_array()
        val = float(np.sum(w * hermite_orthonormal(1, x) * hermite_orthonormal(3, x)
                           * np.exp(-x * x)))
        assert abs(val) < 1e-12

    def test_hermite_functions_match_polynomials(self):
        x = np.array([-2.5, -0.3, 0.0, 1.7])
        psi = hermite_functions(5, x)
        for k in range(5):
            want = hermite_orthonormal(k, x) * np.exp(-0.5 * x * x)
            assert np.max(np.abs(psi[k] - want)) < 1e-13

    def test_far_points_do_not_underflow(self):
        # e^(-x^2/2) underflows beyond x ~ 38.6; psi_k(x) for large k does not
        x = np.array([40.0, -40.0, 60.0])
        psi = hermite_functions(900, x)
        for j, xj in enumerate(x):
            ref = hermite_functions_mp(900, xj, CTX)
            for k in range(900):
                if abs(ref[k]) > 1e-290:
                    assert psi[k][j] == pytest.approx(float(ref[k]), rel=1e-12)
        assert abs(psi[799][0]) > 0.2

    def test_bigfloat_variant_matches(self):
        vals = hermite_functions_mp(6, 0.8, CTX)
        ref = hermite_functions(6, np.array([0.8]))
        for k in range(6):
            assert float(vals[k]) == pytest.approx(ref[k][0], rel=1e-13)


def test_airy_integral_identity():
    # d/dt [Ai'^2 - t Ai^2] = -Ai^2: quadrature of Ai^2 against the closed form
    a, b = -2.0, 3.0
    rule = gauss_legendre(160, a, b)
    quad = sum(w * airy_ai(x) ** 2 for x, w in zip(rule.nodes, rule.weights))
    closed = ((airy_ai_prime(a) ** 2 - a * airy_ai(a) ** 2)
              - (airy_ai_prime(b) ** 2 - b * airy_ai(b) ** 2))
    assert quad == pytest.approx(closed, abs=1e-13)
