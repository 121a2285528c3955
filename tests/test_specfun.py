import math

import mpmath as mp
import numpy as np
import pytest

from edgejump.precision import PrecisionCtx
from edgejump.quadrature import gauss_legendre
from edgejump.specfun import (airy, half_gauss_moments, hermite_functions,
                              hermite_functions_mp)

from oracles import (airy_maclaurin, barnes_g_via_loggamma_integral, gauss_legendre_mp,
                     hermite_orthonormal)
from oracles import airy as scipy_airy

CTX = PrecisionCtx(256)


def airy_ai(x, ctx=CTX, derivative=0):
    """mpmath's Ai (or Ai') at ``ctx`` precision: the big-float Airy reference of the tests."""
    with ctx.workprec():
        return mp.airyai(mp.mpf(x), derivative=derivative)


class TestAiry:
    # mpmath's Airy function, the big-float reference of the Plancherel-Rotach
    # test, pinned against independent oracles
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
            assert abs(fd - airy_ai(1, CTX, derivative=1)) < mp.mpf(10) ** -18


EPS = np.finfo(float).eps
# the anchors of the Airy table in [-60, 10] (step 1/2), the points where the
# nearest anchor switches, the switch to the asymptotic series at 10 and
# points past it
AIRY_GRID = np.concatenate((np.arange(-60.0, 18.001, 0.125), [9.99, 10.0, 10.01]))


def _airy_envelopes(x):
    """|x|^(-1/4)/sqrt(pi) and |x|^(1/4)/sqrt(pi): the amplitudes of Ai and Ai' as x -> -inf."""
    with np.errstate(divide="ignore"):
        return np.abs(x) ** -0.25 / math.sqrt(math.pi), np.abs(x) ** 0.25 / math.sqrt(math.pi)


class TestAiryDouble:
    # specfun.airy, the double Airy pair of the Nystrom kernel and the Painleve
    # initial data, against mpmath at 120 bits and against scipy

    @pytest.fixture(scope="class")
    def reference(self):
        with mp.workprec(120):
            return np.array([[float(mp.airyai(x, derivative=d)) for x in AIRY_GRID]
                             for d in (0, 1)])

    def test_against_mpmath_within_envelope(self, reference):
        ai, aip = airy(AIRY_GRID)
        env_ai, env_aip = _airy_envelopes(AIRY_GRID)
        assert np.max(np.abs(ai - reference[0]) / np.maximum(np.abs(reference[0]), env_ai)) \
            <= 32 * EPS
        assert np.max(np.abs(aip - reference[1]) / np.maximum(np.abs(reference[1]), env_aip)) \
            <= 32 * EPS

    def test_relative_accuracy_on_positive_axis(self, reference):
        # where Ai decays, relative error is the figure that counts; past 10
        # it is bounded by the rounding of exp(-zeta) with zeta = 2/3 x^(3/2)
        x = AIRY_GRID
        ai, aip = airy(x)
        pos = x >= 0
        zeta = 2 / 3 * x[pos] ** 1.5
        for got, want in ((ai, reference[0]), (aip, reference[1])):
            rel = np.abs(got[pos] - want[pos]) / np.abs(want[pos])
            assert np.all(rel <= (8 + 2 * zeta) * EPS)

    def test_against_scipy(self):
        ai, aip = airy(AIRY_GRID)
        sai, saip = scipy_airy(AIRY_GRID)[:2]
        env_ai, env_aip = _airy_envelopes(AIRY_GRID)
        assert np.max(np.abs(ai - sai) / np.maximum(np.abs(sai), env_ai)) <= 1e-12
        assert np.max(np.abs(aip - saip) / np.maximum(np.abs(saip), env_aip)) <= 1e-12
        pos = AIRY_GRID >= 0
        assert np.max(np.abs(ai[pos] / sai[pos] - 1)) <= 1e-13
        assert np.max(np.abs(aip[pos] / saip[pos] - 1)) <= 1e-13

    def test_below_the_table(self):
        # below -64 the march goes on for the call
        x = np.array([-64.3, -100.0, -250.0, 3.0])
        ai, aip = airy(x)
        env_ai, env_aip = _airy_envelopes(x)
        with mp.workprec(120):
            for k, xk in enumerate(x):
                assert abs(ai[k] - float(mp.airyai(xk))) <= 32 * EPS * env_ai[k]
                assert abs(aip[k] - float(mp.airyai(xk, derivative=1))) <= 32 * EPS * env_aip[k]

    def test_shapes_and_far_right(self):
        ai, aip = airy(0.5)
        assert np.ndim(ai) == 0 and np.ndim(aip) == 0
        assert airy(np.zeros((2, 3)))[0].shape == (2, 3)
        assert airy([])[0].shape == (0,)
        assert airy(1e300) == (0.0, 0.0)
        assert airy([0.5])[0][0] == ai

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
    def test_non_finite_raises(self, x):
        with pytest.raises(ValueError):
            airy(x)


def gamma_complex(z) -> complex:
    """mpmath's complex Gamma in double precision, as the phase formulas call it."""
    return complex(mp.gamma(mp.mpc(z)))


class TestGamma:
    # mpmath's Gamma, which the Painleve phases and the full Gaussian moments
    # call, pinned by its functional equations
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


class TestBarnesG:
    """mpmath's Barnes G, which the bulk and Airy-tail predictions call."""

    def test_small_integers(self):
        for z, want in ((1, 1.0), (2, 1.0), (3, 1.0), (4, 2.0)):
            assert complex(mp.barnesg(z)) == pytest.approx(want, rel=1e-12)

    def test_recursion(self):
        z = 1.37 + 0.21j
        assert complex(mp.barnesg(z + 1)) == pytest.approx(
            complex(mp.gamma(z) * mp.barnesg(z)), rel=1e-11)

    def test_identity_prefactor_at_beta_zero(self):
        assert complex(mp.barnesg(1.0) * mp.barnesg(1.0)) == pytest.approx(1.0, rel=1e-13)

    def test_against_loggamma_integral_oracle(self):
        # Alexeiewsky: log G(1+z) via the integral of log Gamma; z = 1/2
        # gives G(3/2), and G(1/2) = G(3/2)/Gamma(1/2)
        oracle_log_g32 = barnes_g_via_loggamma_integral(0.5, bits=200)
        with mp.workprec(210):
            g = mp.barnesg(mp.mpc(0.5))
        with mp.workprec(200):
            g_half = mp.exp(oracle_log_g32) / mp.sqrt(mp.pi)
            assert abs(g - g_half) < 1e-30


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
        assert all(v > 0 for v in J)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_cut_raises(self, lam):
        # +inf once gave 0, 0, nan, ... (inf * 0 in the recursion), nan an
        # integer-conversion error
        with pytest.raises(ValueError, match="lambda0 must be finite"):
            half_gauss_moments(lam, 4, CTX)


class TestHermite:
    def test_constant_normalization(self):
        assert hermite_orthonormal(0, 0.37) == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_norm_via_quadrature(self):
        # node count fixed by a doubling check: 160 and 320 nodes on [-8, 8]
        # agree beyond 1e-13 (40 nodes under-resolve the Gaussian on this
        # interval and leave ~1e-4 errors)
        x, w = gauss_legendre(160, -8.0, 8.0)
        h2 = hermite_orthonormal(2, x)
        val = float(np.sum(w * h2 * h2 * np.exp(-x * x)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_parity_orthogonality(self):
        x, w = gauss_legendre(160, -8.0, 8.0)
        val = float(np.sum(w * hermite_orthonormal(1, x) * hermite_orthonormal(3, x)
                           * np.exp(-x * x)))
        assert abs(val) < 1e-12

    def test_hermite_functions_match_polynomials(self):
        for x in (-2.5, -0.3, 0.0, 1.7):
            psi = hermite_functions(5, x)
            for k in range(5):
                want = hermite_orthonormal(k, x) * math.exp(-0.5 * x * x)
                assert abs(psi[k] - want) < 1e-13

    def test_far_points_do_not_underflow(self):
        # e^(-x^2/2) underflows beyond x ~ 38.6; psi_k(x) for large k does not
        for x in (40.0, -40.0, 60.0):
            psi = hermite_functions(900, x)
            ref = hermite_functions_mp(900, x, CTX)
            for k in range(900):
                if abs(ref[k]) > 1e-290:
                    assert psi[k] == pytest.approx(float(ref[k]), rel=1e-12)
        assert abs(hermite_functions(900, 40.0)[799]) > 0.2

    def test_bigfloat_variant_matches(self):
        vals = hermite_functions_mp(6, 0.8, CTX)
        ref = hermite_functions(6, 0.8)
        for k in range(6):
            assert float(vals[k]) == pytest.approx(ref[k], rel=1e-13)


def test_airy_integral_identity():
    # d/dt [Ai'^2 - t Ai^2] = -Ai^2: quadrature of Ai^2 against the closed form
    a, b = -2.0, 3.0
    x, w = gauss_legendre(160, a, b)
    quad = np.sum(w * airy(x)[0] ** 2)
    (ai_a, ai_b), (aip_a, aip_b) = airy([a, b])
    closed = (aip_a ** 2 - a * ai_a ** 2) - (aip_b ** 2 - b * ai_b ** 2)
    assert quad == pytest.approx(closed, abs=1e-13)
