import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import from_man_exp

from edgejump.fredholm import finite_n_det
from edgejump.linalg import ldlt, lu_det
from edgejump.precision import PrecisionCtx, hankel_ctx
from edgejump.util import kappa_sq_from_beta
from edgejump.weightlab import (SingularMinor, WeightParams, _chebyshev, _round,
                                build_op_system, diff_identity_residual, edge_cut,
                                eval_pn_prime, gaussian_hankel, gram_system,
                                hankel_matrix, moments, qn_jump_identity_residual)

from oracles import (CRITERIA_5_TO_7_CUTS, chebyshev_fdot, eval_pn_from_coeffs,
                     gaussian_hankel_closed_form, gram_schmidt_monic, jump_weight_integral,
                     monic_coefficients, op_system_mpc_phases)


def eval_pn(sys, k, x):
    """Monic p_k(x) alone."""
    return eval_pn_prime(sys, k, x)[0]

CTX = PrecisionCtx(320)


class TestMoments:
    def test_beta_zero_reduces_to_full_gaussian(self):
        params = WeightParams(0.0, 0.7)
        mu = moments(params, 8, CTX)
        with CTX.workprec():
            for j, m in enumerate(mu):
                want = mp.gamma(mp.mpf(j + 1) / 2) if j % 2 == 0 else 0
                assert abs(m - want) < mp.mpf(2) ** (16 - CTX.bits) * (1 + abs(m))

    def test_cut_pushed_past_the_mass(self):
        # resolving the e^{-lambda0^2} = e^{-900} correction needs ~1300
        # mantissa bits at lambda0 = 30
        ctx = PrecisionCtx(1600)
        params = WeightParams(0.23j, 30.0)
        mu = moments(params, 6, ctx)
        with ctx.workprec():
            phase = mp.exp(mp.mpc(0, 1) * mp.pi * mp.mpc(0.23j))
            for j, m in enumerate(mu):
                want = phase * (mp.gamma(mp.mpf(j + 1) / 2) if j % 2 == 0 else 0)
                assert abs(m - want) < mp.exp(mp.mpf(-850))  # e^{-lambda0^2} scale

    def test_against_quadrature_oracle(self):
        params = WeightParams(0.3j, 0.7)
        mu = moments(params, 0, CTX)
        oracle = jump_weight_integral(lambda x: 1, 0.3j, 0.7, bits=CTX.bits)
        with CTX.workprec():
            assert abs(mu[0] - oracle) < 1e-25


class TestRealWeight:
    @pytest.mark.parametrize("beta", [0, 0.4j, -0.3j, 0.3, 0.2 + 0.1j])
    def test_against_complex_phase_oracle(self, beta):
        # Re beta = 0 is a real weight: real moments and a pass in mpf, which
        # must match a build whose every step is complex (and whose modified
        # moments take three roundings each); at n = 8 the two differ by at
        # most 2^12 units of 2^-bits
        n, lam0 = 8, 0.5
        params = WeightParams(beta, lam0)
        kind = mp.mpf if complex(beta).real == 0 else mp.mpc
        assert all(type(m) is kind for m in moments(params, 2 * n + 1, CTX))
        sys = build_op_system(params, n, CTX, check=False)
        assert all(type(x) is kind for x in sys.H[1:] + sys.h + sys.R + sys.Q)  # H_0 = 1
        ref = op_system_mpc_phases(beta, lam0, n, CTX.bits)
        with CTX.workprec(10):
            tol = mp.mpf(2) ** (20 - CTX.bits)
            for name, got, want in zip("HhRQ", (sys.H, sys.h, sys.R, sys.Q), ref):
                assert len(got) == len(want)
                for x, y in zip(got, want):
                    assert abs(x - y) <= tol * max(abs(y), 1), (name, x, y)

    def test_imaginary_mpc_beta_takes_the_real_path(self):
        params = WeightParams(mp.mpc(0, 0.4), 0.5)
        with CTX.workprec():
            assert all(type(e) is mp.mpf for e in params.jump_phases())
        assert all(type(m) is mp.mpf for m in moments(params, 6, CTX))


class TestChebyshevKernel:
    @pytest.mark.parametrize("n", [1, 2, 20, 60])
    @pytest.mark.parametrize("bits", [192, 304, 768])
    def test_bit_identical_to_fdot_oracle(self, bits, n):
        # the integer pass returns exactly the mp.fdot pass's Q, R and h,
        # value and type, with the working precision of a build
        ctx = PrecisionCtx(bits)
        for lam0 in (-1.0, 0.5, edge_cut(n, 0.0)):
            for beta in (0, 0.4j, 0.3, -0.45 + 0.2j):
                mu = moments(WeightParams(beta, lam0), 2 * n + 1, ctx)
                if beta == 0:  # exactly zero odd moments: zero terms in the updates
                    assert all(m == 0 for m in mu[1::2])
                with ctx.workprec(10):
                    got, want = _chebyshev(mu, n), chebyshev_fdot(mu, n)
                for g, w in zip(got, want):
                    assert [(type(x), x) for x in g] == [(type(x), x) for x in w], (lam0, beta)

    @pytest.mark.parametrize("beta", [0.4j, 0.3])
    def test_nonfinite_moments_rejected(self, beta):
        # the fdot pass carried a NaN moment into NaN coefficients; the
        # integer kernel has no NaN and refuses it (a non-finite cut, which
        # once made such moments, is refused by WeightParams before them)
        ctx = PrecisionCtx(128)
        mu = moments(WeightParams(beta, 0.5), 9, ctx)
        for bad in (mp.nan, mp.inf):
            with ctx.workprec(10), pytest.raises(ValueError, match="moments must be finite"):
                _chebyshev([*mu[:3], bad * mu[3], *mu[4:]], 4)

    def test_single_rounding_matches_from_man_exp(self):
        rng = np.random.default_rng(22)
        cases = [
            (0b10001, 0, 4),     # exact half, even quotient 8: stays
            (0b10011, 0, 4),     # exact half, odd quotient 9: up to 10
            (0b11111, 3, 4),     # 15 and a half rounds to 16: a carry to the next power of two
            (0b1011, -7, 10),    # shorter than prec: exact
            (1 << 40, 9, 12),    # a power of two longer than prec
        ]
        for q in (2 ** 200 + 6, 2 ** 200 + 7):  # exact halves 70 bits down, then just off them
            for d in (0, 1, -1):
                cases.append(((q << 70) + (1 << 69) + d, -300, 201))
        for _ in range(200):
            prec = int(rng.integers(2, 400))
            man = int.from_bytes(rng.bytes(int(rng.integers(1, 120))), "little")
            cases.append((man, int(rng.integers(-2000, 2000)), prec))
        assert any(m.bit_length() <= p for m, _, p in cases)
        for man, exp, prec in cases:
            for m in (man, -man):
                got = from_man_exp(*_round(m, exp, prec))  # stored exactly
                assert got == from_man_exp(m, exp, prec, "n"), (m, exp, prec)
        assert from_man_exp(*_round(0, 5, 10)) == from_man_exp(0, 5, 10, "n")


class TestBuild:
    def test_gaussian_closed_form_small(self):
        ctx = PrecisionCtx(512)
        sys = build_op_system(WeightParams(0.0, 0.3), 12, ctx, check=False)
        with ctx.workprec():
            for n in range(1, 13):
                closed = gaussian_hankel(n, ctx)
                assert abs(sys.H[n] - closed) / closed < mp.mpf(10) ** -100

    @pytest.mark.parametrize("bits", [192, 424, 768])
    def test_gaussian_hankel_against_barnes_g(self, bits):
        # the factorial product, rounded once, against (2 pi)^(n/2) 2^(-n^2/2)
        # G(n + 1) at 64 more bits; 192 and 424 are hankel_ctx(4) and hankel_ctx(30)
        ctx = PrecisionCtx(bits)
        for n in range(1, 65):
            want = gaussian_hankel_closed_form(n, bits + 64)
            with mp.workprec(bits + 64):
                assert abs(gaussian_hankel(n, ctx) / want - 1) <= mp.mpf(2) ** (8 - bits), n

    def test_hermite_recurrence_coefficients(self):
        sys = build_op_system(WeightParams(0.0, -0.4), 12, CTX, check=False)
        with CTX.workprec():
            for k in range(13):
                assert abs(sys.Q[k]) < mp.mpf(10) ** -80
                if k >= 1:
                    assert abs(sys.R[k] - mp.mpf(k) / 2) < mp.mpf(10) ** -80

    def test_against_gram_schmidt_oracle(self):
        beta, lam0 = 0.4j, 0.7
        sys = build_op_system(WeightParams(beta, lam0), 4, CTX, check=False)
        polys, norms = gram_schmidt_monic(beta, lam0, 4, bits=320)
        with CTX.workprec():
            for k in range(5):
                assert abs(sys.h[k] - norms[k]) < 1e-20 * abs(norms[k])
                for c_sys, c_gs in zip(monic_coefficients(sys, k), polys[k]):
                    assert abs(c_sys - c_gs) < 1e-18

    def test_periodicity_in_beta(self):
        a = build_op_system(WeightParams(0.3j, 0.5), 6, CTX, check=False)
        b = build_op_system(WeightParams(2 + 0.3j, 0.5), 6, CTX, check=False)
        with CTX.workprec():
            for x, y in zip(a.H, b.H):
                assert abs(x - y) <= mp.mpf(2) ** (40 - CTX.bits) * abs(x)

    def test_norm_product_equals_pivoted_determinant(self):
        params = WeightParams(0.2 + 0.1j, 0.6)
        sys = build_op_system(params, 8, CTX, check=False)
        with CTX.workprec():
            det = lu_det(hankel_matrix(params, 8, CTX), CTX)
            assert abs(sys.H[8] - det) < mp.mpf(2) ** (60 - CTX.bits) * abs(det)

    def test_positivity_for_imaginary_beta(self):
        sys = build_op_system(WeightParams(0.35j, 0.9), 10, CTX, check=False)
        with CTX.workprec():
            for k in range(1, 11):
                assert sys.H[k].imag == 0
                assert sys.H[k].real > 0
                assert sys.R[k].imag == 0
                assert sys.R[k].real > 0

    def test_conjugation_symmetry(self):
        beta = 0.2 + 0.1j
        a = build_op_system(WeightParams(beta, 0.4), 6, CTX, check=False)
        b = build_op_system(WeightParams(-beta.conjugate(), 0.4), 6, CTX,
                            check=False)
        with CTX.workprec():
            for x, y in zip(a.H, b.H):
                assert abs(x - mp.conj(y)) <= mp.mpf(2) ** (40 - CTX.bits) * (1 + abs(x))
            for x, y in zip(a.Q, b.Q):
                assert abs(x - mp.conj(y)) <= mp.mpf(2) ** (40 - CTX.bits) * (1 + abs(x))

    def test_agreement_digits_attached(self):
        sys = build_op_system(WeightParams(0.4j, 1.1), 6, PrecisionCtx(256))
        assert sys.agreed is not None
        assert min(sys.agreed.values()) > 40

    def test_singular_minor_detected(self):
        with CTX.workprec():
            for one in (mp.mpf(1), mp.mpc(1)):
                for mu, k in (([one * 0] + [one] * 7, 1),  # H_1 = mu_0 = 0
                              ([one] * 8, 2),  # a unit point mass: H_2 = 0
                              # unit masses at 1 and 2: H_3 = 0, and every step is
                              # dyadic, so sigma_{2,2} comes out exactly zero
                              ([one * (1 + 2 ** j) for j in range(8)], 3)):
                    with pytest.raises(SingularMinor) as exc:
                        _chebyshev(mu, 3)
                    assert exc.value.k == k, (type(one), k)

    def test_edge_form_reproduces_scaling(self):
        # edge_cut in doubles against the formula at 200 bits
        assert len(CRITERIA_5_TO_7_CUTS) == 30
        with mp.workprec(200):
            for n, t in CRITERIA_5_TO_7_CUTS:
                want = mp.sqrt(2 * mp.mpf(n)) * (1 + mp.mpf(t) * mp.mpf(n) ** (mp.mpf(-2) / 3) / 2)
                assert abs(edge_cut(n, t) - want) <= 1e-15 * want, (n, t)


class TestEval:
    def test_degree_zero_is_one(self):
        sys = build_op_system(WeightParams(0.17j, 0.2), 3, CTX, check=False)
        assert eval_pn(sys, 0, 1.234) == 1

    def test_monic_hermite_degree_two(self):
        sys = build_op_system(WeightParams(0.0, 0.3), 4, CTX, check=False)
        with CTX.workprec():
            for x in (mp.mpf("-1.7"), mp.mpf("0.25"), mp.mpf(2)):
                assert abs(eval_pn(sys, 2, x) - (x * x - mp.mpf(1) / 2)) < mp.mpf(10) ** -80

    def test_recurrence_vs_coefficient_table(self):
        sys = build_op_system(WeightParams(0.4j, 1.1), 8, CTX, check=False)
        with CTX.workprec():
            for k in (1, 4, 8):
                x = mp.mpf("0.37")
                a = eval_pn(sys, k, x)
                b = eval_pn_from_coeffs(sys, k, x)
                assert abs(a - b) <= mp.mpf(2) ** (40 - CTX.bits) * (1 + abs(a))

    def test_derivative_route(self):
        sys = build_op_system(WeightParams(0.4j, 1.1), 6, CTX, check=False)
        with CTX.workprec():
            x = mp.mpf("0.81")
            h = mp.mpf(2) ** -60
            p, dp = eval_pn_prime(sys, 6, x)
            fd = (eval_pn(sys, 6, x + h) - eval_pn(sys, 6, x - h)) / (2 * h)
            assert abs(dp - fd) < mp.mpf(10) ** -25


class TestJumpIdentity:
    def test_beta_zero_vanishes(self):
        sys = build_op_system(WeightParams(0.0, 0.7), 5, CTX, check=False)
        assert qn_jump_identity_residual(sys, 5) == 0

    def test_n1_symbolic(self):
        # for n = 1 the identity reduces to explicit moment algebra:
        # Q_1 h_1 = -p_1(lambda0)^2 e^{-lambda0^2} sinh(i pi beta)
        beta, lam0 = 0.25j, 0.9
        sys = build_op_system(WeightParams(beta, lam0), 1, CTX, check=False)
        assert float(qn_jump_identity_residual(sys, 1)) < 1e-80

    def test_interior_cut(self):
        sys = build_op_system(WeightParams(0.4j, 1.1), 8, PrecisionCtx(512),
                              check=False)
        res = qn_jump_identity_residual(sys, 8)
        with mp.workprec(512):
            assert res <= mp.mpf(2) ** (32 - 512) * abs(sys.Q[8])

    def test_edge_cut(self):
        ctx = hankel_ctx(20)
        params = WeightParams(0.3, edge_cut(20, 0.0))
        sys = build_op_system(params, 20, ctx, check=False)
        res = qn_jump_identity_residual(sys, 20)
        with ctx.workprec():
            assert res <= mp.mpf(2) ** (32 - ctx.bits) * abs(sys.Q[20])


class TestDiffIdentity:
    def test_beta_zero_both_sides_vanish(self):
        res = diff_identity_residual(WeightParams(0.0, 0.5), 3, ctx=CTX)
        assert float(res) < 1e-60

    def test_documented_point(self):
        res = diff_identity_residual(WeightParams(0.5j, 0.9), 6,
                                     delta=1e-6, ctx=PrecisionCtx(320))
        assert float(res) <= 1e-9

    def test_n1_closed_form(self):
        # both sides computable from mu_0 alone; residual is pure truncation
        res = diff_identity_residual(WeightParams(0.3j, 0.4), 1, ctx=CTX)
        assert float(res) < 1e-20

    def test_edge_form(self):
        ctx = hankel_ctx(12)
        params = WeightParams(0.2j, edge_cut(12, 0.5))
        res = diff_identity_residual(params, 12, ctx=ctx)
        assert float(res) < 1e-12


class TestGramRoute:
    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("beta", [0.4j, 0.3, 0.2 + 0.1j, -0.45 + 0.2j])
    def test_against_moment_route(self, beta, n):
        # logs are compared through exp(difference) - 1, so modulo 2 pi i.
        # 64 + 4n bits: at n = 128 (576 bits) the reference's Q_n, R_n, h_n
        # and p_n(lambda0) agree to 114 digits with those at hankel_ctx(n)'s 1600
        ctx = PrecisionCtx(64 + 4 * n)
        for t in (-2.0, 0.0, 0.5, 2.0):
            params = WeightParams(beta, edge_cut(n, t))
            ref = build_op_system(params, n, ctx, check=False)
            sys = gram_system(beta, n, params.lambda0)
            with ctx.workprec():
                assert abs(ref.Q[n] - sys.Q[n]) < 1e-12
                assert abs(ref.R[n] / sys.R[n] - 1) < 1e-12
                log_pn = complex(mp.log(eval_pn(ref, n, params.lambda0)))
                log_h = complex(mp.log(ref.h[n]))
            assert abs(cmath.exp(log_pn - sys.log_pn) - 1) < 1e-12
            assert abs(cmath.exp(log_h - sys.log_h) - 1) < 1e-12
            det = finite_n_det(n, params.lambda0, kappa_sq_from_beta(beta))
            log_det = sys.log_H_ratio - 1j * math.pi * beta * n
            assert abs(det / cmath.exp(log_det) - 1) < 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.9])
    def test_against_moment_route_in_the_bulk(self, lam):
        beta, n = 0.2j, 30
        lam0 = lam * math.sqrt(2.0 * n)
        ctx = hankel_ctx(n)
        ref = build_op_system(WeightParams(beta, lam0), n, ctx, check=False)
        sys = gram_system(beta, n, lam0)
        with ctx.workprec():
            assert abs(ref.Q[n] - sys.Q[n]) < 1e-12
            log_ratio = complex(mp.log(ref.H[n] / gaussian_hankel(n, ctx)))
        assert abs(cmath.exp(log_ratio - sys.log_H_ratio) - 1) < 1e-12

    def test_beta_zero_is_hermite(self):
        sys = gram_system(0.0, 12, 0.7)
        assert np.all(sys.D == 1) and np.all(sys.Q == 0)
        assert sys.R[1:] == pytest.approx(np.arange(1, 14) / 2, rel=1e-15)
        assert sys.log_H_ratio == 0

    def test_vanishing_leading_pivot_raises(self):
        # beta = 1/2 and lambda0 = 0: the weight is i e^(-x^2) left of the cut
        # and -i e^(-x^2) right of it, so H_1 = mu_0 = 0
        with pytest.raises(SingularMinor) as exc:
            gram_system(0.5, 8, 0.0)
        assert exc.value.k == 1

    def test_vanishing_later_minor_raises(self):
        # I + E with E = A - I for A = [[1, 2, 0], [2, 4, 1], [0, 1, 1]]:
        # the leading 2 x 2 minor of A is 0
        A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(SingularMinor) as exc:
            ldlt(A - np.eye(3), 1.0)
        assert exc.value.k == 2


def test_norm_product_identity_along_the_ladder():
    sys = build_op_system(WeightParams(0.4j, 1.1), 7, CTX, check=False)
    with CTX.workprec():
        acc = mp.mpf(1)
        for k in range(7):
            acc *= sys.h[k]
            assert abs(acc - sys.H[k + 1]) <= mp.mpf(2) ** (20 - CTX.bits) * abs(acc)


def test_nonfinite_beta_rejected():
    with pytest.raises(ValueError):
        WeightParams(float("nan") + 0j, 0.0)


@pytest.mark.parametrize("lam0", [math.nan, math.inf, -math.inf, mp.mpf("nan")])
def test_nonfinite_cut_rejected(lam0):
    # both routes name the cut; gram_system once failed with 'cannot convert
    # float NaN to integer' or an OverflowError
    with pytest.raises(ValueError, match="lambda0 must be finite"):
        WeightParams(0.3, lam0)
    with pytest.raises(ValueError, match="lambda0 must be finite"):
        gram_system(0.4j, 8, lam0)
