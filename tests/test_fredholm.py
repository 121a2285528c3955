import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from edgejump.fredholm import (GramMatrix, NystromConfig, TailBoundViolated,
                               _airy_kernel_eigs, airy_fredholm_det,
                               airy_fredholm_logdet,
                               airy_kernel_diagonal, default_nystrom,
                               finite_n_det, hermite_gram)
from edgejump.painleve import solve_as
from edgejump.precision import PrecisionCtx
from edgejump.specfun import hermite_functions_mp
from edgejump.util import kappa_sq_from_beta
from edgejump.weightlab import WeightParams, build_op_system, gaussian_hankel

from oracles import gauss_legendre_mp, hermite_gram_quadrature


class TestAiryDeterminant:
    def test_zero_deformation(self):
        assert airy_fredholm_det(0.0, -3.0) == 1.0 + 0j

    def test_empty_interval_limit(self):
        for k2 in (0.25, 1.0):
            assert abs(airy_fredholm_det(k2, 8.0) - 1.0) < 1e-10

    def test_tracy_widom_cross_check(self):
        sol = solve_as(0.7, -4.5, 1e-12)
        det = airy_fredholm_det(0.49, -4.0)
        pred = cmath.exp(-complex(sol.F(-4.0)))
        assert abs(det - pred) <= 1e-8

    def test_monotone_in_t(self):
        vals = [airy_fredholm_det(0.36, float(t)).real
                for t in np.linspace(-6, 4, 40)]
        assert all(b - a > -1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1 + 1e-12

    def test_node_doubling(self):
        cfg = default_nystrom(-4.0)
        cfg2 = NystromConfig(m=2 * cfg.m, T=cfg.T)
        a = airy_fredholm_det(0.49, -4.0, cfg)
        b = airy_fredholm_det(0.49, -4.0, cfg2)
        assert abs(a - b) < 1e-10

    def test_tail_bound_enforced(self):
        with pytest.raises(TailBoundViolated):
            airy_fredholm_logdet(0.5, -2.0, NystromConfig(m=80, T=1.0, tol=1e-10))

    def test_logdet_consistent_with_det(self):
        ld = airy_fredholm_logdet(0.49, -3.0)
        assert abs(cmath.exp(ld) - airy_fredholm_det(0.49, -3.0)) < 1e-12

    @pytest.mark.parametrize("k2, t", [(1e-12 * (1 + 1j), -2.0), (0.3 + 0.2j, -6.0),
                                       (1.0, -8.0), (1.6, -3.0)])
    def test_logdet_against_mpmath(self, k2, t):
        # tiny complex kappa^2, a complex one, an eigenvalue within 2e-8 of
        # 1/kappa^2, and kappa^2 > 1 where some 1 - kappa^2 lambda < 0
        cfg = default_nystrom(t)
        with mp.workdps(40):
            want = sum(mp.log(1 - mp.mpc(k2) * mp.mpf(lam))
                       for lam in _airy_kernel_eigs(t, cfg.m, cfg.T))
            assert abs(airy_fredholm_logdet(k2, t) - want) <= 1e-14 * abs(want)

    def test_kernel_diagonal_value(self):
        # K(x,x) = Ai'(x)^2 - x Ai(x)^2 by l'Hopital on the kernel quotient,
        # probed against a tiny divided difference
        import scipy.special as sps
        x, e = -1.3, 1e-7
        ai1, aip1, _, _ = sps.airy(x + e)
        ai2, aip2, _, _ = sps.airy(x - e)
        quotient = (ai1 * aip2 - ai2 * aip1) / (2 * e)
        assert airy_kernel_diagonal(np.array([x]))[0] == pytest.approx(quotient, rel=1e-6)


class TestGram:
    def test_far_left_cut_gives_identity(self):
        # full orthonormality
        G = np.asarray(hermite_gram(4, -30.0).entries)
        assert np.max(np.abs(G - np.eye(4))) < 1e-13

    def test_far_right_cut_gives_zero(self):
        G = np.asarray(hermite_gram(4, 30.0).entries)
        assert np.max(np.abs(G)) < 1e-14

    def test_center_cut_diagonal_and_parity(self):
        # G_jj(0) = 1/2 by evenness of psi_j^2; the full parity statement is
        # G(lambda0) + S G(-lambda0) S = I with S = diag((-1)^k)
        G0 = np.asarray(hermite_gram(6, 0.0).entries)
        assert np.max(np.abs(np.diag(G0) - 0.5)) < 1e-13
        lam = 0.8
        Gp = np.asarray(hermite_gram(6, lam).entries)
        Gm = np.asarray(hermite_gram(6, -lam).entries)
        S = np.diag([(-1.0) ** k for k in range(6)])
        assert np.max(np.abs(Gp + S @ Gm @ S - np.eye(6))) < 1e-13

    def test_eigenvalues_in_unit_interval(self):
        ev = hermite_gram(20, 0.5).eigenvalues()
        assert ev.min() > -1e-12
        assert ev.max() < 1 + 1e-12

    @pytest.mark.parametrize("n, lam", [(12, 0.3), (20, 0.5), (30, -1.0), (8, 3.0),
                                        (50, 10.0)])
    def test_closed_form_matches_quadrature_oracle(self, n, lam):
        # every entry against brute-force double quadrature with scipy's
        # Hermite polynomials; the oracle is good to ~3e-14 here
        G = hermite_gram(n, lam).entries
        assert np.max(np.abs(G - hermite_gram_quadrature(n, lam))) < 1e-12

    def test_edge_trace_at_large_n(self):
        # psi_k(40) starts from e^-800, below the double range: the double
        # path must still match the closed-form diagonal recurrence
        # G_00 = erfc/2, G_kk = G_(k-1,k-1) + psi_k psi_(k-1) / sqrt(2k)
        n, ctx = 800, PrecisionCtx(256)
        lam0 = math.sqrt(2 * n)
        psi = hermite_functions_mp(n, lam0, ctx)
        with ctx.workprec():
            g = mp.erfc(lam0) / 2
            want = g
            for k in range(1, n):
                g += psi[k] * psi[k - 1] / mp.sqrt(2 * k)
                want += g
        assert hermite_gram(n, lam0).trace() == pytest.approx(float(want), rel=1e-9)

    def test_bigfloat_route_matches_double(self):
        ctx = PrecisionCtx(256)
        Gm = hermite_gram(5, 0.4, ctx=ctx)
        Gd = np.asarray(hermite_gram(5, 0.4).entries)
        for i in range(5):
            for j in range(5):
                assert float(Gm.entries[i][j]) == pytest.approx(Gd[i, j], abs=1e-12)

    @pytest.mark.parametrize("lam_spec", [-1.0, 0.5, "edge"])
    def test_bigfloat_closed_form_matches_bigfloat_quadrature(self, lam_spec):
        # the closed form against a 160-node 256-bit Gauss-Legendre rule on
        # [lambda0, max(lambda0, 0) + 16], with psi_k from mpmath's own
        # Hermite polynomials; the rule is good to ~1e-80 here
        n, ctx = 10, PrecisionCtx(256)
        with ctx.workprec(10):
            lam = mp.sqrt(2 * mp.mpf(n)) if lam_spec == "edge" else mp.mpf(lam_spec)
        G = hermite_gram(n, lam, ctx=ctx).entries
        nodes, weights = gauss_legendre_mp(160, lam, max(lam, 0) + 16, ctx.bits)
        with ctx.workprec(10):
            norm = [1 / mp.sqrt(2 ** k * mp.factorial(k) * mp.sqrt(mp.pi))
                    for k in range(n)]
            Q = [[mp.mpf(0)] * n for _ in range(n)]
            for x, w in zip(nodes, weights):
                psi = [norm[k] * mp.hermite(k, x) * mp.exp(-x * x / 2) for k in range(n)]
                for i in range(n):
                    for j in range(n):
                        Q[i][j] += w * psi[i] * psi[j]
            worst = max(abs(G[i][j] - Q[i][j]) for i in range(n) for j in range(n))
        assert worst < mp.mpf(10) ** -60


class TestFiniteN:
    def test_identity_against_hankel_ratio(self):
        n, lam0 = 6, 0.5
        ctx = PrecisionCtx(384)
        for beta in (0.4j, 0.3, 0.2 + 0.1j):
            sys = build_op_system(WeightParams.direct(beta, lam0), n, ctx, check=False)
            with ctx.workprec():
                lhs = complex(mp.exp(-1j * mp.pi * n * mp.mpc(beta)) * sys.H[n]
                              / gaussian_hankel(n, ctx))
            rhs = finite_n_det(n, lam0, kappa_sq_from_beta(beta))
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_airy_kernel_limit(self):
        # n = 400 and 2000 at the edge coordinate t = -2
        t, kap = -2.0, 0.7
        lim = airy_fredholm_det(kap * kap, t).real
        for n in (400, 2000):
            lam0 = math.sqrt(2 * n) * (1 + t * n ** (-2.0 / 3.0) / 2)
            fin = finite_n_det(n, lam0, kap * kap).real
            assert abs(fin - lim) < 2e-3

    def test_kappa_zero(self):
        assert finite_n_det(5, 0.3, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_underflow_raises(self):
        # the determinant is 3.65e-1097 (2000-bit route), below double range
        with pytest.raises(FloatingPointError):
            finite_n_det(60, -1.0, 1.0)

    def test_gram_reuse(self):
        gram = hermite_gram(8, 1.0)
        a = finite_n_det(8, 1.0, 0.5, gram=gram)
        b = finite_n_det(8, 1.0, 0.5)
        assert a == b

    def test_gram_for_other_parameters_raises(self):
        gram = hermite_gram(8, 1.0)
        with pytest.raises(ValueError):
            finite_n_det(9, 1.0, 0.5, gram=gram)
        with pytest.raises(ValueError):
            finite_n_det(8, 1.5, 0.5, gram=gram)
