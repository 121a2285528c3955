import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from edgejump import fredholm
from edgejump.fredholm import (_airy_nystrom, airy_fredholm_det,
                               airy_fredholm_logdet, airy_kernel_diagonal,
                               finite_n_det, hermite_gram)
from edgejump.linalg import SingularMinor, lu_det
from edgejump.painleve import solve_as
from edgejump.precision import PrecisionCtx
from edgejump.specfun import hermite_functions_mp
from edgejump.util import kappa_sq_from_beta
from edgejump.weightlab import WeightParams, build_op_system, edge_cut, gaussian_hankel

from oracles import gauss_legendre_mp, hermite_gram_quadrature, householder_tridiagonal_mpf


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
        vals = airy_fredholm_det(0.36, np.linspace(-6, 4, 40)).real
        assert all(b - a > -1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1 + 1e-12

    def test_node_doubling(self):
        a = airy_fredholm_det(0.49, -4.0)
        b = airy_fredholm_det(0.49, -4.0, nodes=24)
        assert abs(a - b) < 1e-10

    def test_kernel_negligible_past_truncation(self):
        # the grid stops at T = max(t, 0) + 14, where the kernel's diagonal
        # (its largest entry beyond T) is far below double resolution
        assert airy_kernel_diagonal(14.0) < 1e-32

    def test_logdet_consistent_with_det(self):
        ld = airy_fredholm_logdet(0.49, -3.0)
        assert abs(cmath.exp(ld) - airy_fredholm_det(0.49, -3.0)) < 1e-12

    @staticmethod
    def _block(t, nodes=12):
        """The double Nystrom block on [t, T] that the route factors."""
        A, above = _airy_nystrom(np.array([t]), nodes)
        return A[:above[0], :above[0]]

    @pytest.mark.parametrize("k2, t", [(1e-12 * (1 + 1j), -2.0), (0.3 + 0.2j, -6.0),
                                       (1.6, -3.0),
                                       (kappa_sq_from_beta(-0.45 + 0.2j), -25.0)])
    def test_logdet_against_mpmath(self, k2, t):
        # the sum of principal logs of 1 - kappa^2 lambda over the eigenvalues
        # of the same block, which shares no code with the LDL^T: tiny
        # complex kappa^2, a complex one, kappa^2 > 1 where some factors are
        # negative (+i pi each), and a deep-tail kappa^2 whose imaginary part
        # winds through many multiples of 2 pi
        lam = scipy.linalg.eigh(self._block(t), eigvals_only=True)
        with mp.workdps(40):
            want = complex(sum(mp.log(1 - mp.mpc(k2) * mp.mpf(x)) for x in lam))
        got = airy_fredholm_logdet(k2, t)
        assert abs(got.real - want.real) <= 1e-14 * abs(want)
        assert abs(got.imag - want.imag) <= 1e-14 * abs(want)

    def test_logdet_near_singular_against_lu(self):
        # kappa^2 = 1 at t = -8: the smallest factor 1 - lambda is 2e-8, so
        # the determinant has relative condition ~5e7.  The reference is a
        # 128-bit LU of the same double matrix (4 nodes per panel, 88 nodes);
        # a sum of logs over eigh misses it by 1.3e-8, one double ulp of
        # backward error in the smallest factor (eps / 2e-8 = 1.1e-8)
        A = self._block(-8.0, nodes=4)
        ctx = PrecisionCtx(128)
        with ctx.workprec():
            ref = mp.log(lu_det([[int(i == j) - mp.mpf(float(a)) for j, a in enumerate(row)]
                                 for i, row in enumerate(A)], ctx))
        got = airy_fredholm_logdet(1.0, -8.0, nodes=4)
        assert got.imag == 0
        assert abs(cmath.exp(got - complex(ref)) - 1) <= 1e-8

    def test_vanishing_leading_determinant_raises(self):
        t = -3.0
        A = self._block(t)
        k2 = 1 / scipy.linalg.eigh(A, eigvals_only=True)[-1]
        with pytest.raises(SingularMinor) as exc:
            airy_fredholm_logdet(k2, [t, -5.0])
        assert exc.value.k == len(A)

    @pytest.mark.parametrize("k2", [0.49, 0.3 + 0.2j, 1.6])
    def test_batched_equals_one_call_per_t(self, k2):
        ts = [-7.0, -3.25, -1.0, 0.0, 2.5]
        batched = airy_fredholm_logdet(k2, ts)
        assert batched.shape == (len(ts),)
        for t, got in zip(ts, batched):
            assert abs(got - airy_fredholm_logdet(k2, t)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.15j, -0.45 + 0.2j])
    def test_panel_nodes_doubling_deep_tail(self, beta):
        k2 = kappa_sq_from_beta(beta)
        ts = [-25.0, -60.0]
        a = airy_fredholm_logdet(k2, ts)
        b = airy_fredholm_logdet(k2, ts, nodes=24)
        assert np.abs(a - b).max() <= 1e-10

    @staticmethod
    def _tail_probes(ts=(-10.0, -25.0)):
        # check_airy_tail's probes: each t, a quarter and a half period below
        return [p for t in ts for p in (t, t - math.pi / math.sqrt(-t) / 4,
                                        t - math.pi / math.sqrt(-t) / 2)]

    @pytest.mark.parametrize("k2s, ts", [
        ((0.09, 0.49, 0.9025, 2.0, 0.5 + 0.3j), np.arange(-8.0, 4.25, 0.5)),
        (tuple(kappa_sq_from_beta(b) for b in (0.15j, 0.3j, -0.45 + 0.2j)), None)])
    def test_sub_unit_panels_against_doubled_nodes(self, k2s, ts):
        # half-unit and quarter-period gaps get fewer nodes than whole-unit
        # panels; they must agree with the nodes = 24 grid as whole ones do
        ts = self._tail_probes() if ts is None else ts
        a = airy_fredholm_logdet(k2s, ts)
        b = airy_fredholm_logdet(k2s, ts, nodes=24)
        assert np.abs(a - b).max() <= 1e-10

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
        G = hermite_gram(4, -30.0)
        assert np.max(np.abs(G - np.eye(4))) < 1e-13

    def test_far_right_cut_gives_zero(self):
        G = hermite_gram(4, 30.0)
        assert np.max(np.abs(G)) < 1e-14

    def test_center_cut_diagonal_and_parity(self):
        # G_jj(0) = 1/2 by evenness of psi_j^2; the full parity statement is
        # G(lambda0) + S G(-lambda0) S = I with S = diag((-1)^k)
        G0 = hermite_gram(6, 0.0)
        assert np.max(np.abs(np.diag(G0) - 0.5)) < 1e-13
        lam = 0.8
        Gp = hermite_gram(6, lam)
        Gm = hermite_gram(6, -lam)
        S = np.diag([(-1.0) ** k for k in range(6)])
        assert np.max(np.abs(Gp + S @ Gm @ S - np.eye(6))) < 1e-13

    def test_eigenvalues_in_unit_interval(self):
        ev = np.linalg.eigvalsh(hermite_gram(20, 0.5))
        assert ev.min() > -1e-12
        assert ev.max() < 1 + 1e-12

    @pytest.mark.parametrize("n, lam", [(12, 0.3), (20, 0.5), (30, -1.0), (8, 3.0),
                                        (50, 10.0)])
    def test_closed_form_matches_quadrature_oracle(self, n, lam):
        # every entry against brute-force double quadrature with scipy's
        # Hermite polynomials; the oracle is good to ~3e-14 here
        G = hermite_gram(n, lam)
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
        assert np.trace(hermite_gram(n, lam0)) == pytest.approx(float(want), rel=1e-9)

    def test_bigfloat_route_matches_double(self):
        ctx = PrecisionCtx(256)
        Gm = hermite_gram(5, 0.4, ctx=ctx)
        Gd = hermite_gram(5, 0.4)
        for i in range(5):
            for j in range(5):
                assert float(Gm[i][j]) == pytest.approx(Gd[i, j], abs=1e-12)

    @pytest.mark.parametrize("lam_spec", [-1.0, 0.5, "edge"])
    def test_bigfloat_closed_form_matches_bigfloat_quadrature(self, lam_spec):
        # the closed form against a 160-node 256-bit Gauss-Legendre rule on
        # [lambda0, max(lambda0, 0) + 16], with psi_k from mpmath's own
        # Hermite polynomials; the rule is good to ~1e-80 here
        n, ctx = 10, PrecisionCtx(256)
        with ctx.workprec(10):
            lam = mp.sqrt(2 * mp.mpf(n)) if lam_spec == "edge" else mp.mpf(lam_spec)
        G = hermite_gram(n, lam, ctx=ctx)
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
            sys = build_op_system(WeightParams(beta, lam0), n, ctx, check=False)
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
            fin = finite_n_det(n, edge_cut(n, t), kap * kap).real
            assert abs(fin - lim) < 2e-3

    def test_kappa_zero(self):
        assert finite_n_det(5, 0.3, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_underflow_raises(self, monkeypatch):
        # the determinant is 3.65e-1097 (2000-bit route), below double range;
        # the double factors already bound log|det| by -912.8 < log(tiny), so
        # it raises without the big-float route
        def fail(*args):
            raise AssertionError("big-float route called")
        monkeypatch.setattr(fredholm, "_resolved_det", fail)
        with pytest.raises(FloatingPointError):
            finite_n_det(60, -1.0, 1.0)

    @pytest.mark.parametrize("n, lam0", [(10, -1.0), (20, -2.0)])
    def test_left_tail_against_big_floats(self, n, lam0):
        # kappa^2 = 1 with Gram eigenvalues near 1: the factors 1 - lambda_k
        # cancel in double precision (1% off at n = 10, an underflow at n = 20)
        ref = finite_n_det(n, lam0, 1.0, ctx=PrecisionCtx(600))
        got = finite_n_det(n, lam0, 1.0)
        with mp.workprec(600):
            assert abs(mp.mpc(got) / ref - 1) < 1e-10

    @pytest.mark.parametrize("n, lam0, k2", [
        (12, 0.5, kappa_sq_from_beta(0.4j)),
        (20, "sqrt40", kappa_sq_from_beta(0.2 + 0.1j)),
        (16, -1.0, 1.6),  # factors 1 - kappa^2 lambda of both signs
        (10, -1.0, 1.0),  # det ~ 1.07e-42
    ])
    def test_big_float_det_against_lu(self, n, lam0, k2):
        # the Householder reduction and continuant against a pivoted LU of
        # I - kappa^2 G, which shares no code with them
        ctx = PrecisionCtx(256)
        with ctx.workprec(10):
            lam0 = mp.sqrt(40) if lam0 == "sqrt40" else mp.mpf(lam0)
        gram = hermite_gram(n, lam0, ctx=ctx)
        got = finite_n_det(n, lam0, k2, ctx=ctx)
        with ctx.workprec(10):
            k2 = mp.mpc(k2)
            ref = lu_det([[int(i == j) - k2 * gram[i, j] for j in range(n)]
                          for i in range(n)], ctx)
            assert abs(got / ref - 1) < mp.mpf(10) ** -60

    def test_big_float_det_against_lu_at_the_edge(self):
        # criterion 2's 768-bit case at n = 20, lambda0 = sqrt(2n), its three betas
        n, ctx = 20, PrecisionCtx(768)
        with ctx.workprec(10):
            lam0 = mp.sqrt(2 * mp.mpf(n))
        gram = hermite_gram(n, lam0, ctx=ctx)
        k2s = [kappa_sq_from_beta(b, ctx) for b in (0.4j, 0.3, 0.2 + 0.1j)]
        dets = finite_n_det(n, lam0, k2s, ctx=ctx)
        with ctx.workprec(10):
            for k2, got in zip(k2s, dets):
                ref = lu_det([[int(i == j) - k2 * gram[i, j] for j in range(n)]
                              for i in range(n)], ctx)
                assert abs(got / ref - 1) < mp.mpf(2) ** (32 - ctx.bits)

    @pytest.mark.parametrize("n", [1, 2])
    def test_big_float_det_smallest_sizes(self, n):
        ctx = PrecisionCtx(256)
        k2 = kappa_sq_from_beta(0.3 + 0.2j, ctx)
        G = hermite_gram(n, 0.4, ctx=ctx)
        got = finite_n_det(n, 0.4, k2, ctx=ctx)
        with ctx.workprec(10):
            if n == 1:
                want = 1 - k2 * G[0, 0]
            else:
                want = (1 - k2 * G[0, 0]) * (1 - k2 * G[1, 1]) - (k2 * G[0, 1]) ** 2
            assert abs(got - want) < mp.mpf(10) ** -70

    def test_kappa_sweep_equals_one_call_per_kappa(self):
        # kappa^2 = 1 at (10, -1) takes the big-float resolution path
        k2s = [0.49, 0.3 + 0.2j, kappa_sq_from_beta(0.4j), 1.0]
        sweep = finite_n_det(10, -1.0, k2s)
        assert isinstance(sweep, np.ndarray) and sweep.shape == (4,)
        assert sweep.tolist() == [finite_n_det(10, -1.0, k2) for k2 in k2s]
        ctx = PrecisionCtx(256)
        k2s = [kappa_sq_from_beta(b, ctx) for b in (0.4j, 0.3, 0.2 + 0.1j)] + [1.6]
        sweep = finite_n_det(12, 0.5, k2s, ctx=ctx)
        assert sweep == [finite_n_det(12, 0.5, k2, ctx=ctx) for k2 in k2s]

    def test_airy_kappa_sweep_equals_one_call_per_kappa(self):
        k2s = [0.49, 0.3 + 0.2j, 1.6]
        ts = np.array([-4.0, -2.5, 0.0, 1.0])
        sweep = airy_fredholm_logdet(k2s, ts)
        assert sweep.shape == (3, 4)
        for row, k2 in zip(sweep, k2s):
            assert row.tolist() == airy_fredholm_logdet(k2, ts).tolist()
        at_one_t = airy_fredholm_logdet(k2s, -2.5)
        assert at_one_t.tolist() == [airy_fredholm_logdet(k2, -2.5) for k2 in k2s]
        assert airy_fredholm_det(k2s, ts).tolist() == np.exp(sweep).tolist()


def _charpoly(a, b2, z):
    """det(z I - T) of the symmetric tridiagonal T with diagonal a and squared off-diagonal b2."""
    prev, cur = 1, z - a[0]
    for aj, bj2 in zip(a[1:], b2):
        prev, cur = cur, (z - aj) * cur - bj2 * prev
    return cur


class TestHouseholder:
    @pytest.mark.parametrize("bits", [256, 768, 1024])
    @pytest.mark.parametrize("n", [1, 2, 3, 20, 60])
    @pytest.mark.parametrize("lam_spec", ["-1", "0.5", "edge"])
    def test_against_mpf_oracle(self, bits, n, lam_spec):
        # The fixed-point reduction against Householder in mpf.  Past a tiny
        # b_k (b^2 reaches 1e-146 at n = 60) T is not a well-posed function of
        # G: the mpf oracle at bits and at 2 bits differs there by 2^83 units
        # of 2^-bits.  What the continuant reads off T is its characteristic
        # polynomial.  Each reduction is exact for some G + E with
        # |E| ~ n 2^-(bits + 26), and every z here lies 1/2 or more from the
        # spectrum in [0, 1], so det(z I - T) moves by at most 2 n |E|
        # relative: within 2^-bits.  A cut at -1 gives G negative entries.
        ctx = PrecisionCtx(bits)
        with ctx.workprec(10):
            lam0 = mp.sqrt(2 * mp.mpf(n)) if lam_spec == "edge" else mp.mpf(lam_spec)
        G = hermite_gram(n, lam0, ctx=ctx)
        with ctx.workprec(10):
            a, b2 = fredholm._householder_tridiagonal(G)
            ref_a, ref_b2 = householder_tridiagonal_mpf(G)
            assert len(a) == n and len(b2) == max(n - 1, 0)
            assert all(type(x) is mp.mpf for x in a + b2) and min(b2, default=0) >= 0
            for z in (mp.mpc(0.5, 0.5), mp.mpc(0, -0.5), mp.mpf(1.5), mp.mpf(-0.5)):
                got, want = _charpoly(a, b2, z), _charpoly(ref_a, ref_b2, z)
                assert abs(got / want - 1) <= mp.mpf(2) ** -bits, z

    def test_already_tridiagonal(self):
        # dyadic entries, so both reductions return T = G exactly; the zero
        # off-diagonal entries leave a column with nothing to reflect
        with mp.workprec(266):
            a = [mp.mpf(k) / 8 for k in range(1, 8)]
            b = [mp.mpf(v) / 16 for v in (1, 0, -1, 1, 0, -1)]
            G = [[a[i] if i == j else b[min(i, j)] if abs(i - j) == 1 else mp.mpf(0)
                  for j in range(7)] for i in range(7)]
            want = (a, [x * x for x in b])
            assert fredholm._householder_tridiagonal(G) == want
            assert householder_tridiagonal_mpf(G) == want
