import math

import mpmath as mp
import numpy as np
import pytest

from edgejump import weightlab
from edgejump.fredholm import _airy_nystrom
from edgejump.linalg import SingularMinor, ldlt, lu_det
from edgejump.precision import PrecisionCtx
from edgejump.util import kappa_sq_from_beta
from edgejump.weightlab import gram_system


CTX = PrecisionCtx(192)


def mat_mul(A, B):
    """Plain triple-loop product, for small test matrices."""
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][l] * B[l][j] for l in range(k)) for j in range(m)]
            for i in range(n)]


def _rand_mpc_matrix(rng, n, ctx):
    with ctx.workprec():
        return [[mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
                for _ in range(n)]


def test_identity_det_is_one():
    with CTX.workprec():
        I3m = [[mp.mpf(i == j) for j in range(3)] for i in range(3)]
    assert lu_det(I3m, CTX) == 1


def test_empty_matrix_det_is_one():
    assert lu_det([], CTX) == 1


def test_gaussian_moment_2x2():
    # moments of e^{-x^2}: mu0 = sqrt(pi), mu1 = 0, mu2 = sqrt(pi)/2
    with CTX.workprec():
        mu0, mu1, mu2 = mp.sqrt(mp.pi), mp.mpf(0), mp.sqrt(mp.pi) / 2
        det = lu_det([[mu0, mu1], [mu1, mu2]], CTX)
        assert abs(det - mp.pi / 2) < mp.mpf(2) ** (20 - CTX.bits)


def test_repeated_row_gives_exact_zero():
    rng = np.random.default_rng(7)
    M = _rand_mpc_matrix(rng, 5, CTX)
    M[3] = list(M[1])
    assert lu_det(M, CTX) == 0


def test_det_multiplicativity():
    rng = np.random.default_rng(11)
    with CTX.workprec():
        for _ in range(5):
            A = _rand_mpc_matrix(rng, 4, CTX)
            B = _rand_mpc_matrix(rng, 4, CTX)
            lhs = lu_det(mat_mul(A, B), CTX)
            rhs = lu_det(A, CTX) * lu_det(B, CTX)
            assert abs(lhs - rhs) <= mp.mpf(2) ** (24 - CTX.bits) * abs(rhs)


def test_doubling_bits_self_consistency():
    rng = np.random.default_rng(13)
    M = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(6)]
    lo = lu_det(M, PrecisionCtx(128))
    hi = lu_det(M, PrecisionCtx(256))
    with mp.workprec(300):
        assert abs(lo - hi) < mp.mpf(2) ** (24 - 128) * abs(hi)


def test_ldlt_reconstructs_across_blocks():
    # 70 rows span three 32-column blocks; complex symmetric and real
    rng = np.random.default_rng(7)
    B = rng.standard_normal((70, 70)) + 1j * rng.standard_normal((70, 70))
    for E in ((B + B.T) / 40, (B.real + B.real.T) / 40):
        packed = ldlt(E, 1.0)
        assert packed.dtype == E.dtype
        L, e = np.tril(packed, -1) + np.eye(70), np.diagonal(packed)
        assert np.abs((L * (1 + e)) @ L.T - (np.eye(70) + E)).max() <= 1e-13


def test_ldlt_pivots_keep_tiny_perturbations():
    # diagonal E: the pivots minus one are E itself, not 1 + E - 1
    E = np.diag([1e-20, -3e-18, 2e-17 + 1e-19j])
    assert np.array_equal(np.diagonal(ldlt(E, 1.0)), np.diag(E))


class _Cholesky:
    """Spy on numpy's Cholesky: counts calls and failures, or fails every call."""

    def __init__(self, monkeypatch, fail=False):
        self.calls = self.failures = 0
        self._orig = np.linalg.cholesky
        self._fail = fail
        monkeypatch.setattr(np.linalg, "cholesky", self)

    def __call__(self, a):
        self.calls += 1
        try:
            if self._fail:
                raise np.linalg.LinAlgError("scalar path forced")
            return self._orig(a)
        except np.linalg.LinAlgError:
            self.failures += 1
            raise


def _scalar_path(G, c, monkeypatch):
    """ldlt(G, c) with Cholesky made to fail, so the scalar elimination runs."""
    with monkeypatch.context() as m:
        _Cholesky(m, fail=True)
        return ldlt(G, c)


def _criterion_grids():
    """(name, matrix, scale) for the factorizations of criteria 3, 5 to 8 and 12."""
    ts3 = np.arange(-8.0, 4.25, 0.5)
    A3 = _airy_nystrom(ts3, 12)[0]
    for kap in (0.3, 0.7, 0.95):
        yield f"criterion 3, kappa={kap}", A3, -kap * kap
    probes = [[t, t - p / 4, t - p / 2]
              for t, p in ((t, math.pi / math.sqrt(-t)) for t in (-10.0, -25.0))]
    yield "criterion 8", _airy_nystrom(np.ravel(probes), 12)[0], -kappa_sq_from_beta(0.15j)
    yield "criterion 12", _airy_nystrom(np.array([-2.0, 0.0, 1.0]), 12)[0], -0.5
    cuts = {(n, t) for n in (256, 512, 1024, 2048) for t in (-2.0, 0.0, 2.0)}    # 5
    cuts |= {(n, 0.5) for n in (64, 128, 256, 512, 1024, 2048)}                  # 6
    cuts |= {(n, t) for n in (20, 40, 80, 160, 320, 640) for t in (0.0, 2.0)}    # 7
    blocks = []
    for n, t in sorted(cuts):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(weightlab, "ldlt", lambda G, c: blocks.append((n, t, G, c)) or ldlt(G, c))
            gram_system(0.4j, n, math.sqrt(2 * n) * (1 + t * n ** (-2 / 3) / 2))
    for n, t, G, c in blocks:
        yield f"criteria 5-7 Gram block, n={n}, t={t}", G, c


def test_ldlt_cholesky_path_matches_scalar_path(monkeypatch):
    # every factorization the criteria make is real positive definite, and
    # LAPACK's pivots agree with the scalar elimination's to 1e-14 relative,
    # down to the smallest ones (|e| ~ 1e-50 on the Nystrom grids)
    grids = list(_criterion_grids())
    spy = _Cholesky(monkeypatch)
    for name, G, c in grids:
        spy.calls = spy.failures = 0
        fast = ldlt(G, c)
        assert spy.calls >= 1 and spy.failures == 0, name
        slow = _scalar_path(G, c, monkeypatch)
        assert fast.dtype == slow.dtype == float, name
        e_fast, e_slow = np.diagonal(fast), np.diagonal(slow)
        assert np.max(np.abs(e_fast - e_slow) / np.abs(e_slow)) <= 1e-14, name
        assert np.max(np.abs(np.tril(fast, -1) - np.tril(slow, -1))) <= 1e-14, name


def test_ldlt_paths_raise_the_same_singular_minor(monkeypatch):
    # positive definite, but the third leading minor is tiny: row 2 is rows
    # 0 and 1 plus 1e-5 of a fresh direction, a pivot ~1e-10 below the floor
    rng = np.random.default_rng(5)
    B = rng.standard_normal((6, 6))
    B[2] = B[0] + B[1] + 1e-5 * rng.standard_normal(6)
    G = B @ B.T - np.eye(6)
    spy = _Cholesky(monkeypatch)
    with pytest.raises(SingularMinor) as fast:
        ldlt(G, 1.0)
    assert spy.calls >= 1 and spy.failures == 0
    with pytest.raises(SingularMinor) as slow:
        _scalar_path(G, 1.0, monkeypatch)
    assert fast.value.k == slow.value.k == 3


def test_ldlt_falls_back_when_indefinite_or_complex(monkeypatch):
    # kappa^2 = 2 makes I - 2A indefinite on criterion 3's grid, and a
    # complex scale has no Cholesky: both take the scalar elimination
    A = _airy_nystrom(np.arange(-8.0, 4.25, 0.5), 12)[0]
    spy = _Cholesky(monkeypatch)
    for c, dtype, failures in ((-2.0, float, 1), (-(0.5 + 0.3j), complex, 0)):
        spy.calls = spy.failures = 0
        packed = ldlt(A, c)
        assert spy.failures == failures and (spy.calls > 0) == (dtype is float)
        assert packed.dtype == dtype
        assert np.array_equal(packed, _scalar_path(A, c, monkeypatch))
    assert (np.diagonal(ldlt(A, -2.0)) < -1).any()  # negative pivots 1 + e
