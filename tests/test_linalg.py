import mpmath as mp
import numpy as np

from edgejump.linalg import ldlt, lu_det
from edgejump.precision import PrecisionCtx


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
    I3 = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    assert lu_det(I3) == 1.0
    with CTX.workprec():
        I3m = [[mp.mpf(i == j) for j in range(3)] for i in range(3)]
    assert lu_det(I3m, CTX) == 1


def test_empty_matrix_det_is_one():
    assert lu_det([]) == 1.0
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
        packed = ldlt(E)
        assert packed.dtype == E.dtype
        L, e = np.tril(packed, -1) + np.eye(70), np.diagonal(packed)
        assert np.abs((L * (1 + e)) @ L.T - (np.eye(70) + E)).max() <= 1e-13


def test_ldlt_pivots_keep_tiny_perturbations():
    # diagonal E: the pivots minus one are E itself, not 1 + E - 1
    E = np.diag([1e-20, -3e-18, 2e-17 + 1e-19j])
    assert np.array_equal(np.diagonal(ldlt(E)), np.diag(E))
