import math
import tracemalloc

import numpy as np
import pytest

from edgejump import rmtsim
from edgejump.fredholm import finite_n_det, hermite_gram
from edgejump.rmtsim import (_count_above, _gue_counts, gap_probability_mc,
                             plancherel_sample, rsk_shape, sample_gue_eigs,
                             stream_rng, thinned_max_cdf, thinning_check)
from edgejump.util import DomainError

from oracles import (gap_probability_from_spectra, hook_length_dimension, lis_length,
                     partitions_of, plancherel_probability, thinned_max_cdf_per_trial,
                     thinning_from_spectra)


class TestSampling:
    def test_seeded_determinism(self):
        a = sample_gue_eigs(8, 2, master=42, stream=3)
        b = sample_gue_eigs(8, 2, master=42, stream=3)
        assert np.array_equal(a, b)
        c = sample_gue_eigs(8, 2, master=42, stream=4)
        assert not np.array_equal(a, c)

    def test_sorted_descending(self):
        eigs = sample_gue_eigs(12, 5, master=1)
        assert np.all(np.diff(eigs, axis=1) <= 0)

    def test_scalar_case_density(self):
        # n = 1: density proportional to e^{-x^2}, variance 1/2
        eigs = sample_gue_eigs(1, 100_000, master=5)
        assert eigs.var() == pytest.approx(0.5, abs=0.01)

    def test_batched_determinism(self, monkeypatch):
        # the eigvalsh batches split the draws, not the stream: one matrix
        # per batch gives the same spectra
        a = sample_gue_eigs(6, 3, master=9, stream=0)
        monkeypatch.setattr(rmtsim, "_DENSE_ENTRIES", 36)
        b = sample_gue_eigs(6, 3, master=9, stream=0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_gue_eigs(6, 3, master=9, stream=1))

    def test_gap_probability_against_determinant(self):
        p, sig = gap_probability_mc(8, 3.0, 30_000, master=11)
        det = finite_n_det(8, 3.0, 1.0).real
        assert abs(p - det) <= 3 * sig

    def test_mean_square_sum_against_kernel(self):
        # E[sum x_i^2] = integral x^2 K_n(x, x) dx = tr(J^2) = n^2 / 2, with J
        # the Jacobi matrix of the e^(-x^2) Hermite recurrence
        eigs = sample_gue_eigs(8, 30_000, master=17)
        s2 = (eigs ** 2).sum(axis=1)
        pred = 8 ** 2 / 2
        assert abs(s2.mean() - pred) <= 3 * s2.std(ddof=1) / math.sqrt(len(s2))


class TestCounts:
    @pytest.mark.parametrize("n", [1, 8, 30, 50, 80])
    def test_inertia_count_matches_spectra(self, n):
        eigs = sample_gue_eigs(n, 400, master=43, stream=2)
        edge = math.sqrt(2.0 * n)
        for lambda0 in (-3 * edge - 5, -edge, -1.0, 0.0, 0.7, edge - 1, edge, 3 * edge + 5):
            counts = _gue_counts(n, lambda0, 400, master=43, stream=2)
            assert np.array_equal(counts, (eigs > lambda0).sum(axis=1)), lambda0

    @pytest.mark.parametrize("d, e, sigma, above", [
        ([2.0], [], 2.0, 0),              # n = 1, eigenvalue at sigma
        ([0.0, 0.0], [1.0], 0.0, 1),      # eigenvalues +-1
        ([1.0, 1.0, 1.0], [1.0, 1.0], 1.0, 1),  # eigenvalues 1 - sqrt 2, 1, 1 + sqrt 2
        ([0.0, 0.0, 0.0], [0.0, 0.0], 0.0, 0),  # zero matrix
    ])
    def test_zero_pivots_give_finite_exact_counts(self, d, e, sigma, above):
        # every case hits q = 0 exactly; an eigenvalue equal to sigma is not above it
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            count = _count_above(np.array([d]), np.array([e]).reshape(1, -1), sigma)
        assert count.tolist() == [above]

    def test_estimators_equal_spectrum_oracles(self, monkeypatch):
        # 25,000 trials span two draw blocks of 20,000; 21,234 trials at n = 50
        # also end in a partial piece; 4001-entry pieces (333 rows at n = 12)
        # divide neither n nor the block
        s, master = 0.5, 47
        for n, lambda0, trials, piece in ((12, 3.5, 25_000, rmtsim._PIECE),
                                          (50, 10.0, 21_234, rmtsim._PIECE),
                                          (12, 3.5, 25_000, 4001)):
            monkeypatch.setattr(rmtsim, "_PIECE", piece)
            eigs = sample_gue_eigs(n, trials, master)
            assert gap_probability_mc(n, lambda0, trials, master) == \
                gap_probability_from_spectra(eigs, lambda0)
            assert thinning_check(n, s, lambda0, trials, master) == \
                thinning_from_spectra(eigs, s, lambda0, stream_rng(master, 1))


def test_draws_hold_one_block():
    # the only block-sized array is one block's normals; the chi variates,
    # counts and removal variates come a piece at a time
    n, trials, master = 50, 40_000, 59
    bound = rmtsim._CHUNK * n * 8 + (2 << 20)
    _gue_counts(n, 10.0, 10, master, 0)  # first-call imports are not draws
    for run in (lambda: _gue_counts(n, 10.0, trials, master, 0),
                lambda: thinning_check(n, 0.5, 10.0, trials, master)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


class TestThinning:
    def test_no_removal(self):
        # s = 0 removes nothing: both estimators are the gap probability
        n, lambda0, trials, master = 20, 5.0, 2_000, 3
        res = thinning_check(n, 0.0, lambda0, trials, master)
        p, _ = gap_probability_mc(n, lambda0, trials, master)
        assert res["bernoulli"] == res["analytic"] == p

    def test_heavy_removal_counts(self):
        # with the cut below every point, X = n and a trial clears only when
        # all n points are removed: probability s^n
        n, s, trials = 50, 0.999, 4_000
        res = thinning_check(n, s, -100.0, trials, master=7)
        assert res["analytic"] == pytest.approx(s ** n, rel=1e-12)
        assert abs(res["bernoulli"] - s ** n) <= 3 * res["bernoulli_stderr"]

    def test_against_determinant(self):
        n, s = 20, 0.5
        lam0 = math.sqrt(2.0 * n)
        res = thinning_check(n, s, lam0, 40_000, master=29)
        det = finite_n_det(n, lam0, 1.0 - s).real
        assert abs(res["bernoulli"] - det) <= 3 * res["bernoulli_stderr"]
        assert abs(res["analytic"] - det) <= 3 * res["analytic_stderr"]

    def test_counting_moments_against_pair_correlation(self):
        n, lam0, trials = 30, 2.0, 40_000
        # for the count X above lambda0: E[X] = tr G and
        # E[X(X - 1)] = (tr G)^2 - tr(G^2), G the Hermite Gram matrix
        X = _gue_counts(n, lam0, trials, master=31, stream=0).astype(float)
        G = hermite_gram(n, lam0)
        ex = np.trace(G)
        ex2 = ex * ex - np.sum(G * G) + ex
        for vals, want in ((X, ex), (X * X, ex2)):
            assert abs(vals.mean() - want) <= 3 * vals.std(ddof=1) / math.sqrt(trials)


class TestRSK:
    def test_trivial_cases(self):
        assert list(rsk_shape(np.array([0]))) == [1]
        assert list(rsk_shape(np.arange(5))) == [5]
        assert list(rsk_shape(np.arange(5)[::-1])) == [1, 1, 1, 1, 1]

    def test_shape_is_partition_of_n(self):
        rng = stream_rng(13, 0)
        for n in (10, 100, 400):
            shape = rsk_shape(rng.permutation(n))
            assert shape.sum() == n
            assert np.all(np.diff(shape) <= 0)

    def test_first_row_is_lis(self):
        rng = stream_rng(19, 0)
        for _ in range(40):
            perm = rng.permutation(200)
            assert rsk_shape(perm)[0] == lis_length(list(perm))

    def test_plancherel_distribution_hook_lengths(self):
        # N = 4: exact Plancherel probabilities from the hook length formula
        N, trials = 4, 20_000
        freqs: dict = {}
        for k in range(trials):
            shape = tuple(plancherel_sample(N, stream_rng(37, k)))
            freqs[shape] = freqs.get(shape, 0) + 1
        chi2 = 0.0
        for shape in partitions_of(N):
            p = float(plancherel_probability(shape))
            expected = trials * p
            observed = freqs.get(shape, 0)
            chi2 += (observed - expected) ** 2 / expected
        assert chi2 < 25.0  # df = 4; generous deterministic threshold

    def test_truncated_plancherel_keeps_leading_rows(self):
        # N = 1 and 2: the tableau runs out before a row at or below the bound
        cases = [(1, 0.0), (2, 0.5), (2, -1.0), (30, 0.0), (30, 3.0), (200, 0.0),
                 (200, 12.0), (200, 25.0), (1000, -2.0), (1000, 40.0)]
        for k in range(20):
            N, bound = cases[k % len(cases)]
            shape = plancherel_sample(N, stream_rng(53, k), bound)
            full = rsk_shape(stream_rng(53, k).permutation(N))
            assert np.array_equal(shape, full[:len(shape)])
            assert np.all(full[len(shape):] <= bound)
            if bound <= 0:
                assert len(shape) == len(full)

    def test_dimension_square_sum(self):
        # sum over shapes of dim^2 = N!
        for N in (4, 6):
            assert sum(hook_length_dimension(s) ** 2 for s in partitions_of(N)) \
                == math.factorial(N)


def test_thinned_max_cdf_smoke():
    est = thinned_max_cdf(400, 0.5, (0.0,), 100, master=41)
    assert 0.5 < est["cdf"][0] <= 1.0
    assert est["stderr"][0] < 0.05


@pytest.mark.parametrize("N", [0, 1, 2, 3, 37, 400])
def test_lockstep_rows_equal_rsk_shape(N):
    # the identity's row 1 is N long: at N = 400 the blocks double twice;
    # the reversal has N rows of 1; bounds below 2 sqrt(N) need rows 3 and up
    rng = stream_rng(61, N)
    perms = [rng.permutation(N) for _ in range(13)] + [np.arange(N), np.arange(N)[::-1]]
    P = np.array(perms, dtype=np.int32).T
    root = 2 * math.sqrt(N)
    deep = 0
    for bound in (0.0, -1.0, 0.5 * root, 0.8 * root, root, float(N)):
        shapes = rmtsim._rsk_lockstep(P.copy(), bound)  # P is overwritten
        assert len(shapes) == len(perms)
        for perm, shape in zip(perms, shapes):
            assert np.array_equal(shape, rsk_shape(perm, bound))
            deep += len(shape) > 2
    assert deep or N < 3


_B = rmtsim._RSK_BATCH


@pytest.mark.parametrize("N, s, ts, trials, master, stream", [
    (37, 0.5, (-10.0, 0.5), 2, 41, 0),  # t = -10 lies below 0: whole shapes
    (100, 0.3, (-2.0, 0.0, 1.0), _B - 1, 7, 0),
    (100, 0.3, (-2.0, 0.0, 1.0), _B, 7, 0),
    (100, 0.3, (-2.0, 0.0, 1.0), _B + 1, 7, 5),
    (400, 0.5, (-3.0, -1.0), 2 * _B + 5, 43, 0),
    (10_000, 0.5, (-2.0, 0.0, 1.0), _B + 1, 31337, 0),  # criterion 12's N and master
])
def test_thinned_max_cdf_equals_per_trial_loop(N, s, ts, trials, master, stream):
    assert thinned_max_cdf(N, s, ts, trials, master, stream) == \
        thinned_max_cdf_per_trial(N, s, ts, trials, master, stream)


@pytest.mark.parametrize("batch, entries", [(3, rmtsim._RSK_ENTRIES), (_B, 150)])
def test_thinned_max_cdf_batch_size_draws_the_same(monkeypatch, batch, entries):
    # trial i draws from stream + i at any batch size; 150 entries at N = 100
    # leave one trial a batch
    want = thinned_max_cdf(100, 0.5, (-2.0, 0.0), 10, 3)
    monkeypatch.setattr(rmtsim, "_RSK_BATCH", batch)
    monkeypatch.setattr(rmtsim, "_RSK_ENTRIES", entries)
    assert thinned_max_cdf(100, 0.5, (-2.0, 0.0), 10, 3) == want


def test_thinned_max_cdf_holds_one_batch():
    # beyond one batch only the (trials, len(ts)) estimates grow, 8 bytes a
    # trial per threshold (16 while the standard error holds its copy); a
    # batch at N = 1000 holds 256 KB of draws
    N, ts = 1000, (-2.0, 0.0, 1.0)
    thinned_max_cdf(N, 0.5, ts, 2, 5)  # first-call imports are not draws
    peaks = []
    for trials in (_B, 4 * _B):
        tracemalloc.start()
        try:
            thinned_max_cdf(N, 0.5, ts, trials, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 32 * 3 * _B * len(ts), peaks


@pytest.mark.parametrize("trials", [-1, 0, 1])
@pytest.mark.parametrize("estimate", [
    lambda trials: gap_probability_mc(8, 3.0, trials, 1),
    lambda trials: thinning_check(8, 0.5, 3.0, trials, 1),
    lambda trials: thinned_max_cdf(400, 0.5, (0.0,), trials, 41),
], ids=["gap_probability_mc", "thinning_check", "thinned_max_cdf"])
def test_estimators_refuse_fewer_than_two_trials(estimate, trials):
    # each reports a ddof = 1 standard error
    with pytest.raises(DomainError, match=f"need trials >= 2, got {trials}"):
        estimate(trials)


def test_thinned_max_cdf_refuses_no_thresholds():
    with pytest.raises(ValueError, match="at least one threshold"):
        thinned_max_cdf(400, 0.5, (), 10, 41)
