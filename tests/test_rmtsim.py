import math

import numpy as np
import pytest

from edgejump.fredholm import finite_n_det, hermite_gram
from edgejump.rmtsim import (_count_above, _gue_counts, counting_moments,
                             gap_probability_mc, plancherel_sample, rsk_shape,
                             sample_gue, sample_gue_eigs, stream_rng, thin,
                             thinned_max_cdf, thinning_check)

from oracles import (gap_probability_from_spectra, hook_length_dimension, lis_length,
                     partitions_of, plancherel_probability, thinning_from_spectra)


class TestSampling:
    def test_seeded_determinism(self):
        a = sample_gue(8, master=42, stream=3)
        b = sample_gue(8, master=42, stream=3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        c = sample_gue(8, master=42, stream=4)
        assert not np.array_equal(a.eigenvalues, c.eigenvalues)

    def test_sorted_descending(self):
        s = sample_gue(12, master=1)
        assert np.all(np.diff(s.eigenvalues) <= 0)

    def test_scalar_case_density(self):
        # n = 1: density proportional to e^{-x^2}, variance 1/2
        eigs = sample_gue_eigs(1, 100_000, master=5)
        assert eigs.var() == pytest.approx(0.5, abs=0.01)

    def test_batched_determinism(self):
        # batched and single-draw paths interleave the stream differently,
        # so each is pinned to its own reproducibility
        a = sample_gue_eigs(6, 3, master=9, stream=0)
        b = sample_gue_eigs(6, 3, master=9, stream=0)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a, axis=1) <= 0)

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

    def test_estimators_equal_spectrum_oracles(self):
        # 25,000 trials span two draw blocks of 20,000
        n, s, lambda0, trials, master = 12, 0.5, 3.5, 25_000, 47
        eigs = sample_gue_eigs(n, trials, master)
        assert gap_probability_mc(n, lambda0, trials, master) == \
            gap_probability_from_spectra(eigs, lambda0)
        assert thinning_check(n, s, lambda0, trials, master) == \
            thinning_from_spectra(eigs, s, lambda0, stream_rng(master, 1))


class TestThinning:
    def test_no_removal(self):
        s = sample_gue(20, master=3)
        out = thin(s, 0.0, stream_rng(3, 1))
        assert np.array_equal(out.survivors, s.eigenvalues)

    def test_heavy_removal_counts(self):
        rng = stream_rng(7, 0)
        counts = [thin(sample_gue(50, rng=stream_rng(7, k)), 0.999,
                       stream_rng(8, k)).survivors.size
                  for k in range(200)]
        # Binomial(50, 0.001) per trial: the total over 200 trials is
        # Poisson-like with mean 10
        assert sum(counts) < 30

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
        cm = counting_moments(n, lam0, trials, 2, master=31)
        G = hermite_gram(n, lam0).entries
        ex = np.trace(G)
        ex2 = ex * ex - np.sum(G * G) + ex
        assert abs(cm["mean"][0] - ex) <= 3 * cm["stderr"][0]
        assert abs(cm["mean"][1] - ex2) <= 3 * cm["stderr"][1]


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
        # K starts at 2: N = 1 and 2 have fewer rows than K on most draws
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
