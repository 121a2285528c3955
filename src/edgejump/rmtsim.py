"""Monte-Carlo side: GUE spectra, thinning, counting statistics, random partitions.

Spectra are drawn from the symmetric tridiagonal beta = 2 Hermite ensemble
(normal diagonal, chi off-diagonals with decreasing degrees of freedom) and
rescaled by 1/sqrt(2) so the joint eigenvalue density carries the plain
``e^(-x^2)`` weight used across this project.  The rescaling constant is not
trusted from the derivation alone: the acceptance suite pins it against the
finite-n determinant gap probability at 3 sigma.

Randomness is counter-based (Philox) with streams derived as
(master seed, stream index), so parallel trials are reproducible and any
sample can be regenerated in isolation.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "stream_rng", "SpectrumSample", "ThinnedSample", "sample_gue",
    "sample_gue_eigs", "thin", "counting_moments", "gap_probability_mc",
    "thinning_check", "plancherel_sample", "rsk_shape", "thinned_max_cdf",
]


def stream_rng(master: int, stream: int = 0) -> np.random.Generator:
    """Reproducible counter-based generator for (master seed, stream index)."""
    seq = np.random.SeedSequence(entropy=master, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one e^(-x^2)-normalized GUE draw, sorted descending."""

    n: int
    eigenvalues: np.ndarray
    seed: tuple


@dataclass(frozen=True)
class ThinnedSample:
    """Surviving points after independent removal with probability s."""

    survivors: np.ndarray
    removal_probability: float


def _tridiag_draws(n: int, trials: int, rng: np.random.Generator):
    d = rng.standard_normal((trials, n))
    if n > 1:
        dof = 2.0 * np.arange(n - 1, 0, -1)
        e = np.sqrt(rng.chisquare(dof, size=(trials, n - 1)) / 2.0)
    else:
        e = np.zeros((trials, 0))
    return d, e


def sample_gue_eigs(n: int, trials: int, master: int, stream: int = 0,
                    chunk: int = 20000) -> np.ndarray:
    """(trials, n) eigenvalue array in the e^(-x^2) normalization, sorted descending."""
    rng = stream_rng(master, stream)
    out = np.empty((trials, n))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        d, e = _tridiag_draws(n, m, rng)
        if n <= 64:
            T = np.zeros((m, n, n))
            idx = np.arange(n)
            T[:, idx, idx] = d
            if n > 1:
                j = np.arange(n - 1)
                T[:, j, j + 1] = e
                T[:, j + 1, j] = e
            eigs = np.linalg.eigvalsh(T)
        else:
            eigs = np.empty((m, n))
            for i in range(m):
                eigs[i] = scipy.linalg.eigvalsh_tridiagonal(d[i], e[i])
        out[done:done + m] = eigs[:, ::-1] / math.sqrt(2.0)
        done += m
    return out


def sample_gue(n: int, rng: np.random.Generator | None = None, *,
               master: int = 0, stream: int = 0) -> SpectrumSample:
    """One spectrum draw; pass either a generator or (master, stream)."""
    if rng is None:
        rng = stream_rng(master, stream)
    d, e = _tridiag_draws(n, 1, rng)
    eigs = scipy.linalg.eigvalsh_tridiagonal(d[0], e[0]) if n > 1 else d[0]
    x = np.sort(eigs)[::-1] / math.sqrt(2.0)
    return SpectrumSample(n=n, eigenvalues=x, seed=(master, stream))


def thin(sample, s: float, rng: np.random.Generator) -> ThinnedSample:
    """Remove each point independently with probability s (kept with 1 - s)."""
    pts = sample.eigenvalues if isinstance(sample, SpectrumSample) else np.asarray(sample)
    keep = rng.random(pts.shape[0]) >= s
    return ThinnedSample(survivors=pts[keep], removal_probability=float(s))


def counting_moments(n: int, lambda0: float, trials: int, kmax: int,
                     master: int, stream: int = 0) -> dict:
    """Sample moments of the count of eigenvalues above lambda0.

    Returns {'mean': [...], 'stderr': [...]} for powers 1..kmax, plus the
    raw count frequencies.
    """
    eigs = sample_gue_eigs(n, trials, master, stream)
    X = (eigs > lambda0).sum(axis=1)
    means, errs = [], []
    for k in range(1, kmax + 1):
        vals = X.astype(float) ** k
        means.append(float(vals.mean()))
        errs.append(float(vals.std(ddof=1) / math.sqrt(trials)))
    freq = np.bincount(X, minlength=n + 1) / trials
    return {"mean": means, "stderr": errs, "frequencies": freq}


def gap_probability_mc(n: int, lambda0: float, trials: int, master: int,
                       stream: int = 0) -> tuple:
    """Empirical P(no eigenvalue above lambda0) with its standard error."""
    eigs = sample_gue_eigs(n, trials, master, stream)
    hit = float((eigs[:, 0] <= lambda0).mean())
    return hit, math.sqrt(max(hit * (1 - hit), 1e-12) / trials)


def thinning_check(n: int, s: float, lambda0: float, trials: int, master: int,
                   stream: int = 0) -> dict:
    """Thinned largest-particle statistics two ways on the same draws.

    * 'bernoulli': thin each spectrum once and count max-survivor <= lambda0;
    * 'analytic': average of s^X over the draws, X the count above lambda0
      (removal randomness integrated out).
    """
    eigs = sample_gue_eigs(n, trials, master, stream)
    X = (eigs > lambda0).sum(axis=1)
    rng = stream_rng(master, stream + 1)
    removed = rng.random(eigs.shape) < s
    survives = (eigs > lambda0) & ~removed
    bern = float((~survives.any(axis=1)).mean())
    weights = s ** X.astype(float)
    return {
        "bernoulli": bern,
        "bernoulli_stderr": math.sqrt(max(bern * (1 - bern), 1e-12) / trials),
        "analytic": float(weights.mean()),
        "analytic_stderr": float(weights.std(ddof=1)) / math.sqrt(trials),
    }


# ---------------------------------------------------------------------------
# RSK / Plancherel sampling
# ---------------------------------------------------------------------------

def rsk_shape(perm) -> np.ndarray:
    """Row lengths of the insertion tableau of a permutation."""
    rows: list[list[int]] = []
    for x in np.asarray(perm, dtype=np.int64).tolist():
        for row in rows:
            pos = bisect_left(row, x)
            if pos == len(row):
                row.append(x)
                break
            row[pos], x = x, row[pos]
        else:
            rows.append([x])
    return np.array([len(r) for r in rows], dtype=np.int64)


def plancherel_sample(N: int, rng: np.random.Generator) -> np.ndarray:
    """Partition of N drawn from the Plancherel measure via RSK insertion."""
    return rsk_shape(rng.permutation(N))


def thinned_max_cdf(N: int, s: float, ts, trials: int, master: int,
                    stream: int = 0) -> dict:
    """CDF estimates of the rescaled largest thinned partition row.

    For each threshold t, estimates P(N^(-1/6) (mu_1 - 2 sqrt(N)) <= t) by
    averaging s^(number of rows above the threshold), i.e. with the removal
    randomness integrated out (lower variance than re-thinning per draw).
    """
    ts = list(ts)
    thresholds = [2.0 * math.sqrt(N) + t * N ** (1.0 / 6.0) for t in ts]
    acc = np.zeros((trials, len(ts)))
    for i in range(trials):
        rng = stream_rng(master, stream + i)
        shape = plancherel_sample(N, rng)
        for j, thr in enumerate(thresholds):
            above = int((shape > thr).sum())
            acc[i, j] = s ** above
    mean = acc.mean(axis=0)
    return {"t": ts, "cdf": mean.tolist(),
            "stderr": (acc.std(axis=0, ddof=1) / math.sqrt(trials)).tolist()}

