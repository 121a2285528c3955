"""Monte-Carlo side: GUE counts and spectra, thinning, random partitions.

Spectra are drawn from the symmetric tridiagonal beta = 2 Hermite ensemble
(normal diagonal, chi off-diagonals with decreasing degrees of freedom) and
rescaled by 1/sqrt(2) so the joint eigenvalue density carries the plain
``e^(-x^2)`` weight used across this project.  The rescaling constant is not
trusted from the derivation alone: the acceptance suite pins it against the
finite-n determinant gap probability at 3 sigma.

The estimators read only X, the number of points above lambda0.  They take
it as the inertia count of ``T - lambda0 sqrt(2) I`` (an O(n) pivot
recurrence over a block of trials), never from an eigendecomposition; whole
spectra come from :func:`sample_gue_eigs` on the same draws.  Likewise the
thinned Plancherel maximum needs only the rows above its lowest threshold,
and RSK bumps only move downward, so :func:`plancherel_sample` inserts into
a few leading rows instead of the whole tableau.

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

#: Trials drawn per block.  Part of the stream layout: spectra, counts and
#: thinning's removal variates are all drawn block by block, so every route
#: reads the same numbers for the same (master, stream).
_CHUNK = 20_000

#: Dense matrix entries per ``eigvalsh`` batch in :func:`sample_gue_eigs`.
_DENSE_ENTRIES = 1 << 22


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


def _tridiag_blocks(n: int, trials: int, master: int, stream: int):
    """The draws of ``trials`` matrices on (master, stream), ``_CHUNK`` at a time."""
    rng = stream_rng(master, stream)
    for lo in range(0, trials, _CHUNK):
        yield _tridiag_draws(n, min(_CHUNK, trials - lo), rng)


def _count_above(d: np.ndarray, e: np.ndarray, sigma: float) -> np.ndarray:
    """Per row, the number of eigenvalues of the tridiagonal (d, e) above sigma.

    Sylvester's law of inertia: the LDL^T pivots of ``T - sigma I``,
    q_1 = d_1 - sigma and q_i = d_i - sigma - e_(i-1)^2 / q_(i-1), include
    one negative pivot per eigenvalue below sigma.  As in LAPACK's ``dstebz``, a
    pivot of magnitude <= pivmin = tiny * max(1, e^2) becomes -pivmin: an
    eigenvalue equal to sigma then counts as not above it, and e^2 / q stays
    finite, so no pivot is ever 0, inf or NaN.
    """
    n = d.shape[1]
    e2 = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    below = np.zeros(d.shape[0], dtype=np.int64)
    for i in range(n):
        q = d[:, i] - sigma - (e2[:, i - 1] / q if i else 0.0)
        q[np.abs(q) <= pivmin] = -pivmin
        below += q < 0
    return n - below


def _gue_counts(n: int, lambda0: float, trials: int, master: int,
                stream: int) -> np.ndarray:
    """Per trial, the number of eigenvalues above lambda0 (e^(-x^2) scale).

    The draws are those of ``sample_gue_eigs(n, trials, master, stream)``.
    """
    sigma = lambda0 * math.sqrt(2.0)
    return np.concatenate([_count_above(d, e, sigma)
                           for d, e in _tridiag_blocks(n, trials, master, stream)])


def sample_gue_eigs(n: int, trials: int, master: int, stream: int = 0) -> np.ndarray:
    """(trials, n) eigenvalue array in the e^(-x^2) normalization, sorted descending.

    For callers that read whole spectra; the estimators below need only the
    counts above a threshold and never diagonalize.
    """
    out = np.empty((trials, n))
    batch = max(1, _DENSE_ENTRIES // (n * n))
    idx = np.arange(n)
    done = 0
    for d, e in _tridiag_blocks(n, trials, master, stream):
        for lo in range(0, d.shape[0], batch):
            db, eb = d[lo:lo + batch], e[lo:lo + batch]
            T = np.zeros((db.shape[0], n, n))
            T[:, idx, idx] = db
            T[:, idx[:-1], idx[1:]] = eb
            T[:, idx[1:], idx[:-1]] = eb
            out[done:done + db.shape[0]] = np.linalg.eigvalsh(T)[:, ::-1] / math.sqrt(2.0)
            done += db.shape[0]
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
    X = _gue_counts(n, lambda0, trials, master, stream)
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
    X = _gue_counts(n, lambda0, trials, master, stream)
    hit = float((X == 0).mean())
    return hit, math.sqrt(max(hit * (1 - hit), 1e-12) / trials)


def thinning_check(n: int, s: float, lambda0: float, trials: int, master: int,
                   stream: int = 0) -> dict:
    """Thinned largest-particle statistics two ways on the same draws.

    * 'bernoulli': thin each spectrum once and count max-survivor <= lambda0;
    * 'analytic': average of s^X over the draws, X the count above lambda0
      (removal randomness integrated out).

    The removal variates are uniforms on stream + 1, one row of n per trial:
    a trial's j-th largest point is removed when variate j is below s, so
    only the first X variates of a row decide whether a point survives
    above lambda0.
    """
    X = _gue_counts(n, lambda0, trials, master, stream)
    rng = stream_rng(master, stream + 1)
    cleared = 0  # trials with no survivor above lambda0
    for lo in range(0, trials, _CHUNK):
        x = X[lo:lo + _CHUNK, None]
        removed = rng.random((x.shape[0], n)) < s
        survivor = (np.arange(n) < x) & ~removed  # a top-X point not removed
        cleared += int((~survivor.any(axis=1)).sum())
    bern = cleared / trials
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

def rsk_shape(perm, rows: int | None = None) -> np.ndarray:
    """Row lengths of the insertion tableau of a permutation.

    With ``rows``, only the first ``rows`` rows are kept and an entry bumped
    out of the last of them is dropped.  Bumps only move downward, so the
    kept rows are exactly those of the full tableau (Schensted 1961).
    """
    cap = len(perm) if rows is None else rows
    tableau: list[list[int]] = []
    for x in np.asarray(perm, dtype=np.int64).tolist():
        for row in tableau:
            pos = bisect_left(row, x)
            if pos == len(row):
                row.append(x)
                break
            row[pos], x = x, row[pos]
        else:
            if len(tableau) < cap:
                tableau.append([x])
    return np.array([len(r) for r in tableau], dtype=np.int64)


def plancherel_sample(N: int, rng: np.random.Generator, bound: float = 0.0) -> np.ndarray:
    """Leading rows of a partition of N drawn from the Plancherel measure via RSK.

    Returns every row longer than ``bound`` (so the whole partition for
    bound <= 0), possibly with a few shorter rows after them.  RSK of one
    permutation keeps K = 2, 4, 8, ... rows until the last kept row is at
    most ``bound`` or the tableau has fewer than K rows.
    """
    perm = rng.permutation(N)
    rows = 2
    while True:
        shape = rsk_shape(perm, rows)
        if len(shape) < rows or shape[-1] <= bound:
            return shape
        rows *= 2


def thinned_max_cdf(N: int, s: float, ts, trials: int, master: int,
                    stream: int = 0) -> dict:
    """CDF estimates of the rescaled largest thinned partition row.

    For each threshold t, estimates P(N^(-1/6) (mu_1 - 2 sqrt(N)) <= t) by
    averaging s^(number of rows above the threshold), i.e. with the removal
    randomness integrated out (lower variance than re-thinning per draw).
    Each draw inserts only into the rows that can exceed the lowest threshold.
    """
    ts = list(ts)
    thresholds = [2.0 * math.sqrt(N) + t * N ** (1.0 / 6.0) for t in ts]
    acc = np.zeros((trials, len(ts)))
    for i in range(trials):
        rng = stream_rng(master, stream + i)
        shape = plancherel_sample(N, rng, min(thresholds))
        for j, thr in enumerate(thresholds):
            above = int((shape > thr).sum())
            acc[i, j] = s ** above
    mean = acc.mean(axis=0)
    return {"t": ts, "cdf": mean.tolist(),
            "stderr": (acc.std(axis=0, ddof=1) / math.sqrt(trials)).tolist()}

