"""Monte-Carlo side: GUE counts, thinning, random partitions.

Spectra are drawn from the symmetric tridiagonal beta = 2 Hermite ensemble
(normal diagonal, chi off-diagonals with decreasing degrees of freedom) and
rescaled by 1/sqrt(2) so the joint eigenvalue density carries the plain
``e^(-x^2)`` weight used across this project.  The rescaling constant is not
trusted from the derivation alone: the acceptance suite pins it against the
finite-n determinant gap probability at 3 sigma.

The estimators read only X, the number of points above lambda0.  They take
it as the inertia count of ``T - lambda0 sqrt(2) I`` (an O(n) pivot
recurrence over a block of trials), never from an eigendecomposition;
:func:`sample_gue_eigs` diagonalizes the same draws, and the test suite
reads its spectra to pin the counts.  Likewise the thinned Plancherel
maximum needs only the rows above its lowest threshold, and each row of the
RSK insertion tableau is built from the values the row above bumped out, so
:func:`plancherel_sample` builds the leading rows one at a time and stops
below that threshold.

Randomness is counter-based (Philox) with streams derived as
(master seed, stream index), so parallel trials are reproducible and any
sample can be regenerated in isolation.  The only block-sized array a draw
holds is one block's normals; the chi variates, the counts and thinning's
removal variates are drawn and read a piece of rows at a time.  A sequential
draw split into row pieces gives the same numbers, so any piece size draws
the same spectra.
"""
from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = [
    "stream_rng", "sample_gue_eigs", "gap_probability_mc", "thinning_check",
    "plancherel_sample", "rsk_shape", "thinned_max_cdf",
]

#: Trials drawn per block.  Part of the stream layout: each block draws all
#: of its normals, then its chi variates, so every route reads the same
#: numbers for the same (master, stream).  One block's normals are the only
#: block-sized array a draw holds.
_CHUNK = 20_000

#: Matrix entries per piece: the chi variates, the counts and the removal
#: variates of a block are drawn and read this many entries (whole rows) at
#: a time.  Not part of the stream layout: any piece size draws the same numbers.
_PIECE = 1 << 16

#: Dense matrix entries per ``eigvalsh`` batch in :func:`sample_gue_eigs`.
_DENSE_ENTRIES = 1 << 22


def stream_rng(master: int, stream: int = 0) -> np.random.Generator:
    """Reproducible counter-based generator for (master seed, stream index)."""
    seq = np.random.SeedSequence(entropy=master, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def _tridiag_pieces(n: int, trials: int, master: int, stream: int):
    """The draws of ``trials`` matrices on (master, stream), a piece at a time.

    Yields (lo, d, e): the diagonals d and off-diagonals e of trials lo,
    lo + 1, ... .  Each block of ``_CHUNK`` trials draws its normals d into
    one buffer that the next block overwrites, then its chi variates
    e_i = sqrt(Gamma(n - i)), i.e. chi with 2(n - i) degrees of freedom over
    sqrt 2, at most ``_PIECE`` entries at a time.  A d piece is a view of
    that buffer: read it before asking for the next piece.
    """
    rng = stream_rng(master, stream)
    k = np.arange(n - 1, 0, -1, dtype=float)
    rows = max(1, _PIECE // n)
    buf = np.empty((min(_CHUNK, trials), n))
    for lo in range(0, trials, _CHUNK):
        d = buf[:min(_CHUNK, trials - lo)]
        rng.standard_normal(out=d)
        for a in range(0, d.shape[0], rows):
            e = rng.standard_gamma(k, size=(min(rows, d.shape[0] - a), n - 1))
            yield lo + a, d[a:a + rows], np.sqrt(e, out=e)


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
    emax = max(float(e.max(initial=0.0)), -float(e.min(initial=0.0)))
    pivmin = np.finfo(float).tiny * max(1.0, emax * emax)
    below = np.zeros(d.shape[0], dtype=np.int64)
    for i in range(n):
        q = d[:, i] - sigma - (e[:, i - 1] ** 2 / q if i else 0.0)
        q[np.abs(q) <= pivmin] = -pivmin
        below += q < 0
    return n - below


def _gue_counts(n: int, lambda0: float, trials: int, master: int,
                stream: int) -> np.ndarray:
    """Per trial, the number of eigenvalues above lambda0 (e^(-x^2) scale).

    The draws are those of ``sample_gue_eigs(n, trials, master, stream)``.
    """
    sigma = lambda0 * math.sqrt(2.0)
    X = np.empty(trials, dtype=np.int64)
    for lo, d, e in _tridiag_pieces(n, trials, master, stream):
        X[lo:lo + d.shape[0]] = _count_above(d, e, sigma)
    return X


def sample_gue_eigs(n: int, trials: int, master: int, stream: int = 0) -> np.ndarray:
    """(trials, n) eigenvalue array in the e^(-x^2) normalization, sorted descending.

    The estimators below need only the counts above a threshold and never
    diagonalize; the test suite reads these spectra to pin the counts.
    """
    out = np.empty((trials, n))
    batch = max(1, _DENSE_ENTRIES // (n * n))
    idx = np.arange(n)
    for lo, d, e in _tridiag_pieces(n, trials, master, stream):
        for a in range(0, d.shape[0], batch):
            db, eb = d[a:a + batch], e[a:a + batch]
            T = np.zeros((db.shape[0], n, n))
            T[:, idx, idx] = db
            T[:, idx[:-1], idx[1:]] = eb
            T[:, idx[1:], idx[:-1]] = eb
            out[lo + a:lo + a + db.shape[0]] = np.linalg.eigvalsh(T)[:, ::-1] / math.sqrt(2.0)
    return out


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

    The removal variates are uniforms on stream + 1, one row of n per trial,
    drawn a piece of rows at a time: a trial's j-th largest point is removed
    when variate j is below s, so only the first X variates of a row decide
    whether a point survives above lambda0.
    """
    X = _gue_counts(n, lambda0, trials, master, stream)
    rng = stream_rng(master, stream + 1)
    rows = max(1, _PIECE // n)
    cleared = 0  # trials with no survivor above lambda0
    for lo in range(0, trials, rows):
        x = X[lo:lo + rows, None]
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

def rsk_shape(perm, bound: float = 0.0) -> np.ndarray:
    """Row lengths of the insertion tableau of a permutation, row by row.

    Row k + 1 of the insertion tableau is the insertion tableau's first row
    for the values row k bumped out, in the order they were bumped
    (Schensted 1961), so each row is built alone from the one above.  Stops
    after the first row of length at most ``bound``: every row longer than
    ``bound`` comes back (the whole shape for bound <= 0), followed by
    exactly one that is not, unless the tableau ran out first.
    """
    shape = []
    xs = np.asarray(perm, dtype=np.int64).tolist()
    while xs:
        row, bumped = [], []
        for x in xs:
            pos = bisect_left(row, x)
            if pos == len(row):
                row.append(x)
            else:
                bumped.append(row[pos])
                row[pos] = x
        shape.append(len(row))
        if len(row) <= bound:
            break
        xs = bumped
    return np.array(shape, dtype=np.int64)


def plancherel_sample(N: int, rng: np.random.Generator, bound: float = 0.0) -> np.ndarray:
    """Leading rows of a partition of N drawn from the Plancherel measure via RSK.

    Returns every row longer than ``bound`` (so the whole partition for
    bound <= 0), possibly with one shorter row after them (``rsk_shape``).
    """
    return rsk_shape(rng.permutation(N), bound)


def thinned_max_cdf(N: int, s: float, ts, trials: int, master: int,
                    stream: int = 0) -> dict:
    """CDF estimates of the rescaled largest thinned partition row.

    For each threshold t, estimates P(N^(-1/6) (mu_1 - 2 sqrt(N)) <= t) by
    averaging s^(number of rows above the threshold), i.e. with the removal
    randomness integrated out (lower variance than re-thinning per draw).
    Each draw builds only the rows that can exceed the lowest threshold.
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

