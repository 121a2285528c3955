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
maximum needs only the rows above its lowest threshold.  Each row of the RSK
insertion tableau is built from the values the row above bumped out, so
:func:`thinned_max_cdf` builds the first two rows of a batch of trials
together, one sorted-array search per permutation step, and finishes the
rare trial whose second row is still above the threshold from that row's
bumps; :func:`rsk_shape` is the one-permutation reference.  A batch holds
one N-by-B array: its draws, each row replaced by row 2's bumps once read.

Randomness is counter-based (Philox) with streams derived as
(master seed, stream index), so parallel trials are reproducible and any
sample can be regenerated in isolation.  The only block-sized array a draw
holds is one block's normals; the chi variates, the counts and thinning's
removal variates are drawn and read a piece of rows at a time.  A sequential
draw split into row pieces gives the same numbers, so any piece size draws
the same spectra.
"""
from __future__ import annotations

import itertools
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

#: Trials whose first two RSK rows :func:`thinned_max_cdf` builds together.
#: Not part of the stream layout: trial i draws from stream + i at any size.
_RSK_BATCH = 64

#: Permutation entries per RSK batch: a batch of B trials at N holds one
#: N-by-B int32 array (the draws, then row 2's bumps), so B shrinks below
#: ``_RSK_BATCH`` once N passes ``_RSK_ENTRIES / _RSK_BATCH``.
_RSK_ENTRIES = 1 << 24

#: Permutation steps between the width checks of :func:`_rsk_lockstep`.
_RSK_LOOKAHEAD = 32


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


def _need_trials(trials: int) -> None:
    """Refuse fewer than two trials: every estimator reports a ddof = 1 standard error."""
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")


def gap_probability_mc(n: int, lambda0: float, trials: int, master: int,
                       stream: int = 0) -> tuple:
    """Empirical P(no eigenvalue above lambda0) with its standard error."""
    _need_trials(trials)
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
    _need_trials(trials)
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


def _rsk_lockstep(P: np.ndarray, bound: float = 0.0) -> list:
    """``rsk_shape(P[:, i], bound)`` for each column i of P, built together.

    Each column of the (N, B) int32 (or wider) array P is a permutation of
    range(N).  P is overwritten: once step j has read row j, that row
    keeps row 2's bump of step j + 1, so a batch holds no other N-by-B array.
    Rows 1 and 2 of every trial live in one flat sorted array R of 2B
    blocks of width W: block b holds its row's values plus the offset
    b (N + 1), padded with its top value b (N + 1) + N.  One step inserts
    each trial's next value into its row 1 and row 1's bump from the step
    before into its row 2, all with one ``searchsorted``; a row that bumps
    nothing passes its top value on, whose insertion changes nothing.  Every
    ``_RSK_LOOKAHEAD`` steps the blocks double if a row could fill its block
    before the next check, so any permutation is exact (the identity's row 1
    is N long).  A trial whose row 2 is longer than ``bound`` finishes its
    shape with :func:`rsk_shape` on row 2's bumps (Schensted 1961).
    """
    N, B = P.shape
    stride = N + 1
    dtype = np.min_scalar_type(-2 * B * stride)  # the smallest signed type for every key
    top = np.arange(N, 2 * B * stride, stride, dtype=dtype)
    off = top - N
    K = _RSK_LOOKAHEAD
    W = 2 * math.isqrt(N) + 2 * K  # rows 1 and 2 are about 2 sqrt(N) long
    R = np.repeat(top, W)
    keys = np.empty(2 * B, dtype)
    bumped = top.copy()
    k1, k2, b1, b2 = keys[:B], keys[B:], bumped[:B], bumped[B:]
    off1, off2 = off[:B], off[B:]
    # the last step only moves row 1's last bump into row 2
    for j, x in enumerate(itertools.chain(P, [np.full(B, N, P.dtype)])):
        if j % K == 0 and (R[W - K - 1::W] != top).any():
            grown = np.repeat(top, 2 * W).reshape(2 * B, 2 * W)
            grown[:, :W] = R.reshape(2 * B, W)
            R, W = grown.ravel(), 2 * W
        np.add(x, off1, out=k1)
        np.add(b1, B * stride, out=k2)  # row 1's block b feeds row 2's block B + b
        pos = R.searchsorted(keys)
        R.take(pos, out=bumped)
        R[pos] = keys
        if j:  # row 2's bump, N for none, where step j - 1 read its value
            np.subtract(b2, off2, out=P[j - 1])
    length = (R.reshape(2 * B, W) != top[:, None]).sum(axis=1).tolist()
    shapes = []
    for i in range(B):
        l1, l2 = length[i], length[B + i]
        shape = [l1] if l1 else []
        if l1 > bound and l2:
            shape.append(l2)
        if l2 > bound:
            bumps = P[:, i]
            shape += rsk_shape(bumps[bumps < N], bound).tolist()
        shapes.append(np.array(shape, dtype=np.int64))
    return shapes


def thinned_max_cdf(N: int, s: float, ts, trials: int, master: int,
                    stream: int = 0) -> dict:
    """CDF estimates of the rescaled largest thinned partition row.

    For each threshold t, estimates P(N^(-1/6) (mu_1 - 2 sqrt(N)) <= t) by
    averaging s^(number of rows above the threshold), i.e. with the removal
    randomness integrated out (lower variance than re-thinning per draw).
    Trial i draws its permutation from ``stream_rng(master, stream + i)``,
    as :func:`plancherel_sample` does, and builds only the rows that can
    exceed the lowest threshold.  The trials run in batches of up to
    ``_RSK_BATCH`` whose first two rows advance together
    (:func:`_rsk_lockstep`): 1.6 ms a trial at N = 10^4 over 800 trials
    (1.7 ms over 50), against 2.5 ms for :func:`rsk_shape` alone.  Memory
    holds one batch.
    """
    _need_trials(trials)
    ts = list(ts)
    if not ts:
        raise ValueError("need at least one threshold t")
    thresholds = [2.0 * math.sqrt(N) + t * N ** (1.0 / 6.0) for t in ts]
    batch = max(1, min(_RSK_BATCH, _RSK_ENTRIES // max(N, 1)))
    acc = np.zeros((trials, len(ts)))
    draws = np.empty((N, min(batch, trials)), dtype=np.int32)
    for lo in range(0, trials, batch):
        P = draws[:, :min(batch, trials - lo)]
        for k in range(P.shape[1]):
            P[:, k] = stream_rng(master, stream + lo + k).permutation(N)
        for i, shape in enumerate(_rsk_lockstep(P, min(thresholds)), lo):
            for j, thr in enumerate(thresholds):
                above = int((shape > thr).sum())
                acc[i, j] = s ** above
    mean = acc.mean(axis=0)
    return {"t": ts, "cdf": mean.tolist(),
            "stderr": (acc.std(axis=0, ddof=1) / math.sqrt(trials)).tolist()}
