"""Ground-set containers, file ingestion, distance metrics, margin weights.

All distance computation funnels through one row kernel, which computes the
distances from one point to a range of points or to gathered ones. Each
entry comes from its own row alone, so every part of the package (graph
construction, selection, oracle, cost evaluation) sees bitwise-identical
values for the same point pair, wherever its rows sit. :func:`metric_row`
is the kernel's full-range call. :func:`fold_block` folds many centers'
rows over one block while it sits in cache, applying the kernel's monotone
finish once, and gives the ``np.minimum`` fold of those rows bit for bit.

:class:`Cover` is the one nearest-center state: each point's distance to
its nearest center, screened within a proven bound delta
(:func:`_screen_rows`, :func:`_screen_delta`), with per 1 MiB kernel block
the number of centers it holds. A block takes the centers it lacks only
when it is read, with one matrix product, and gathered points can be
brought up to date ahead of their block. Exact values are computed only
where a pick or the radius is decided, at the gathered points in question
and from the centers the screen leaves able to be nearest to each, so they
are the full fold's floats. The farthest-point traversal, the fixed-gamma
selector and the scoring of any selection all keep their distances there.
Where delta cannot separate distances (manhattan, one block, points far
from the origin) the screen is the exact fold.

Cosine and euclidean distances both rest on one row product
(``np.einsum``) per point pair. Euclidean takes
``d^2 = (|y|^2 + |x|^2) - 2 y.x`` from the cached squared row norms; an
entry where that form cancels (``d^2`` at most :data:`NEAR` times
``|y|^2 + |x|^2``) is recomputed exactly from the difference ``y - x``, so
identical rows are at distance exactly 0 and every other distance is within
a relative ``(dim + 2) * eps / NEAR`` of the true one.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyCenters,
    EmptyInput,
    MalformedValue,
    NonFiniteValue,
    ProbabilityOutOfRange,
    RaggedRow,
    RowSumError,
    TooFewClasses,
    TruncatedInput,
    UnknownMetric,
    ZeroVectorCosine,
)

# DistanceMetric values accepted everywhere a metric is passed.
METRICS = ("cosine-distance", "euclidean", "manhattan")

# Largest |row sum - 1| a probability row may show.
ROW_SUM_TOL = 1e-6


def _as_readonly_f64(values, ndim: int) -> np.ndarray:
    """Contiguous read-only float64 array of ``values`` with ``ndim`` axes.

    An array the caller can still write is copied rather than frozen in
    place; a read-only one (the loaders hand over theirs that way) is kept.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    # a fresh conversion owns its data; anything else is the caller's memory
    if arr.flags.writeable and (arr is values or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    if arr.ndim != ndim:
        raise MalformedValue(expected_ndim=ndim, got=arr.ndim)
    return arr


@dataclass
class EmbeddingSet:
    """Feature matrix of shape (n, dim), float64, read-only after init."""

    features: np.ndarray

    def __post_init__(self):
        feats = _as_readonly_f64(self.features, 2)
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise EmptyInput(rows=feats.shape[0], cols=feats.shape[1])
        if not np.isfinite(feats).all():
            bad = int(np.argwhere(~np.isfinite(feats).all(axis=1))[0, 0])
            raise NonFiniteValue(row=bad)
        self.features = feats
        self._sq_norms = None
        self._norms = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def sq_norms(self) -> np.ndarray:
        """Squared row L2 norms, computed once and cached."""
        if self._sq_norms is None:
            f = self.features
            sq = np.einsum("ij,ij->i", f, f)
            sq.setflags(write=False)
            self._sq_norms = sq
        return self._sq_norms

    def norms(self) -> np.ndarray:
        """Row L2 norms, computed once and cached."""
        if self._norms is None:
            nrm = np.sqrt(self.sq_norms())
            nrm.setflags(write=False)
            self._norms = nrm
        return self._norms

    def subset(self, indices) -> "EmbeddingSet":
        return EmbeddingSet(self.features[np.asarray(indices, dtype=np.int64)])


@dataclass
class ProbabilityMatrix:
    """Per-point class probabilities, shape (n, L), rows summing to 1.

    Row sums are checked within :data:`ROW_SUM_TOL`; entries must lie in
    [0, 1].
    """

    values: np.ndarray

    def __post_init__(self):
        vals = _as_readonly_f64(self.values, 2)
        if vals.shape[0] < 1:
            raise EmptyInput(rows=0)
        if vals.shape[1] < 2:
            raise TooFewClasses(classes=vals.shape[1])
        if not np.isfinite(vals).all():
            bad = int(np.argwhere(~np.isfinite(vals).all(axis=1))[0, 0])
            raise NonFiniteValue(row=bad)
        out = (vals < 0.0) | (vals > 1.0)
        if out.any():
            bad = int(np.argwhere(out.any(axis=1))[0, 0])
            raise ProbabilityOutOfRange(row=bad)
        sums = vals.sum(axis=1)
        off = np.abs(sums - 1.0) > ROW_SUM_TOL
        if off.any():
            bad = int(np.argmax(off))
            raise RowSumError(row=bad, sum=float(sums[bad]))
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class WeightVector:
    """Per-point selection weights in [0, 1], shape (n,)."""

    values: np.ndarray

    def __post_init__(self):
        vals = _as_readonly_f64(self.values, 1)
        if vals.shape[0] < 1:
            raise EmptyInput(rows=0)
        if not np.isfinite(vals).all():
            raise NonFiniteValue(row=int(np.argmax(~np.isfinite(vals))))
        if (vals < 0.0).any() or (vals > 1.0).any():
            bad = int(np.argmax((vals < 0.0) | (vals > 1.0)))
            raise ProbabilityOutOfRange(row=bad)
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def subset(self, indices) -> "WeightVector":
        return WeightVector(self.values[np.asarray(indices, dtype=np.int64)])


def margin_weights(probs: ProbabilityMatrix) -> WeightVector:
    """Weight each point by top probability minus second probability.

    A confidently classified point gets weight near 1, a point whose top two
    classes tie gets weight 0. Invariant to permuting columns within a row.
    """
    v = probs.values
    part = np.partition(v, v.shape[1] - 2, axis=1)
    return WeightVector(part[:, -1] - part[:, -2])


def _cosine_norm_check(norms: np.ndarray) -> None:
    zero = norms == 0.0
    if zero.any():
        raise ZeroVectorCosine(index=int(np.argmax(zero)))


# The row kernel reads the feature matrix in blocks of about this many bytes,
# counted from row 0, so that the temporaries of a read stay small. Each entry
# is computed from its own row alone, so a pair's distance is the same float
# at any row position; the grid is the unit of lazy reads, the blocks whose
# nearest-center distances :class:`Cover` brings up to date one at a time.
BLOCK_BYTES = 1 << 20


def block_rows(emb: EmbeddingSet) -> int:
    """Rows per block of the row kernel."""
    return max(1, BLOCK_BYTES // (8 * emb.dim))


# A euclidean entry whose squared distance comes out at most NEAR times
# |y|^2 + |x|^2 is recomputed from the difference y - x. The norm form's
# rounding error is at most about (2 * dim + 2) * eps * (|y|^2 + |x|^2), so
# outside that band it is at most (2 * dim + 2) * eps / NEAR of d^2, and the
# square root halves it: each distance is within a relative
# (dim + 2) * eps / NEAR of the true one (about 1.5e-11 at dim 64). Inputs
# whose spread is tiny next to their offset from the origin put most entries
# in the band; they stay exact but gain no speed.
NEAR = 2.0 ** -10


def _raw_block(emb: EmbeddingSet, metric: str, i: int, lo: int, hi: int,
               points: np.ndarray | None = None) -> np.ndarray:
    """Point i's distances to points lo..hi-1 (or ``points[lo:hi]``)
    before their monotone finish.

    Every entry comes from its own row alone, and its product
    (``np.einsum``, unlike a BLAS matrix-vector product, rounds a row the
    same at any place and alignment) in one fixed order, so a pair gets the
    same bits at any row position and in a gathered read. Rows are read a
    kernel block at a time. Cosine gives the scaled product
    ``y.x / (|y| |x|)``, which :func:`_finish` turns into
    ``1 - clip(...)``, a non-increasing map. Euclidean forms the squared
    distance ``(|y|^2 + |x|^2) - 2 y.x`` and recomputes every entry in the
    :data:`NEAR` band (and any that overflowed) as the exact sum of squared
    differences; :func:`_finish` takes its square root, a non-decreasing
    map. Manhattan needs no finish. It does not validate the metric or the
    cosine norms; its callers do that once per call of their own.
    """
    f = emb.features
    x = f[i]
    d = np.empty(hi - lo, dtype=np.float64)
    step = block_rows(emb)
    sq = emb.sq_norms() if metric == "euclidean" else None
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        rows = slice(a, b) if points is None else points[a:b]
        part, block = d[a - lo:b - lo], f[rows]
        if metric == "manhattan":
            np.abs(block - x).sum(axis=1, out=part)
            continue
        np.einsum("ij,j->i", block, x, out=part)
        if metric == "euclidean":
            s = sq[rows] + sq[i]
            part *= -2.0
            part += s
            # "not above" also routes an overflowed (inf or nan) entry here
            near = np.flatnonzero(~(part > NEAR * s))
            if near.size:
                diff = block[near] - x
                part[near] = np.einsum("ij,ij->i", diff, diff)
        else:
            norms = emb.norms()
            part /= norms[rows] * norms[i]
    return d


def _finish(metric: str, d: np.ndarray) -> None:
    """Turn :func:`_raw_block` values into distances, in place."""
    if metric == "cosine-distance":
        # np.clip's bits, without its Python layers on short blocks
        np.minimum(np.maximum(d, -1.0, out=d), 1.0, out=d)
        np.subtract(1.0, d, out=d)
    elif metric == "euclidean":
        np.sqrt(d, out=d)


def _row_block(emb: EmbeddingSet, metric: str, i: int, lo: int, hi: int,
               points: np.ndarray | None = None) -> np.ndarray:
    """Distances from point i to points lo..hi-1 (or ``points[lo:hi]``),
    d(i, i) forced to exactly 0.

    The shared row kernel: :func:`_raw_block` and its finish. Identical rows
    come out at exactly 0 for euclidean, since the difference form is exact.
    """
    d = _raw_block(emb, metric, i, lo, hi, points)
    _finish(metric, d)
    if points is not None:
        d[points[lo:hi] == i] = 0.0
    elif lo <= i < hi:
        d[i - lo] = 0.0
    return d


def fold_block(emb: EmbeddingSet, metric: str, centers, lo: int, hi: int,
               out: np.ndarray) -> None:
    """Fold into ``out``, in place, each point of lo..hi-1's distance to its
    nearest center.

    Bit for bit ``np.minimum`` folded over ``out`` and the :func:`_row_block`
    rows of ``centers``. Rounding is monotone and the finish of
    :func:`_raw_block` is monotone, so the minimum of finished rows is the
    finish of the extreme raw value (the largest scaled product for cosine,
    the smallest squared distance for euclidean): the fold applies the
    finish and the ``d(c, c) = 0`` of each center in the range once, not
    once per center. A NaN breaks that order; only cosine rows whose norms
    overflow or underflow give one, and a block that holds one is folded
    from rows. It does not validate the metric or the cosine norms.
    """
    idx = np.asarray(centers, dtype=np.int64).reshape(-1)
    extreme = np.maximum if metric == "cosine-distance" else np.minimum
    acc = _raw_block(emb, metric, int(idx[0]), lo, hi)
    for c in idx[1:]:
        extreme(acc, _raw_block(emb, metric, int(c), lo, hi), out=acc)
    if np.isnan(acc).any():
        rows = (_row_block(emb, metric, int(c), lo, hi) for c in idx)
        acc = next(rows)
        for row in rows:
            np.minimum(acc, row, out=acc)
    else:
        _finish(metric, acc)
        acc[idx[(lo <= idx) & (idx < hi)] - lo] = 0.0
    np.minimum(out, acc, out=out)


def _check_rows(emb: EmbeddingSet, metric: str) -> None:
    if metric not in METRICS:
        raise UnknownMetric(metric=metric)
    if metric == "cosine-distance":
        _cosine_norm_check(emb.norms())


def numeric_distances(emb: EmbeddingSet, metric: str) -> bool:
    """False where a kernel distance can be NaN: cosine with a squared row
    norm outside [2^-900, 2^900].

    Inside that range a product ``y.x`` and its partial sums stay below
    about ``|y| |x|`` and a norm product is normal, so every cosine distance
    is a number. Euclidean and manhattan overflow only to inf, and an
    overflowed squared distance is recomputed as a sum of squares.
    """
    if metric != "cosine-distance":
        return True
    sq = emb.sq_norms()
    return bool(sq.min() >= 2.0 ** -900 and sq.max() <= 2.0 ** 900)


def metric_row(emb: EmbeddingSet, metric: str, i: int) -> np.ndarray:
    """Distances from point i to every point, d[i] forced to exactly 0.

    The full-range call of the row kernel. Cosine mode validates that no row
    of the set is the zero vector, so any operation built on this kernel is
    total or raises ZeroVectorCosine.
    """
    _check_rows(emb, metric)
    return _row_block(emb, metric, int(i), 0, emb.n)


# The screen forms its matrix products about this many bytes at a time.
# Bigger chunks pay: 64 KiB left 20-row products at 399 centers, and 256 KiB
# took the covering radius from 130 to 92 ms on 50k x 32 gaussian clusters
# with 399 centers and from 85 to 71 ms on a 100k x 64 cosine cube with 99
# (one BLAS thread, same radius bits), for about 0.2 MiB more resident memory.
SCREEN_BYTES = 1 << 18

# A screen whose delta is more than this fraction of the first center's
# farthest distance is off (delta 0): it cannot tell the distances near the
# top apart, and the points and centers it leaves open cost more exact reads
# than the blocks' folds. On 50k x 32 unit gaussians shifted by s (farthest
# distance 11), the traversal with k = 100 took 0.39 against 0.70 s with the
# screen at s = 5e3 (ratio 555), the same at 7e3 (ratio 396) and 0.88
# against 0.60 s at 1e4 (ratio 277).
SCREEN_SPREAD = 512

# Up to this many centers a screen takes a matrix-vector product each, which
# beats a matrix product there (40 against 63 us at 2 centers).
_MATVEC_CENTERS = 2

# Centers per screen pass of the covering radius, after each of which the
# points that cannot hold the radius drop out: 16 took 25 ms on the cube's
# 100 lightest points and 19 ms on 400 picks of 50k x 32 clusters, against
# 33 and 29 ms at 8, 34 and 16 ms at 64 and 43 and 69 ms with one pass.
_RADIUS_GROUP = 16


def _screen_delta(emb: EmbeddingSet, metric: str) -> float:
    """A bound on how far a screened distance (:func:`_screen_rows`) lies
    from the row kernel's value for the same pair; inf where there is no
    screen.

    Manhattan has no product form, and cosine norms outside [2^-450, 2^450]
    leave the rounding model. Euclidean pairs are bounded through
    ``s_max = 2 max |y|^2`` over the set. Every intermediate of the
    euclidean screen is at most ``2 s_max`` in size, so where ``4 s_max``
    overflows the screen is off too.

    The bound, first order in the unit roundoff u = eps/2. A dot product of
    ``dim`` terms, in any summation order, is within ``dim * u * |y| |x|``
    of its value, and a cached squared norm within ``dim * u`` of its value
    relatively.

    - cosine: the kernel's ``1 - clip(y.x / (|y| |x|))`` and the screen's
      ``1 - clip((y . c/|c|) / |y|)`` share the cached norms, and each is
      within ``(2 dim + 6) u`` of the true distance, so they differ by at
      most ``(2 dim + 6) eps``. Taking ``8 (dim + 4) eps`` leaves 4x.
    - euclidean: with ``S = |y|^2 + |c|^2`` the kernel's squared distance
      (norm form or exact difference) is within ``(2 dim + 6) u S`` of the
      true one and the screen's ``(|c|^2 - 2 y.c) + |y|^2`` within
      ``(2 dim + 4) u S``; ``|sqrt(a) - sqrt(b)| <= sqrt(|a - b|)`` turns
      their ``(2 dim + 5) eps S`` into a distance bound, and each rounding in
      the subnormal range adds at most 2^-1075. Four times its square root,
      at ``S = s_max``, is the bound.

    A minimum over centers (and over exact distances) and a maximum over
    rows are 1-Lipschitz, so a screened nearest-center distance, and a
    block's largest one, are within the bound of the kernel's. The 4x margin
    also covers the second-order terms and the rounding of the comparisons
    the callers make with ``screened -+ delta``.
    """
    eps = np.finfo(np.float64).eps
    dim = emb.dim
    if metric == "cosine-distance" and numeric_distances(emb, metric):
        return 8.0 * (dim + 4) * eps
    if metric == "euclidean":
        s_max = 2.0 * float(emb.sq_norms().max())
        if np.isfinite(4.0 * s_max):
            return float(4.0 * np.sqrt((2 * dim + 5)
                                       * (eps * s_max + 2.0 ** -1074)))
    return np.inf


def _product_form(emb: EmbeddingSet, metric: str,
                  idx) -> tuple[np.ndarray, np.ndarray]:
    """Centers ``idx`` as the screen's matrix-product columns and shifts:
    normalised centers and zeros for cosine, ``-2 C`` and ``|c|^2`` for
    euclidean."""
    f = emb.features
    if metric == "cosine-distance":
        return f[idx] / emb.norms()[idx, None], np.zeros(len(idx))
    return -2.0 * f[idx], emb.sq_norms()[idx]


def _screen_chunks(emb: EmbeddingSet, cols: np.ndarray, lo: int, hi: int):
    """(g0, g1, a, b): center groups ``cols[g0:g1]`` and row ranges a..b-1
    whose products, and gathered rows, stay within :data:`SCREEN_BYTES`. A
    group keeps at least 64 rows per product."""
    width = max(1, SCREEN_BYTES // (8 * 64))
    for g in range(0, len(cols), width):
        m = min(width, len(cols) - g)
        step = max(1, SCREEN_BYTES // (8 * max(m, emb.dim)))
        for a in range(lo, hi, step):
            yield g, g + m, a, min(a + step, hi)


def _screen_finish(emb: EmbeddingSet, metric: str, s: np.ndarray,
                   rows) -> None:
    """Turn products ``y.c/|c|`` (cosine) or ``|c|^2 - 2 y.c`` (euclidean)
    of points ``rows``, along the last axis, into screened distances, in
    place: ``1 - clip(. / |y|)`` or ``sqrt(max(. + |y|^2, 0))``."""
    if metric == "cosine-distance":
        s /= emb.norms()[rows]
        # np.clip's bits, without its Python layers on short screens
        np.minimum(np.maximum(s, -1.0, out=s), 1.0, out=s)
        np.subtract(1.0, s, out=s)
    else:
        s += emb.sq_norms()[rows]
        np.maximum(s, 0.0, out=s)
        np.sqrt(s, out=s)


def _screen_rows(emb: EmbeddingSet, metric: str, lo: int, hi: int,
                 cols: np.ndarray, shift: np.ndarray, out: np.ndarray,
                 points: np.ndarray | None = None) -> None:
    """Fold into ``out`` the screened distance from each point lo..hi-1
    (or ``points[lo:hi]``) to its nearest center, given in
    :func:`_product_form`.

    One product per chunk (:func:`_screen_chunks`), ``cols @ rows.T``, whose
    columns reduce faster than the rows of ``rows @ cols.T`` (44 against
    58 ms for 99 centers over 100k x 64); up to :data:`_MATVEC_CENTERS`
    centers take a matrix-vector product each instead. Cosine keeps each
    point's largest product and euclidean its smallest before
    :func:`_screen_finish`; both finishes are monotone, so each result is
    within :func:`_screen_delta` of the row kernel's fold.
    """
    f = emb.features
    cosine = metric == "cosine-distance"
    extreme = np.maximum if cosine else np.minimum
    for g0, g1, a, b in _screen_chunks(emb, cols, lo, hi):
        rows = slice(a, b) if points is None else points[a:b]
        block = f[rows]
        if g1 - g0 > _MATVEC_CENTERS:
            prod = cols[g0:g1] @ block.T
            if not cosine:
                prod += shift[g0:g1, None]
            near = extreme.reduce(prod, axis=0)
        else:
            near = None
            for g in range(g0, g1):
                v = block @ cols[g]
                if not cosine:
                    v += shift[g]
                near = v if near is None else extreme(near, v, out=near)
        _screen_finish(emb, metric, near, rows)
        part = out[a - lo:b - lo]
        np.minimum(part, near, out=part)


class Cover:
    """Each point's distance to its nearest center, brought up to date a
    kernel block at a time when the block is read.

    ``near`` starts as the first center's :func:`metric_row`, which
    validates the metric and the cosine norms once, before any other
    distance, or as a copy of that row that the caller hands over as
    ``row``. ``screened[b]`` counts the leading ``centers`` that block b of
    it holds. The constructor's other centers and :meth:`add` read
    nothing; :meth:`screen` brings a block up to date with one matrix
    product for the centers it lacks (:func:`_screen_rows`), taken from
    ``cols`` and ``shift``, every center in product form
    (:func:`_product_form`; rows past the last center are room to grow).
    Each value of ``near`` is then within ``delta`` (:func:`_screen_delta`)
    of ``np.minimum`` folded over every center's :func:`metric_row`, and
    :meth:`exact` gives that fold's floats at any points. :meth:`gather`
    brings gathered points up to date the same way, from a center count the
    caller keeps for them, so those points can run ahead of
    ``screened[b]``; a later :meth:`screen` of their block folds their
    centers again, which leaves them as they were.

    Where the screen cannot tell distances apart (a ``delta`` of more than
    1/:data:`SCREEN_SPREAD` of the first center's farthest distance, a
    single block, or no screen at all), ``delta`` is 0 and :meth:`screen`
    folds exactly (:func:`fold_block`): a block brought up to date then
    holds the fold bit for bit, whatever reads came between the adds.
    """

    def __init__(self, emb: EmbeddingSet, metric: str, centers,
                 row: np.ndarray | None = None):
        self.emb, self.metric = emb, metric
        self.centers = [int(c) for c in centers]
        if not self.centers:
            raise EmptyCenters()
        self.near = (metric_row(emb, metric, self.centers[0]) if row is None
                     else row)
        self.step = block_rows(emb)
        self.screened = np.ones(-(-emb.n // self.step), dtype=np.int64)
        # one block holds every maximum, so a screen cannot spare its reads
        delta = (_screen_delta(emb, metric) if self.screened.size > 1
                 else np.inf)
        # written so that a NaN row turns the screen off
        on = delta < np.inf and SCREEN_SPREAD * delta <= self.near.max()
        self.delta = delta if on else 0.0
        if on:
            self.cols, self.shift = _product_form(emb, metric, self.centers)

    def add(self, c: int) -> None:
        """Make point c a center."""
        self.centers.append(int(c))
        if not self.delta:
            return
        m = len(self.centers)
        if m > len(self.cols):      # double the room
            self.cols = np.concatenate([self.cols, self.cols])
            self.shift = np.concatenate([self.shift, self.shift])
        col, shift = _product_form(self.emb, self.metric, [c])
        self.cols[m - 1], self.shift[m - 1] = col[0], shift[0]

    def screen(self, b: int) -> np.ndarray:
        """Kernel block b of ``near``, brought up to date, as a view."""
        m, lo, first = len(self.centers), b * self.step, self.screened[b]
        s = self.near[lo:lo + self.step]
        if first < m:
            if self.delta:
                _screen_rows(self.emb, self.metric, lo, lo + s.size,
                             self.cols[first:m], self.shift[first:m], s)
            else:
                fold_block(self.emb, self.metric, self.centers[first:], lo,
                           lo + s.size, s)
            self.screened[b] = m
        return s

    def gather(self, points: np.ndarray, first: int) -> np.ndarray:
        """``near`` at ``points``, which hold the leading ``first`` centers,
        brought up to date and returned as a copy.

        The same fold as :meth:`screen`, over the gathered points: one
        :func:`_screen_rows` product where ``delta`` is set, and otherwise
        the gathered row kernel of each center they lack, folded with
        ``np.minimum``. Each entry comes from its own row alone, so the
        latter is :func:`fold_block`'s floats bit for bit.
        """
        s = self.near[points]
        m = len(self.centers)
        if first < m and points.size:
            if self.delta:
                _screen_rows(self.emb, self.metric, 0, points.size,
                             self.cols[first:m], self.shift[first:m], s,
                             points)
            else:
                for c in self.centers[first:]:
                    np.minimum(s, _row_block(self.emb, self.metric, c, 0,
                                             points.size, points), out=s)
            self.near[points] = s
        return s

    def exact(self, points: np.ndarray,
              near: np.ndarray | None) -> np.ndarray:
        """The nearest-center distances of ``points``, bit for bit
        ``np.minimum`` folded over every center's :func:`metric_row` there.

        With ``delta`` 0 the points' blocks are brought up to date. Otherwise
        ``near`` holds the points' screened distances to every center, and
        of each point's centers only those screened within ``2 delta`` of its
        ``near`` are read, from the gathered rows: the nearest center's is
        within ``delta`` of the exact distance, which is within ``delta`` of
        ``near``. Every other center is farther, so the minimum is the same
        float.
        """
        if not self.delta:
            read = np.zeros(self.screened.size, dtype=bool)
            read[points // self.step] = True
            for b in np.flatnonzero(read):
                self.screen(b)
            return self.near[points]
        emb, metric, m = self.emb, self.metric, len(self.centers)
        cols, limit = self.cols[:m], near + 2.0 * self.delta
        d = np.full(points.size, np.inf)
        for g0, g1, a, b in _screen_chunks(emb, cols, 0, points.size):
            rows = points[a:b]
            s = cols[g0:g1] @ emb.features[rows].T
            if metric != "cosine-distance":
                s += self.shift[g0:g1, None]
            _screen_finish(emb, metric, s, rows)
            hits = s <= limit[a:b]
            for g in np.flatnonzero(hits.any(axis=1)):
                at = a + np.flatnonzero(hits[g])
                row = _row_block(emb, metric, self.centers[g0 + g], 0, at.size,
                                 points[at])
                d[at] = np.minimum(d[at], row)
        return d

    def radius(self) -> float:
        """Distance from the farthest point to its nearest center, bit for
        bit ``np.minimum`` folded over every center's :func:`metric_row`
        followed by ``.max()``.

        With ``delta`` 0 every block is brought up to date. Otherwise blocks
        go in order, each screened :data:`_RADIUS_GROUP` centers at a time
        from the distances it holds, and after each group a point whose
        screened distance plus ``delta`` falls below ``lower``, the largest
        distance some point is known to reach, is dropped: it cannot hold
        the maximum. The points left, from every block, are dropped the same
        way as ``lower`` rises, and the exact distances of the survivors
        (:meth:`exact`) give the maximum.
        """
        m, step, n, delta = len(self.centers), self.step, self.emb.n, self.delta
        if not delta:
            return float(np.max([self.screen(b).max()
                                 for b in range(self.screened.size)]))
        lower = -np.inf
        kept_points, kept_near = np.empty(0, dtype=np.int64), np.empty(0)
        for b in range(self.screened.size):
            lo, hi = b * step, min(b * step + step, n)
            points, near = np.arange(lo, hi), self.near[lo:hi].copy()
            cols = self.cols[self.screened[b]:m]
            shift = self.shift[self.screened[b]:m]
            for g in range(0, len(cols), _RADIUS_GROUP):
                group = cols[g:g + _RADIUS_GROUP], shift[g:g + _RADIUS_GROUP]
                if points.size == hi - lo:  # none dropped: read in place
                    _screen_rows(self.emb, self.metric, lo, hi, *group, near)
                else:
                    _screen_rows(self.emb, self.metric, 0, points.size,
                                 *group, near, points)
                keep = near + delta >= lower
                points, near = points[keep], near[keep]
            lower = max(lower, float(near.max(initial=-np.inf)) - delta)
            kept_points = np.concatenate([kept_points, points])
            kept_near = np.concatenate([kept_near, near])
            keep = kept_near + delta >= lower
            kept_points, kept_near = kept_points[keep], kept_near[keep]
        return float(self.exact(kept_points, kept_near).max())


def distance_matrix(emb: EmbeddingSet, metric: str) -> np.ndarray:
    """Full (n, n) matrix assembled from metric_row. Small instances only."""
    return np.stack([metric_row(emb, metric, i) for i in range(emb.n)])


# ---------------------------------------------------------------------------
# file ingestion

def _parse_csv_reference(path: Path, header: bool) -> np.ndarray:
    """The CSV format's definition, in Python.

    UTF-8 text; with ``header`` the first line is skipped unread. A line
    that strips to nothing is skipped and not counted; every other line is a
    data row of comma-separated tokens, each one a string ``float`` accepts
    (surrounding whitespace, ``1_0``, non-ASCII digits, ``nan`` and ``inf``
    included). Every row has the first row's number of tokens. Errors name
    the data row: its index among the non-blank lines after the header. A
    byte that is not UTF-8 makes its token malformed.
    """
    rows: list[list[float]] = []
    arity = -1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    for line in lines[1 if header else 0:]:
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split(",")
        if arity == -1:
            arity = len(tokens)
        elif len(tokens) != arity:
            raise RaggedRow(row=len(rows))
        vals = []
        for tok in tokens:
            try:
                vals.append(float(tok))
            except ValueError:
                # an undecodable byte is shown as its \xNN escape
                shown = tok.strip().encode("utf-8", "surrogateescape")
                raise MalformedValue(
                    row=len(rows),
                    token=shown.decode("utf-8", "backslashreplace")) from None
        rows.append(vals)
    if not rows:
        raise EmptyInput(path=str(path))
    return np.array(rows, dtype=np.float64)


def _parse_csv(path: Path, header: bool) -> np.ndarray:
    """Parse a CSV file with numpy's C reader, or else with the reference.

    ``np.loadtxt`` accepts a subset of :func:`_parse_csv_reference`'s
    grammar (no whitespace-only lines, no ``1_0``, ASCII digits only) and
    gives the same float for every token it accepts, as both end in
    CPython's string-to-double. Wherever it raises or finds no rows, the
    reference parses the file again, so the result and every error (row and
    token included) are the reference's.
    """
    try:
        with warnings.catch_warnings():
            # no rows is the reference's EmptyInput, not a second stderr line
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: '#' is a malformed token, not a comment
            arr = np.loadtxt(path, dtype=np.float64, delimiter=",",
                             comments=None, skiprows=1 if header else 0,
                             ndmin=2, encoding="utf-8")
    except ValueError:  # UnicodeDecodeError included
        arr = None
    if arr is None or arr.shape[0] == 0:
        return _parse_csv_reference(path, header)
    return arr


# float32 values converted per read while filling the float64 matrix
_RAW_CHUNK = BLOCK_BYTES // 4


def _parse_raw_float32(path: Path, dim: int) -> np.ndarray:
    """Little-endian float32 rows of ``dim`` values, widened to float64.

    The row count comes from the file size, and the float64 matrix is filled
    one chunk of about 1 MiB at a time, so no whole float32 copy is held.
    """
    if dim is None or dim < 1:
        raise MalformedValue(dim=dim)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % 4 != 0:
            raise TruncatedInput(bytes=size)
        values = size // 4
        if values == 0:
            raise EmptyInput(path=str(path))
        if values % dim != 0:
            raise TruncatedInput(values=values, dim=dim)
        arr = np.empty((values // dim, dim), dtype=np.float64)
        flat = arr.reshape(-1)
        for a in range(0, values, _RAW_CHUNK):
            count = min(_RAW_CHUNK, values - a)
            chunk = np.fromfile(fh, dtype="<f4", count=count)
            if chunk.size != count:  # the file shrank after its size was read
                raise TruncatedInput(bytes=4 * (a + chunk.size))
            flat[a:a + count] = chunk
    return arr


def load_matrix(path, fmt: str = "csv", dim: int | None = None,
                header: bool = False) -> np.ndarray:
    """Shared loader for embeddings, probabilities and weight columns.

    The parsed array is returned read-only, so the containers take it without
    a copy. Non-finite values pass through: each container raises
    NonFiniteValue at the first row that holds one."""
    p = Path(path)
    if fmt == "csv":
        arr = _parse_csv(p, header)
    elif fmt == "raw-float32":
        arr = _parse_raw_float32(p, dim)
    else:
        raise MalformedValue(format=fmt)
    arr.setflags(write=False)
    return arr


def load_embeddings(path, fmt: str = "csv", dim: int | None = None,
                    header: bool = False) -> EmbeddingSet:
    return EmbeddingSet(load_matrix(path, fmt, dim, header))


def load_probabilities(path, fmt: str = "csv", classes: int | None = None,
                       header: bool = False) -> ProbabilityMatrix:
    return ProbabilityMatrix(load_matrix(path, fmt, classes, header))


def load_weights(path, fmt: str = "csv", header: bool = False) -> WeightVector:
    arr = load_matrix(path, fmt, 1, header)
    if arr.ndim == 2:
        if arr.shape[1] != 1:
            raise MalformedValue(cols=arr.shape[1])
        arr = arr[:, 0]
    return WeightVector(arr)
