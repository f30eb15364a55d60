"""Ground-set containers, file ingestion, distance metrics, margin weights.

All distance computation funnels through one row kernel, which computes the
distances from one point to a range of points or to gathered ones. Each
entry comes from its own row alone, so every part of the package (graph
construction, selection, oracle, cost evaluation) sees bitwise-identical
values for the same point pair, wherever its rows sit. :func:`metric_row`
is the kernel's full-range call. The kernel takes every center it is given
over a block of rows while the block sits in cache, so :func:`fold_block`
reads each row once for many centers, applies the kernel's monotone finish
once, and gives the ``np.minimum`` fold of their rows bit for bit.

:class:`Cover` is the one nearest-center state: each point's distance to
its nearest center, screened within a proven bound delta
(:func:`_screen_rows`, :func:`_screen_delta`), and per point the number of
leading centers that distance holds. A point takes the centers it lacks
only when it is read, in a 1 MiB kernel block or gathered with other
points, with one matrix product per read. Exact values are computed only
where a pick or the radius is decided, at the gathered points in question
and from the centers the screen leaves able to be nearest to each, so they
are the full fold's floats. The farthest-point traversal, the fixed-gamma
selector and the scoring of any selection all keep their distances there.
Every read folds through one method, :meth:`Cover._fold`: a screen, or
where delta cannot separate distances (manhattan, points far from the
origin) the exact fold, whose reads are then exact values.

Cosine and euclidean distances both rest on one row product
(``np.einsum``) per point pair. Euclidean takes
``d^2 = (|y|^2 + |x|^2) - 2 y.x`` from the cached squared row norms; an
entry where that form cancels (``d^2`` at most :data:`NEAR` times
``|y|^2 + |x|^2``) is recomputed exactly from the difference ``y - x``, so
identical rows are at distance exactly 0 and every other distance is within
a relative ``(dim + 2) * eps / NEAR`` of the true one.

A ground set carries its metric. Every distance is a finite number by
construction: an :class:`EmbeddingSet` refuses, when it is made
(:func:`_check_rows`), rows whose squared norms lie above 2^900, or for
cosine below 2^-900.
"""

from __future__ import annotations

import functools
import io
import os
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyCenters,
    EmptyInput,
    MalformedValue,
    NonFiniteValue,
    NormOutOfRange,
    ProbabilityOutOfRange,
    RaggedRow,
    RowSumError,
    TooFewClasses,
    TruncatedInput,
    UnknownMetric,
    ZeroVectorCosine,
)

# The metrics an EmbeddingSet may carry.
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


def _row_blocks(arr: np.ndarray):
    """Row ranges (a, b) of ``arr`` of about :data:`BLOCK_BYTES` each."""
    step = max(1, BLOCK_BYTES // (arr.itemsize * arr.shape[1]))
    for a in range(0, arr.shape[0], step):
        yield a, min(a + step, arr.shape[0])


def _check_finite_rows(arr: np.ndarray) -> None:
    """Raise NonFiniteValue at the first row of ``arr`` that holds NaN or
    infinity, checked a block of rows at a time."""
    buf = None
    for a, b in _row_blocks(arr):
        if buf is None:
            buf = np.empty((b - a, arr.shape[1]), dtype=bool)
        finite = np.isfinite(arr[a:b], out=buf[:b - a])
        if not finite.all():
            raise NonFiniteValue(row=a + int(np.argmin(finite.all(axis=1))))


@dataclass
class EmbeddingSet:
    """Feature matrix of shape (n, dim), float64, read-only after init, and
    the metric of its distances; its rows are checked once, here."""

    features: np.ndarray
    metric: str

    def __post_init__(self):
        feats = _as_readonly_f64(self.features, 2)
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise EmptyInput(rows=feats.shape[0], cols=feats.shape[1])
        _check_finite_rows(feats)
        self.features = feats
        self._sq_norms = None
        self._norms = None
        _check_rows(self)

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
        return EmbeddingSet(self.features[np.asarray(indices, dtype=np.int64)],
                            self.metric)


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
        _check_finite_rows(vals)
        # no n x L temporary unless a row is bad
        if vals.min() < 0.0 or vals.max() > 1.0:
            out = ((vals < 0.0) | (vals > 1.0)).any(axis=1)
            raise ProbabilityOutOfRange(row=int(np.argmax(out)))
        sums = vals.sum(axis=1)
        off = np.subtract(sums, 1.0)
        np.abs(off, out=off)
        if off.max() > ROW_SUM_TOL:
            bad = int(np.argmax(off > ROW_SUM_TOL))
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
    w = np.empty(v.shape[0])
    # a block of rows at a time, so that no partitioned copy of v is held
    for a, b in _row_blocks(v):
        part = np.partition(v[a:b], v.shape[1] - 2, axis=1)
        np.subtract(part[:, -1], part[:, -2], out=w[a:b])
    return WeightVector(w)


# The row kernel reads the feature matrix in blocks of about this many bytes,
# counted from row 0, so that the temporaries of a read stay small. Each entry
# is computed from its own row alone, so a pair's distance is the same float
# at any row position; the grid is the unit of :meth:`Cover.screen`, which
# brings one block's nearest-center distances up to date.
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


def _raw_block(emb: EmbeddingSet, centers: list[int], lo: int, hi: int,
               points: np.ndarray | None = None) -> np.ndarray:
    """The extreme over ``centers`` of their distances to points lo..hi-1
    (or ``points[lo:hi]``) before their monotone finish: the largest value
    for cosine, the smallest for the other metrics.

    Every entry comes from its own row alone, and its product
    (``np.einsum``, unlike a BLAS matrix-vector product, rounds a row the
    same at any place and alignment) in one fixed order, so a pair gets the
    same bits at any row position and in a gathered read. Rows are read a
    kernel block at a time, and every center is taken over a block while
    it is in cache, so a gathered read indexes its rows once. Cosine gives
    the scaled product ``y.x / (|y| |x|)``, which :func:`_finish` turns
    into ``1 - clip(...)``, a non-increasing map. Euclidean forms the
    squared distance ``(|y|^2 + |x|^2) - 2 y.x`` and recomputes every entry
    in the :data:`NEAR` band as the exact sum of squared differences;
    :func:`_finish` takes its square root, a non-decreasing map. Manhattan
    needs no finish.
    """
    f, metric = emb.features, emb.metric
    d = np.empty(hi - lo, dtype=np.float64)
    step = block_rows(emb)
    cosine = metric == "cosine-distance"
    extreme = np.maximum if cosine else np.minimum
    scale = emb.norms() if cosine else emb.sq_norms()
    # a block's entries of each later center, and manhattan's |y - x| terms
    other = np.empty(min(step, hi - lo))
    buf = np.empty((other.size, emb.dim)) if metric == "manhattan" else None
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        rows = slice(a, b) if points is None else points[a:b]
        acc, block, at = d[a - lo:b - lo], f[rows], scale[rows]
        for j, c in enumerate(centers):
            x, part = f[c], other[:b - a] if j else acc
            if metric == "manhattan":
                terms = buf[:b - a]
                np.subtract(block, x, out=terms)
                np.abs(terms, out=terms)
                terms.sum(axis=1, out=part)
            elif cosine:
                np.einsum("ij,j->i", block, x, out=part)
                part /= at * scale[c]
            else:
                np.einsum("ij,j->i", block, x, out=part)
                s = at + scale[c]
                part *= -2.0
                part += s
                near = np.flatnonzero(part <= NEAR * s)
                if near.size:
                    diff = block[near] - x
                    part[near] = np.einsum("ij,ij->i", diff, diff)
            if j:
                extreme(acc, part, out=acc)
    return d


def _finish(metric: str, d: np.ndarray) -> None:
    """Turn :func:`_raw_block` values into distances, in place."""
    if metric == "cosine-distance":
        # np.clip's bits, without its Python layers on short blocks
        np.minimum(np.maximum(d, -1.0, out=d), 1.0, out=d)
        np.subtract(1.0, d, out=d)
    elif metric == "euclidean":
        np.sqrt(d, out=d)


def _row_block(emb: EmbeddingSet, i: int, lo: int, hi: int,
               points: np.ndarray | None = None) -> np.ndarray:
    """Distances from point i to points lo..hi-1 (or ``points[lo:hi]``),
    d(i, i) forced to exactly 0.

    The shared row kernel: :func:`_raw_block` of one center and its finish.
    Identical rows come out at exactly 0 for euclidean, since the
    difference form is exact.
    """
    d = _raw_block(emb, [i], lo, hi, points)
    _finish(emb.metric, d)
    if points is not None:
        d[points[lo:hi] == i] = 0.0
    elif lo <= i < hi:
        d[i - lo] = 0.0
    return d


def fold_block(emb: EmbeddingSet, centers, lo: int, hi: int,
               out: np.ndarray, points: np.ndarray | None = None) -> None:
    """Fold into ``out``, in place, each point of lo..hi-1's (or
    ``points[lo:hi]``'s) distance to its nearest center.

    Bit for bit ``np.minimum`` folded over ``out`` and the :func:`_row_block`
    rows of ``centers``. Rounding is monotone and the finish of
    :func:`_raw_block` is monotone, so the minimum of finished rows is the
    finish of the extreme raw value (the largest scaled product for cosine,
    the smallest squared distance for euclidean), which one
    :func:`_raw_block` call takes over every center: the fold reads each
    row once, and applies the finish and the ``d(c, c) = 0`` of each center
    among its points once, not once per center.
    """
    idx = np.asarray(centers, dtype=np.int64).reshape(-1)
    acc = _raw_block(emb, idx.tolist(), lo, hi, points)
    _finish(emb.metric, acc)
    if points is None:
        acc[idx[(lo <= idx) & (idx < hi)] - lo] = 0.0
    else:
        # the points that are centers; np.isin costs 30 us a call
        rows, at = points[lo:hi], np.sort(idx)
        acc[at[np.searchsorted(at, rows) % at.size] == rows] = 0.0
    np.minimum(out, acc, out=out)


def _check_rows(emb: EmbeddingSet) -> None:
    """Refuse an unknown metric, and rows on which a distance could fail to
    be a finite number: at the first row whose cached squared norm lies
    above ``2^900``, or for cosine below ``2^-900``, raise ZeroVectorCosine
    if the row is all zero and NormOutOfRange otherwise.

    The range keeps every value the row kernel and the screen form far
    below the largest double, about ``2^1024``. With ``|y|, |x| <= 2^450``
    (rounding moves each bound by a factor of about ``1 + dim * eps``):

    - a product ``y.x`` and each of its partial sums is at most
      ``|y| |x| <= 2^900`` in size;
    - euclidean: the norm form is at most ``2^902``, as is the exact sum of
      squared differences, ``|y - x|^2 <= (|y| + |x|)^2``; the screen's
      ``s_max = 2 max |y|^2`` is at most ``2^901`` and its intermediates at
      most ``2 s_max``;
    - manhattan: ``sum |y_j - x_j| <= sqrt(dim) |y - x| <= sqrt(dim) 2^451``;
    - cosine: the norms and their products are normal floats, at least
      ``2^-450`` and ``2^-900``, so every division is of a finite number by
      a nonzero one. A product term that underflows is off by at most
      ``2^-1074``, under ``2^-174`` of ``|y| |x|``, inside the rounding
      model of :func:`_screen_delta`.
    """
    if emb.metric not in METRICS:
        raise UnknownMetric(metric=emb.metric)
    sq = emb.sq_norms()
    hi = 2.0 ** 900
    cosine = emb.metric == "cosine-distance"
    lo = 2.0 ** -900 if cosine else 0.0
    if sq.max() <= hi and sq.min() >= lo:
        return
    row = int(np.argmax((sq > hi) | (sq < lo)))
    if cosine and not emb.features[row].any():
        raise ZeroVectorCosine(index=row)
    raise NormOutOfRange(row=row)


def metric_row(emb: EmbeddingSet, i: int) -> np.ndarray:
    """Distances from point i to every point, d[i] forced to exactly 0.

    The full-range call of the row kernel."""
    return _row_block(emb, int(i), 0, emb.n)


# The screen forms its matrix products about this many bytes at a time.
# Bigger chunks pay: 64 KiB left 20-row products at 399 centers, and 256 KiB
# took the covering radius from 130 to 92 ms on 50k x 32 gaussian clusters
# with 399 centers and from 85 to 71 ms on a 100k x 64 cosine cube with 99
# (one BLAS thread, same radius bits), for about 0.2 MiB more resident memory.
SCREEN_BYTES = 1 << 18

# A screen whose delta is more than this fraction of the first center's
# farthest distance is off (delta 0): it cannot tell the distances near the
# top apart, and the points and centers it leaves open cost more exact reads
# than the exact folds. On 50k x 32 unit gaussians shifted by s (farthest
# distance 11; fresh processes, one BLAS thread), the traversal with k = 100
# took 0.05-0.07 s screened against 0.32-0.33 s unscreened at s = 5e3, 7e3
# and 1e4 (ratios 555, 396 and 277), 0.15 against 0.30 s at 4.33e4 (ratio
# 64) and 0.72 against 0.33 s at 1e5 (ratio 28). A fixed-gamma run with
# k = 400 took 0.04-0.05 s screened against 1.2-1.3 s at every one of those
# shifts, and 1.8 against 1.3 s at 3e5 (ratio 9). Picks and radius bits are
# the same either way.
SCREEN_SPREAD = 64

# Centers per screen pass of the covering radius, after each of which the
# points that cannot hold the radius drop out: 16 took 25 ms on the cube's
# 100 lightest points and 19 ms on 400 picks of 50k x 32 clusters, against
# 33 and 29 ms at 8, 34 and 16 ms at 64 and 43 and 69 ms with one pass.
_RADIUS_GROUP = 16


def _screen_delta(emb: EmbeddingSet) -> float:
    """A bound on how far a screened distance (:func:`_screen_rows`) lies
    from the row kernel's value for the same pair; inf for manhattan, which
    has no product form.

    The rows' squared norms lie within the range of :func:`_check_rows`,
    where no value below overflows and cosine norm products are normal
    floats. The euclidean bound rests on
    ``s_max = 2 max |y|^2`` over the set.

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
    dim, metric = emb.dim, emb.metric
    if metric == "cosine-distance":
        return 8.0 * (dim + 4) * eps
    if metric == "euclidean":
        s_max = 2.0 * float(emb.sq_norms().max())
        return float(4.0 * np.sqrt((2 * dim + 5)
                                   * (eps * s_max + 2.0 ** -1074)))
    return np.inf


def _product_form(emb: EmbeddingSet, idx) -> tuple[np.ndarray, np.ndarray]:
    """Centers ``idx`` as the screen's matrix-product columns and shifts:
    normalised centers and zeros for cosine, ``-2 C`` and ``|c|^2`` for
    euclidean."""
    f = emb.features
    if emb.metric == "cosine-distance":
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


def _screen_finish(emb: EmbeddingSet, s: np.ndarray, rows) -> None:
    """Turn products ``y.c/|c|`` (cosine) or ``|c|^2 - 2 y.c`` (euclidean)
    of points ``rows``, along the last axis, into screened distances, in
    place: ``1 - clip(. / |y|)`` or ``sqrt(max(. + |y|^2, 0))``."""
    if emb.metric == "cosine-distance":
        s /= emb.norms()[rows]
        # np.clip's bits, without its Python layers on short screens
        np.minimum(np.maximum(s, -1.0, out=s), 1.0, out=s)
        np.subtract(1.0, s, out=s)
    else:
        s += emb.sq_norms()[rows]
        np.maximum(s, 0.0, out=s)
        np.sqrt(s, out=s)


def _screen_rows(emb: EmbeddingSet, lo: int, hi: int, cols: np.ndarray,
                 shift: np.ndarray, out: np.ndarray,
                 points: np.ndarray | None = None) -> None:
    """Fold into ``out`` the screened distance from each point lo..hi-1
    (or ``points[lo:hi]``) to its nearest center, given in
    :func:`_product_form`.

    One product per chunk (:func:`_screen_chunks`), ``cols @ rows.T``, whose
    columns reduce faster than the rows of ``rows @ cols.T`` (44 against
    58 ms for 99 centers over 100k x 64). Cosine keeps each point's largest
    product and euclidean its smallest before :func:`_screen_finish`; both
    finishes are monotone, so each result is within :func:`_screen_delta`
    of the row kernel's fold.
    """
    f = emb.features
    cosine = emb.metric == "cosine-distance"
    extreme = np.maximum if cosine else np.minimum
    for g0, g1, a, b in _screen_chunks(emb, cols, lo, hi):
        rows = slice(a, b) if points is None else points[a:b]
        prod = cols[g0:g1] @ f[rows].T
        if not cosine:
            prod += shift[g0:g1, None]
        near = extreme.reduce(prod, axis=0)
        _screen_finish(emb, near, rows)
        part = out[a - lo:b - lo]
        np.minimum(part, near, out=part)


class Cover:
    """Each point's distance to its nearest center, brought up to date only
    where it is read.

    ``near`` starts as the first center's :func:`metric_row`, or as a copy
    of that row that the caller hands over as ``row``. ``held[i]`` counts
    the leading ``centers`` that ``near[i]`` holds. The constructor's other
    centers and :meth:`add` read nothing (an add given the new center's row
    folds it in). A read folds in the centers that the least current of its
    points lacks: :meth:`screen` over a kernel block, :meth:`gather` over
    any points. A point already ahead of that count takes some of its
    centers again, which leaves it within the same bound (a minimum taken
    twice). Where ``delta`` is set the fold is one matrix product
    (:func:`_screen_rows`) from ``cols`` and ``shift``, every center in
    product form (:func:`_product_form`; rows past the last center are room
    to grow), and each value of ``near`` is then within ``delta``
    (:func:`_screen_delta`) of ``np.minimum`` folded over every center's
    :func:`metric_row`; :meth:`exact` gives that fold's floats at any
    points. A set of one block is screened like any other.

    Where the screen cannot tell distances apart (a ``delta`` of more than
    1/:data:`SCREEN_SPREAD` of the first center's farthest distance, or
    manhattan, which has no screen), ``delta`` is 0 and the reads fold
    exactly (:func:`fold_block`, over a block or gathered points): a point
    brought up to date then holds the fold bit for bit, whatever reads
    came between the adds. :meth:`_fold` alone chooses between the two.
    """

    def __init__(self, emb: EmbeddingSet, centers,
                 row: np.ndarray | None = None):
        self.emb = emb
        self.centers = [int(c) for c in centers]
        if not self.centers:
            raise EmptyCenters()
        self.near = metric_row(emb, self.centers[0]) if row is None else row
        self.held = np.ones(emb.n, dtype=np.int32)
        self.step = block_rows(emb)
        self.blocks = -(-emb.n // self.step)
        delta = _screen_delta(emb)
        on = SCREEN_SPREAD * delta <= self.near.max()
        self.delta = delta if on else 0.0
        if on:
            self.cols, self.shift = _product_form(emb, self.centers)

    def add(self, c: int, row: np.ndarray | None = None) -> None:
        """Make point c a center. ``row``, c's :func:`metric_row` where the
        caller has it, is folded into ``near`` at once, and every point
        that lacked only c then holds it."""
        self.centers.append(int(c))
        m = len(self.centers)
        if row is not None:
            np.minimum(self.near, row, out=self.near)
            self.held[self.held == m - 1] = m
        if not self.delta:
            return
        if m > len(self.cols):      # double the room
            self.cols = np.concatenate([self.cols, self.cols])
            self.shift = np.concatenate([self.shift, self.shift])
        col, shift = _product_form(self.emb, [c])
        self.cols[m - 1], self.shift[m - 1] = col[0], shift[0]

    def _fold(self, first: int, last: int, lo: int, hi: int, out: np.ndarray,
              points: np.ndarray | None = None) -> None:
        """Fold centers ``first..last-1`` into ``out``, the values of points
        lo..hi-1 (or ``points[lo:hi]``): one :func:`_screen_rows` product
        where ``delta`` is set, and otherwise :func:`fold_block`, which
        gives the row fold's floats wherever its points sit."""
        if self.delta:
            _screen_rows(self.emb, lo, hi, self.cols[first:last],
                         self.shift[first:last], out, points)
        else:
            fold_block(self.emb, self.centers[first:last], lo, hi, out,
                       points)

    def screen(self, b: int) -> np.ndarray:
        """Kernel block b of ``near``, brought up to date, as a view."""
        m, lo = len(self.centers), b * self.step
        s, held = self.near[lo:lo + self.step], self.held[lo:lo + self.step]
        first = held.min()
        if first < m:
            self._fold(first, m, lo, lo + s.size, s)
            held[:] = m
        return s

    def gather(self, points: np.ndarray) -> np.ndarray:
        """``near`` at ``points``, brought up to date and returned as a
        copy: the same fold as :meth:`screen`, over the gathered points."""
        s = self.near[points]
        m = len(self.centers)
        first = self.held[points].min(initial=m)
        if first < m:
            self._fold(first, m, 0, points.size, s, points)
            self.near[points] = s
            self.held[points] = m
        return s

    def exact(self, points: np.ndarray,
              near: np.ndarray | None) -> np.ndarray:
        """The nearest-center distances of ``points``, bit for bit
        ``np.minimum`` folded over every center's :func:`metric_row` there.

        With ``delta`` 0 that is :meth:`gather`. Otherwise ``near`` holds
        the points' screened distances to every center, and of each point's
        centers only those screened within ``2 delta`` of its ``near`` are
        read, from the gathered rows: the nearest center's is within
        ``delta`` of the exact distance, which is within ``delta`` of
        ``near``. Every other center is farther, so the minimum is the same
        float.
        """
        if not self.delta:
            return self.gather(points)
        emb, m = self.emb, len(self.centers)
        cols, limit = self.cols[:m], near + 2.0 * self.delta
        d = np.full(points.size, np.inf)
        for g0, g1, a, b in _screen_chunks(emb, cols, 0, points.size):
            rows = points[a:b]
            s = cols[g0:g1] @ emb.features[rows].T
            if emb.metric != "cosine-distance":
                s += self.shift[g0:g1, None]
            _screen_finish(emb, s, rows)
            hits = s <= limit[a:b]
            for g in np.flatnonzero(hits.any(axis=1)):
                at = a + np.flatnonzero(hits[g])
                row = _row_block(emb, self.centers[g0 + g], 0, at.size,
                                 points[at])
                d[at] = np.minimum(d[at], row)
        return d

    def radius(self) -> float:
        """Distance from the farthest point to its nearest center, bit for
        bit ``np.minimum`` folded over every center's :func:`metric_row`
        followed by ``.max()``.

        Blocks go in order, each folded (:meth:`_fold`) with the centers
        its least current point lacks, :data:`_RADIUS_GROUP` at a time, and
        after each group a point whose value plus ``delta`` falls below
        ``lower``, the largest distance some point is known to reach, is
        dropped: it cannot hold the maximum. The points left, from every
        block, are dropped the same way as ``lower`` rises. With ``delta``
        0 the values are exact and the largest survivor's is the radius;
        otherwise the exact distances of the survivors (:meth:`exact`) give
        the maximum.
        """
        m, step, n, delta = len(self.centers), self.step, self.emb.n, self.delta
        lower = -np.inf
        kept_points, kept_near = np.empty(0, dtype=np.int64), np.empty(0)
        for b in range(self.blocks):
            lo, hi = b * step, min(b * step + step, n)
            points, near = np.arange(lo, hi), self.near[lo:hi].copy()
            for g in range(self.held[lo:hi].min(), m, _RADIUS_GROUP):
                last = min(g + _RADIUS_GROUP, m)
                if points.size == hi - lo:  # none dropped: read in place
                    self._fold(g, last, lo, hi, near)
                else:
                    self._fold(g, last, 0, points.size, near, points)
                keep = near + delta >= lower
                points, near = points[keep], near[keep]
            lower = max(lower, float(near.max(initial=-np.inf)) - delta)
            kept_points = np.concatenate([kept_points, points])
            kept_near = np.concatenate([kept_near, near])
            keep = kept_near + delta >= lower
            kept_points, kept_near = kept_points[keep], kept_near[keep]
        if delta:
            kept_near = self.exact(kept_points, kept_near)
        return float(kept_near.max())


def distance_matrix(emb: EmbeddingSet) -> np.ndarray:
    """Full (n, n) matrix assembled from metric_row. Small instances only."""
    return np.stack([metric_row(emb, i) for i in range(emb.n)])


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


# The decimal reader reads line-aligned chunks of about this many bytes. A
# select on a 50k x 32 CSV at %.17g peaked 4.3 MiB above the np.loadtxt
# read with 1 MiB chunks, 0.4 MiB with 256 KiB and 0.25 MiB with 64 KiB,
# where the fixed cost of each chunk (about 0.4 ms) is paid four times as
# often. Since exponents take this path, a 256 KiB chunk of %.17g values
# holds about 1.5 MiB of temporaries and a 128 KiB one about 0.65 MiB
# (tracemalloc). In fresh processes on a 2-core x86 VM, a 50k x 32 file
# parsed in about 216 ms with 80-112 KiB chunks, against 240 ms with 128 KiB
# and 269 ms with 256 KiB.
CSV_CHUNK_BYTES = 96 << 10


@functools.cache
def _pow10() -> np.ndarray | None:
    """10**0 .. 10**27 as np.longdouble, exact in a 64-bit significand
    (5**27 < 2**64); None where np.longdouble is not the x87 80-bit
    format. Checked on the first CSV read, not at import."""
    ld = np.dtype(np.longdouble)
    # the significand, its leading bit explicit, is the low 64-bit word
    if not (np.finfo(ld).nmant == 63 and ld.itemsize == 16
            and np.ones(1, ld).view(np.uint64)[0] == 1 << 63):
        return None
    return np.cumprod(np.r_[1, np.full(27, 10)].astype(ld))


# With the dots deleted, newlines and exponent marks turned to commas: a
# chunk's mantissas and exponents, one field each.
_FIELDS = bytes.maketrans(b"\neE", b",,,")


def _plain_tokens(buf: bytes, shape: tuple[int, int]):
    """The tokens of the chunk ``buf``, which ends in a newline, in the
    grammar of :func:`_decimal_chunk`: ``(M, p, start, end, long)``, or
    None where ``buf`` is not ``shape`` (rows by columns) plain decimals.

    Token i is the bytes ``start[i]:end[i]``, its mantissa digits read as
    the int64 ``M[i]`` and ``p[i]`` its power of ten. ``long`` lists the
    tokens whose mantissa may overflow int64; their ``M`` is unspecified.
    """
    a = np.frombuffer(buf, dtype=np.uint8)
    # every byte that is not a digit (one below "0" wraps to above 9):
    # separators, signs, dots, exponent marks and any other
    at = np.flatnonzero(np.subtract(a, 48, dtype=np.uint8) > 9)
    kind = a[at]
    # a field ends at a separator or an exponent mark (e or E): a token is
    # its mantissa field and, after a mark, its exponent field
    mark = (kind | 32) == 101
    ends = np.flatnonzero((kind == 44) | (kind == 10) | mark)
    sep = at[ends]
    start = np.empty_like(sep)
    start[0] = 0
    np.add(sep[:-1], 1, out=start[1:])
    first = np.empty_like(ends)
    first[0] = 0
    np.add(ends[:-1], 1, out=first[1:])
    # below "0" a field may hold only a sign as its first byte and a dot as
    # the last of them (kind[-1] is the closing newline)
    dot = kind[ends - 1] == 46
    lead = a[start]
    signed = (lead == 45) | (lead == 43)
    allowed = np.add(dot, signed, dtype=np.int64)
    if (ends - first != allowed).any():
        return None
    digits = sep - start - allowed
    if digits.min() < 1:
        return None
    end, expo = sep, None
    if mark.any():
        marked = mark[ends]
        expo = np.zeros_like(marked)    # the fields after a mark
        expo[1:] = marked[:-1]
        # an exponent holds no dot and no mark of its own
        if (expo & (dot | marked)).any():
            return None
        end = sep[~marked]
    # as many tokens as the shape holds, each line's last ending it
    rows, cols = shape
    if end.size != rows * cols or (a[end[cols - 1::cols]] != 10).any():
        return None
    m = np.fromstring(buf.translate(_FIELDS, b".")[:-1], dtype=np.int64,
                      sep=",")
    if m.size != sep.size:
        return None
    p = np.zeros_like(m)
    p[dot] = at[ends[dot] - 1] - sep[dot] + 1   # less the fraction digits
    if expo is not None:
        after = np.flatnonzero(expo)
        p[after - 1] += m[after]
        mant = ~expo
        m, p, start, signed, digits = (m[mant], p[mant], start[mant],
                                       signed[mant], digits[mant])
    # more than 18 digits may overflow int64 (10**18 < 2**63), unless there
    # are 19 and the first is a 0
    long = np.flatnonzero(digits > 18)
    if long.size:
        top = start[long] + signed[long]
        top += a[top] == 46
        long = long[(digits[long] > 19) | (a[top] != 48)]
    return m, p, start, end, long


def _decimal_chunk(buf: bytes, out: np.ndarray) -> bool:
    """Read the lines ``buf`` into ``out`` (rows by columns), each token as
    ``float`` reads it; False, with ``out`` unspecified, where the chunk is
    not plain decimals.

    Plain decimals are ``[+-]digits[.digits][(e|E)[+-]digits]`` (either
    run of mantissa digits may be empty, not both), ``out.shape[1]`` to a
    line, and no other byte. A token is the int64 mantissa ``M`` of its
    digits and the power ``p = e - f``: its exponent (0 if it has none)
    less its count of fraction digits (:func:`_plain_tokens`). While
    ``|p| <= 27``, ``M`` and ``10**|p|`` are exact in np.longdouble, so
    ``M * 10**p`` (or ``M / 10**-p``) is the decimal rounded once to a
    64-bit significand, and rounding that to double gives the decimal's
    correctly rounded double unless the first rounding landed on a midpoint
    of two doubles (low 11 significand bits 0x400). Those tokens, those
    with a larger ``|p|`` and those whose mantissa may overflow int64 are
    read again with ``float``; the sign of a ``-0`` is put back by hand.
    """
    # whitespace and CR, a file's format more often than a rare token, are
    # refused before any array is built
    if b" " in buf or b"\t" in buf or b"\r" in buf:
        return False
    if not buf.endswith(b"\n"):
        buf += b"\n"
    tokens = _plain_tokens(buf, out.shape)
    if tokens is None:
        return False
    m, p, start, end, redo = tokens
    lo, hi = p.min(), p.max()
    if lo < -27 or hi > 27:     # a power of ten beyond 10**27 is not exact
        far = (p > 27) | (p < -27)
        p[far] = 0
        redo = np.concatenate([redo, np.flatnonzero(far)])
        hi = p.max()
    ten = _pow10()
    y = m.astype(np.longdouble)
    if hi > 0:
        y *= ten[np.maximum(p, 0)]
        np.minimum(p, 0, out=p)
    y /= ten[-p]
    flat = out.reshape(-1)
    flat[:] = y
    zero = np.flatnonzero(m == 0)
    if zero.size:
        lead = np.frombuffer(buf, dtype=np.uint8)[start[zero]]
        flat[zero[lead == 45]] = -0.0
    mid = np.flatnonzero((y.view(np.uint64)[::2] & 0x7FF) == 0x400)
    redo = np.concatenate([redo, mid])
    flat[redo] = [float(buf[s:e]) for s, e in zip(start[redo].tolist(),
                                                  end[redo].tolist())]
    return True


def _loadtxt(source, skiprows: int = 0) -> np.ndarray | None:
    """``np.loadtxt``'s float64 rows of ``source``, a path read as UTF-8 or
    a text stream; None where it raises."""
    try:
        with warnings.catch_warnings():
            # no rows is the reference's EmptyInput, not a second stderr line
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: '#' is a malformed token, not a comment
            return np.loadtxt(source, dtype=np.float64, delimiter=",",
                              comments=None, skiprows=skiprows, ndmin=2,
                              encoding="utf-8")
    except ValueError:  # UnicodeDecodeError included
        return None


def _parse_csv_chunked(path: Path, header: bool) -> np.ndarray | None:
    """The file read a chunk of lines at a time, by :func:`_decimal_chunk`
    or else ``np.loadtxt``; None where a chunk fails both or holds another
    number of rows than of lines.

    A first pass counts each chunk's newlines, so the result is allocated
    once; a file that is not a regular file (a pipe, say) gives None before
    anything is read. A header holding a CR, which the reference splits,
    gives None, as does a blank line, which neither chunk reader counts as
    a row.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    with open(path, "rb") as fh:
        if header and b"\r" in fh.readline():
            return None
        begin = pos = cut = fh.tell()
        chunks = []                     # (bytes, lines) of each chunk
        while raw := fh.read(CSV_CHUNK_BYTES):
            # newlines (byte 10): numpy's vector compare counts them in
            # about a quarter of the time of bytes.count's byte loop
            lines = np.count_nonzero(np.frombuffer(raw, np.uint8) == 10)
            if lines:
                end = pos + raw.rfind(b"\n") + 1
                chunks.append((end - cut, lines))
                cut = end
            pos += len(raw)
        if pos > cut:                   # a last line with no newline
            chunks.append((pos - cut, 1))
        rows = sum(lines for _, lines in chunks)
        if not rows:
            return None
        fh.seek(begin)
        arr, row = None, 0
        for size, lines in chunks:
            buf = fh.read(size)
            if len(buf) != size:
                return None
            if arr is None:         # as many columns as the first line
                cols = buf.partition(b"\n")[0].count(b",") + 1
                arr = np.empty((rows, cols))
            part = arr[row:row + lines]
            if not _decimal_chunk(buf, part):
                # universal newlines, as np.loadtxt opens a path
                rest = _loadtxt(io.TextIOWrapper(io.BytesIO(buf), "utf-8"))
                if rest is None or rest.shape != part.shape:
                    return None
                part[...] = rest
            row += lines
        return arr


def _parse_csv(path: Path, header: bool) -> np.ndarray:
    """Parse a CSV file in three tiers, each giving the reference's floats.

    1. Where np.longdouble has a 64-bit significand, the file is read in
       line-aligned chunks (:func:`_parse_csv_chunked`). A chunk of plain
       decimals (exponents included; no whitespace, CR or ``nan``) is read
       as int64 mantissas times or over powers of ten up to 10**27
       (:func:`_decimal_chunk`). Both are exact in the 64-bit
       significand, so their product or quotient is rounded once, and its
       rounding to double is the decimal's correctly rounded double, which
       is what ``float`` gives, unless it sits exactly on a midpoint
       between two doubles: only there can the second rounding go the
       other way, and those tokens, like those with a larger power, are
       read with ``float``. Any other chunk is read by ``np.loadtxt``
       alone.
    2. Wherever a chunk fails both or its rows do not match its lines,
       ``np.loadtxt`` reads the whole file. It accepts a subset of
       :func:`_parse_csv_reference`'s grammar (no whitespace-only lines, no
       ``1_0``, ASCII digits only) and gives the same float for every token
       it accepts, as both end in CPython's string-to-double.
    3. Wherever that raises or finds no rows, the reference parses the file
       again, so the result and every error (row and token included) are
       the reference's.
    """
    if _pow10() is not None:
        arr = _parse_csv_chunked(path, header)
        if arr is not None:
            return arr
    arr = _loadtxt(path, 1 if header else 0)
    if arr is None or arr.shape[0] == 0:
        return _parse_csv_reference(path, header)
    return arr


# float32 values converted per read while filling the float64 matrix
_RAW_CHUNK = BLOCK_BYTES // 4


def _parse_raw_float32(path: Path, dim: int, width: str) -> np.ndarray:
    """Little-endian float32 rows of ``dim`` values, widened to float64.

    The row count comes from the file size, and the float64 matrix is filled
    one chunk of about 1 MiB at a time, so no whole float32 copy is held.
    Errors about the row width name it ``width``.
    """
    if dim is None or dim < 1:
        raise MalformedValue(**{width: dim})
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % 4 != 0:
            raise TruncatedInput(bytes=size)
        values = size // 4
        if values == 0:
            raise EmptyInput(path=str(path))
        if values % dim != 0:
            raise TruncatedInput(values=values, **{width: dim})
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
                header: bool = False, width: str = "dim") -> np.ndarray:
    """Shared loader for embeddings, probabilities and weight columns.

    The parsed array is returned read-only, so the containers take it without
    a copy. Non-finite values pass through: each container raises
    NonFiniteValue at the first row that holds one. ``width`` names the raw
    row width ``dim`` in errors, after the flag that gives it."""
    p = Path(path)
    if fmt == "csv":
        arr = _parse_csv(p, header)
    elif fmt == "raw-float32":
        arr = _parse_raw_float32(p, dim, width)
    else:
        raise MalformedValue(format=fmt)
    arr.setflags(write=False)
    return arr


def load_embeddings(path, metric: str, fmt: str = "csv",
                    dim: int | None = None,
                    header: bool = False) -> EmbeddingSet:
    return EmbeddingSet(load_matrix(path, fmt, dim, header), metric)


def load_probabilities(path, fmt: str = "csv", classes: int | None = None,
                       header: bool = False) -> ProbabilityMatrix:
    return ProbabilityMatrix(load_matrix(path, fmt, classes, header,
                                         "classes"))


def load_weights(path, fmt: str = "csv", header: bool = False) -> WeightVector:
    arr = load_matrix(path, fmt, 1, header)
    if arr.ndim == 2:
        if arr.shape[1] != 1:
            raise MalformedValue(cols=arr.shape[1])
        arr = arr[:, 0]
    return WeightVector(arr)
