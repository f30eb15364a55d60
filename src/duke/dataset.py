"""Ground-set containers, file ingestion, distance metrics, margin weights.

All distance computation funnels through one row kernel, which computes the
distances from one point to a contiguous block of points. :func:`metric_row`
is its full-range call, so every part of the package (graph construction,
selection, oracle, cost evaluation) sees bitwise-identical values for the
same point pair. :func:`fold_block` folds many centers' rows over one block
while it sits in cache, applying the kernel's monotone finish once, and
gives the ``np.minimum`` fold of those rows bit for bit.

:class:`Cover` is the one nearest-center state: each point's distance to
its nearest center, with per kernel block the number of centers folded in.
The farthest-point traversal, the fixed-gamma selector and the scoring of
any selection all keep their distances there, and a block takes the centers
it lacks only when it is read. Its covering radius folds only the blocks
that a matrix-product screen with a proven error bound leaves as able to
hold the maximum, and is the full fold's bit for bit. The fixed-gamma
selector settles its threshold tests with the same screen
(:func:`_screen_rows`, :func:`_screen_delta`).

Cosine and euclidean distances both rest on one matrix-vector product per
block. Euclidean takes ``d^2 = (|y|^2 + |x|^2) - 2 y.x`` from the cached
squared row norms; an entry where that form cancels (``d^2`` at most
:data:`NEAR` times ``|y|^2 + |x|^2``) is recomputed exactly from the
difference ``y - x``, so identical rows are at distance exactly 0 and every
other distance is within a relative ``(dim + 2) * eps / NEAR`` of the true one.
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
# counted from row 0. A block stays in a core's L2 cache while the blocked
# minimum applies every center to it, and a fixed block grid makes each
# distance the same float wherever it is computed, whatever BLAS threading does
# with a long matrix-vector product.
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


def _raw_block(emb: EmbeddingSet, metric: str, i: int, lo: int,
               hi: int) -> np.ndarray:
    """Point i's distances to points lo..hi-1 before their monotone finish.

    The products (cosine and euclidean matvec, manhattan abs-sums) are taken
    block by block from ``lo``; the rest is elementwise. Cosine gives the
    scaled product ``y.x / (|y| |x|)``, which :func:`_finish` turns into
    ``1 - clip(...)``, a non-increasing map. Euclidean forms the squared
    distance ``(|y|^2 + |x|^2) - 2 y.x`` per block and recomputes every entry
    in the :data:`NEAR` band (and any that overflowed) as the exact sum of
    squared differences; :func:`_finish` takes its square root, a
    non-decreasing map. Manhattan needs no finish. It does not validate the
    metric or the cosine norms; its callers do that once per call of their
    own.
    """
    f = emb.features
    x = f[i]
    d = np.empty(hi - lo, dtype=np.float64)
    step = block_rows(emb)
    sq = emb.sq_norms() if metric == "euclidean" else None
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        part, block = d[a - lo:b - lo], f[a:b]
        if metric == "manhattan":
            np.abs(block - x).sum(axis=1, out=part)
            continue
        np.matmul(block, x, out=part)
        if metric == "euclidean":
            s = sq[a:b] + sq[i]
            part *= -2.0
            part += s
            # "not above" also routes an overflowed (inf or nan) entry here
            near = np.flatnonzero(~(part > NEAR * s))
            if near.size:
                diff = block[near] - x
                part[near] = np.einsum("ij,ij->i", diff, diff)
    if metric == "cosine-distance":
        norms = emb.norms()
        d /= norms[lo:hi] * norms[i]
    return d


def _finish(metric: str, d: np.ndarray) -> None:
    """Turn :func:`_raw_block` values into distances, in place."""
    if metric == "cosine-distance":
        np.clip(d, -1.0, 1.0, out=d)
        np.subtract(1.0, d, out=d)
    elif metric == "euclidean":
        np.sqrt(d, out=d)


def _row_block(emb: EmbeddingSet, metric: str, i: int, lo: int,
               hi: int) -> np.ndarray:
    """Distances from point i to points lo..hi-1, d(i, i) forced to exactly 0.

    The shared row kernel: :func:`_raw_block` and its finish. Identical rows
    come out at exactly 0 for euclidean, since the difference form is exact.
    """
    d = _raw_block(emb, metric, i, lo, hi)
    _finish(metric, d)
    if lo <= i < hi:
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

# A block lacking fewer centers is folded rather than screened: the screen
# costs as much as the exact fold it would save (100k x 64 with one BLAS
# thread: about 20 ms either way at 8 centers, 2x the fold's time at 2).
SCREEN_MIN_CENTERS = 8


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


def _screen_rows(emb: EmbeddingSet, metric: str, lo: int, hi: int,
                 cols: np.ndarray, shift: np.ndarray, out: np.ndarray,
                 points: np.ndarray | None = None) -> None:
    """Fold into ``out`` the screened distance from each point lo..hi-1
    (or ``points[lo:hi]``) to its nearest center, given in
    :func:`_product_form`.

    One matrix product per chunk of about :data:`SCREEN_BYTES`; cosine keeps
    each row's largest ``y.c/|c|`` and takes ``1 - clip(. / |y|)``,
    euclidean its smallest ``|c|^2 - 2 y.c`` and takes
    ``sqrt(max(. + |y|^2, 0))``. Both finishes are monotone, so each result
    is within :func:`_screen_delta` of the row kernel's fold.
    """
    f = emb.features
    cosine = metric == "cosine-distance"
    scale = emb.norms() if cosine else emb.sq_norms()
    step = max(1, SCREEN_BYTES // (8 * max(len(cols), emb.dim)))
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        rows = slice(a, b) if points is None else points[a:b]
        prod = f[rows] @ cols.T
        if cosine:
            near = prod.max(axis=1)
            near /= scale[rows]
            np.clip(near, -1.0, 1.0, out=near)
            np.subtract(1.0, near, out=near)
        else:
            prod += shift
            near = prod.min(axis=1)
            near += scale[rows]
            np.maximum(near, 0.0, out=near)
            np.sqrt(near, out=near)
        part = out[a - lo:b - lo]
        np.minimum(part, near, out=part)


class Cover:
    """Each point's distance to its nearest center, folded a kernel block at
    a time when the block is read.

    ``dmin`` starts as the first center's :func:`metric_row`, which
    validates the metric and the cosine norms once, before any other
    distance. ``folded[b]`` counts the leading ``centers`` that block b of
    ``dmin`` holds. The constructor's other centers and :meth:`add` read
    nothing; :meth:`block`, :meth:`at` and :meth:`radius` fold in the
    centers a block lacks with one :func:`fold_block`. A block brought up to
    date holds ``np.minimum`` folded over every center's :func:`metric_row`
    bit for bit, whatever reads came between the adds.
    """

    def __init__(self, emb: EmbeddingSet, metric: str, centers):
        self.emb, self.metric = emb, metric
        self.centers = [int(c) for c in centers]
        if not self.centers:
            raise EmptyCenters()
        self.dmin = metric_row(emb, metric, self.centers[0])
        self.step = block_rows(emb)
        self.folded = np.ones(-(-emb.n // self.step), dtype=np.int64)

    def add(self, c: int) -> None:
        """Make point c a center."""
        self.centers.append(int(c))

    def block(self, b: int) -> np.ndarray:
        """Kernel block b of ``dmin``, brought up to date, as a view."""
        lo = b * self.step
        d = self.dmin[lo:lo + self.step]
        if self.folded[b] < len(self.centers):
            fold_block(self.emb, self.metric, self.centers[self.folded[b]:],
                       lo, lo + d.size, d)
            self.folded[b] = len(self.centers)
        return d

    def at(self, points: np.ndarray) -> np.ndarray:
        """Nearest-center distances of ``points``, their blocks brought up
        to date."""
        for b in np.unique(points // self.step):
            self.block(b)
        return self.dmin[points]

    def radius(self) -> float:
        """Distance from the farthest point to its nearest center, bit for
        bit ``np.minimum`` folded over every center's :func:`metric_row`
        followed by ``.max()``.

        A block that lacks at least :data:`SCREEN_MIN_CENTERS` centers is
        screened (:func:`_screen_rows`) for those alone, from the distances
        it holds, so its largest nearest-center distance is known within
        :func:`_screen_delta`; every other block is brought up to date and
        its largest is exact. A screened block is folded only when it could
        hold the maximum: its largest plus ``delta`` reaches the largest
        finite one minus ``delta``, or its largest is not finite. Every other
        block's maximum is below another block's, so the result comes from
        the row kernel alone. Manhattan, which has no screen, folds every
        block.
        """
        m, step, n = len(self.centers), self.step, self.emb.n
        screened = m - self.folded >= SCREEN_MIN_CENTERS
        delta = _screen_delta(self.emb, self.metric) if screened.any() else 0.0
        screened &= np.isfinite(delta)
        if screened.any():
            base = int(self.folded[screened].min())
            cols, shift = _product_form(self.emb, self.metric,
                                        self.centers[base:])
        tops = np.empty(self.folded.size)
        for b in range(tops.size):
            if not screened[b]:
                tops[b] = self.block(b).max()
                continue
            lo, hi = b * step, min(b * step + step, n)
            near = self.dmin[lo:hi].copy()
            # centers go a group at a time, no more than rows in a block
            for g in range(self.folded[b] - base, m - base, step):
                _screen_rows(self.emb, self.metric, lo, hi, cols[g:g + step],
                             shift[g:g + step], near)
            tops[b] = near.max()
        keep = ~np.isfinite(tops)
        if not keep.all():
            keep |= tops + delta >= tops[~keep].max() - delta
        return float(np.max([self.block(b).max()
                             for b in np.flatnonzero(keep)]))


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
