"""Ground-set containers, file ingestion, distance metrics, margin weights.

All distance computation funnels through one row kernel, which computes the
distances from one point to a contiguous block of points. :func:`metric_row`
is its full-range call and :func:`min_dists` its blocked form, so every part
of the package (graph construction, selection, oracle, cost evaluation) sees
bitwise-identical values for the same point pair.

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
    if v.shape[1] < 2:
        raise TooFewClasses(classes=v.shape[1])
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


def _row_block(emb: EmbeddingSet, metric: str, i: int, lo: int,
               hi: int) -> np.ndarray:
    """Distances from point i to points lo..hi-1, d(i, i) forced to exactly 0.

    The shared row kernel. The products (cosine and euclidean matvec,
    manhattan abs-sums) are taken block by block from ``lo``; the rest is
    elementwise. Euclidean forms ``(|y|^2 + |x|^2) - 2 y.x`` per block and
    recomputes every entry in the :data:`NEAR` band (and any that overflowed)
    as the exact sum of squared differences, so identical rows come out at
    exactly 0. It does not validate the metric or the cosine norms; its
    callers do that once per call of their own.
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
        np.clip(d, -1.0, 1.0, out=d)
        np.subtract(1.0, d, out=d)
    elif metric == "euclidean":
        np.sqrt(d, out=d)
    if lo <= i < hi:
        d[i - lo] = 0.0
    return d


def _check_rows(emb: EmbeddingSet, metric: str) -> None:
    if metric not in METRICS:
        raise UnknownMetric(metric=metric)
    if metric == "cosine-distance":
        _cosine_norm_check(emb.norms())


def metric_row(emb: EmbeddingSet, metric: str, i: int) -> np.ndarray:
    """Distances from point i to every point, d[i] forced to exactly 0.

    The full-range call of the row kernel. Cosine mode validates that no row
    of the set is the zero vector, so any operation built on this kernel is
    total or raises ZeroVectorCosine.
    """
    _check_rows(emb, metric)
    return _row_block(emb, metric, int(i), 0, emb.n)


def min_dists(emb: EmbeddingSet, metric: str, centers) -> np.ndarray:
    """Distance from every point to its nearest center.

    Bitwise equal to ``np.minimum`` folded over ``metric_row`` of each center.
    The points are walked one kernel block at a time and every center is
    applied to a block before the next one is read, so the feature matrix
    streams from memory once rather than once per center. Validation (metric,
    cosine zero rows) runs once, before any distance.
    """
    _check_rows(emb, metric)
    idx = [int(c) for c in np.asarray(centers, dtype=np.int64)]
    if not idx:
        raise EmptyCenters()
    n = emb.n
    step = block_rows(emb)
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        dmin = out[lo:hi]
        dmin[:] = _row_block(emb, metric, idx[0], lo, hi)
        for c in idx[1:]:
            np.minimum(dmin, _row_block(emb, metric, c, lo, hi), out=dmin)
    return out


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
