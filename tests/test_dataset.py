import io
import os
import subprocess
import sys
import threading
import types
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import refused

import duke
from duke import dataset
from duke.dataset import (
    METRICS,
    Cover,
    EmbeddingSet,
    ProbabilityMatrix,
    WeightVector,
    distance_matrix,
    fold_block,
    load_embeddings,
    load_probabilities,
    load_weights,
    margin_weights,
    metric_row,
)
from duke.errors import (
    DukeError,
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
from duke.wkcenter import greedy_kcenter, weighted_kcenter


def test_margin_exact_rows():
    probs = ProbabilityMatrix(np.array([
        [0.6, 0.3, 0.1],
        [1.0, 0.0, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
    ]))
    w = margin_weights(probs)
    # 0.6 - 0.3 must come out as the float subtraction, not a rounded value
    assert w.values[0] == 0.6 - 0.3
    assert w.values[1] == 1.0
    assert w.values[2] == 0.0


def test_margin_two_classes():
    probs = ProbabilityMatrix(np.array([[0.8, 0.2], [0.5, 0.5]]))
    w = margin_weights(probs)
    assert w.values[0] == pytest.approx(0.6)
    assert w.values[1] == 0.0


@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=6), st.randoms())
@settings(max_examples=50, deadline=None)
def test_margin_permutation_invariant(raw, pyrandom):
    row = np.asarray(raw)
    row = row / row.sum()
    shuffled = row.copy()
    pyrandom.shuffle(shuffled)
    a = margin_weights(ProbabilityMatrix(row[None, :])).values[0]
    b = margin_weights(ProbabilityMatrix(shuffled[None, :])).values[0]
    assert a == b
    assert 0.0 <= a <= 1.0


def test_probability_validation():
    with pytest.raises(TooFewClasses):
        ProbabilityMatrix(np.array([[1.0], [1.0]]))
    with pytest.raises(ProbabilityOutOfRange):
        ProbabilityMatrix(np.array([[1.2, -0.2]]))
    with pytest.raises(RowSumError):
        ProbabilityMatrix(np.array([[0.7, 0.1]]))
    # tolerance: row sums within 1e-6 of one are accepted
    ProbabilityMatrix(np.array([[0.5 + 4e-7, 0.5]]))


def test_probability_errors_name_the_first_bad_row():
    vals = np.full((8, 3), 1 / 3)
    vals[2] = [0.5, 0.5, 0.25]
    vals[5] = [1.25, -0.25, 0.0]
    vals[6] = [0.5, 0.75, -0.25]
    # a range error anywhere comes before a row sum error
    with pytest.raises(ProbabilityOutOfRange) as exc:
        ProbabilityMatrix(vals)
    assert exc.value.details == {"row": 5}
    vals[5] = vals[6] = 1 / 3
    vals[4] = [0.5, 0.5, 1e-5]
    with pytest.raises(RowSumError) as exc:
        ProbabilityMatrix(vals)
    assert exc.value.details == {"row": 2, "sum": vals[2].sum()}


def test_weight_vector_range():
    WeightVector(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ProbabilityOutOfRange):
        WeightVector(np.array([1.5]))


def test_pairwise_euclidean_345():
    emb = EmbeddingSet(np.array([[0.0, 0.0], [3.0, 4.0]]), "euclidean")
    assert metric_row(emb, 0)[1] == 5.0


def test_pairwise_manhattan():
    emb = EmbeddingSet(np.array([[1.0, 2.0], [4.0, -2.0]]), "manhattan")
    assert metric_row(emb, 0)[1] == 7.0


def test_pairwise_cosine_landmarks():
    emb = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [5.0, 0.0]]),
                       "cosine-distance")
    row = metric_row(emb, 0)
    assert row[1] == pytest.approx(1.0)
    assert row[2] == pytest.approx(2.0)
    # parallel vectors of different norm are at distance zero
    assert row[3] == 0.0
    # self distance is exactly zero by construction
    assert metric_row(emb, 2)[2] == 0.0


def _csv(tmp_path, pts):
    """``pts`` written as a CSV file whose floats read back bit for bit."""
    p = tmp_path / "e.csv"
    np.savetxt(p, pts, delimiter=",", fmt="%.17g")
    return str(p)


def test_cosine_zero_vector_rejected(tmp_path):
    # the first all-zero row is named, whether the set is made or loaded
    pts = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ZeroVectorCosine) as exc:
        EmbeddingSet(pts, "cosine-distance")
    assert exc.value.details == {"index": 1}
    with pytest.raises(ZeroVectorCosine) as exc:
        load_embeddings(_csv(tmp_path, pts), "cosine-distance")
    assert exc.value.details == {"index": 1}
    # euclidean does not care about zero rows
    assert metric_row(EmbeddingSet(pts, "euclidean"), 0)[1] == 1.0


@pytest.mark.parametrize("metric", METRICS)
def test_row_norm_range_holds_at_its_ends(metric, monkeypatch, tmp_path):
    # rows whose squared norms are exactly 2^900 (and 2^-900, cosine's other
    # end) give finite distances, folded and screened a row a block with no
    # overflow warning; a set holding a row one ulp past an end is refused
    # at that row, whether it is made or loaded
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 4)
    turn = np.array([1.0, -1.0, 1.0, -1.0])
    for a in [2.0 ** 449] + [2.0 ** -451] * (metric == "cosine-distance"):
        y = np.full(4, a)                   # |y|^2 = 4 a^2
        emb = EmbeddingSet(np.array([y, -y, y, turn * y]), metric)
        rows = [metric_row(emb, c) for c in range(4)]
        assert np.isfinite(rows).all()
        want = np.minimum(rows[0], rows[1]).max()
        assert _bits(_cover_radius(emb, [0, 1])) == _bits(want)
        sol = greedy_kcenter(emb, WeightVector(np.zeros(4)), 2)
        assert sol.indices == [0, 1] and _bits(sol.radius_term) == _bits(want)
        past = np.full(4, np.nextafter(a, np.inf if a > 1.0 else 0.0))
        out = np.array([y, -y, past, turn * y, past])
        with pytest.raises(NormOutOfRange) as exc:
            EmbeddingSet(out, metric)
        assert exc.value.details == {"row": 2}
        with pytest.raises(NormOutOfRange) as exc:
            load_embeddings(_csv(tmp_path, out), metric)
        assert exc.value.details == {"row": 2}


def test_unknown_metric(tmp_path):
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(UnknownMetric) as exc:
        EmbeddingSet(pts, "chebyshev")
    assert exc.value.details == {"metric": "chebyshev"}
    with pytest.raises(UnknownMetric):
        load_embeddings(_csv(tmp_path, pts), "chebyshev")


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine-distance"])
@pytest.mark.parametrize("rows_per_block", [7, None])
def test_cover_radius_bitwise_equals_row_minimum(rng, monkeypatch, metric,
                                                rows_per_block):
    # 7 rows per block gives 8 blocks of 52 points with a short last one;
    # None keeps the default block, under which 5000 x 64 is 3 blocks
    if rows_per_block is None:
        n, dim = 5000, 64
    else:
        n, dim = 52, 3
        monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * dim * rows_per_block)
    pts = rng.normal(size=(n, dim)) + 2.0
    pts[n - 5:] = pts[:5]               # duplicated rows, across blocks
    emb = EmbeddingSet(pts, metric)
    step = dataset.block_rows(emb)
    assert n % step != 0 and n > 2 * step
    # six and twelve centers, the first of them from its row; with delta 0
    # (manhattan) every block is folded, otherwise screened
    for centers in ([0, 3, step + 1, n - 1, n - 4, 2],
                    [0, 3, step + 1, n - 1, n - 4, 2, 7, 8, 9, 30, 31, n - 2]):
        ref = metric_row(emb, centers[0]).copy()
        for c in centers[1:]:
            np.minimum(ref, metric_row(emb, c), out=ref)
        assert _bits(_cover_radius(emb, centers)) == _bits(ref.max())
        first = metric_row(emb, n // 2)
        assert _bits(_cover_radius(emb, [n // 2, *centers])) == \
            _bits(np.minimum(ref, first).max())
        assert _bits(_cover_radius(emb, [n // 2])) == \
            _bits(first.max())


def _cover_radius(emb, centers):
    return Cover(emb, centers).radius()


def _bits(x):
    return np.float64(x).tobytes()


def _fold_radius(emb, centers):
    """The covering radius by its definition: every center's row, folded."""
    rows = [metric_row(emb, int(c)) for c in centers]
    return np.minimum.reduce(rows).max()


@st.composite
def _radius_cases(draw):
    """Point sets whose covering radius the screen must not change."""
    metric = draw(st.sampled_from(METRICS))
    n = draw(st.integers(1, 120))
    dim = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["normal", "lattice", "offset", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "normal":
        pts = draw(st.sampled_from([1e-6, 1.0, 1e6])) * rng.normal(size=(n, dim))
    elif kind == "lattice":
        # few distinct distances: the maximum ties in several blocks
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
    elif kind == "offset":
        # far from the origin: most euclidean entries are in the NEAR band
        pts = 1e6 + rng.normal(size=(n, dim))
    else:
        # squared norms near or past the largest float: refused
        pts = draw(st.sampled_from([0.6e154, 1e154])) * rng.normal(size=(n, dim))
    dup = rng.integers(0, n, size=n // 4)
    pts[n - 1 - dup] = pts[dup]           # duplicated rows, across blocks
    if metric == "cosine-distance":
        pts[~np.abs(pts).any(axis=1)] = 1.0
    centers = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=24))
    rows_per_block = draw(st.integers(1, 40))
    return metric, pts, centers, rows_per_block


@given(_radius_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_covering_radius_bitwise_equals_the_row_fold(case, data):
    # reads of blocks and points between the adds leave the points holding
    # different leading runs of the centers; the radius, and every exact
    # read, is still the row fold's, and every screened block, every gather
    # and every screen of the first 1, 2, 3, ... centers at gathered points
    # within delta of it (a screened block or a gather equal to it where
    # delta is 0)
    metric, pts, centers, rows_per_block = case
    if refused(pts, metric):
        return
    emb = EmbeddingSet(pts, metric)
    reads = st.lists(st.tuples(st.sampled_from(["block", "points", "gather"]),
                               st.integers(0, 2 ** 16)), max_size=3)
    with pytest.MonkeyPatch.context() as mp:
        # a tiny block puts centers inside and outside most blocks
        mp.setattr(dataset, "BLOCK_BYTES", 8 * emb.dim * rows_per_block)
        want = _fold_radius(emb, centers)
        cover = Cover(emb, centers[:1])
        last = np.empty(0, dtype=np.int64)
        for m, c in enumerate(centers, 1):
            if m > 1:
                cover.add(c)
            for kind, pick in data.draw(reads):
                if kind == "block":
                    b = pick % cover.blocks
                    lo = b * cover.step
                    points = np.arange(lo, min(lo + cover.step, emb.n))
                    near = cover.screen(b).copy()
                elif kind == "points":
                    # points whose blocks may lack centers, screened here
                    points = np.unique((pick + np.r_[0, 7, 13, 31]) % emb.n)
                    near = None
                    if cover.delta:
                        near = np.full(points.size, np.inf)
                        dataset._screen_rows(emb, 0, points.size,
                                             cover.cols[:m], cover.shift[:m],
                                             near, points)
                else:
                    # the last read's points, which it may have brought up
                    # to date, and points that may not have been read
                    points = np.union1d(last, (pick + np.r_[0, 7]) % emb.n)
                    near = cover.gather(points)
                    assert (cover.held[points] == m).all()
                got = cover.exact(points, near)
                rows = [metric_row(emb, c)[points] for c in centers[:m]]
                want_at = np.minimum.reduce(rows)
                assert got.tobytes() == want_at.tobytes()
                if cover.delta:
                    assert np.all(np.abs(near - want_at) <= cover.delta)
                elif kind != "points":
                    assert near.tobytes() == want_at.tobytes()
                last = points
        got = cover.radius()
    assert _bits(got) == _bits(want)


@given(_radius_cases(), st.integers(0, 2 ** 16), st.booleans(),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_fold_block_bitwise_equals_the_row_fold(case, pick, use_out, gather):
    # over a block of rows, or over a range of gathered points: every point
    # of the set, shuffled, so that the range holds centers too
    metric, pts, centers, rows_per_block = case
    if refused(pts, metric):
        return
    emb = EmbeddingSet(pts, metric)
    points = np.random.default_rng(pick).permutation(emb.n) if gather else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "BLOCK_BYTES", 8 * emb.dim * rows_per_block)
        step = dataset.block_rows(emb)
        lo = step * (pick % -(-emb.n // step))
        hi = min(lo + step, emb.n)
        # with a tiny block, centers fall inside it as well as outside
        rows = [dataset._row_block(emb, c, lo, hi, points) for c in centers]
        out = np.full(hi - lo, np.inf)
        if use_out:
            out = dataset._row_block(emb, centers[-1] // 2, lo, hi, points)
            rows.insert(0, out.copy())
        want = rows[0]
        for row in rows[1:]:
            want = np.minimum(want, row)
        fold_block(emb, centers, lo, hi, out, points)
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("centers,dim", [(1, 3), (2, 64), (99, 64),
                                         (400, 32), (5000, 8), (3, 40000)])
def test_screen_products_stay_within_screen_bytes(centers, dim):
    # the screen, the radius passes and the candidate checks all take their
    # chunks here: each product (centers x rows) and each gathered block of
    # rows stays within SCREEN_BYTES unless one row alone is larger, and
    # the chunks tile every center and row once
    emb = types.SimpleNamespace(dim=dim)
    rows = 10000
    seen = np.zeros((centers, rows), dtype=np.int64)
    for g0, g1, a, b in dataset._screen_chunks(emb, np.empty((centers, 0)),
                                               0, rows):
        assert 8 * (g1 - g0) * (b - a) <= dataset.SCREEN_BYTES
        assert 8 * dim * (b - a) <= max(dataset.SCREEN_BYTES, 8 * dim)
        seen[g0:g1, a:b] += 1
    assert (seen == 1).all()


def test_cosine_screen_finish_clamps_with_np_clips_bits():
    # the finish clamps with np.minimum(np.maximum(...)) rather than
    # np.clip, for the latter's Python layers; the bits are np.clip's on
    # every special value, along the last axis of 1-d and 2-d products
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, -0.5, 1.0, -1.0,
                  np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                  np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0)])
    # unit norms: exact divisions
    emb = EmbeddingSet(np.eye(x.size), "cosine-distance")
    rows = np.arange(x.size)
    want = np.subtract(1.0, np.clip(x / emb.norms(), -1.0, 1.0))
    for prod in (x.copy(), np.stack([x, x[::-1]])):
        dataset._screen_finish(emb, prod, rows)
        assert prod.reshape(-1, x.size)[0].tobytes() == want.tobytes()
    assert prod[1].tobytes() == want[::-1].tobytes()


def test_covering_radius_refuses_rows_whose_screen_would_overflow():
    # 1-d points at +-0.9e154: the squared norms are finite, but the screen's
    # |c|^2 - 2 y.c + |y|^2 across the origin would overflow, as would the
    # kernel's squared distance; the set is refused when it is made, so no
    # block can be screened or folded
    pts = np.r_[np.full(12, 0.9e154), np.full(4, -0.9e154)][:, None]
    with pytest.raises(NormOutOfRange) as exc:
        EmbeddingSet(pts, "euclidean")
    assert exc.value.details == {"row": 0}


def test_covering_radius_reads_one_row_when_separated(monkeypatch):
    # 40 tight clusters and a center in each but the last: only points of
    # the last cluster can hold the radius, and only the center of the
    # nearest cluster can be their nearest, so after the first center's row
    # the radius reads one gathered row, from that center to the few points
    # of the last cluster that can hold the radius; a fold of that block,
    # or of every block, fails here
    rng = np.random.default_rng(4)
    dim, per = 8, 64
    centers_at = 100.0 * rng.normal(size=(40, dim))
    pts = np.repeat(centers_at, per, axis=0) + rng.normal(size=(40 * per, dim))
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * dim * per)
    centers = list(range(0, 39 * per, per))
    reads = []
    rows = dataset._raw_block

    def counted(emb_, i, lo, hi, points=None):
        reads.append((i, range(lo, hi) if points is None else points[lo:hi]))
        return rows(emb_, i, lo, hi, points)

    monkeypatch.setattr(dataset, "_raw_block", counted)
    for metric in ("euclidean", "cosine-distance"):
        emb = EmbeddingSet(pts, metric)
        reads.clear()
        got = _cover_radius(emb, centers)
        assert len(reads) == 2 and reads[0] == (0, range(emb.n))
        center, points = reads[1]
        assert center in centers and 0 < len(points) < per // 4
        assert np.all(points >= 39 * per)
        monkeypatch.setattr(dataset, "_raw_block", rows)
        assert _bits(got) == _bits(_fold_radius(emb, centers))
        monkeypatch.setattr(dataset, "_raw_block", counted)


def test_distance_matrix_symmetric(rng):
    pts = rng.normal(size=(15, 4))
    for metric in ("euclidean", "manhattan", "cosine-distance"):
        dist = distance_matrix(EmbeddingSet(pts, metric))
        assert dist.shape == (15, 15)
        assert np.all(np.diag(dist) == 0.0)
        np.testing.assert_allclose(dist, dist.T, atol=1e-12)


def _euclid_reference(f: np.ndarray, i: int) -> np.ndarray:
    return np.sqrt(((f - f[i]) ** 2).sum(1))


def _assert_euclid_close(got: np.ndarray, ref: np.ndarray, dim: int) -> None:
    # the kernel's documented bound, plus the reference's own rounding
    eps = np.finfo(np.float64).eps
    rtol = (dim + 2) * eps / dataset.NEAR + 2 * (dim + 2) * eps
    assert np.all(np.abs(got - ref) <= rtol * ref)


@given(dim=st.integers(1, 64), n=st.integers(2, 60),
       offset=st.sampled_from([0.0, 1e-3, 1.0, 1e2, 1e4, 1e6]),
       scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
       rows_per_block=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_euclidean_kernel_exact_on_duplicates_and_within_bound(
        dim, n, offset, scale, rows_per_block, seed):
    rng = np.random.default_rng(seed)
    pts = offset + scale * rng.normal(size=(n, dim))
    dup = rng.integers(0, n, size=n // 3 + 1)
    pts[dup] = pts[(dup + 1) % n]
    emb = EmbeddingSet(pts, "euclidean")
    f = emb.features
    centers = sorted({0, n - 1, int(dup[0]), int(dup[0] + 1) % n,
                      *range(0, n, 7)})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "BLOCK_BYTES", 8 * dim * rows_per_block)
        rows = {c: metric_row(emb, c) for c in centers}
        radius = _cover_radius(emb, centers)
    for c, row in rows.items():
        ref = _euclid_reference(f, c)
        same = (f == f[c]).all(axis=1)
        assert np.all(row[same] == 0.0)
        _assert_euclid_close(row, ref, dim)
    assert _bits(radius) == _bits(np.minimum.reduce(list(rows.values())).max())
    _assert_euclid_close(
        np.array([radius]),
        np.array([np.min([_euclid_reference(f, c) for c in centers], axis=0).max()]),
        dim)


def test_euclidean_block_mixes_near_and_far_entries():
    # one block around x: copies of x, points a hair away (the norm form
    # cancels) and points far away (it does not)
    rng = np.random.default_rng(5)
    dim = 8
    x = 1e3 + rng.normal(size=dim)
    pts = np.vstack([x, x, x + 1e-6 * rng.normal(size=(3, dim)),
                     x + 1e3 * rng.normal(size=(3, dim)), x])
    emb = EmbeddingSet(pts, "euclidean")
    f = emb.features
    s = emb.sq_norms() + emb.sq_norms()[0]
    near = s - 2.0 * (f @ f[0]) <= dataset.NEAR * s
    assert dataset.block_rows(emb) > len(pts)
    assert near[:5].all() and not near[5:8].any()
    row = metric_row(emb, 0)
    assert row[[0, 1, 8]].tolist() == [0.0, 0.0, 0.0]
    diff = f[2:5] - f[0]
    assert np.array_equal(row[2:5], np.sqrt(np.einsum("ij,ij->i", diff, diff)))
    _assert_euclid_close(row, _euclid_reference(f, 0), dim)


def test_far_offset_duplicates_reach_radius_zero_at_gamma_zero():
    rng = np.random.default_rng(11)
    distinct = 1e6 + rng.normal(size=(12, 16))
    pts = distinct[rng.integers(0, 12, size=90)]
    pts[:12] = distinct
    emb = EmbeddingSet(pts, "euclidean")
    weights = WeightVector(rng.uniform(size=90))
    sol = weighted_kcenter(emb, weights, 12, 0.5, 0.0)
    assert sol.radius_term == 0.0
    assert sorted(map(tuple, pts[sol.indices])) == sorted(map(tuple, distinct))


_KERNEL_HASH = """
import hashlib
import numpy as np
from duke.dataset import Cover, EmbeddingSet, metric_row
h = hashlib.sha256()
rng = np.random.default_rng(3)
# 10 and 2 blocks with a short last one; the screen's matrix products run
# under 1 and 2 threads, and only the exact values they leave open are read
for n, dim in ((20001, 64), (9001, 16)):
    pts = 5.0 + rng.normal(size=(n, dim))
    pts[n - 9:] = pts[:9]
    for metric in ("euclidean", "cosine-distance", "manhattan"):
        emb = EmbeddingSet(pts, metric)
        for i in (0, 1, n - 1):
            h.update(metric_row(emb, i).tobytes())
        for centers in (range(0, n, n // 12), range(0, n, n // 4)):
            # the euclidean and cosine radii are screened, then read exactly
            radius = Cover(emb, list(centers)).radius()
            h.update(np.float64(radius).tobytes())
print(h.hexdigest())
"""


def test_kernel_bits_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(duke.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _KERNEL_HASH], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


_MA_PROBE = """
import os
import sys
import tempfile
import numpy as np
from duke import dataset
from duke.dataset import EmbeddingSet, WeightVector
from duke.wkcenter import evaluate_solution, gamma_search, weighted_kcenter
# the band-decision instance, in blocks of two rows: far and ball tests sit
# exactly on their thresholds and go to the row kernel, with the screen
# (euclidean) and without (manhattan, whose exact reads take whole blocks)
dataset.BLOCK_BYTES = 8 * 2 * 2
w = WeightVector(np.array([0.0, 0.1, 0.2, 0.3] + [0.9] * 10))
for metric in ("euclidean", "manhattan"):
    pts = EmbeddingSet(np.array([[0.0, 0.0], [100.0, 0.0], [115.0, 0.0],
                                 [120.0, 0.0]] + [[0.0, 1.0]] * 10), metric)
    assert weighted_kcenter(pts, w, 3, 1.0, 5.0).indices == [0, 1, 2]
    gamma_search(pts, w, 4, 0.1)
    evaluate_solution(pts, w, 0.1, [0, 4, 13], "t")
# a CSV read in chunks: decimal ones, one with a re-read midpoint, one
# with an exponent, and one that only np.loadtxt reads
dataset.CSV_CHUNK_BYTES = 8
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "e.csv")
    with open(path, "w") as fh:
        fh.write("0.5,-0\\n9007199254740993,1\\n1e-7,2\\nnan,3\\n")
    assert dataset.load_matrix(path)[2].tolist() == [1e-7, 2.0]
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""


def test_select_paths_do_not_import_numpy_ma():
    # np.unique's first call in a process imports numpy.ma (10-17 ms); the
    # exact reads group points by block without it, and the CSV reader
    # gathers its re-reads without it
    src = os.path.dirname(os.path.dirname(duke.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _MA_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("metric", METRICS)
def test_a_pair_gets_the_same_bits_at_any_row_position(monkeypatch, metric):
    # Each of 12 points, at dims 1 to 130, is moved behind 1 to 5 other rows,
    # into a permuted order, in a matrix whose base is one float off its
    # allocation. Its distances must keep their bits in a full row, in block
    # folds of 3 rows, in a gathered read of the other points in a shuffled
    # order and in Cover.exact. A BLAS matrix-vector product fails this at
    # most dims.
    rng = np.random.default_rng(12)
    n = 12
    for dim in range(1, 131):
        scale = 10.0 ** rng.integers(-3, 4)
        pts = scale * rng.normal(size=(n, dim)) + rng.choice([0.0, scale])
        pts[1] = pts[0]                                 # a duplicate
        pts[2] = pts[0] + 1e-7 * scale * rng.normal(size=dim)  # NEAR band
        ref = distance_matrix(EmbeddingSet(pts, metric))
        front = dim % 5 + 1
        perm = rng.permutation(n)
        moved = np.vstack([scale * rng.normal(size=(front, dim)), pts[perm]])
        buf = np.empty(moved.size + 1)
        view = buf[1:].reshape(moved.shape)
        view[:] = moved
        view.setflags(write=False)
        emb = EmbeddingSet(view, metric)
        assert emb.features is view and emb.features.ctypes.data % 16 == 8
        at = front + np.argsort(perm)          # where each point now sits
        with monkeypatch.context() as mp:
            mp.setattr(dataset, "BLOCK_BYTES", 8 * dim * 3)
            for i in range(n):
                want = ref[i].tobytes()
                assert metric_row(emb, at[i])[at].tobytes() == want
                folded = np.full(emb.n, np.inf)
                for lo in range(0, emb.n, 3):
                    fold_block(emb, [at[i]], lo, min(lo + 3, emb.n),
                               folded[lo:lo + 3])
                assert folded[at].tobytes() == want
                order = rng.permutation(n)
                got = dataset._row_block(emb, at[i], 0, n, at[order])
                assert got.tobytes() == ref[i][order].tobytes()
                got = np.full(n, np.inf)
                fold_block(emb, [at[i]], 0, n, got, at[order])
                assert got.tobytes() == ref[i][order].tobytes()
                cover = Cover(emb, [at[i]])
                got = cover.exact(at[order], cover.near[at[order]])
                assert got.tobytes() == ref[i][order].tobytes()


def test_manhattan_kernel_bits_equal_the_plain_form(monkeypatch):
    # the kernel's reused block buffer gives np.abs(block - x).sum(axis=1)'s
    # bits, in full and in gathered reads, across blocks of 3 rows
    rng = np.random.default_rng(11)
    for dim in range(1, 131):
        monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * dim * 3)
        f = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(11, dim))
        emb = EmbeddingSet(f, "manhattan")
        i = int(rng.integers(11))
        got = dataset._raw_block(emb, i, 1, 11)
        assert got.tobytes() == np.abs(f[1:11] - f[i]).sum(axis=1).tobytes()
        points = rng.permutation(11)
        got = dataset._raw_block(emb, i, 2, 9, points)
        want = np.abs(f[points[2:9]] - f[i]).sum(axis=1)
        assert got.tobytes() == want.tobytes()


def test_nonfinite_value_names_the_first_bad_row_of_a_later_block(
        monkeypatch):
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 3 * 4)  # 4 rows a block
    pts = np.ones((20, 3))
    pts[13, 1], pts[17, 0], pts[14, 2] = np.nan, np.inf, -np.inf
    with pytest.raises(NonFiniteValue) as exc:
        EmbeddingSet(pts, "euclidean")
    assert exc.value.details == {"row": 13}
    probs = np.full((20, 3), 1 / 3)
    probs[9, 0] = np.nan
    probs[2, 0] = 2.0       # out of range, but finiteness is checked first
    with pytest.raises(NonFiniteValue) as exc:
        ProbabilityMatrix(probs)
    assert exc.value.details == {"row": 9}


def test_margin_weights_bits_equal_the_whole_matrix_partition(monkeypatch):
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 5 * 7)  # 7 rows a block
    vals = np.random.default_rng(5).dirichlet(np.ones(5), size=45)
    vals[3] = [0.2, 0.2, 0.2, 0.2, 0.2]
    part = np.partition(vals, 3, axis=1)
    got = margin_weights(ProbabilityMatrix(vals)).values
    assert got.tobytes() == (part[:, -1] - part[:, -2]).tobytes()


def test_embedding_validation():
    with pytest.raises(NonFiniteValue):
        EmbeddingSet(np.array([[1.0], [np.nan]]), "euclidean")
    with pytest.raises(EmptyInput):
        EmbeddingSet(np.zeros((0, 2)), "euclidean")


def test_containers_leave_the_callers_array_writable():
    pts = np.arange(12.0).reshape(6, 2)
    w = np.full(6, 0.5)
    emb = EmbeddingSet(pts, "euclidean")
    wv = WeightVector(w)
    pts[0, 0] = 1.0
    w[0] = 0.25
    # the containers hold their own read-only copies
    assert emb.features[0, 0] == 0.0
    assert wv.values[0] == 0.5
    with pytest.raises(ValueError):
        emb.features[0, 0] = 1.0


def test_loaders_hand_over_without_a_copy(tmp_path, monkeypatch):
    p = tmp_path / "e.bin"
    np.arange(8, dtype="<f4").tofile(p)
    parsed = []
    load = dataset.load_matrix

    def spy(*args, **kwargs):
        parsed.append(load(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(dataset, "load_matrix", spy)
    emb = load_embeddings(str(p), "euclidean", fmt="raw-float32", dim=2)
    assert not parsed[0].flags.writeable
    assert emb.features is parsed[0]


def test_load_csv(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    emb = load_embeddings(str(p), "euclidean", fmt="csv")
    assert emb.features.shape == (3, 2)
    assert emb.features[2, 1] == 6.0


def test_load_csv_header_and_blank_lines(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("x,y\n1.0,2.0\n\n3.0,4.0\n")
    emb = load_embeddings(str(p), "euclidean", fmt="csv", header=True)
    assert emb.features.shape == (2, 2)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "e.csv"
    # blank lines are skipped and not counted: the bad row is data row 2
    p.write_text("1,2\n3,4\n\n5,6,7\n8,9\n")
    with pytest.raises(RaggedRow) as exc:
        load_embeddings(str(p), "euclidean", fmt="csv")
    assert exc.value.details["row"] == 2


def test_load_csv_malformed_and_nonfinite(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n\n3,oops\n")
    with pytest.raises(MalformedValue) as exc:
        load_embeddings(str(bad), "euclidean", fmt="csv")
    assert exc.value.details["row"] == 1
    nf = tmp_path / "nf.csv"
    nf.write_text("1,2\n\nnan,4\n")
    with pytest.raises(NonFiniteValue) as exc:
        load_embeddings(str(nf), "euclidean", fmt="csv")
    assert exc.value.details["row"] == 1


def test_load_csv_empty(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(EmptyInput):
        load_embeddings(str(p), "euclidean", fmt="csv")


def test_load_csv_invalid_utf8_names_the_row(tmp_path):
    p = tmp_path / "e.csv"
    p.write_bytes(b"1,2\n\n3,4\n5,\xff6\n")
    with pytest.raises(MalformedValue) as exc:
        load_embeddings(str(p), "euclidean", fmt="csv")
    assert exc.value.details == {"row": 2, "token": "\\xff6"}


def _csv_outcome(parse, path, header):
    try:
        arr = parse(path, header)
    except DukeError as exc:
        return type(exc), exc.details
    return arr.dtype, arr.shape, arr.tobytes()


@st.composite
def _long_decimals(draw):
    """Plain decimals of 17-20 digits or 26-29 fraction digits, signed."""
    if draw(st.booleans()):
        digits = str(draw(st.integers(10 ** 16, 10 ** 20 - 1)))
        dot = draw(st.integers(0, len(digits)))
        body = digits[:dot] + "." + digits[dot:]
    else:
        places = draw(st.integers(26, 29))
        body = "%d.%0*d" % (draw(st.integers(0, 9)), places,
                            draw(st.integers(0, 10 ** places - 1)))
    return draw(st.sampled_from(["", "-", "+"])) + body


_NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.floats(-1e6, 1e6).map(lambda x: "%.17g" % x),
    st.floats(-1e-3, 1e-3).map(lambda x: "%.17g" % x),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.16e" % x),
    st.floats(-1e9, 1e9).map(lambda x: "%.5E" % x),
    _long_decimals(),
    st.sampled_from(["+1.5", ".5", "5.", "-0", "-0.0", "+0", "-.5", "+.25",
                     "0.", "-0.", "1e5", "1E+05", "-.5e-3", "5.E2", "+0e0",
                     "-0e-7", "1e27", "1e-27", "1e28", "7e-28", "1e500",
                     "-1e500", "1e-500", "1e99999999999999999999",
                     "1e-99999999999999999999", "12345678901234567890e-30"]),
)
_ODD_TOKENS = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "Infinity", "1_0", "", " ", "#", "1 # c",
    "x", "\u0661", "\u00a01", "0x10", '"1"', ".", "-", "+", "-.", "+-1",
    "1-", "1.2.3", "1\r2", "1e", "e5", "1e+", "1e5.5", "1ee5", "1e5e5",
    ".e1", "1e-+5", "1e.5", "1e5.", "E", "-e1", "1e_5", "1e 5",
])


@st.composite
def _csv_texts(draw):
    cols = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
            continue
        width = cols if kind > 1 else draw(st.integers(1, 5))
        tokens = []
        for _ in range(width):
            tok = draw(_ODD_TOKENS if draw(st.integers(0, 15)) == 0
                       else _NUMBER_TOKENS)
            pad = draw(st.sampled_from(["", "", "", "", "", " ", "\t"]))
            tokens.append(pad + tok + pad)
        lines.append(",".join(tokens))
    header = draw(st.booleans())
    if header:
        lines.insert(0, draw(st.sampled_from(["x,y", "a", "", "1,2", "# h",
                                              "x\ry", "1\r2,3"])))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    # the last line may end without a newline
    text = eol.join(lines) + (eol if lines and draw(st.booleans()) else "")
    return text, header


@given(case=_csv_texts(), chunk=st.sampled_from([None, 8, 24, 48]))
@settings(max_examples=400, deadline=None)
def test_csv_fast_path_matches_the_reference(tmp_path_factory, case, chunk):
    # every tier must give the reference parser's bits, or its error; small
    # chunks make a file span many, decimal and refused ones mixed
    text, header = case
    path = tmp_path_factory.mktemp("csv") / "e.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(dataset, "CSV_CHUNK_BYTES",
                           chunk or dataset.CSV_CHUNK_BYTES):
        got = _csv_outcome(dataset._parse_csv, path, header)
    assert got == _csv_outcome(dataset._parse_csv_reference, path, header)


_PLAIN_DECIMALS = [
    "-0", "-0.0", "+0", "-.0", "0.", "-0.", ".5", "5.", "+.25", "+1.5", "-.5",
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "99999999999999999999", "0.1234567890123456789",
    "-0.0123456789012345678", "1234567890123456789", "12345678901234567890.5",
    "0.00000000000000000000000000123", "1." + "0" * 28 + "1",
    "9007199254740993", "0.30000000000000004", "1e5", "1E5", "-1.5e-07",
    "+.5E+3", "5.e-2", "1e05", "0e0", "-0e-5", "-0.0E300",
    "9007199254740993e-10", "1e27", "1e-27", "1e28", "1e-28", "1e300",
    "2.5e-320", "123456789012345678e-45", "12345678901234567890e-5",
    "1e500", "-1e500", "1e-500", "1e99999999999999999999",
    "1e-99999999999999999999", "1e+0000000000000000000000005",
]
_NOT_PLAIN = [
    ".", "-", "+", "-.", "+.", "", "1.2.3", "+-1", "--1", "1-", "1+2", "1.-2",
    " 1", "1 ", "1\r", "\t1", "nan", "inf", "1_0", "0x1", "1,2", "\u0661",
    "1e", "e5", "1e+", "1e5.5", "1ee5", "1e5e5", ".e1", "1e-+5", "1e.5",
    "1e5.", "-e1", "1e-", "1E5E",
]


@pytest.mark.parametrize("token", _PLAIN_DECIMALS)
def test_decimal_chunk_reads_plain_decimals_as_float(token):
    out = np.empty((2, 2))
    assert dataset._decimal_chunk(("1.5,%s\n-2,3" % token).encode(), out)
    want = np.array([[1.5, float(token)], [-2.0, 3.0]])
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("token", _NOT_PLAIN)
def test_decimal_chunk_refuses_all_but_plain_decimals(tmp_path, token):
    text = "1.5,%s\n-2,3\n" % token
    assert not dataset._decimal_chunk(text.encode(), np.empty((2, 2)))
    p = tmp_path / "e.csv"
    p.write_bytes(text.encode())
    assert (_csv_outcome(dataset._parse_csv, p, False)
            == _csv_outcome(dataset._parse_csv_reference, p, False))


@pytest.mark.parametrize("text", ["1,2\n\n3,4\n", "1,2\n3\n", "1,2,3\n4,5\n",
                                  "\n1,2\n", "1,2,3\n4\n", "1\n2,3,4\n"])
def test_decimal_chunk_refuses_blank_and_ragged_lines(text):
    rows = text.count("\n")
    assert not dataset._decimal_chunk(text.encode(), np.empty((rows, 2)))


def _spellings(value: Decimal) -> list[str]:
    """``value`` as a plain decimal and with an exponent, each spelling
    keeping its digits and so its power of ten less fraction digits."""
    digits, places = value.as_tuple().digits, -value.as_tuple().exponent
    shifted = [format(value.scaleb(-k), "f") + "E%+d" % k for k in (1, 3)]
    return [format(value, "f"), format(value, "e"),
            "".join(map(str, digits)) + "e-%d" % places] + shifted


@st.composite
def _near_midpoints(draw):
    """A plain decimal at or next to the midpoint m of two adjacent doubles,
    written with or without an exponent.

    Near ones are N / 10**f with at most 18 digits, a distance r / (5**f
    2**p) from m = q / 2**p (q odd, 2**53 <= q < 2**54) for a small odd r.
    With 5**f > 2**11 |r| that is under half a 64-bit ulp of m, so the
    reader's 64-bit rounding lands on m itself, which rounds to double the
    wrong way half of the time. The ones at m are odd integers between
    2**53 and 2**54."""
    q = draw(st.integers(2 ** 52, 2 ** 53 - 1)) * 2 + 1
    sign = draw(st.sampled_from(["", "-"]))
    if draw(st.integers(0, 4)) == 0:
        return sign + draw(st.sampled_from(_spellings(Decimal(q))))
    f = draw(st.integers(6, 17))
    r = draw(st.sampled_from([-3, -1, 1, 3]))
    # N = (q 5**f + r) / 2**s must be an integer below 10**18
    s = max(1, (2 ** 54 * 5 ** f // 10 ** 18).bit_length())
    s += draw(st.integers(0, 12))
    five = 5 ** f
    want = (-r * pow(five, -1, 2 ** s)) % 2 ** s
    q += (want - q) % 2 ** s
    q -= 2 ** s if q >= 2 ** 54 else 0
    n = (q * five + r) >> s
    text = draw(st.sampled_from(_spellings(Decimal(n).scaleb(-f))))
    assert Fraction(text) - Fraction(q, 2 ** (f + s)) == Fraction(
        r, five * 2 ** (f + s))
    return sign + text


@given(tokens=st.lists(_near_midpoints(), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_csv_decimals_near_double_midpoints_read_as_float(tmp_path_factory,
                                                          tokens):
    # a rounding in extended precision that lands on a midpoint is redone
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_text("\n".join(tokens) + "\n")
    want = np.array([[float(t)] for t in tokens])
    assert dataset._parse_csv(path, False).tobytes() == want.tobytes()


def _spy_loadtxt(monkeypatch):
    """The text of every np.loadtxt call, which the reference must not
    follow."""
    chunks = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        chunks.append(fname.read())
        return loadtxt(io.StringIO(chunks[-1]), *args, **kwargs)

    def no_reference(*args):
        raise AssertionError("the reference ran")

    monkeypatch.setattr(np, "loadtxt", spy)
    monkeypatch.setattr(dataset, "_parse_csv_reference", no_reference)
    return chunks


def test_csv_refused_chunk_alone_goes_to_loadtxt(tmp_path, monkeypatch):
    values = np.random.default_rng(3).normal(size=(40, 3))
    lines = [",".join("%.17g" % v for v in row) for row in values]
    lines[25] = "nan,2,3"
    p = tmp_path / "e.csv"
    p.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(dataset, "CSV_CHUNK_BYTES", 256)
    chunks = _spy_loadtxt(monkeypatch)
    arr = dataset._parse_csv(p, False)
    want = values.copy()
    want[25] = [np.nan, 2, 3]
    assert arr.tobytes() == want.tobytes()
    assert len(chunks) == 1 and "nan" in chunks[0]
    assert chunks[0].count("\n") < 25


def test_csv_with_exponents_makes_no_loadtxt_call(tmp_path, monkeypatch):
    # %.17g writes values below 1e-4 with an exponent
    rng = np.random.default_rng(5)
    values = rng.normal(size=(50, 32)) * 10.0 ** rng.integers(-9, 9, (50, 32))
    p = tmp_path / "e.csv"
    np.savetxt(p, values, delimiter=",", fmt="%.17g")
    assert p.read_text().count("e-") > 100
    monkeypatch.setattr(dataset, "CSV_CHUNK_BYTES", 1024)
    chunks = _spy_loadtxt(monkeypatch)
    assert dataset._parse_csv(p, False).tobytes() == values.tobytes()
    assert chunks == []


def test_csv_read_stops_at_the_first_refused_chunk(tmp_path, monkeypatch):
    p = tmp_path / "e.csv"
    # the third line has two columns of three: its chunk fails both readers
    p.write_text("1,2,3\n4,5,6\n7,8\n" + "1.5,2,3\n" * 200)
    monkeypatch.setattr(dataset, "CSV_CHUNK_BYTES", 64)
    calls = []
    decimal_chunk = dataset._decimal_chunk

    def count(buf, out):
        calls.append(buf)
        return decimal_chunk(buf, out)

    monkeypatch.setattr(dataset, "_decimal_chunk", count)
    assert dataset._parse_csv_chunked(p, False) is None
    assert len(calls) == 1


def test_csv_decimal_reader_is_checked_on_first_use_only(tmp_path):
    code = ("import duke.cli, duke.dataset as d;"
            "print(d._pow10.cache_info().currsize == 0);"
            "d.load_matrix(%r); print(d._pow10.cache_info().currsize == 1)"
            % str(tmp_path / "e.csv"))
    (tmp_path / "e.csv").write_text("1.5,2\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(duke.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "True"]


def test_csv_from_a_pipe_is_read_once(tmp_path):
    # the chunked reader reads a file twice, so a pipe goes to np.loadtxt
    fifo = tmp_path / "e.csv"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as fh:
            fh.write("0.5,-1.25\n2,3\n")

    writer = threading.Thread(target=write)
    writer.start()
    arr = dataset._parse_csv(fifo, False)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert arr.tolist() == [[0.5, -1.25], [2.0, 3.0]]


def test_csv_without_extended_precision_reads_with_loadtxt(tmp_path,
                                                           monkeypatch):
    p = tmp_path / "e.csv"
    p.write_text("0.1,-0\n2.5,3\n")
    monkeypatch.setattr(dataset, "_pow10", lambda: None)

    def refuse(*args):
        raise AssertionError("the chunked reader ran")

    monkeypatch.setattr(dataset, "_parse_csv_chunked", refuse)
    arr = dataset._parse_csv(p, False)
    assert arr.tobytes() == np.array([[0.1, -0.0], [2.5, 3.0]]).tobytes()


@pytest.mark.parametrize("text,header", [("", False), ("x,y\n", True),
                                         ("\n \n", False)])
def test_csv_without_rows_is_empty_input(tmp_path, text, header):
    p = tmp_path / "e.csv"
    p.write_text(text)
    for parse in (dataset._parse_csv, dataset._parse_csv_reference):
        with pytest.raises(EmptyInput):
            parse(p, header)


def test_csv_reference_runs_only_when_the_c_reader_fails(tmp_path,
                                                         monkeypatch):
    calls = []
    ref = dataset._parse_csv_reference

    def spy(*args):
        calls.append(args)
        return ref(*args)

    monkeypatch.setattr(dataset, "_parse_csv_reference", spy)
    p = tmp_path / "e.csv"
    p.write_text("h\n1.5, 2\r\n\n-3e2,inf\n")
    arr = dataset._parse_csv(p, True)
    assert arr.tolist() == [[1.5, 2.0], [-300.0, np.inf]] and not calls
    # loadtxt rejects the underscore, float() accepts it
    p.write_text("1_0,2\n")
    assert dataset._parse_csv(p, False).tolist() == [[10.0, 2.0]]
    assert len(calls) == 1


def test_load_raw_float32(tmp_path):
    p = tmp_path / "e.bin"
    np.arange(8, dtype="<f4").tofile(p)
    emb = load_embeddings(str(p), "euclidean", fmt="raw-float32", dim=2)
    assert emb.features.shape == (4, 2)
    assert emb.features.dtype == np.float64
    assert emb.features[3, 0] == 6.0


def test_load_raw_float32_truncated(tmp_path):
    p = tmp_path / "e.bin"
    np.arange(7, dtype="<f4").tofile(p)
    with pytest.raises(TruncatedInput):
        load_embeddings(str(p), "euclidean", fmt="raw-float32", dim=2)


def test_load_raw_float32_trailing_bytes(tmp_path):
    p = tmp_path / "e.bin"
    p.write_bytes(np.arange(6, dtype="<f4").tobytes() + b"\0\0")
    with pytest.raises(TruncatedInput) as exc:
        load_embeddings(str(p), "euclidean", fmt="raw-float32", dim=3)
    assert exc.value.details == {"bytes": 26}


def test_load_raw_float32_errors_name_the_width_flag(tmp_path):
    # the probabilities' row width is --classes, the embeddings' --dim
    p = tmp_path / "p.bin"
    np.arange(8, dtype="<f4").tofile(p)
    with pytest.raises(MalformedValue) as exc:
        load_probabilities(str(p), fmt="raw-float32")
    assert exc.value.details == {"classes": None}
    with pytest.raises(TruncatedInput) as exc:
        load_probabilities(str(p), fmt="raw-float32", classes=7)
    assert exc.value.details == {"values": 8, "classes": 7}
    with pytest.raises(TruncatedInput) as exc:
        load_embeddings(str(p), "euclidean", fmt="raw-float32", dim=7)
    assert exc.value.details == {"values": 8, "dim": 7}


def test_load_raw_float32_reads_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_RAW_CHUNK", 5)
    vals = np.random.default_rng(0).normal(size=(7, 3)).astype("<f4")
    p = tmp_path / "e.bin"
    vals.tofile(p)
    arr = dataset.load_matrix(p, "raw-float32", 3)
    assert arr.dtype == np.float64
    assert np.array_equal(arr, vals.astype(np.float64))


def test_load_weights_and_probs(tmp_path):
    wp = tmp_path / "w.csv"
    wp.write_text("0.5\n0.25\n1.0\n")
    w = load_weights(str(wp))
    assert list(w.values) == [0.5, 0.25, 1.0]
    pp = tmp_path / "p.csv"
    pp.write_text("0.6,0.4\n0.9,0.1\n")
    probs = load_probabilities(str(pp))
    assert probs.values.shape == (2, 2)


def test_subset_view():
    emb = EmbeddingSet(np.arange(10.0).reshape(5, 2), "euclidean")
    sub = emb.subset(np.array([0, 3]))
    assert sub.features.shape == (2, 2)
    assert sub.features[1, 0] == 6.0


@pytest.mark.parametrize("metric", METRICS)
def test_subset_keeps_the_metric_and_the_rows_bits(metric):
    # a partition-parallel run selects on subsets; with one worker its
    # selection equals the sequential one only if every distance keeps its
    # bits there
    pts = 3.0 + np.random.default_rng(8).normal(size=(40, 7))
    emb = EmbeddingSet(pts, metric)
    idx = np.random.default_rng(9).permutation(40)[:25]
    sub = emb.subset(idx)
    assert sub.metric == metric
    assert sub.features.tobytes() == pts[idx].tobytes()
    for j, i in enumerate(idx[:5]):
        assert metric_row(sub, j).tobytes() == metric_row(emb, i)[idx].tobytes()
