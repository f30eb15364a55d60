import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ProbabilityOutOfRange,
    RaggedRow,
    RowSumError,
    TooFewClasses,
    TruncatedInput,
    UnknownMetric,
    ZeroVectorCosine,
)
from duke.wkcenter import weighted_kcenter


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


def test_weight_vector_range():
    WeightVector(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ProbabilityOutOfRange):
        WeightVector(np.array([1.5]))


def test_pairwise_euclidean_345():
    emb = EmbeddingSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert metric_row(emb, "euclidean", 0)[1] == 5.0


def test_pairwise_manhattan():
    emb = EmbeddingSet(np.array([[1.0, 2.0], [4.0, -2.0]]))
    assert metric_row(emb, "manhattan", 0)[1] == 7.0


def test_pairwise_cosine_landmarks():
    emb = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [5.0, 0.0]]))
    row = metric_row(emb, "cosine-distance", 0)
    assert row[1] == pytest.approx(1.0)
    assert row[2] == pytest.approx(2.0)
    # parallel vectors of different norm are at distance zero
    assert row[3] == 0.0
    # self distance is exactly zero by construction
    assert metric_row(emb, "cosine-distance", 2)[2] == 0.0


def test_cosine_zero_vector_rejected():
    emb = EmbeddingSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ZeroVectorCosine):
        metric_row(emb, "cosine-distance", 1)
    # euclidean does not care about zero rows
    assert metric_row(emb, "euclidean", 0)[1] == 1.0


def test_unknown_metric():
    emb = EmbeddingSet(np.array([[0.0], [1.0]]))
    with pytest.raises(UnknownMetric):
        metric_row(emb, "chebyshev", 0)


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
    emb = EmbeddingSet(pts)
    step = dataset.block_rows(emb)
    assert n % step != 0 and n > 2 * step
    # blocks lacking five or six centers take the fold, eleven or twelve
    # the screen
    for centers in ([0, 3, step + 1, n - 1, n - 4, 2],
                    [0, 3, step + 1, n - 1, n - 4, 2, 7, 8, 9, 30, 31, n - 2]):
        ref = metric_row(emb, metric, centers[0]).copy()
        for c in centers[1:]:
            np.minimum(ref, metric_row(emb, metric, c), out=ref)
        assert _bits(_cover_radius(emb, metric, centers)) == _bits(ref.max())
        first = metric_row(emb, metric, n // 2)
        assert _bits(_cover_radius(emb, metric, [n // 2, *centers])) == \
            _bits(np.minimum(ref, first).max())
        assert _bits(_cover_radius(emb, metric, [n // 2])) == \
            _bits(first.max())


def _cover_radius(emb, metric, centers):
    return Cover(emb, metric, centers).radius()


def _bits(x):
    return np.float64(x).tobytes()


def _fold_radius(emb, metric, centers):
    """The covering radius by its definition: every center's row, folded."""
    rows = [metric_row(emb, metric, int(c)) for c in centers]
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
        # squared norms and products near or past the largest float
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
    # reads of blocks and points between the adds leave each block holding
    # a different leading run of the centers; the radius, and every read,
    # is still the row fold's
    metric, pts, centers, rows_per_block = case
    emb = EmbeddingSet(pts)
    reads = st.lists(st.tuples(st.booleans(), st.integers(0, 2 ** 16)),
                     max_size=3)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore",
                                                         invalid="ignore"):
        # a tiny block puts centers inside and outside most blocks
        mp.setattr(dataset, "BLOCK_BYTES", 8 * emb.dim * rows_per_block)
        want = _fold_radius(emb, metric, centers)
        cover = Cover(emb, metric, centers[:1])
        for m, c in enumerate(centers[1:], 2):
            cover.add(c)
            for whole, pick in data.draw(reads):
                if whole:
                    b = pick % cover.folded.size
                    lo = b * cover.step
                    points = np.arange(lo, min(lo + cover.step, emb.n))
                    got = cover.block(b)
                else:
                    points = np.unique((pick + np.r_[0, 7, 13, 31]) % emb.n)
                    got = cover.at(points)
                rows = [metric_row(emb, metric, c)[points]
                        for c in centers[:m]]
                want_at = np.minimum.reduce(rows)
                # bit for bit, but a NaN's sign may differ
                nan = np.isnan(want_at)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want_at[~nan].tobytes()
        got = cover.radius()
    assert _bits(got) == _bits(want) or (np.isnan(got) and np.isnan(want))


@given(_radius_cases(), st.integers(0, 2 ** 16), st.booleans())
@settings(max_examples=300, deadline=None)
def test_fold_block_bitwise_equals_the_row_fold(case, pick, use_out):
    metric, pts, centers, rows_per_block = case
    emb = EmbeddingSet(pts)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore",
                                                         invalid="ignore"):
        mp.setattr(dataset, "BLOCK_BYTES", 8 * emb.dim * rows_per_block)
        step = dataset.block_rows(emb)
        lo = step * (pick % -(-emb.n // step))
        hi = min(lo + step, emb.n)
        # with a tiny block, centers fall inside it as well as outside
        rows = [dataset._row_block(emb, metric, c, lo, hi) for c in centers]
        out = np.full(hi - lo, np.inf)
        if use_out:
            out = dataset._row_block(emb, metric, centers[-1] // 2, lo, hi)
            rows.insert(0, out.copy())
        want = rows[0]
        for row in rows[1:]:
            want = np.minimum(want, row)
        fold_block(emb, metric, centers, lo, hi, out)
    assert out.tobytes() == want.tobytes()


def test_fold_block_keeps_the_nan_a_row_holds_at_a_center():
    # the squared norms overflow, so y.x / (|y| |x|) is NaN between the two
    # centers: each center's own row holds 0 at the center, the other's NaN,
    # and the fold keeps the NaN where a fold of the largest products would
    # force 0
    emb = EmbeddingSet(np.array([[1e200, 1e200], [1e200, -1e200], [1.0, 2.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.full(3, np.inf)
        fold_block(emb, "cosine-distance", [0, 1], 0, 3, got)
        rows = [metric_row(emb, "cosine-distance", c) for c in (0, 1)]
    assert np.isnan(got[:2]).all() and got[2] == 1.0
    assert got.tobytes() == np.minimum(*rows).tobytes()


def test_covering_radius_overflowed_screen_takes_the_exact_path(monkeypatch):
    # 1-d points at +-0.9e154: the squared norms are finite, but the screen's
    # |c|^2 - 2 y.c + |y|^2 across the origin overflows, as does the kernel's
    # squared distance; the overflowed block is folded and holds the radius
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 4)
    pts = np.r_[np.full(12, 0.9e154), np.full(4, -0.9e154)][:, None]
    emb = EmbeddingSet(pts)
    blocks = []
    rows = dataset._raw_block

    def counted(emb_, metric, i, lo, hi):
        blocks.append(lo)
        return rows(emb_, metric, i, lo, hi)

    monkeypatch.setattr(dataset, "_raw_block", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _cover_radius(emb, "euclidean", list(range(8)))
    assert got == np.inf and 12 in blocks


def test_covering_radius_rechecks_one_block_when_separated(monkeypatch):
    # 40 tight clusters and a center in each but the last: only the block
    # holding that cluster can hold the radius, so after the first center's
    # row the exact fold runs there alone; a fallback to the fold of every
    # block fails here
    rng = np.random.default_rng(4)
    dim, per = 8, 64
    centers_at = 100.0 * rng.normal(size=(40, dim))
    pts = np.repeat(centers_at, per, axis=0) + rng.normal(size=(40 * per, dim))
    emb = EmbeddingSet(pts)
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * dim * per)
    step = dataset.block_rows(emb)
    centers = list(range(0, 39 * per, per))
    blocks = []
    rows = dataset._raw_block

    def counted(emb_, metric, i, lo, hi):
        blocks.append(lo)
        return rows(emb_, metric, i, lo, hi)

    monkeypatch.setattr(dataset, "_raw_block", counted)
    for metric in ("euclidean", "cosine-distance"):
        blocks.clear()
        got = _cover_radius(emb, metric, centers)
        assert blocks == [0] + [39 * step] * (len(centers) - 1)
        monkeypatch.setattr(dataset, "_raw_block", rows)
        assert _bits(got) == _bits(_fold_radius(emb, metric, centers))
        monkeypatch.setattr(dataset, "_raw_block", counted)


def test_distance_matrix_symmetric(rng):
    emb = EmbeddingSet(rng.normal(size=(15, 4)))
    for metric in ("euclidean", "manhattan", "cosine-distance"):
        dist = distance_matrix(emb, metric)
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
    emb = EmbeddingSet(pts)
    f = emb.features
    centers = sorted({0, n - 1, int(dup[0]), int(dup[0] + 1) % n,
                      *range(0, n, 7)})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "BLOCK_BYTES", 8 * dim * rows_per_block)
        rows = {c: metric_row(emb, "euclidean", c) for c in centers}
        radius = _cover_radius(emb, "euclidean", centers)
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
    emb = EmbeddingSet(pts)
    f = emb.features
    s = emb.sq_norms() + emb.sq_norms()[0]
    near = s - 2.0 * (f @ f[0]) <= dataset.NEAR * s
    assert dataset.block_rows(emb) > len(pts)
    assert near[:5].all() and not near[5:8].any()
    row = metric_row(emb, "euclidean", 0)
    assert row[[0, 1, 8]].tolist() == [0.0, 0.0, 0.0]
    diff = f[2:5] - f[0]
    assert np.array_equal(row[2:5], np.sqrt(np.einsum("ij,ij->i", diff, diff)))
    _assert_euclid_close(row, _euclid_reference(f, 0), dim)

    # squared norms that overflow take the exact path as well
    big = np.array([[1e160, 1e160], [1e160, 1e160 * (1 + 2.0 ** -40)],
                    [1e160, 1e160]])
    with np.errstate(over="ignore", invalid="ignore"):
        row = metric_row(EmbeddingSet(big), "euclidean", 0)
    assert row[2] == 0.0
    assert row[1] == big[1, 1] - big[0, 1]


def test_far_offset_duplicates_reach_radius_zero_at_gamma_zero():
    rng = np.random.default_rng(11)
    distinct = 1e6 + rng.normal(size=(12, 16))
    pts = distinct[rng.integers(0, 12, size=90)]
    pts[:12] = distinct
    emb = EmbeddingSet(pts)
    weights = WeightVector(rng.uniform(size=90))
    sol = weighted_kcenter(emb, "euclidean", weights, 12, 0.5, 0.0)
    assert sol.radius_term == 0.0
    assert sorted(map(tuple, pts[sol.indices])) == sorted(map(tuple, distinct))


_KERNEL_HASH = """
import hashlib
import numpy as np
from duke.dataset import Cover, EmbeddingSet, metric_row
h = hashlib.sha256()
rng = np.random.default_rng(3)
# 10 and 2 blocks with a short last one; a single matrix-vector product over
# all 20001 rows gives different bits under 1 and 2 threads
for n, dim in ((20001, 64), (9001, 16)):
    pts = 5.0 + rng.normal(size=(n, dim))
    pts[n - 9:] = pts[:9]
    emb = EmbeddingSet(pts)
    for metric in ("euclidean", "cosine-distance", "manhattan"):
        for i in (0, 1, n - 1):
            h.update(metric_row(emb, metric, i).tobytes())
        for centers in (range(0, n, n // 12), range(0, n, n // 4)):
            # blocks lacking 12 centers take the screen, 4 the fold
            radius = Cover(emb, metric, list(centers)).radius()
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


def test_embedding_validation():
    with pytest.raises(NonFiniteValue):
        EmbeddingSet(np.array([[1.0], [np.nan]]))
    with pytest.raises(EmptyInput):
        EmbeddingSet(np.zeros((0, 2)))


def test_containers_leave_the_callers_array_writable():
    pts = np.arange(12.0).reshape(6, 2)
    w = np.full(6, 0.5)
    emb = EmbeddingSet(pts)
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
    emb = load_embeddings(str(p), fmt="raw-float32", dim=2)
    assert not parsed[0].flags.writeable
    assert emb.features is parsed[0]


def test_load_csv(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    emb = load_embeddings(str(p), fmt="csv")
    assert emb.features.shape == (3, 2)
    assert emb.features[2, 1] == 6.0


def test_load_csv_header_and_blank_lines(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("x,y\n1.0,2.0\n\n3.0,4.0\n")
    emb = load_embeddings(str(p), fmt="csv", header=True)
    assert emb.features.shape == (2, 2)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "e.csv"
    # blank lines are skipped and not counted: the bad row is data row 2
    p.write_text("1,2\n3,4\n\n5,6,7\n8,9\n")
    with pytest.raises(RaggedRow) as exc:
        load_embeddings(str(p), fmt="csv")
    assert exc.value.details["row"] == 2


def test_load_csv_malformed_and_nonfinite(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n\n3,oops\n")
    with pytest.raises(MalformedValue) as exc:
        load_embeddings(str(bad), fmt="csv")
    assert exc.value.details["row"] == 1
    nf = tmp_path / "nf.csv"
    nf.write_text("1,2\n\nnan,4\n")
    with pytest.raises(NonFiniteValue) as exc:
        load_embeddings(str(nf), fmt="csv")
    assert exc.value.details["row"] == 1


def test_load_csv_empty(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(EmptyInput):
        load_embeddings(str(p), fmt="csv")


def test_load_csv_invalid_utf8_names_the_row(tmp_path):
    p = tmp_path / "e.csv"
    p.write_bytes(b"1,2\n\n3,4\n5,\xff6\n")
    with pytest.raises(MalformedValue) as exc:
        load_embeddings(str(p), fmt="csv")
    assert exc.value.details == {"row": 2, "token": "\\xff6"}


def _csv_outcome(parse, path, header):
    try:
        arr = parse(path, header)
    except DukeError as exc:
        return type(exc), exc.details
    return arr.dtype, arr.shape, arr.tobytes()


_NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
)
_ODD_TOKENS = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "Infinity", "1e500", "-1e500", "1e-500",
    "1_0", "", " ", "#", "1 # c", "x", "\u0661", "\u00a01", "0x10", '"1"',
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
            pad = draw(st.sampled_from(["", "", "", " ", "\t"]))
            tokens.append(pad + tok + pad)
        lines.append(",".join(tokens))
    header = draw(st.booleans())
    if header:
        lines.insert(0, draw(st.sampled_from(["x,y", "a", "", "1,2", "# h"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if lines and draw(st.booleans()) else "")
    return text, header


@given(case=_csv_texts())
@settings(max_examples=400, deadline=None)
def test_csv_fast_path_matches_the_reference(tmp_path_factory, case):
    # the C reader must give the reference parser's bits, or its error
    text, header = case
    path = tmp_path_factory.mktemp("csv") / "e.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (_csv_outcome(dataset._parse_csv, path, header)
            == _csv_outcome(dataset._parse_csv_reference, path, header))


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
    emb = load_embeddings(str(p), fmt="raw-float32", dim=2)
    assert emb.features.shape == (4, 2)
    assert emb.features.dtype == np.float64
    assert emb.features[3, 0] == 6.0


def test_load_raw_float32_truncated(tmp_path):
    p = tmp_path / "e.bin"
    np.arange(7, dtype="<f4").tofile(p)
    with pytest.raises(TruncatedInput):
        load_embeddings(str(p), fmt="raw-float32", dim=2)


def test_load_raw_float32_trailing_bytes(tmp_path):
    p = tmp_path / "e.bin"
    p.write_bytes(np.arange(6, dtype="<f4").tobytes() + b"\0\0")
    with pytest.raises(TruncatedInput) as exc:
        load_embeddings(str(p), fmt="raw-float32", dim=3)
    assert exc.value.details == {"bytes": 26}


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
    emb = EmbeddingSet(np.arange(10.0).reshape(5, 2))
    sub = emb.subset(np.array([0, 3]))
    assert sub.features.shape == (2, 2)
    assert sub.features[1, 0] == 6.0
