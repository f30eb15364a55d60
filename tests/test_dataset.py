import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duke import dataset
from duke.dataset import (
    EmbeddingSet,
    ProbabilityMatrix,
    WeightVector,
    distance_matrix,
    load_embeddings,
    load_probabilities,
    load_weights,
    margin_weights,
    metric_row,
    min_dists,
    pairwise_distance,
)
from duke.errors import (
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
    assert pairwise_distance(0, 1, emb, "euclidean") == 5.0


def test_pairwise_manhattan():
    emb = EmbeddingSet(np.array([[1.0, 2.0], [4.0, -2.0]]))
    assert pairwise_distance(0, 1, emb, "manhattan") == 7.0


def test_pairwise_cosine_landmarks():
    emb = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [5.0, 0.0]]))
    assert pairwise_distance(0, 1, emb, "cosine-distance") == pytest.approx(1.0)
    assert pairwise_distance(0, 2, emb, "cosine-distance") == pytest.approx(2.0)
    # parallel vectors of different norm are at distance zero
    assert pairwise_distance(0, 3, emb, "cosine-distance") == 0.0
    # self distance is exactly zero by construction
    assert pairwise_distance(2, 2, emb, "cosine-distance") == 0.0


def test_cosine_zero_vector_rejected():
    emb = EmbeddingSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ZeroVectorCosine):
        pairwise_distance(0, 1, emb, "cosine-distance")
    # euclidean does not care about zero rows
    assert pairwise_distance(0, 1, emb, "euclidean") == 1.0


def test_unknown_metric():
    emb = EmbeddingSet(np.array([[0.0], [1.0]]))
    with pytest.raises(UnknownMetric):
        metric_row(emb, "chebyshev", 0)


def test_metric_row_matches_pairwise(rng):
    pts = rng.normal(size=(20, 3))
    emb = EmbeddingSet(pts)
    for metric in ("euclidean", "manhattan", "cosine-distance"):
        for i in (0, 7, 19):
            row = metric_row(emb, metric, i)
            assert row[i] == 0.0
            for j in range(20):
                assert row[j] == pairwise_distance(i, j, emb, metric)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine-distance"])
@pytest.mark.parametrize("rows_per_block", [7, None])
def test_min_dists_bitwise_equals_row_minimum(rng, monkeypatch, metric,
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
    centers = [0, 3, step + 1, n - 1, n - 4, 2]
    ref = metric_row(emb, metric, centers[0]).copy()
    for c in centers[1:]:
        np.minimum(ref, metric_row(emb, metric, c), out=ref)
    assert np.array_equal(min_dists(emb, metric, centers), ref)
    for c in centers:
        row = metric_row(emb, metric, c)
        for j in (0, step - 1, step, n - 1):
            assert pairwise_distance(c, j, emb, metric) == row[j]


def test_distance_matrix_symmetric(rng):
    emb = EmbeddingSet(rng.normal(size=(15, 4)))
    for metric in ("euclidean", "manhattan", "cosine-distance"):
        dist = distance_matrix(emb, metric)
        assert dist.shape == (15, 15)
        assert np.all(np.diag(dist) == 0.0)
        np.testing.assert_allclose(dist, dist.T, atol=1e-12)


def test_embedding_validation():
    with pytest.raises(NonFiniteValue):
        EmbeddingSet(np.array([[1.0], [np.nan]]))
    with pytest.raises(EmptyInput):
        EmbeddingSet(np.zeros((0, 2)))


def test_containers_leave_the_callers_array_writable():
    pts = np.arange(12.0).reshape(6, 2)
    labels = np.arange(6)
    w = np.full(6, 0.5)
    emb = EmbeddingSet(pts, labels)
    wv = WeightVector(w)
    pts[0, 0] = 1.0
    labels[0] = 7
    w[0] = 0.25
    # the containers hold their own read-only copies
    assert emb.features[0, 0] == 0.0
    assert emb.labels[0] == 0
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
    p.write_text("1,2\n3,4\n5,6,7\n8,9\n")
    with pytest.raises(RaggedRow) as exc:
        load_embeddings(str(p), fmt="csv")
    assert exc.value.details["row"] == 2


def test_load_csv_malformed_and_nonfinite(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    with pytest.raises(MalformedValue):
        load_embeddings(str(bad), fmt="csv")
    nf = tmp_path / "nf.csv"
    nf.write_text("1,2\nnan,4\n")
    with pytest.raises(NonFiniteValue):
        load_embeddings(str(nf), fmt="csv")


def test_load_csv_empty(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(EmptyInput):
        load_embeddings(str(p), fmt="csv")


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
    emb = EmbeddingSet(np.arange(10.0).reshape(5, 2), labels=np.arange(5))
    sub = emb.subset(np.array([0, 3]))
    assert sub.features.shape == (2, 2)
    assert sub.features[1, 0] == 6.0
    assert list(sub.labels) == [0, 3]
