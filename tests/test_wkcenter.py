import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from conftest import farthest_point_traversal, per_round_selection, refused

from duke.dataset import (
    EmbeddingSet,
    WeightVector,
    distance_matrix,
    metric_row,
)
from duke import dataset, wkcenter
from duke.errors import (
    BudgetExceedsGroundSet,
    EmptyCenters,
    InvalidArgument,
    NormOutOfRange,
    SizeMismatch,
    ZeroVectorCosine,
)
from duke.oracle import brute_force_weighted
from duke.parallel import make_partition, parallel_weighted_kcenter
from duke.wkcenter import (
    check_selection,
    default_lambda,
    evaluate_solution,
    gamma_bounds,
    gamma_search,
    greedy_kcenter,
    make_gamma_grid,
    weighted_kcenter,
)


def wv(*vals):
    return WeightVector(np.array(vals, dtype=float))


def _radius(emb, centers):
    # the k-center cost: distance from the farthest point to its center
    zero = WeightVector(np.zeros(emb.n))
    return evaluate_solution(emb, zero, 0.0, centers, "t").radius_term


def test_evaluated_radius_line(line_points):
    assert _radius(line_points, [1, 4]) == 2.0
    assert _radius(line_points, [0, 1, 2, 3, 4]) == 0.0
    with pytest.raises(EmptyCenters):
        _radius(line_points, [])


def test_evaluated_radius_center_order_irrelevant(rng):
    emb = EmbeddingSet(rng.normal(size=(30, 3)), "euclidean")
    a = _radius(emb, [3, 11, 27])
    b = _radius(emb, [27, 3, 11])
    assert a == b


def test_evaluated_radius_checks_cosine_zero_row_once_before_any_distance(
        rng, monkeypatch):
    calls = {"check": 0}
    check = dataset._check_rows

    def counted_check(emb_):
        calls["check"] += 1
        return check(emb_)

    monkeypatch.setattr(dataset, "_check_rows", counted_check)
    reads = _count_reads(monkeypatch)
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 3 * 4)   # 4 rows a block
    pts = rng.normal(size=(30, 3)) + 2.0
    zero = pts.copy()
    zero[17] = 0.0
    # the rows are checked once, when the set is made; the first center's
    # row is one read of all 30 points; every block is screened for the
    # other centers, and only the one pair of the farthest point and the
    # center that can be nearest to it is read exactly
    for centers in ([1, 9, 20], [1, 9, 20, 3, 5, 12, 27, 29, 0]):
        calls.update(check=0)
        reads.clear()
        emb = EmbeddingSet(pts, "cosine-distance")
        got = _radius(emb, centers)
        assert got > 0.0 and calls == {"check": 1}
        assert [len(r) for _, r in reads] == [30, 1]
        assert reads[0] == (centers[0], list(range(30)))
        farthest = np.flatnonzero(
            np.min([metric_row(emb, c) for c in centers], axis=0) == got)
        assert reads[1][1][0] in farthest
        calls.update(check=0)
        reads.clear()
        with pytest.raises(ZeroVectorCosine) as exc:
            EmbeddingSet(zero, "cosine-distance")
        assert exc.value.details == {"index": 17}
        assert calls == {"check": 1} and reads == []


def test_weighted_objective_identity(line_points):
    w = wv(0.1, 0.2, 0.3, 0.4, 0.5)
    sol = evaluate_solution(line_points, w, 2.0, [4, 0], "t",
                            gamma_used=1.5, extra={"x": 1})
    assert sol.radius_term == 3.0
    assert sol.weight_term == 0.1 + 0.5
    assert sol.objective == sol.radius_term + 2.0 * sol.weight_term
    assert (sol.indices, sol.algorithm, sol.gamma_used, sol.extra) == \
        ([4, 0], "t", 1.5, {"x": 1})
    # lambda zero reduces to the plain cover radius
    sol0 = evaluate_solution(line_points, w, 0.0, [0, 4], "t")
    assert sol0.objective == sol0.radius_term == 3.0
    with pytest.raises(InvalidArgument):
        evaluate_solution(line_points, w, -1.0, [0, 4], "t")
    with pytest.raises(SizeMismatch):
        evaluate_solution(line_points, wv(0.1, 0.2), 1.0, [0], "t")


def test_weight_sum_order_canonical():
    # summation happens in ascending index order regardless of how the
    # subset is handed in, so reports never depend on selection history
    vals = np.array([0.1, 0.7, 0.3, 0.9, 0.2], dtype=float)
    emb = EmbeddingSet(np.arange(5.0)[:, None], "euclidean")
    w = WeightVector(vals)
    a = evaluate_solution(emb, w, 1.0, [4, 0, 2], "t")
    b = evaluate_solution(emb, w, 1.0, [2, 4, 0], "t")
    assert a.weight_term == b.weight_term == float(vals[[0, 2, 4]].sum())


def test_greedy_line(line_points):
    w = wv(0.1, 0.2, 0.3, 0.4, 0.5)
    sol = greedy_kcenter(line_points, w, 2)
    assert sol.indices == [0, 4]
    assert sol.radius_term == 3.0
    assert sol.algorithm == "greedy-kcenter"
    # the picks ignore the weights; the score uses them
    assert sol.objective == 3.0
    scored = greedy_kcenter(line_points, w, 2, 2.0)
    assert scored.indices == [0, 4]
    assert scored.objective == 3.0 + 2.0 * (0.1 + 0.5)
    three = greedy_kcenter(line_points, w, 3)
    assert three.indices == [0, 4, 3]


def test_greedy_farthest_tie_lowest_index():
    emb = EmbeddingSet(np.array([[0.0], [1.0], [-1.0]]), "euclidean")
    sol = greedy_kcenter(emb, wv(0.5, 0.0, 0.5), 2)
    assert sol.indices == [0, 1]


@st.composite
def _traversal_cases(draw):
    """Point sets on which a deferred traversal could go astray: maxima
    tied within and across blocks, duplicate rows, and heads of 1 to 3
    rows, which run out and send blocks to be read whole again and again;
    and rows at 1e200, whose squared norms overflow, to be refused."""
    metric = draw(st.sampled_from(dataset.METRICS))
    n = draw(st.integers(1, 90))
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["normal", "lattice", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "normal":
        pts = rng.normal(size=(n, dim))
    elif kind == "lattice":
        # few distinct distances: the farthest point ties in several blocks
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
    else:
        pts = 1e200 * rng.normal(size=(n, dim))
    dup = rng.integers(0, n, size=n // 3)
    pts[n - 1 - dup] = pts[dup]           # duplicated rows, across blocks
    if metric == "cosine-distance":
        pts[~np.abs(pts).any(axis=1)] = 1.0
    return (metric, pts, draw(st.integers(1, n)), draw(st.integers(1, 40)),
            draw(st.integers(1, 3)))


@given(_traversal_cases())
@settings(max_examples=300, deadline=None)
def test_greedy_equals_the_full_row_traversal(case):
    metric, pts, k, rows_per_block, head = case
    if refused(pts, metric):
        return
    emb = EmbeddingSet(pts, metric)
    w = WeightVector(np.zeros(emb.n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "BLOCK_BYTES", 8 * emb.dim * rows_per_block)
        mp.setattr(wkcenter, "_HEAD", head)
        sol = greedy_kcenter(emb, w, k)
        indices, radius = farthest_point_traversal(emb, k)
    assert sol.indices == indices
    assert _bits(sol.radius_term) == _bits(radius)


@st.composite
def _screened_cases(draw):
    """Point sets and settings that send the traversal and the covering
    radius through the screen and the exact reads of a few points: small
    blocks, a wide screen band, small products and radius groups. Random
    floats, lattices with tied distances, duplicated rows, points far from
    the origin, and norms near 2^+-445 and 2^+-460, inside and outside the
    accepted range (outside, the rows are refused); k runs from 1 to n.
    The traversal's heads run from none to larger than a block."""
    metric = draw(st.sampled_from(dataset.METRICS))
    n = draw(st.integers(1, 120))
    dim = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["normal", "lattice", "offset", "scaled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "normal":
        pts = rng.normal(size=(n, dim))
    elif kind == "lattice":
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
    elif kind == "offset":
        pts = 1e4 + rng.normal(size=(n, dim))
    else:
        scale = draw(st.sampled_from([-460, -445, 445, 460]))
        pts = 2.0 ** scale * rng.normal(size=(n, dim))
    dup = rng.integers(0, n, size=n // 3)
    pts[n - 1 - dup] = pts[dup]           # duplicated rows, across blocks
    if metric == "cosine-distance":
        pts[~np.abs(pts).any(axis=1)] = 1.0
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    centers = draw(st.one_of(
        st.just(list(range(n))),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=40)))
    knobs = {(dataset, "BLOCK_BYTES"): 8 * dim * draw(st.integers(1, 24)),
             (dataset, "SCREEN_SPREAD"): draw(st.sampled_from([1, 8, 512])),
             (dataset, "SCREEN_BYTES"): draw(st.sampled_from(
                 [8, 8 * 64 * 3, 1 << 18])),
             (dataset, "_RADIUS_GROUP"): draw(st.integers(1, 20)),
             (wkcenter, "_HEAD"): draw(st.sampled_from([0, 1, 2, 3, 128]))}
    return metric, pts, k, centers, knobs


@given(_screened_cases())
@settings(max_examples=150, deadline=None)
def test_screened_traversal_equals_the_full_row_traversal(case):
    metric, pts, k, _, knobs = case
    if refused(pts, metric):
        return
    emb = EmbeddingSet(pts, metric)
    w = WeightVector(np.zeros(emb.n))
    with pytest.MonkeyPatch.context() as mp:
        for (module, name), value in knobs.items():
            mp.setattr(module, name, value)
        sol = greedy_kcenter(emb, w, k)
        indices, radius = farthest_point_traversal(emb, k)
    assert sol.indices == indices
    assert _bits(sol.radius_term) == _bits(radius)


@given(_screened_cases())
@settings(max_examples=150, deadline=None)
def test_screened_covering_radius_equals_the_row_fold(case):
    metric, pts, _, centers, knobs = case
    if refused(pts, metric):
        return
    emb = EmbeddingSet(pts, metric)
    with pytest.MonkeyPatch.context() as mp:
        for (module, name), value in knobs.items():
            mp.setattr(module, name, value)
        got = dataset.Cover(emb, centers).radius()
        rows = [metric_row(emb, c) for c in centers]
        want = np.minimum.reduce(rows).max()
    assert _bits(got) == _bits(want)


def _count_reads(monkeypatch):
    """Each exact row-kernel read, as a list of (point, the points it reads
    the distances to)."""
    reads = []
    raw = dataset._raw_block

    def counted(emb_, i, lo, hi, points=None):
        read = range(lo, hi) if points is None else points[lo:hi]
        reads.append((int(i), [int(p) for p in read]))
        return raw(emb_, i, lo, hi, points)

    monkeypatch.setattr(dataset, "_raw_block", counted)
    return reads


def test_greedy_reads_one_row_per_pick_on_separated_clusters(monkeypatch):
    # 24 tight clusters far apart, a block each: each round's farthest point
    # is the only candidate, and only its nearest center can be nearest, so
    # after point 0's row the traversal reads one exact pair distance per
    # round, the pick's (or the radius's) to that center. The full-row
    # traversal reads 11 rows into each of the 24 blocks.
    rng = np.random.default_rng(3)
    dim, per = 4, 8
    pts = (np.repeat(100.0 * rng.normal(size=(24, dim)), per, axis=0)
           + rng.normal(size=(24 * per, dim)))
    emb = EmbeddingSet(pts, "euclidean")
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * dim * per)
    indices, radius = farthest_point_traversal(emb, 12)
    dmin = np.min([metric_row(emb, c) for c in indices], axis=0)
    reads = _count_reads(monkeypatch)
    sol = greedy_kcenter(emb, WeightVector(np.zeros(emb.n)), 12)
    assert sol.indices == indices and _bits(sol.radius_term) == _bits(radius)
    assert reads[0] == (0, list(range(emb.n))) and len(reads) == 13
    # round i reads its farthest point's distance to one of its centers
    assert all(c in indices[:i + 1] and len(points) == 1
               for i, (c, points) in enumerate(reads[1:]))
    farthest = [points[0] for _, points in reads[1:]]
    assert farthest[:11] == indices[1:] and dmin[farthest[11]] == radius


def test_heads_spare_whole_block_screens_on_a_uniform_cube(monkeypatch):
    # a uniform cosine cube of 24 blocks, like the benchmark's: with heads
    # the traversal screens whole blocks less than half as often as with
    # none, where every visit reads its block whole, and the picks and
    # radius stay those of the full-row traversal
    rng = np.random.default_rng(7)
    emb = EmbeddingSet(rng.random((12000, 16)), "cosine-distance")
    w = WeightVector(np.zeros(emb.n))
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 16 * 500)
    indices, radius = farthest_point_traversal(emb, 60)
    whole = []
    screen = dataset._screen_rows

    def counted(emb_, lo, hi, cols, shift, out, points=None):
        whole.append(points is None)
        screen(emb_, lo, hi, cols, shift, out, points)

    monkeypatch.setattr(dataset, "_screen_rows", counted)
    screens = []
    for head in (0, wkcenter._HEAD):
        monkeypatch.setattr(wkcenter, "_HEAD", head)
        whole.clear()
        sol = greedy_kcenter(emb, w, 60)
        assert sol.indices == indices
        assert _bits(sol.radius_term) == _bits(radius)
        screens.append(sum(whole))
    assert 0 < 2 * screens[1] < screens[0], screens


@pytest.mark.parametrize("metric", ["euclidean", "manhattan",
                                    "cosine-distance"])
def test_each_center_is_screened_and_folded_into_a_block_at_most_once(
        monkeypatch, metric):
    # the traversal with its radius, and a fixed-gamma run with its exact
    # fallback and its radius, each keep one Cover: no block takes a center
    # twice into its screen or into its fold, and none takes the first
    # center, whose row starts the Cover. The exact reads of gathered
    # points are neither, and may read a center again.
    rng = np.random.default_rng(8)
    emb = EmbeddingSet(rng.normal(size=(300, 4))
                       + 8.0 * rng.integers(0, 3, size=(300, 1)), metric)
    w = WeightVector(rng.uniform(size=300))
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 4 * 16)
    folds, screens = [], []
    fold, screen = dataset.fold_block, dataset._screen_rows

    def counted_fold(emb_, centers, lo, hi, out, points=None):
        if points is None:
            folds.extend((lo, int(c)) for c in centers)
        fold(emb_, centers, lo, hi, out, points)

    def counted_screen(emb_, lo, hi, cols, shift, out, points=None):
        if points is None:
            screens.extend((lo, tuple(c)) for c in cols)
        screen(emb_, lo, hi, cols, shift, out, points)

    monkeypatch.setattr(dataset, "fold_block", counted_fold)
    monkeypatch.setattr(dataset, "_screen_rows", counted_screen)
    for run in (lambda: greedy_kcenter(emb, w, 40),
                lambda: weighted_kcenter(emb, w, 40, 0.1, 0.3)):
        folds.clear()
        screens.clear()
        sol = run()
        assert len(folds) == len(set(folds))
        assert sol.indices[0] not in {c for _, c in folds}
        assert len(screens) == len(set(screens))
        first = tuple(dataset._product_form(emb, sol.indices[:1])[0][0])
        assert first not in {c for _, c in screens}
        assert (len(screens) > 0) == (metric != "manhattan")
        assert len(folds) > 0 or metric != "manhattan"


def test_selector_seeds_global_min_weight(line_points):
    w = wv(0.5, 0.4, 0.3, 0.2, 0.1)
    sol = weighted_kcenter(line_points, w, 1, 1.0, 100.0)
    assert sol.indices == [4]


def test_selector_min_weight_tie_lowest_index(line_points):
    w = wv(0.3, 0.3, 0.3, 0.3, 0.3)
    sol = weighted_kcenter(line_points, w, 2, 1.0, 100.0)
    assert sol.indices == [0, 1]


def test_selector_big_gamma_collects_lightest(line_points):
    # with an enormous gamma nothing is ever far, so after the seed the
    # selector keeps taking the lightest unselected point
    w = wv(0.1, 0.1, 1.0, 1.0, 1.0)
    sol = weighted_kcenter(line_points, w, 2, 1.0, 100.0)
    assert sol.indices == [0, 1]
    assert sol.radius_term == 9.0
    assert sol.weight_term == pytest.approx(0.2)
    # one tight cluster: every round after the seed fills with the lightest
    # unselected point, in ascending weight
    pts = EmbeddingSet(np.array([[0.0], [0.01], [0.02], [0.03], [0.04]]),
                       "euclidean")
    sol = weighted_kcenter(pts, wv(0.5, 0.1, 0.4, 0.2, 0.3), 4, 1.0, 100.0)
    assert sol.indices == [1, 3, 4, 2]


def test_selector_small_gamma_chases_far_points(line_points):
    w = wv(0.1, 0.1, 1.0, 1.0, 1.0)
    sol = weighted_kcenter(line_points, w, 2, 1.0, 2.0)
    # the outlier at 10 is beyond 3*gamma from the seed, so its ball is
    # searched for the lightest representative
    assert sol.indices == [0, 4]
    assert sol.radius_term == 3.0
    assert sol.objective < 9.0 + 0.2


def test_selector_ball_pick_is_lightest_within_gamma():
    pts = EmbeddingSet(np.array([[0.0], [5.5], [7.0]]), "euclidean")
    w = wv(0.1, 0.2, 0.5)
    sol = weighted_kcenter(pts, w, 2, 1.0, 2.0)
    # index 2 is the only far point (7 > 3*gamma from the seed) and so
    # anchors the round, but index 1 sits inside its gamma ball and is
    # lighter, so the selector substitutes it
    assert sol.indices == [0, 1]


def _count_rows(monkeypatch):
    """The point of each metric_row call made by dataset or wkcenter, as a
    list."""
    rows = []
    row = dataset.metric_row

    def counted(emb, i):
        rows.append(int(i))
        return row(emb, i)

    monkeypatch.setattr(dataset, "metric_row", counted)
    monkeypatch.setattr(wkcenter, "metric_row", counted)
    return rows


def test_far_round_reuses_the_anchor_row_when_it_is_the_pick(monkeypatch):
    rows = _count_rows(monkeypatch)
    # blocks of two rows keep the selector's screen on
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 2)

    def run(pts, w, k, gamma):
        emb = EmbeddingSet(np.array(pts)[:, None], "euclidean")
        rows.clear()
        sol = weighted_kcenter(emb, wv(*w), k, 1.0, gamma)
        computed = len(rows)
        want, radius, far_rounds = per_round_selection(emb, w,
                                                       k, gamma)
        del rows[computed:]         # the definition's own rows
        assert (sol.indices, sol.radius_term, sol.far_rounds) == \
            (want, radius, far_rounds)
        return sol.indices

    # one unselected point ahead of each anchor, and six heavy ones by the
    # seed: the ball is screened, and the seed's is the only row
    assert run([0.0, 10.0, 20.0] + [0.5] * 6, [0.0, 0.1, 0.2] + [0.9] * 6,
               3, 1.0) == [0, 1, 2]
    assert rows == [0]
    # three of four points ahead of anchor 10: its row decides the ball, and
    # as it is its own pick the row also brings every screened distance up
    # to date; the fill pick 0.5 needs no row of its own
    assert run([0.0, 0.5, 1.0, 10.0], [0.0, 0.1, 0.2, 0.3], 3, 1.0) == [0, 3, 1]
    assert rows == [0, 3]
    # anchor 3.4 picks the lighter 2.5 within gamma, whose row is not needed
    assert run([0.0, 2.5, 3.4], [0.0, 0.25, 0.5], 2, 1.0) == [0, 1]
    assert rows == [0, 2]


def test_an_anchor_whose_row_was_folded_is_never_screened(monkeypatch):
    # anchor 10 is its own pick and its row decides the ball, so the row is
    # folded into every point at once: no block screen, the radius's
    # included, takes its product column, and each of the two blocks takes
    # only the fill pick 0.5's
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 2)
    emb = EmbeddingSet(np.array([[0.0], [0.5], [1.0], [10.0]]), "euclidean")
    screens = []
    screen = dataset._screen_rows

    def counted_screen(emb_, lo, hi, cols, shift, out, points=None):
        if points is None:
            screens.extend((lo, tuple(c)) for c in cols)
        screen(emb_, lo, hi, cols, shift, out, points)

    monkeypatch.setattr(dataset, "_screen_rows", counted_screen)
    sol = weighted_kcenter(emb, wv(0.0, 0.1, 0.2, 0.3), 3, 1.0,
                           1.0)
    assert sol.indices == [0, 3, 1]
    column = {i: tuple(dataset._product_form(emb, [i])[0][0])
              for i in (1, 3)}
    assert screens == [(0, column[1]), (2, column[1])]


def test_selector_deterministic(rng):
    emb = EmbeddingSet(rng.normal(size=(40, 3)), "euclidean")
    w = WeightVector(rng.random(40))
    cfg = (6, 0.5, 1.3)
    a = weighted_kcenter(emb, w, *cfg)
    b = weighted_kcenter(emb, w, *cfg)
    assert a.indices == b.indices
    assert a.objective == b.objective
    assert a.radius_term == b.radius_term


def test_selector_input_validation(line_points):
    w = wv(0.1, 0.2, 0.3, 0.4, 0.5)
    with pytest.raises(BudgetExceedsGroundSet):
        weighted_kcenter(line_points, w, 6, 1.0, 1.0)
    with pytest.raises(BudgetExceedsGroundSet):
        check_selection(line_points, w, 0, 1.0, 1.0)
    with pytest.raises(InvalidArgument):
        check_selection(line_points, w, 2, -1.0, 1.0)
    with pytest.raises(InvalidArgument):
        check_selection(line_points, w, 2, 1.0, -0.5)
    with pytest.raises(InvalidArgument):
        check_selection(line_points, w, 2, 1.0, float("nan"))
    check_selection(line_points, w, 5, 0.0, float("inf"))
    # weights of another length are refused first
    with pytest.raises(SizeMismatch):
        check_selection(line_points, wv(0.1, 0.2), 6, -1.0, float("nan"))
    with pytest.raises(SizeMismatch):
        weighted_kcenter(line_points, wv(0.1, 0.2), 2, 1.0, 1.0)
    with pytest.raises(SizeMismatch):
        greedy_kcenter(line_points, wv(0.1, 0.2), 2)


def test_stored_terms_match_recomputation(rng):
    emb = EmbeddingSet(rng.normal(size=(25, 2)), "euclidean")
    w = WeightVector(rng.random(25))
    for sol in (weighted_kcenter(emb, w, 5, 0.7, 0.9),
                greedy_kcenter(emb, w, 5, 0.7)):
        again = evaluate_solution(emb, w, 0.7, sol.indices,
                                  sol.algorithm)
        assert sol.radius_term == again.radius_term
        assert sol.weight_term == again.weight_term
        assert sol.objective == again.objective


def test_gamma_bounds_line(line_points):
    w = wv(0.1, 0.2, 0.3, 0.4, 0.5)
    lo, hi, t0, order, row = gamma_bounds(line_points, w, 2)
    # upper bound: cover radius of the two lightest points {0,1}
    assert hi == 9.0
    # lower bound: half the greedy radius
    assert lo == 1.5
    assert lo <= hi
    # the lightest point's row, unfolded, reaches the outlier at 10
    assert (t0, order.tolist()) == (10.0, [0, 1, 2, 3, 4])
    assert row.tolist() == [0.0, 1.0, 2.0, 3.0, 10.0]
    assert not (order.flags.writeable or row.flags.writeable)


def test_gamma_bounds_k_equals_n(line_points):
    w = wv(0.1, 0.2, 0.3, 0.4, 0.5)
    lo, hi = gamma_bounds(line_points, w, 5)[:2]
    assert hi == 0.0
    assert lo == 0.0


def test_gamma_bounds_bracket_optimum(rng):
    # the optimal weighted radius always lands inside [lo, hi]
    for trial in range(25):
        n = int(rng.integers(5, 11))
        k = int(rng.integers(2, min(5, n)))
        emb = EmbeddingSet(rng.normal(size=(n, 2)), "euclidean")
        w = WeightVector(rng.random(n))
        lam = float(rng.choice([0.0, 0.1, 1.0]))
        lo, hi = gamma_bounds(emb, w, k)[:2]
        star = brute_force_weighted(emb, w, k, lam).radius_term
        assert lo <= star <= hi


def test_make_gamma_grid():
    grid = make_gamma_grid(1.0, 16.0, 5)
    assert len(grid) == 5
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(16.0)
    assert np.all(np.diff(grid) > 0)
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0])
    single = make_gamma_grid(1.0, 16.0, 1)
    assert single[0] == pytest.approx(4.0)
    # degenerate lower bound is floored instead of breaking the geometry
    floored = make_gamma_grid(0.0, 1.0, 3)
    assert floored[0] > 0.0


def test_gamma_search_trace_and_best(rng):
    emb = EmbeddingSet(rng.normal(size=(16, 2)), "euclidean")
    w = WeightVector(rng.random(16))
    sol, trace = gamma_search(emb, w, 4, 0.5, grid_size=8)
    assert len(trace) == 8
    objectives = [obj for _, obj in trace]
    assert sol.objective == min(objectives)
    assert sol.gamma_used in [g for g, _ in trace]
    gammas = [g for g, _ in trace]
    assert gammas == sorted(gammas)


def _bits(x):
    return struct.pack("<d", x)


@st.composite
def _small_instances(draw):
    """Small selections with duplicate rows, weight ties, gamma 0 and 1e9."""
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 3))
    # few distinct coordinates and weights: duplicate rows and weight ties
    pts = np.array(draw(st.lists(
        st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 1.5, 3.0]),
                 min_size=dim, max_size=dim), min_size=n, max_size=n)))
    w = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                      min_size=n, max_size=n))
    metric = draw(st.sampled_from(["euclidean", "manhattan", "cosine-distance"]))
    assume(metric != "cosine-distance" or np.all(np.abs(pts).sum(axis=1) > 0))
    gamma = draw(st.one_of(st.just(0.0), st.just(1e9), st.floats(0.0, 4.0)))
    k = draw(st.integers(1, n))
    return pts, w, metric, gamma, k


# three weight levels over 300 points: the far anchors, the ball picks and
# the fill slice all rest on the index tie-break
_TIED_RNG = np.random.default_rng(0)
_TIED = (_TIED_RNG.normal(size=(300, 2)), _TIED_RNG.integers(0, 3, size=300) / 2.0,
         "euclidean")


# None keeps one kernel block, where the selector keeps no screen; blocks of
# a few rows turn the screen on
_ROWS_PER_BLOCK = st.sampled_from([None, 1, 2, 3, 5])


def _blocks(mp, pts, rows_per_block):
    if rows_per_block is not None:
        mp.setattr(dataset, "BLOCK_BYTES",
                   8 * np.shape(pts)[1] * rows_per_block)


@given(_small_instances(), _ROWS_PER_BLOCK)
@example((*_TIED, 0.05, 40), None)
@example((*_TIED, 0.4, 40), 16)
@example((*_TIED, 100.0, 40), 16)
@settings(max_examples=300, deadline=None)
def test_selector_matches_per_round_definition(inst, rows_per_block):
    pts, w, metric, gamma, k = inst
    emb = EmbeddingSet(pts, metric)
    with pytest.MonkeyPatch.context() as mp:
        _blocks(mp, pts, rows_per_block)
        sol = weighted_kcenter(emb, WeightVector(np.array(w)), k, 0.5,
                               gamma)
    want, radius, far_rounds = per_round_selection(emb, w, k, gamma)
    assert sol.indices == want
    assert _bits(sol.radius_term) == _bits(radius)
    assert sol.far_rounds == far_rounds


@st.composite
def _threshold_instances(draw):
    """Integer-grid selections whose gamma is a pairwise distance or a third
    of one, so that screened values fall within their error bound of a
    threshold; with duplicate rows, cosine norms near 2^500 and 2^-500
    (refused: there is no distance, and gamma is 1), and the ball test
    screened always, by default or never. The screen is on only with blocks
    of a few rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40))
    pts = rng.integers(-3, 4, size=(n, draw(st.integers(1, 4)))).astype(float)
    dup = rng.integers(0, n, size=n // 3)
    pts[n - 1 - dup] = pts[dup]
    metric = draw(st.sampled_from(["euclidean", "manhattan", "cosine-distance"]))
    if metric == "cosine-distance":
        pts[~pts.any(axis=1)] = 1.0
        pts *= draw(st.sampled_from([1.0, 2.0 ** 500, 2.0 ** -500]))
    w = rng.integers(0, 4, size=n) / 4.0
    i, j = rng.integers(0, n, size=2)
    try:
        d = float(dataset.metric_row(EmbeddingSet(pts, metric), int(i))[j])
    except NormOutOfRange:
        d = 1.0
    gamma = draw(st.sampled_from([d, d / 3.0]))
    share = draw(st.sampled_from([0, wkcenter._BALL_SHARE, 10 ** 9]))
    return (pts, w, metric, gamma, draw(st.integers(1, n)), share,
            draw(_ROWS_PER_BLOCK))


@given(_threshold_instances())
@settings(max_examples=300, deadline=None)
def test_selector_on_thresholds_matches_per_round_definition(inst):
    pts, w, metric, gamma, k, share, rows_per_block = inst
    if refused(pts, metric):
        return
    emb = EmbeddingSet(pts, metric)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wkcenter, "_BALL_SHARE", share)
        _blocks(mp, pts, rows_per_block)
        sol = weighted_kcenter(emb, WeightVector(w), k, 0.5, gamma)
    want, radius, far_rounds = per_round_selection(emb, w, k, gamma)
    assert sol.indices == want
    assert _bits(sol.radius_term) == _bits(radius)
    assert sol.far_rounds == far_rounds


def test_band_decisions_go_to_the_row_kernel(monkeypatch):
    # after the first far round takes (100, 0), (115, 0) is exactly 3*gamma
    # from it and exactly gamma from the next far anchor (120, 0); ten heavy
    # points by the seed keep the ball screened, and blocks of two rows keep
    # the screen on. Manhattan gives the same distances and has no screen at
    # all.
    pts = np.array([[0.0, 0.0], [100.0, 0.0], [115.0, 0.0], [120.0, 0.0]]
                   + [[0.0, 1.0]] * 10)
    w = WeightVector(np.array([0.0, 0.1, 0.2, 0.3] + [0.9] * 10))
    monkeypatch.setattr(dataset, "BLOCK_BYTES", 8 * 2 * 2)
    calls = []
    # rows are counted wherever computed. The far band's exact values come
    # from the Cover, which also reads for the radius, so they are the reads
    # made before the radius: gathered pairs (dataset's _row_block with
    # points) where there is a screen, block folds where there is none.
    # _row_block in wkcenter is the ball band's and _screen_rows there the
    # selector's screen.
    hooks = [(dataset, "metric_row", "metric_row"),
             (wkcenter, "metric_row", "metric_row"),
             (dataset, "fold_block", "fold_block"),
             (dataset, "_row_block", "gathered"),
             (wkcenter, "_row_block", "ball"),
             (wkcenter, "_screen_rows", "_screen_rows"),
             (dataset.Cover, "radius", "radius")]
    for mod, name, label in hooks:
        def counted(*args, _f=getattr(mod, name), _label=label):
            # metric_row's own call of the kernel reads no gathered points
            if _label != "gathered" or len(args) > 4:
                calls.append(_label)
            return _f(*args)
        monkeypatch.setattr(mod, name, counted)
    for metric, far_band in (("euclidean", "gathered"),
                             ("manhattan", "fold_block")):
        calls.clear()
        sol = weighted_kcenter(EmbeddingSet(pts, metric), w, 3, 1.0, 5.0)
        assert sol.indices == [0, 1, 2]
        assert calls.count("metric_row") == 1
        assert far_band in calls[:calls.index("radius")]
        assert "ball" in calls
        assert ("_screen_rows" in calls) == (metric == "euclidean")
        # the far test was settled by a lower bound on the anchor's 20
        assert sol.span.t_hi <= 20.0 and sol.span.g_hi == np.inf


def test_clustered_far_rounds_compute_only_the_seed_row(monkeypatch):
    # clusters-raw-pinned-far in small: 20 gaussian clusters in 32 dims and
    # gamma 1 far below the spread of a cluster, so every round is far and
    # every anchor is its own ball pick
    rng = np.random.default_rng([3, 0])
    centers = rng.normal(0.0, 10.0, size=(20, 32))
    emb = EmbeddingSet(centers[np.arange(4000) % 20]
                       + rng.normal(0.0, 1.0, size=(4000, 32)), "euclidean")
    w = rng.uniform(0.0, 1.0, size=4000)
    rows = _count_rows(monkeypatch)
    sol = weighted_kcenter(emb, WeightVector(w), 100, 0.001, 1.0)
    assert rows == [int(np.argmin(w))]
    want, radius, far_rounds = per_round_selection(emb, w, 100, 1.0)
    assert sol.indices == want and far_rounds == sol.far_rounds == 99
    assert _bits(sol.radius_term) == _bits(radius)


@st.composite
def _permuted_instances(draw):
    """Selections with distinct weights on random floats or on a small
    grid, in every metric, with gamma at a pairwise distance, a third of
    one, or drawn; a permutation of the rows; and kernel blocks of 1 to 8
    rows, so that the screen and the exact reads of gathered points are
    on."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 48))
    metric = draw(st.sampled_from(dataset.METRICS))
    if draw(st.booleans()):
        pts = rng.normal(size=(n, dim))
    else:
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
        pts[~pts.any(axis=1)] = 1.0
    w = rng.permutation(n) / n
    i, j = rng.integers(0, n, size=2)
    d = float(metric_row(EmbeddingSet(pts, metric), int(i))[j])
    gamma = draw(st.sampled_from([d, d / 3.0, float(rng.uniform(0.0, 2.0))]))
    k = draw(st.integers(1, n))
    rows_per_block = draw(st.integers(1, 8))
    return pts, w, metric, gamma, k, rng.permutation(n), rows_per_block


# Every distance a selection compares with gamma or 3*gamma is a pair's
# row-kernel value, which keeps its bits wherever the pair's rows sit
# (test_dataset's test_a_pair_gets_the_same_bits_at_any_row_position), and
# distinct weights leave no tie to the index order. So permuting the rows
# permutes the selection and keeps the radius bits, on random floats and in
# cosine too, with gamma exactly on a distance or a third of one.
@given(_permuted_instances())
@settings(max_examples=200, deadline=None)
def test_selection_follows_a_permutation_of_the_input(inst):
    pts, w, metric, gamma, k, perm, rows_per_block = inst
    cfg = (k, 0.5, gamma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "BLOCK_BYTES", 8 * pts.shape[1] * rows_per_block)
        sol = weighted_kcenter(EmbeddingSet(pts, metric), WeightVector(w),
                               *cfg)
        moved = weighted_kcenter(EmbeddingSet(pts[perm], metric),
                                 WeightVector(w[perm]), *cfg)
    assert [int(perm[i]) for i in moved.indices] == sol.indices
    assert _bits(moved.radius_term) == _bits(sol.radius_term)


# On the line -2, 1.5, 3 (lightest first) point 3 is the far anchor for
# 3*gamma in [3.5, 5). At gamma 1.2 it is its own ball pick, and point 1.5
# ahead of it ends the span below gamma 1.5; at gamma 1.5 point 1.5 is the
# pick, and the span starts at the run's own gamma, the first guess at
# which point 1.5 is within gamma of the anchor.
_LINE = ([[-2.0], [1.5], [3.0]], [0.0, 0.25, 0.5], "euclidean")


@given(_small_instances())
@example((*_LINE, 1.2, 2))
@example((*_LINE, 1.5, 2))
@settings(max_examples=200, deadline=None)
def test_selection_repeats_at_every_gamma_in_its_span(inst):
    pts, w, metric, gamma, k = inst
    emb, w = EmbeddingSet(np.array(pts), metric), WeightVector(np.array(w))

    def run(g):
        return weighted_kcenter(emb, w, k, 0.5, g)

    sol = run(gamma)
    assert gamma in sol.span
    # the selector compares gamma and 3.0*gamma with distances, so the
    # selection can only change at a distance d or near d/3: probe both,
    # one ulp to either side, and the ends of the range
    d = np.unique(distance_matrix(emb))
    probes = np.concatenate([d, d / 3.0, [0.0, gamma, 1e9]])
    probes = np.concatenate([probes, np.nextafter(probes, -np.inf),
                             np.nextafter(probes, np.inf)])
    for g in np.unique(probes[probes >= 0.0]):
        if float(g) not in sol.span:
            continue
        other = run(float(g))
        assert other.indices == sol.indices
        assert _bits(other.radius_term) == _bits(sol.radius_term)
        assert _bits(other.objective) == _bits(sol.objective)


def test_clustered_search_runs_the_selector_once(monkeypatch):
    # clusters-csv-search in small: 20 gaussian clusters, k = 100
    rng = np.random.default_rng([1, 0])
    centers = rng.normal(0.0, 10.0, size=(20, 32))
    pts = centers[np.arange(2000) % 20] + rng.normal(0.0, 1.0, size=(2000, 32))
    emb = EmbeddingSet(pts, "euclidean")
    w = WeightVector(rng.uniform(0.0, 1.0, size=2000))
    runs = []
    selector = wkcenter.weighted_kcenter

    def counted(*args):
        runs.append(selector(*args))
        return runs[-1]

    monkeypatch.setattr(wkcenter, "weighted_kcenter", counted)
    sol, trace = gamma_search(emb, w, 100, 0.001, grid_size=8)
    assert len(runs) == 1 and runs[0].far_rounds > 0
    grid = make_gamma_grid(*gamma_bounds(emb, w, 100)[:2], 8)
    for g, (traced_g, objective) in zip(grid, trace):
        full = selector(emb, w, 100, 0.001, float(g))
        assert full.indices == sol.indices
        assert (traced_g, objective) == (float(g), full.objective)


def test_search_computes_the_seed_row_once(monkeypatch):
    # the grid runs start from the bracket's order and its copy of the
    # lightest point's row: that row is computed once, and the run gives
    # what a run that computes its own gives
    rng = np.random.default_rng([1, 0])
    centers = rng.normal(0.0, 10.0, size=(20, 32))
    pts = centers[np.arange(2000) % 20] + rng.normal(0.0, 1.0, size=(2000, 32))
    emb = EmbeddingSet(pts, "euclidean")
    w = WeightVector(rng.uniform(0.0, 1.0, size=2000))
    runs = []
    selector = wkcenter.weighted_kcenter

    def counted(*args):
        runs.append(args[5:])
        return selector(*args)

    monkeypatch.setattr(wkcenter, "weighted_kcenter", counted)
    rows = _count_rows(monkeypatch)
    sol, _ = gamma_search(emb, w, 100, 0.001)
    seed = int(np.argmin(w.values))
    assert len(runs) == 1 and len(runs[0]) == 1 and sol.far_rounds > 0
    assert rows.count(seed) == 1
    alone = selector(emb, w, 100, 0.001, sol.gamma_used)
    assert (sol.indices, sol.far_rounds, _bits(sol.objective)) == \
        (alone.indices, alone.far_rounds, _bits(alone.objective))
    assert rows.count(seed) == 2


def test_gamma_search_equals_selector_at_every_grid_gamma(rng, monkeypatch):
    runs = []
    selector = wkcenter.weighted_kcenter

    def counted(*args):
        runs.append(1)
        return selector(*args)

    monkeypatch.setattr(wkcenter, "weighted_kcenter", counted)
    stopped = {"duke": 0, "parallel": 0}
    for trial in range(40):
        n = int(rng.integers(3, 30))
        k = int(rng.integers(1, n))
        metric = ("euclidean", "cosine-distance")[trial % 2]
        emb = EmbeddingSet(rng.normal(size=(n, 2)), metric)
        w = WeightVector(np.round(rng.random(n), 1))
        parts = make_partition(n, 2, seed=trial,
                               strategy=("round-robin", "random")[trial % 2])

        def duke(g):
            return selector(emb, w, k, 0.5, g)

        def parallel(g):
            runs.append(1)
            return parallel_weighted_kcenter(emb, w, k, 0.5, g, parts)

        grid = make_gamma_grid(*gamma_bounds(emb, w, k)[:2], 8)
        # the default runner is duke's; parallel runs are passed in
        for name, run, runner in (("duke", duke, None),
                                  ("parallel", parallel, parallel)):
            runs.clear()
            sol, trace = gamma_search(emb, w, k, 0.5, grid_size=8,
                                      runner=runner)
            stopped[name] += len(runs) < 8
            full = [run(float(g)) for g in grid]
            assert trace == [(float(g), r.objective)
                             for g, r in zip(grid, full)]
            best = min(full, key=lambda r: r.objective)    # first of equals
            assert sol.indices == best.indices
            assert sol.gamma_used == best.gamma_used
            assert (sol.radius_term, sol.weight_term, sol.objective) == \
                (best.radius_term, best.weight_term, best.objective)
    # the early stop fired on part of the instances, not on all
    assert all(0 < s < 40 for s in stopped.values()), stopped


@st.composite
def _search_instances(draw):
    """Small searches, half of them on the cosine cube, whose grid is mostly
    all-fill."""
    if draw(st.booleans()):
        pts, w, metric, _, k = draw(_small_instances())
        return np.array(pts), np.array(w), metric, k
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40))
    pts = rng.random((n, draw(st.integers(2, 16))))
    w = np.round(rng.random(n), draw(st.sampled_from([1, 3])))
    return pts, w, "cosine-distance", draw(st.integers(1, n))


@given(_search_instances(), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_gamma_search_equals_a_selector_run_at_every_grid_gamma(inst, size):
    pts, w, metric, k = inst
    emb, w = EmbeddingSet(pts, metric), WeightVector(w)
    sol, trace = gamma_search(emb, w, k, 0.5, grid_size=size)
    grid = make_gamma_grid(*gamma_bounds(emb, w, k)[:2], size)
    full = [weighted_kcenter(emb, w, k, 0.5, float(g)) for g in grid]
    assert trace == [(float(g), r.objective) for g, r in zip(grid, full)]
    best = min(full, key=lambda r: r.objective)    # first of equals
    assert (sol.indices, sol.gamma_used, sol.far_rounds) == \
        (best.indices, best.gamma_used, best.far_rounds)
    assert [_bits(x) for x in (sol.radius_term, sol.weight_term, sol.objective)] == \
        [_bits(x) for x in (best.radius_term, best.weight_term, best.objective)]
    # a grid the bracket's top answers whole runs no selector to check lambda
    with pytest.raises(InvalidArgument):
        gamma_search(emb, w, k, -1.0, grid_size=size)


def test_gamma_search_beats_three_x_on_euclidean(rng):
    # grid search over the bracketed range stays within the guarantee
    # bound of the enumerated optimum on metric instances
    for trial in range(15):
        n = int(rng.integers(6, 12))
        k = int(rng.integers(2, 5))
        emb = EmbeddingSet(rng.normal(size=(n, 2)), "euclidean")
        w = WeightVector(rng.random(n))
        lam = float(rng.choice([0.1, 1.0]))
        sol, _ = gamma_search(emb, w, k, lam, grid_size=12)
        opt = brute_force_weighted(emb, w, k, lam)
        assert sol.objective <= 3.0 * opt.objective + 1e-9


def test_default_lambda():
    assert default_lambda(10) == 0.1 / 10
    assert default_lambda(4500) == pytest.approx(0.1 / 4500)
    with pytest.raises(InvalidArgument):
        default_lambda(0)


# The two fixtures below are real instances found by randomized search.
# They document where the cosine surrogate parts ways with true metrics:
# 1 - cos violates the triangle inequality, so the 3x radius guarantee
# and the 2x greedy guarantee can both fail under it. Euclidean and
# manhattan runs have never produced a violation (see the verify suite).

_COSINE_3G_POINTS = np.array([
    [0.5314240038211964, 2.0733948580811488],
    [1.339627726304564, 0.6857476350806772],
    [-1.8678675927680242, -0.5315219241951155],
    [1.6319293621081006, -2.1074308932448007],
    [-0.515903375491901, -0.6936401279349796],
    [2.093162655810762, -0.5244890536546931],
    [0.08787093104729264, -0.6765085985485735],
])
_COSINE_3G_WEIGHTS = np.array([
    0.11212290320939988, 0.25302590578356166, 0.07244731763219792,
    0.7012598878723227, 0.5346292830089735, 0.6811248453200025,
    0.8995819181634812,
])


def test_cosine_radius_can_exceed_three_gamma_star():
    emb = EmbeddingSet(_COSINE_3G_POINTS, "cosine-distance")
    w = WeightVector(_COSINE_3G_WEIGHTS)
    star = brute_force_weighted(emb, w, 3, 0.1).radius_term
    assert star == pytest.approx(0.2811590464474556)
    sol = weighted_kcenter(emb, w, 3, 0.1, star)
    assert sol.radius_term > 3.0 * star
    assert sol.radius_term == pytest.approx(0.8524732345133944)


_COSINE_GREEDY_POINTS = np.array([
    [0.19741365231431526, -0.5439981304035021],
    [-0.04405912149974852, -0.07729256326094218],
    [-0.03637038490501321, -0.0347471219115299],
    [-0.6523781063835983, -1.0540027955565343],
    [-0.6643563093536256, 1.0715383406436483],
    [0.3741618064648528, 0.5869553605920156],
    [1.3799679163043477, -1.1794309331731632],
    [0.5099524214818214, -1.0750741052027453],
    [-0.3343325988668879, 0.4842398427706556],
    [1.614345267136424, -0.7821649424751884],
])


def test_cosine_greedy_can_exceed_two_x_but_not_four():
    from duke.oracle import brute_force_kcenter

    emb = EmbeddingSet(_COSINE_GREEDY_POINTS, "cosine-distance")
    sol = greedy_kcenter(emb, WeightVector(np.zeros(emb.n)), 4)
    opt = brute_force_kcenter(emb, 4)
    ratio = sol.radius_term / opt.radius_term
    assert ratio == pytest.approx(2.178943889069998)
    assert ratio > 2.0
    # half of squared euclidean still obeys a doubled triangle
    # inequality, which caps greedy at 4x
    assert ratio <= 4.0
