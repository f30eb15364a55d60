"""Weighted k-center subset selection.

The objective being minimized over k-subsets S is

    max_i min_{c in S} d(i, c)  +  lambda * sum_{c in S} w(c)

i.e. covering radius plus a weight penalty. Low weight means the model is
uncertain about the point, so the penalty pulls the selection toward uncertain
points while the radius term keeps it spread out. lambda = 0 recovers plain
k-center.

The main selector runs at a fixed guess ``gamma`` of the achievable radius.
Each round it either takes the lightest unselected point outright (when every
point is already within 3*gamma of the current centers) or finds the lightest
point c that is still farther than 3*gamma and admits the lightest point
within gamma of c. Run at a gamma no smaller than the radius of the optimal
solution, the result is within 3x of the optimal objective and never carries
more weight than the optimum. A gamma grid search runs it over a bracket of
guesses.

A run computes one full row, the seed's, which the grid search takes from
the bracket instead, and an anchor's only when a quarter of the set is
ahead of it in a ball test. Both of its tests compare a
distance with a threshold, so each is settled from screened point-to-center
distances, kept per point and brought up to date only when the far scan
reads the point, and the row kernel is asked only where a screened value
lies within its proven error bound of the threshold, for those points alone
(the bound-based skipping of Elkan, "Using the triangle inequality to
accelerate k-means", 2003). The picks are those of full rows. Distances to
the centers never grow, so once no point is farther than 3*gamma the run is
in its fill regime for good: the rest of the budget is the lightest
unselected points, taken in one slice, and one covering radius over all the
picks scores the run.

The bracket's farthest-point traversal computes one full row, its first
center's. It keeps a stale maximum of screened distances per kernel block
that bounds the block from above, and visits a block only when that block
could hold the next pick (lazy evaluation as in Minoux's accelerated
greedy, 1978). Each block keeps a head, its points with the largest
screened distances, whose values a visit brings up to date ahead of the
rest; the whole block is read, with one matrix product for every center it
lacks, only when the head no longer holds its maximum (per-point laziness
as in the CELF of Leskovec et al., 2007). Only points screened within
twice the screen's error bound of the top can be the pick, and only their
exact distances are computed, from their gathered rows and the centers
that can be nearest to them (Elkan 2003 again), so the picks and radius are
those of the full-row traversal bit for bit. On the benchmark's 100k x 64
cosine cube (seed 7) with k = 100 that is 100 exact pair distances, one a
round, and 49 whole-block screens, one per block, where screening each
block whole at every visit took 520 (``BENCH_head.json``).

The traversal, the fixed-gamma run and :func:`evaluate_solution` keep their
distances in one :class:`~duke.dataset.Cover`, which brings a kernel block
up to date only when the block is read, and whose covering radius takes
exact distances only for the points that can hold it.

The selection at a guess changes only when the guess crosses one of the
thresholds the run compared it with (the guess-the-radius structure of
Hochbaum & Shmoys 1985). A fixed-gamma run therefore records a span of
larger guesses at which every one of its comparisons comes out the same,
bounded by certified lower bounds on the distances it compared; a run at
any guess in that span repeats it pick for pick. The grid search
walks upward, runs the selector only at grid gammas outside the span of its
last run and copies the objective into the trace for the rest. A guess at
which the seed's row holds no point farther than 3*gamma fills with the k
lightest points; the bracket has already scored them, so the search runs
nothing there.

Every selection, whoever picked it, is scored by :func:`_scored` from its
covering radius: the selectors here pass the radius they computed, and
:func:`evaluate_solution` computes it with a
:class:`~duke.dataset.Cover` for picks that come without.

Weights and distances are consumed on their native scales; lambda alone
balances the two terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dataset import (
    Cover,
    EmbeddingSet,
    WeightVector,
    _product_form,
    _row_block,
    _screen_rows,
    metric_row,
    numeric_distances,
)
from .errors import BudgetExceedsGroundSet, InvalidArgument, SizeMismatch

__all__ = [
    "check_lambda",
    "check_selection",
    "GammaBracket",
    "GammaSpan",
    "SubsetSolution",
    "evaluate_solution",
    "greedy_kcenter",
    "weighted_kcenter",
    "gamma_bounds",
    "make_gamma_grid",
    "gamma_search",
    "default_lambda",
]


def check_lambda(lambda_: float) -> None:
    """Reject a weight penalty that is negative, infinite or NaN."""
    if not (math.isfinite(lambda_) and lambda_ >= 0.0):
        raise InvalidArgument(lambda_=lambda_)


def check_selection(n: int, k: int, lambda_: float, gamma: float) -> None:
    """Reject a budget outside [1, n], a bad lambda or a negative or NaN
    gamma; gamma = inf is a legal all-fill run."""
    if k < 1 or k > n:
        raise BudgetExceedsGroundSet(k=k, n=n)
    check_lambda(lambda_)
    # written so that NaN fails
    if not gamma >= 0.0:
        raise InvalidArgument(gamma=gamma)


@dataclass(frozen=True)
class GammaSpan:
    """The guesses from a run's own gamma upward at which it repeats itself.

    A run compares ``3.0 * gamma`` with distances to the centers (far
    anchors, entry into the fill regime) and ``gamma`` with distances to an
    anchor (ball picks). A distance found "at most" stays so at any larger
    guess; one found "greater" bounds the guess from above. ``t_hi`` and
    ``g_hi`` are the smallest such distances, or certified lower bounds on
    them where a run settled a comparison from a screened value without
    the exact one. At a guess ``gamma'`` with ``gamma <= gamma'``,
    ``3.0 * gamma' < t_hi`` and ``gamma' < g_hi`` a run makes every
    comparison the same way, so it returns the same indices and objective
    bit for bit. A span is therefore a subset, not always all, of the
    guesses at which the run repeats.
    """

    gamma: float
    t_hi: float = np.inf
    g_hi: float = np.inf

    def __contains__(self, gamma: float) -> bool:
        return self.gamma <= gamma < self.g_hi and 3.0 * gamma < self.t_hi


@dataclass
class SubsetSolution:
    """A selected subset plus its score.

    ``indices`` is the selection order. ``objective`` is
    ``radius_term + lambda * weight_term``, as :func:`_scored` computes it.

    ``far_rounds`` counts the rounds of a :func:`weighted_kcenter` run that
    took the far branch. ``span`` holds the guesses at which a
    :func:`weighted_kcenter` or partition-parallel run repeats itself
    (:class:`GammaSpan`, whose ends may be certified lower bounds, so it
    can be smaller than the set of such guesses); :func:`gamma_search`
    reads it. Other selectors
    leave both None. Neither is part of the report.
    """

    indices: list[int]
    radius_term: float
    weight_term: float
    objective: float
    algorithm: str
    gamma_used: float
    extra: dict = field(default_factory=dict)
    far_rounds: int | None = None
    span: GammaSpan | None = None


def _scored(weights: WeightVector, lambda_: float, indices, radius: float,
            algorithm: str, gamma_used: float = 0.0,
            **fields) -> SubsetSolution:
    """Score a selection from its covering radius.

    The weight sum runs in ascending index order, so equal sets score bit
    for bit the same whatever order they were picked in."""
    indices = [int(i) for i in indices]
    wsum = float(weights.values[np.sort(indices)].sum())
    return SubsetSolution(indices=indices, radius_term=radius,
                          weight_term=wsum, objective=radius + lambda_ * wsum,
                          algorithm=algorithm, gamma_used=gamma_used, **fields)


def evaluate_solution(emb: EmbeddingSet, metric: str, weights: WeightVector,
                      lambda_: float, indices, algorithm: str,
                      **fields) -> SubsetSolution:
    """Score a selection by the covering radius of a
    :class:`~duke.dataset.Cover` of its indices.

    ``fields`` are passed on to :class:`SubsetSolution`."""
    check_lambda(lambda_)
    if weights.n != emb.n:
        raise SizeMismatch(expected=emb.n, got=weights.n)
    return _scored(weights, lambda_, indices,
                   Cover(emb, metric, indices).radius(), algorithm, **fields)


# Rows per kernel block whose screened distances the traversal keeps up to
# date ahead of the rest of the block (the block's head). Traversal time,
# best of 7, one BLAS thread, k = 100, seed 7 of the benchmark's inputs: on
# the 100k x 64 cosine cube 0.119 s with no head (520 whole-block screens),
# 0.071 s at 16, 0.065 s at 32, 0.059 s at 64, 0.046 s at 128 (49 screens)
# and 0.057 s at 256; on 50k x 32 euclidean clusters 0.060 s with none
# and 0.036 s at each of 32, 64 and 128. Picks and radius bits are the same
# at every size, none included.
_HEAD = 128


def greedy_kcenter(emb: EmbeddingSet, metric: str, weights: WeightVector,
                   k: int, lambda_: float = 0.0) -> SubsetSolution:
    """Farthest-point traversal from point 0. 2-approximation for the
    k-center radius.

    Each round picks the point farthest from the centers so far, the lowest
    index among ties. The picks ignore weights; the traversal scores its own
    selection from the distances it folded.

    The distances are a :class:`~duke.dataset.Cover` from point 0's row.
    Each kernel block (the 1 MiB grid of :func:`~duke.dataset.block_rows`)
    keeps a head: its :data:`_HEAD` unselected points with the largest
    screened distances when the whole block was last brought up to date,
    and ``rest``, the next largest of them, which bounds every other point
    of the block, since distances to the centers never grow. The head runs
    ahead of the block: a visit brings only the head up to date
    (:meth:`~duke.dataset.Cover.gather`), and reads the whole block, with
    one product for every center it lacks, only when the head's largest
    value no longer exceeds ``rest``; the block's new head is then its
    largest values again. ``top``, a block's largest screened distance when
    it was last visited, is a stale bound on its current one. A round
    visits the block with the largest ``top`` (the lowest block on ties)
    until that block's ``top`` is current; it is then the largest screened
    distance of all (lazy evaluation as in Minoux's accelerated greedy,
    1978, and per point as in the CELF of Leskovec et al., 2007). The
    farthest point's exact distance is at least ``top - delta``, so only
    points screened at ``top - 2 delta`` or more can be it: each block that
    can hold one brings its head up to date, and the whole block where
    ``rest`` reaches that low, and one :meth:`~duke.dataset.Cover.exact`
    call gives those points' exact distances from the few centers that can
    be nearest. The last round's farthest distance is the radius. Where a
    distance can be NaN (:func:`~duke.dataset.numeric_distances`) no stale
    value is a bound, and every block is read whole every round. Indices
    and radius are those of folding every center's full row into every
    point, bit for bit (a NaN radius as NaN).
    """
    n = emb.n
    check_selection(n, k, lambda_, 0.0)
    if weights.n != n:
        raise SizeMismatch(expected=n, got=weights.n)
    cover = Cover(emb, metric, [0])
    selected, step, delta = cover.centers, cover.step, cover.delta
    held = np.zeros(n, dtype=bool)      # selected points, out of the heads
    held[0] = True
    # per block, each set by its first read: the largest screened distance
    # at its last visit, its point and the center count then; the head, the
    # center count it holds, and the bound on the rest of the block
    blocks = cover.screened.size
    top, rest = np.empty(blocks), np.empty(blocks)
    far, current, head_holds = (np.empty(blocks, dtype=np.int64)
                                for _ in range(3))
    heads = [None] * blocks
    # a head as large as its block would gather what a whole read reads
    # in place
    size = min(_HEAD, step // 2)
    # NaN is np.argmax's largest value and a fold can turn a number into
    # one, so where a distance can be NaN no stale value bounds a block:
    # every pick leaves every block unknown, and no head stands for one
    bounded = numeric_distances(emb, metric)

    def read_whole(b: int) -> None:
        lo = b * step
        s = np.where(held[lo:lo + step], -np.inf, cover.screen(b))
        far[b] = lo + int(s.argmax())
        top[b] = s[far[b] - lo]
        current[b] = head_holds[b] = len(selected)
        if s.size > size:
            part = np.argpartition(s, s.size - 1 - size)
            rest[b] = s[part[s.size - 1 - size]]
            head = lo + np.sort(part[s.size - size:])
        else:
            rest[b], head = -np.inf, lo + np.arange(s.size)
        heads[b] = head[~held[head]]

    def bring_head(b: int) -> np.ndarray:
        s = cover.gather(heads[b], head_holds[b])
        head_holds[b] = len(selected)
        return s

    def visit(b: int) -> None:
        if bounded:
            s = bring_head(b)
            if s.size and s.max() > rest[b]:
                j = int(s.argmax())
                far[b], top[b], current[b] = heads[b][j], s[j], len(selected)
                return
        read_whole(b)

    def exact_farthest(low: float) -> tuple[int, float]:
        """The unselected point farthest from the centers and its exact
        distance, given that every other is screened below ``low``."""
        m, cand = len(selected), []
        for b in np.flatnonzero(top >= low):
            bring_head(b)
            if rest[b] >= low and cover.screened[b] < m:
                read_whole(b)
            if cover.screened[b] == m:
                lo = b * step
                rows = lo + np.flatnonzero(~held[lo:lo + step])
            else:
                rows = heads[b]
            cand.append(rows[cover.near[rows] >= low])
        cand = np.concatenate(cand)
        e = cover.exact(cand, cover.near[cand])
        j = int(e.argmax())
        return int(cand[j]), e[j]

    for b in range(blocks):
        read_whole(b)
    while True:
        b = int(top.argmax())
        while current[b] < len(selected):
            visit(b)
            b = int(top.argmax())
        pick, radius = far[b], top[b]
        if delta and radius > -np.inf:
            pick, radius = exact_farthest(radius - 2.0 * delta)
        if len(selected) == k:
            break
        cover.add(pick)
        held[pick] = True
        b = pick // step
        heads[b] = heads[b][heads[b] != pick]
        if not bounded:
            top[:] = np.nan
    # A selected point is at distance 0 from itself, so the radius is the
    # largest unselected distance, or 0. Where a NaN can arise the loop has
    # brought every block up to date or stopped at a NaN that near holds.
    radius = max(float(radius), 0.0) if bounded else float(cover.near.max())
    return _scored(weights, lambda_, selected, radius, "greedy-kcenter")


# positions of the (weight, index) order a far scan reads at most at a time
_SCAN = 1024

# A ball test screens the unselected points ahead of its anchor while they
# are at most 1/_BALL_SHARE of the set; past that the anchor's row costs
# less, and when the anchor is its own pick the row also brings every
# screened distance up to date. Against the einsum row (one BLAS thread),
# screening a quarter of the set, gathered in weight order, took 0.64-0.72
# of a row at 50k x 32 and 0.32-0.39 at 100k x 64; a third took 0.84-0.94
# and 0.52-0.62, and a half 1.2-1.4 rows at 50k x 32.
_BALL_SHARE = 4


class _Nearest:
    """Each point's distance to its nearest center, screened and exact.

    ``screen[p]`` is a screened distance (:func:`~duke.dataset._screen_rows`)
    from the point at position p of the (weight, index) ``order`` to its
    nearest center, within ``delta`` of the row kernel's. It starts as the
    seed's exact row and is brought up to date lazily: a range of positions
    gets the centers it lacks, from the ``cover``'s product form, only when
    a far scan reads it. The counts of leading centers held are
    non-increasing in position past the scan's start, so they are kept as
    ``segs``, (end, count) runs with ends increasing, and ``base``, the
    count past the last run.

    ``cover`` (:class:`~duke.dataset.Cover`, from the seed's row) holds the
    centers and gives exact distances. A decision the screen leaves open, a
    value within ``delta`` of its threshold, is settled there. Where the
    cover's ``delta`` is 0 no screen is kept and every decision is settled
    exactly.
    """

    def __init__(self, emb: EmbeddingSet, metric: str, order: np.ndarray,
                 row: np.ndarray | None = None):
        self.emb, self.metric, self.order = emb, metric, order
        self.cover = Cover(emb, metric, order[:1], row)
        self.delta = self.cover.delta
        self.screen = self.cover.near[order] if self.delta else None
        self.segs: list[tuple[int, int]] = []
        self.base = 1

    def add(self, c: int, row: np.ndarray | None) -> None:
        """Make point c a center; ``row``, its exact row when known, is
        folded into every screened distance at once, and every run that
        lacked only c then holds it."""
        self.cover.add(c)
        if self.screen is None or row is None:
            return
        np.minimum(self.screen, row[self.order], out=self.screen)
        m = len(self.cover.centers)
        self.segs = [(end, m if count == m - 1 else count)
                     for end, count in self.segs]
        self.base = m if self.base == m - 1 else self.base

    def _bring(self, lo: int, hi: int) -> None:
        """Fold into positions lo..hi-1 the centers they lack."""
        a = lo
        for end, count in self.segs:
            if end <= a:
                continue
            b = min(end, hi)
            self._fold(a, b, count)
            a = b
            if a == hi:
                break
        if a < hi:
            self._fold(a, hi, self.base)
        m = len(self.cover.centers)
        self.segs = [(hi, m)] + [s for s in self.segs if s[0] > hi]

    def _fold(self, a: int, b: int, count: int) -> None:
        m = len(self.cover.centers)
        if count < m:
            _screen_rows(self.emb, self.metric, a, b,
                         self.cover.cols[count:m], self.cover.shift[count:m],
                         self.screen[a:b], self.order)

    def next_far(self, start: int, t: float) -> tuple[int, float]:
        """The first position from ``start`` on whose point is farther than
        ``t`` from the centers, and a lower bound on that distance: its
        screened value minus ``delta``, or its exact value where that was
        computed. ``(len(order), inf)`` if there is none.

        Windows of the order double in size from ``start``, up to
        :data:`_SCAN` positions."""
        n, delta = self.order.size, self.delta
        lo, width = start, 1
        while lo < n:
            hi = min(lo + width, n)
            width = min(2 * width, _SCAN)
            if self.screen is not None:
                self._bring(lo, hi)
                s = self.screen[lo:hi]
                far = np.flatnonzero(s - delta > t)
                end = int(far[0]) if far.size else hi - lo
                # NaN, and a value within delta of t, are open
                band = np.flatnonzero(~(s[:end] + delta <= t))
                near = s[band]
            else:
                far, end = (), hi - lo
                band, near = np.arange(end), None
            if band.size:
                e = self.cover.exact(self.order[lo + band], near)
                j = np.flatnonzero(e > t)
                if j.size:
                    return lo + int(band[j[0]]), float(e[j[0]])
            if len(far):
                return lo + end, float(s[end] - delta)
            lo = hi
        return n, np.inf

    def ball(self, a: int, taken: np.ndarray,
             gamma: float) -> tuple[int, float, np.ndarray | None]:
        """The position of the lightest unselected point within ``gamma`` of
        the anchor at position ``a``, a lower bound on the distances of the
        unselected points ahead of it, and the anchor's row if it was
        computed.

        The anchor is at distance 0 from itself, so the ball holds a point
        no later than ``a``. A point ahead is out when its screened distance
        minus ``delta`` exceeds ``gamma``, in when plus ``delta`` it does
        not; the row kernel decides the rest, from their gathered rows. When
        the points ahead are many the anchor's whole row decides instead."""
        c = int(self.order[a])
        ahead = np.flatnonzero(~taken[:a + 1])
        points = self.order[ahead]
        row = None
        if ahead.size * _BALL_SHARE > self.emb.n:
            row = metric_row(self.emb, self.metric, c)
            lower = row[points]
            p = int(np.argmax(lower <= gamma))
        else:
            lower = np.full(ahead.size, -np.inf)
            within = np.zeros(ahead.size, dtype=bool)
            if self.screen is not None:
                s = np.full(ahead.size, np.inf)
                _screen_rows(self.emb, self.metric, 0, ahead.size - 1,
                             *_product_form(self.emb, self.metric, [c]), s,
                             points)
                lower = s - self.delta
                within = s + self.delta <= gamma
            within[-1] = True
            p = int(np.argmax(within))
            band = np.flatnonzero(~(lower[:p] > gamma))
            if band.size:
                lower[band] = e = _row_block(self.emb, self.metric, c, 0,
                                             band.size, points[band])
                inside = np.flatnonzero(e <= gamma)
                if inside.size:
                    p = int(band[inside[0]])
        return int(ahead[p]), float(lower[:p].min(initial=np.inf)), row


def weighted_kcenter(emb: EmbeddingSet, metric: str, weights: WeightVector,
                     k: int, lambda_: float, gamma: float,
                     bracket: GammaBracket | None = None) -> SubsetSolution:
    """The selector at a fixed gamma.

    Seeds with the globally lightest point. Per round: if some point is still
    farther than 3*gamma from the centers, take the lightest such point c and
    add the lightest point within gamma of c; otherwise add the lightest
    unselected point. Ties always break to the lowest index.

    The only full row computed is the seed's, unless a ball test has many
    points ahead of its anchor. Both tests compare a distance with a
    threshold, so each is settled from screened point-to-center distances
    (:class:`_Nearest`) and goes to the row kernel only when the screened
    value lies within its error bound of the threshold; the decisions, and
    so the picks, are those of full rows.

    Distances to the centers never grow, so after the first round with no
    point farther than 3*gamma every later round is a fill round too. The run
    takes all of them at once: the next unselected entries of the (weight,
    index) order. The selection is scored by the covering radius of the
    run's :class:`~duke.dataset.Cover`, the same float as a pick-by-pick
    fold. For the same reason the points ahead of an anchor in that order
    stay within 3*gamma, so each far scan resumes after the last anchor,
    and a ball is read only up to its anchor, which it always holds.

    The run records its :class:`GammaSpan`. With ``d`` the distance to the
    nearest center, a far round needs ``d[c] > 3*gamma'`` and
    ``d <= 3*gamma'`` for every point ahead of c in the (weight, index)
    order; its pick needs ``row[pick] <= gamma'`` and ``row > gamma'`` for
    every unselected point ahead of the pick; entering the fill regime needs
    ``max(d) <= 3*gamma'``. The "at most" tests hold
    at every ``gamma' >= gamma``, so only the "greater" ones bound the span,
    each by a certified lower bound on the distance it compared. The fill
    picks do not depend on gamma.

    ``bracket``, the :func:`gamma_bounds` of the same points, metric and
    weights, hands over the (weight, index) order and the seed's row, so
    the run computes neither; it folds into its own copy of the row.
    """
    n = emb.n
    check_selection(n, k, lambda_, gamma)
    if weights.n != n:
        raise SizeMismatch(expected=n, got=weights.n)
    three_gamma = 3.0 * gamma

    if bracket is None:
        order, row = np.lexsort((np.arange(n), weights.values)), None
    else:
        order, row = bracket.order, bracket.row.copy()
    taken = np.zeros(n, dtype=bool)     # indexed by position in ``order``
    taken[0] = True
    near = _Nearest(emb, metric, order, row)
    selected = near.cover.centers
    t_hi = g_hi = np.inf

    a = 0
    while len(selected) < k:
        a, bound = near.next_far(a + 1, three_gamma)
        if a == n:
            break
        t_hi = min(t_hi, bound)
        p, bound, row = near.ball(a, taken, gamma)
        g_hi = min(g_hi, bound)
        taken[p] = True
        near.add(int(order[p]), row if p == a else None)
    far_rounds = len(selected) - 1

    near.screen = None      # free before the radius screen allocates its own
    for c in order[~taken][:k - len(selected)]:
        near.cover.add(c)
    radius = near.cover.radius()

    return _scored(weights, lambda_, selected, radius, "duke", gamma,
                   far_rounds=far_rounds, span=GammaSpan(gamma, t_hi, g_hi))


class GammaBracket(NamedTuple):
    """The bracket ``[lo, hi]`` of :func:`gamma_bounds`, and the all-fill run.

    ``order`` is every point in (weight, index) order, ``row`` the
    :func:`~duke.dataset.metric_row` of the lightest, ``order[0]``, and
    ``t0`` its largest entry. ``hi`` is the covering radius of the k
    lightest, ``order[:k]``, folded from that row. A fixed-gamma run seeds
    with ``order[0]`` and finds no far point in its first round iff
    ``3.0 * gamma >= t0``; it then selects ``order[:k]`` with radius
    ``hi``. Both arrays are read-only, for every run to start from.
    """

    lo: float
    hi: float
    t0: float
    order: np.ndarray
    row: np.ndarray


def gamma_bounds(emb: EmbeddingSet, metric: str, weights: WeightVector,
                 k: int) -> GammaBracket:
    """Bracket for the radius of the optimal weighted solution.

    Upper bound: the covering radius of the k lightest points, which is the
    solution an infinite lambda would force. Lower bound: half the greedy
    farthest-point radius, valid because greedy is a 2-approximation to the
    best achievable radius and no weighted solution can beat that radius.
    The greedy run checks k and the weights first.
    """
    lo = greedy_kcenter(emb, metric, weights, k).radius_term / 2.0
    order = np.lexsort((np.arange(emb.n), weights.values))
    cover = Cover(emb, metric, order[:k])
    row = cover.near.copy()     # no block read yet: the first's row
    for a in (order, row):
        a.setflags(write=False)
    return GammaBracket(lo, cover.radius(), float(row.max()), order, row)


_GRID_FLOOR = 1e-12


def make_gamma_grid(gamma_lo: float, gamma_hi: float,
                    grid_size: int) -> np.ndarray:
    """Geometric grid over [lo, hi], floored away from zero.

    grid_size 1 yields the geometric midpoint sqrt(lo*hi)."""
    if grid_size < 1:
        raise InvalidArgument(grid_size=grid_size)
    lo = max(gamma_lo, _GRID_FLOOR)
    hi = max(gamma_hi, lo)
    if grid_size == 1:
        return np.array([float(np.sqrt(lo * hi))])
    return np.geomspace(lo, hi, grid_size)


def gamma_search(emb: EmbeddingSet, metric: str, weights: WeightVector, k: int,
                 lambda_: float, grid_size: int = 8,
                 runner: Callable[[float], SubsetSolution] | None = None,
                 ) -> tuple[SubsetSolution, list[tuple[float, float]]]:
    """Run a fixed-gamma selector across a geometric gamma grid, keep the best.

    ``runner(gamma)`` returns the selection at one gamma; the default is
    :func:`weighted_kcenter` with ``k`` and ``lambda_``, started from the
    bracket's order and seed row, except at a gamma with
    ``3.0 * gamma >= t0`` (see :class:`GammaBracket`). There the run
    would fill with the k lightest points, so their score from the bracket
    is returned instead, bit for bit the run's. The grid is walked upward. A
    grid gamma that lies in the :class:`GammaSpan` of the last run is not
    run: the selector would repeat that run pick for pick, so its objective
    is copied into the trace. Since ties keep the smallest gamma, a copy
    never wins. A run with no far round has a span with no upper end, so it
    stands for every larger grid gamma. The runner's solutions must carry a
    span.

    Returns the winning solution and the (gamma, objective) trace, one entry
    per grid gamma."""
    # the bracket's top is scored without a selector run that would check
    check_selection(emb.n, k, lambda_, 0.0)
    bracket = gamma_bounds(emb, metric, weights, k)
    lo, hi, t0 = bracket[:3]
    if runner is None:
        def runner(gamma: float) -> SubsetSolution:
            if 3.0 * gamma >= t0:
                return _scored(weights, lambda_, bracket.order[:k], hi, "duke",
                               gamma, far_rounds=0, span=GammaSpan(gamma))
            return weighted_kcenter(emb, metric, weights, k, lambda_, gamma,
                                    bracket)
    best: SubsetSolution | None = None
    last: SubsetSolution | None = None
    trace: list[tuple[float, float]] = []
    for g in map(float, make_gamma_grid(lo, hi, grid_size)):
        if last is None or g not in last.span:
            last = runner(g)
            if best is None or last.objective < best.objective:
                best = last
        trace.append((g, last.objective))
    return best, trace


def default_lambda(k: int) -> float:
    """Scale the weight penalty inversely with the budget: 0.1 / k."""
    if k < 1:
        raise InvalidArgument(k=k)
    return 0.1 / k
