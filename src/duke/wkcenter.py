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

A run computes one full row, the seed's, and an anchor's only when a
quarter of the set is ahead of it in a ball test. Both of its tests compare a
distance with a threshold, so each is settled from screened point-to-center
distances, kept per point and brought up to date only when the far scan
reads the point, and the row kernel is asked only where a screened value
lies within its proven error bound of the threshold (the bound-based
skipping of Elkan, "Using the triangle inequality to accelerate k-means",
2003). The picks are those of full rows. Distances to the centers never
grow, so once no point is farther than 3*gamma the run is in its fill regime
for good: the rest of the budget is the lightest unselected points, taken in
one slice, and one covering radius over all the picks scores the run.

The bracket's farthest-point traversal computes one full row, its first
center's. It keeps a stale maximum per kernel block that bounds the block
from above, and folds the centers a block lacks into it only when that block
could hold the next pick (lazy evaluation as in Minoux's accelerated greedy,
1978). A block is then read once for many centers, while it sits in cache,
and the picks and radius are those of the full-row traversal bit for bit.

The traversal, the fixed-gamma run and :func:`evaluate_solution` keep their
exact distances in one :class:`~duke.dataset.Cover`, which folds into a
kernel block the centers it lacks only when the block is read.

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
    _screen_delta,
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


def greedy_kcenter(emb: EmbeddingSet, metric: str, weights: WeightVector,
                   k: int, lambda_: float = 0.0) -> SubsetSolution:
    """Farthest-point traversal from point 0. 2-approximation for the
    k-center radius.

    Each round picks the point farthest from the centers so far, the lowest
    index among ties. The picks ignore weights; the traversal scores its own
    selection from the distances it folded.

    The distances are a :class:`~duke.dataset.Cover` from point 0's row.
    Each kernel block (the 1 MiB grid of :func:`~duke.dataset.block_rows`)
    also keeps its largest distance from an unselected point when it was
    last brought up to date. Distances to the centers never grow, so that
    stale maximum bounds the block's current one. A round brings the block
    with the largest stale maximum (the lowest block on ties) up to date,
    folding every center it lacks at once, until that block is up to date;
    its farthest point is then the global one. A block is read once per
    visit instead of once per center, and a block that never comes near the
    top is not read again. The final radius is found the same way. Where a
    distance can be NaN (:func:`~duke.dataset.numeric_distances`) no stale
    maximum is a bound, and every block is brought up to date every round.
    Indices and radius are those of folding every center's full row into
    every point, bit for bit (a NaN radius as NaN).
    """
    n = emb.n
    check_selection(n, k, lambda_, 0.0)
    if weights.n != n:
        raise SizeMismatch(expected=n, got=weights.n)
    cover = Cover(emb, metric, [0])
    selected, step = cover.centers, cover.step
    held = np.zeros(n, dtype=bool)      # selected points, out of the maxima
    held[0] = True
    top = np.empty(cover.folded.size)
    far = np.empty(top.size, dtype=np.int64)

    def refresh(b: int) -> None:
        lo = b * step
        d = cover.block(b)
        d = np.where(held[lo:lo + d.size], -np.inf, d)
        far[b] = lo + int(np.argmax(d))
        top[b] = d[far[b] - lo]

    for b in range(top.size):
        refresh(b)
    # NaN is np.argmax's largest value and a fold can turn a number into
    # one, so where a distance can be NaN no stale maximum bounds a block:
    # every pick leaves every block unknown
    bounded = numeric_distances(emb, metric)
    while True:
        b = int(np.argmax(top))
        while cover.folded[b] < len(selected):
            refresh(b)
            b = int(np.argmax(top))
        if len(selected) == k:
            break
        cover.add(far[b])
        held[far[b]] = True
        if not bounded:
            top[:] = np.nan
    # A selected point is at distance 0 from itself, so the radius is the
    # largest unselected distance, or 0. Where a NaN can arise the loop has
    # brought every block up to date or stopped at a NaN that dmin holds.
    radius = max(float(top[b]), 0.0) if bounded else float(cover.dmin.max())
    return _scored(weights, lambda_, selected, radius, "greedy-kcenter")


# positions of the (weight, index) order a far scan reads at most at a time
_SCAN = 1024

# A ball test screens the unselected points ahead of its anchor while they
# are at most 1/_BALL_SHARE of the set; past that the anchor's row costs
# less. Screening a quarter of the set, gathered in weight order, took about
# as long as one row at 50k x 32 and 0.4-0.6 of one at 100k x 64 (one BLAS
# thread); at a third it took 1.3 rows at 50k x 32.
_BALL_SHARE = 4


class _Nearest:
    """Each point's distance to its nearest center, screened and exact.

    ``screen[p]`` is a screened distance (:func:`~duke.dataset._screen_rows`)
    from the point at position p of the (weight, index) ``order`` to its
    nearest center, within ``delta`` of the row kernel's. It starts as the
    seed's exact row and is brought up to date lazily: a range of positions
    gets the screened centers it lacks only when a far scan reads it. The
    counts folded are non-increasing in position past the scan's start, so
    they are kept as ``segs``, (end, count) runs with ends increasing.

    ``cover`` (:class:`~duke.dataset.Cover`, from the seed's row) holds the
    exact distances. A decision the screen leaves open, a value within
    ``delta`` of its threshold, is settled there. Where ``delta`` is inf
    (manhattan, cosine norms outside [2^-450, 2^450]) no screen is kept and
    every decision is settled exactly.
    """

    def __init__(self, emb: EmbeddingSet, metric: str, order: np.ndarray):
        self.emb, self.metric, self.order = emb, metric, order
        self.cover = Cover(emb, metric, order[:1])
        self.delta = _screen_delta(emb, metric)
        self.screen = (self.cover.dmin[order] if np.isfinite(self.delta)
                       else None)
        # the screened centers in product form, with room to grow
        self.cols, self.shift = np.empty((8, emb.dim)), np.empty(8)
        self.m = 0
        self.segs: list[tuple[int, int]] = []

    def add(self, c: int, row: np.ndarray | None) -> None:
        """Make point c a center; ``row``, its exact row when known, is
        folded into every screened distance at once."""
        self.cover.add(c)
        if self.screen is None:
            return
        if row is not None:
            np.minimum(self.screen, row[self.order], out=self.screen)
            return
        cols, shift = _product_form(self.emb, self.metric, [c])
        if self.m == len(self.cols):
            self.cols = np.concatenate([self.cols, self.cols])
            self.shift = np.concatenate([self.shift, self.shift])
        self.cols[self.m] = cols[0]
        self.shift[self.m] = shift[0]
        self.m += 1

    def _bring(self, lo: int, hi: int) -> None:
        """Fold into positions lo..hi-1 the screened centers they lack."""
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
            self._fold(a, hi, 0)
        self.segs = [(hi, self.m)] + [s for s in self.segs if s[0] > hi]

    def _fold(self, a: int, b: int, count: int) -> None:
        if count < self.m:
            _screen_rows(self.emb, self.metric, a, b,
                         self.cols[count:self.m], self.shift[count:self.m],
                         self.screen[a:b], self.order)

    def _row_at(self, c: int, points: np.ndarray) -> np.ndarray:
        """Point c's row kernel distances to ``points``, block by block."""
        out = np.empty(points.size)
        step = self.cover.step
        blocks = points // step
        for b in np.unique(blocks):
            lo = b * step
            hi = min(lo + step, self.emb.n)
            sel = blocks == b
            row = _row_block(self.emb, self.metric, c, lo, hi)
            out[sel] = row[points[sel] - lo]
        return out

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
            else:
                far, end = (), hi - lo
                band = np.arange(end)
            if band.size:
                e = self.cover.at(self.order[lo + band])
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
        not; the row kernel decides the rest, block by block. When the
        points ahead are many the anchor's whole row decides instead."""
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
                lower[band] = e = self._row_at(c, points[band])
                inside = np.flatnonzero(e <= gamma)
                if inside.size:
                    p = int(band[inside[0]])
        return int(ahead[p]), float(lower[:p].min(initial=np.inf)), row


def weighted_kcenter(emb: EmbeddingSet, metric: str, weights: WeightVector,
                     k: int, lambda_: float, gamma: float) -> SubsetSolution:
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
    run's :class:`~duke.dataset.Cover`, in which each block already holds
    the centers the row kernel folded into it; it is the same float as a
    pick-by-pick fold. For the same reason the points
    ahead of an anchor in that order stay within 3*gamma, so each far scan
    resumes after the last anchor, and a ball is read only up to its
    anchor, which it always holds.

    The run records its :class:`GammaSpan`. A far round needs
    ``dmin[c] > 3*gamma'`` and ``dmin <= 3*gamma'`` for every point ahead of c
    in the (weight, index) order; its pick needs ``row[pick] <= gamma'`` and
    ``row > gamma'`` for every unselected point ahead of the pick; entering
    the fill regime needs ``max(dmin) <= 3*gamma'``. The "at most" tests hold
    at every ``gamma' >= gamma``, so only the "greater" ones bound the span,
    each by a certified lower bound on the distance it compared. The fill
    picks do not depend on gamma.
    """
    n = emb.n
    check_selection(n, k, lambda_, gamma)
    if weights.n != n:
        raise SizeMismatch(expected=n, got=weights.n)
    three_gamma = 3.0 * gamma

    order = np.lexsort((np.arange(n), weights.values))
    taken = np.zeros(n, dtype=bool)     # indexed by position in ``order``
    taken[0] = True
    near = _Nearest(emb, metric, order)
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

    ``lightest`` is the k lightest points in (weight, index) order, ``hi``
    their covering radius, folded from the first one's row, and ``t0`` the
    largest entry of that row. A fixed-gamma run finds no far point in its
    first round iff ``3.0 * gamma >= t0``, and then selects ``lightest``
    with radius ``hi``.
    """

    lo: float
    hi: float
    t0: float
    lightest: np.ndarray


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
    lightest = np.lexsort((np.arange(emb.n), weights.values))[:k]
    cover = Cover(emb, metric, lightest)
    t0 = float(cover.dmin.max())        # no block read yet: the first's row
    return GammaBracket(lo, cover.radius(), t0, lightest)


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
    :func:`weighted_kcenter` with ``k`` and ``lambda_``, except at a gamma
    with ``3.0 * gamma >= t0`` (see :class:`GammaBracket`). There the run
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
    lo, hi, t0, lightest = gamma_bounds(emb, metric, weights, k)
    if runner is None:
        def runner(gamma: float) -> SubsetSolution:
            if 3.0 * gamma >= t0:
                return _scored(weights, lambda_, lightest, hi, "duke", gamma,
                               far_rounds=0, span=GammaSpan(gamma))
            return weighted_kcenter(emb, metric, weights, k, lambda_, gamma)
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
