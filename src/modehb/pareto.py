"""Pareto machinery: dominance, sorting, diversity ranking, hypervolume.

All functions treat objectives as minimized and operate on raw values;
dominance and front membership are invariant under per-objective monotone
rescaling.  Hypervolume needs only the reference point in the same space
as the points: scaling each objective by a positive factor scales every
hypervolume and contribution by their product.

Non-dominated sorting of two objectives is an O(n log n) sweep (Kung,
Luccio & Preparata 1975; Jensen 2003): points are visited in
lexicographic (f1, f2) order and each joins the first front whose last
point does not dominate it, found by binary search over the fronts' last
points.  Three or more objectives fall back to peeling fronts off an
(n, n) domination matrix.  Both give the same fronts.  Both hypervolume
kernels and ``metrics.hv_trajectory`` add up one 2-D sweep, ``_sweep``, over
sorted rows; ``hv_contributions`` checks its input once, via ``hypervolume``.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .errors import (
    DimensionError,
    EmptyPopulationError,
    SelectionError,
    UnsupportedDimensionError,
)

RANKING_STRATEGIES = ("crowding", "epsnet")


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionError(f"expected a 2-D array of points, got shape {pts.shape}")
    if pts.shape[1] < 2:
        raise DimensionError("objective vectors need at least two components")
    # count_nonzero skips the Python-level wrapper of ndarray.all.
    if np.count_nonzero(np.isfinite(pts)) != pts.size:
        raise ValueError("objective values must be finite")
    return pts


def _domination_matrix(pts: np.ndarray) -> np.ndarray:
    """dom[i, j] == True iff point i dominates point j."""
    leq = np.ones((len(pts), len(pts)), dtype=bool)
    lt = np.zeros_like(leq)
    for col in pts.T:
        leq &= col[:, None] <= col
        lt |= col[:, None] < col
    return leq & lt


def _sweep_ranks(pts: np.ndarray) -> list[int]:
    """Two-objective front index of every point, by the lexicographic sweep.

    Within a front f2 never increases in sweep order, so the front's last
    point (kept as an (f2, f1) tuple in ``tails``) dominates the visited
    point iff it compares less; an exact duplicate compares equal and is
    not dominated.  ``tails`` stays strictly increasing, so the point's
    front is the first tail not less than it.  Callers check the points.
    """
    f1, f2 = pts.T.tolist()
    tails: list[tuple[float, float]] = []
    rank = [0] * len(pts)
    for i in np.lexsort((pts[:, 1], pts[:, 0])).tolist():
        key = (f2[i], f1[i])
        k = bisect_left(tails, key)
        if k == len(tails):
            tails.append(key)
        else:
            tails[k] = key
        rank[i] = k
    return rank


def _peel_fronts(pts: np.ndarray) -> list[list[int]]:
    """Fronts of any number of objectives, peeled whole.

    A point joins the next front once every point dominating it has been
    placed.
    """
    dom = _domination_matrix(pts)
    counts = dom.sum(axis=0)
    fronts: list[list[int]] = []
    front = np.flatnonzero(counts == 0)
    while front.size:
        fronts.append(front.tolist())
        counts[front] = -1  # placed; nothing placed later dominates them
        counts -= dom[front].sum(axis=0)
        front = np.flatnonzero(counts == 0)
    return fronts


def non_dominated_sort(points) -> list[list[int]]:
    """Partition points into fronts F1 < F2 < ... of input indices.

    Within each front the input order is preserved, and exact duplicates
    share a front.  Two objectives take the O(n log n) sweep, more take
    the domination-matrix peel (see the module docstring).

    Raises:
        EmptyPopulationError: If no points were given.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyPopulationError("cannot sort an empty population")
    pts = _as_points(pts)
    if pts.shape[1] > 2:
        return _peel_fronts(pts)
    rank = _sweep_ranks(pts)
    fronts: list[list[int]] = [[] for _ in range(max(rank) + 1)]
    for i, k in enumerate(rank):
        fronts[k].append(i)
    return fronts


def crowding_distance(front) -> np.ndarray:
    """NSGA-II crowding distance of a single front.

    Per objective the front is sorted, min-max normalized to [0, 1], the
    boundary points get +inf and each interior point the gap between its
    two sort neighbours; scores are summed over objectives.  Fronts of
    size <= 2 are all +inf.  A constant objective contributes 0.
    """
    pts = _as_points(front)
    m = len(pts)
    if m <= 2:
        return np.full(m, np.inf)
    dist = np.zeros(m)
    for values in pts.T:
        order = np.argsort(values, kind="stable")
        lo, hi = values[order[0]], values[order[-1]]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if hi > lo:
            norm = (values - lo) / (hi - lo)
            gaps = norm[order[2:]] - norm[order[:-2]]
            dist[order[1:-1]] += gaps
    return dist


def epsnet_order(front) -> list[int]:
    """Greedy max-min-distance ordering of a front (input indices).

    The first ranked point is input index 0; every further step picks the
    unranked point with the largest Euclidean distance to its closest
    already-ranked point, ties broken by lowest input index.
    """
    pts = _as_points(front)
    m = len(pts)
    order = [0]
    if m == 1:
        return order

    def distances(i: int) -> np.ndarray:
        # np.linalg.norm(pts - pts[i], axis=1)'s arithmetic, without its wrapper.
        diff = pts - pts[i]
        return np.sqrt(np.add.reduce(diff * diff, axis=1))

    # min_dist[i] = distance of i to the closest ranked point so far.
    min_dist = distances(0)
    min_dist[0] = -np.inf
    for _ in range(m - 1):
        best = int(np.argmax(min_dist))  # argmax takes the lowest index on ties
        order.append(best)
        np.minimum(min_dist, distances(best), out=min_dist)
        min_dist[best] = -np.inf
    return order


def _sweep(rows, r1: float, r2: float) -> float:
    """2-D hypervolume of [f1, f2] rows in lexicographic order, bounded by (r1, r2)."""
    hv, prev = 0.0, r2
    for f1, f2 in rows:
        if f1 <= r1 and f2 < prev:  # within r1, and non-dominated so far
            hv += (r1 - f1) * (prev - f2)
            prev = f2
    return hv


def hypervolume(points, ref) -> float:
    """Exact 2-D hypervolume dominated by points, bounded by ref: the
    sweep over the checked points; points beyond ref add nothing.

    Raises:
        UnsupportedDimensionError: For dimensions other than 2.
    """
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or ref.shape != (2,):
        raise UnsupportedDimensionError(
            "exact hypervolume is implemented for exactly two objectives"
        )
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ref))):
        raise ValueError("objective values must be finite")
    return _sweep(sorted(pts.tolist()), *ref.tolist())


def hv_contributions(points, ref) -> np.ndarray:
    """Exclusive hypervolume HV(S) - HV(S w/o p) per point, exactly 0 for
    dominated points and duplicates: one sweep without p per point."""
    pts = np.asarray(points, dtype=float)
    total = hypervolume(pts, ref)
    r1, r2 = np.asarray(ref, dtype=float).tolist()
    rows = pts.tolist()
    order = sorted(range(len(rows)), key=rows.__getitem__)
    ranked = [rows[i] for i in order]
    out = np.empty(len(rows))
    out[order] = [total - _sweep(ranked[:j] + ranked[j + 1 :], r1, r2) for j in range(len(rows))]
    return out


def rank_and_truncate(points, k: int, strategy: str) -> list[int]:
    """Select k points by front rank, splitting one front by a strategy.

    Whole fronts are taken in order until the next would overflow k; the
    splitting front is ordered by ``crowding`` (descending distance, ties
    by input index) or ``epsnet`` (greedy max-min order) and truncated.

    Returns:
        Input indices of the selected points: whole fronts in input order
        followed by the truncated front in strategy order.

    Raises:
        SelectionError: If k is out of range or the strategy is unknown.
    """
    pts = _as_points(points)
    if not 1 <= k <= len(pts):
        raise SelectionError(f"k={k} out of range for {len(pts)} points")
    if strategy not in RANKING_STRATEGIES:
        raise SelectionError(f"unknown ranking strategy {strategy!r}")
    selected: list[int] = []
    for front in non_dominated_sort(pts):
        if len(selected) + len(front) <= k:
            selected.extend(front)
            if len(selected) == k:
                break
            continue
        need = k - len(selected)
        sub = pts[front]
        if strategy == "crowding":
            dist = crowding_distance(sub)
            order = sorted(range(len(front)), key=lambda i: (-dist[i], i))
        else:
            order = epsnet_order(sub)
        selected.extend(front[i] for i in order[:need])
        break
    return selected
