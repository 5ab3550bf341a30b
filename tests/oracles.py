"""Brute-force reference implementations used to pin expected test values.

Everything in this module is deliberately naive: quadratic scans, explicit
subset enumeration, dense grids.  The package under test must agree with
these oracles, never the other way around.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def dominates_bf(a, b) -> bool:
    """Weak componentwise dominance (minimization), strict in at least one."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def nds_bf(points) -> list[list[int]]:
    """Non-dominated sorting by repeated peeling with fresh pairwise scans.

    Returns fronts as lists of input indices, input order preserved within
    each front.
    """
    points = np.asarray(points, dtype=float)
    remaining = list(range(len(points)))
    fronts: list[list[int]] = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates_bf(points[j], points[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def hv_inclusion_exclusion(points, ref) -> float:
    """Exact hypervolume via inclusion-exclusion over dominated boxes.

    Exponential in the number of points; intended for <= ~10 points.  Works
    in any dimension.
    """
    points = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    total = 0.0
    idx = range(len(points))
    for size in range(1, len(points) + 1):
        for subset in combinations(idx, size):
            corner = points[list(subset)].max(axis=0)
            sides = ref - corner
            if np.all(sides > 0):
                vol = float(np.prod(sides))
            else:
                vol = 0.0
            total += vol if size % 2 == 1 else -vol
    return total


def hv_grid(points, ref, cells: int = 1000) -> float:
    """Monte-Carlo-free grid estimate of 2-D hypervolume on [0, ref].

    Counts cell centers of a cells x cells lattice over [0, ref1] x [0, ref2]
    that are weakly dominated by at least one point.  Error is O(perimeter
    / cells).
    """
    points = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    xs = (np.arange(cells) + 0.5) * ref[0] / cells
    ys = (np.arange(cells) + 0.5) * ref[1] / cells
    attained = np.zeros((cells, cells), dtype=bool)
    for p in points:
        attained[np.ix_(xs >= p[0], ys >= p[1])] = True
    return float(attained.mean() * ref[0] * ref[1])


def attained_count(z, final_fronts) -> int:
    """Number of runs whose final front weakly dominates the point z."""
    z = np.asarray(z, dtype=float)
    count = 0
    for front in final_fronts:
        front = np.asarray(front, dtype=float)
        if front.size and bool(np.any(np.all(front <= z, axis=1))):
            count += 1
    return count


def staircase_attains(z, polyline) -> bool:
    """Membership of z in the region attained by a staircase polyline."""
    z = np.asarray(z, dtype=float)
    polyline = np.asarray(polyline, dtype=float)
    if polyline.size == 0:
        return False
    return bool(np.any(np.all(polyline <= z, axis=1)))


def zdt1_front(n: int) -> np.ndarray:
    """Dense sample of the ZDT1 Pareto front f2 = 1 - sqrt(f1)."""
    t = np.linspace(0.0, 1.0, n)
    return np.column_stack([t, 1.0 - np.sqrt(t)])


def zdt2_front(n: int) -> np.ndarray:
    """Dense sample of the ZDT2 Pareto front f2 = 1 - f1 ** 2."""
    t = np.linspace(0.0, 1.0, n)
    return np.column_stack([t, 1.0 - t * t])


def hv_numpy(points, ref) -> float:
    """2-D hypervolume by a numpy sweep: drop points beyond ref, ``lexsort``
    by (f1, f2) and accumulate over float64 rows.  ``pareto.hypervolume``
    must match it bit for bit."""
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    pts = pts[np.all(pts <= ref, axis=1)]
    if len(pts) == 0:
        return 0.0
    hv = 0.0
    prev_f2 = ref[1]
    for f1, f2 in pts[np.lexsort((pts[:, 1], pts[:, 0]))]:
        if f2 < prev_f2:
            hv += (ref[0] - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return float(hv)


def hv_contributions_numpy(points, ref) -> np.ndarray:
    """Exclusive contributions as n + 1 ``hv_numpy`` calls, one per
    ``np.delete``d point."""
    pts = np.asarray(points, dtype=float)
    total = hv_numpy(pts, ref)
    out = np.empty(len(pts))
    for i in range(len(pts)):
        out[i] = total - hv_numpy(np.delete(pts, i, axis=0), ref)
    return out
