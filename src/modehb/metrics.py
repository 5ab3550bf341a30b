"""Run trajectories and Pareto-quality metrics.

Front approximations use full-fidelity evaluations only: a record
contributes to hypervolume and attainment computations iff its fidelity
equals the ladder's b_max.  ``normalize`` is the package's one objective
scaling: every hypervolume here is computed in normalized objective space
with reference point ``REF``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyPopulationError, MetricsError, NormalizationError
from .pareto import hypervolume, non_dominated_sort
from .scheduler import FidelityLadder

if TYPE_CHECKING:
    from .optimizer import EvaluationRecord

LOG_HV_DIFF_FLOOR = 1e-12

# Reference point of normalized objective space: the bounds' upper corner.
REF = np.array([1.0, 1.0])
REF.setflags(write=False)


@dataclass(frozen=True)
class RunMetadata:
    """Provenance of one run; complete enough to regenerate reports."""

    seed: int
    optimizer: str
    benchmark: str
    ladder: FidelityLadder
    stop_cause: str | None


@dataclass(frozen=True)
class RunTrajectory:
    """Seq-ordered evaluation records plus run metadata."""

    records: tuple["EvaluationRecord", ...]
    metadata: RunMetadata


@dataclass(frozen=True)
class HVSeries:
    """Hypervolume over budget: parallel cost / TAE / HV arrays."""

    cumulative_cost: np.ndarray
    tae: np.ndarray
    hv: np.ndarray


def normalize(values, bounds) -> np.ndarray:
    """Min-max normalize objective vectors (rows) into [0, 1].

    Values outside the bounds are clamped onto them.

    Raises:
        NormalizationError: If any bound is degenerate (min >= max).
    """
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(hi <= lo):
        raise NormalizationError(f"degenerate objective bounds {bounds}")
    if arr.shape[1] != len(bounds):
        raise NormalizationError(
            f"{arr.shape[1]} objectives but {len(bounds)} bounds"
        )
    out = np.clip((arr - lo) / (hi - lo), 0.0, 1.0)
    return out if np.asarray(values).ndim > 1 else out[0]


def _bmax_points(run: RunTrajectory, bounds) -> np.ndarray:
    """Normalized objectives of the run's b_max records, (n, m) in seq order."""
    b_max = run.metadata.ladder.b_max
    objectives = [rec.objectives for rec in run.records if rec.fidelity == b_max]
    if not objectives:
        return np.empty((0, len(bounds)))
    return normalize(objectives, bounds)


def hv_trajectory(run: RunTrajectory, bounds) -> HVSeries:
    """Normalized-HV growth of the archive's full-fidelity front.

    One series point per record; the HV value is that of the non-dominated
    set of all b_max records seen so far (0.0 before the first).

    Only the staircase is kept: the points that add a term to the
    ``hypervolume`` sweep (non-dominated, one per duplicate).  A point
    weakly dominated by it leaves the value as it is; any other point
    joins it and evicts the points it dominates.  The sweep over the
    staircase adds the same terms in the same order as the sweep over all
    points, so the values are bit-identical to recomputing from scratch.
    """
    b_max = run.metadata.ladder.b_max
    points = iter(_bmax_points(run, bounds))
    costs = np.empty(len(run.records))
    taes = np.empty(len(run.records), dtype=int)
    hvs = np.empty(len(run.records))
    staircase = np.empty((0, len(bounds)))
    hv = 0.0
    cumulative = 0.0
    for i, rec in enumerate(run.records):
        cumulative += rec.cost
        if rec.fidelity == b_max:
            # Clamped into [0, 1], so never beyond the reference point.
            point = next(points)
            if not np.all(staircase <= point, axis=1).any():
                kept = staircase[~np.all(point <= staircase, axis=1)]
                staircase = np.vstack([kept, point])
                hv = hypervolume(staircase, REF)
        costs[i] = cumulative
        taes[i] = i + 1
        hvs[i] = hv
    return HVSeries(costs, taes, hvs)


def log_hv_diff(hv: float, hv_best: float) -> float:
    """log10 of the HV gap to the best-known front, floored at 1e-12."""
    return float(np.log10(max(hv_best - hv, LOG_HV_DIFF_FLOOR)))


def empirical_best_hv(runs, bounds) -> float:
    """HV of the union front of all b_max records across runs.

    Raises:
        EmptyPopulationError: If no run holds any full-fidelity record.
    """
    points = [_bmax_points(run, bounds) for run in runs]
    if not any(len(p) for p in points):
        raise EmptyPopulationError("no full-fidelity records in any run")
    return hypervolume(np.vstack(points), REF)


def final_front(run: RunTrajectory, bounds) -> np.ndarray:
    """Non-dominated normalized b_max points of the whole archive."""
    pts = _bmax_points(run, bounds)
    return pts[non_dominated_sort(pts)[0]] if len(pts) else pts


def attainment_surface(runs, k: int, bounds) -> np.ndarray:
    """k-th summary attainment surface of the runs' final fronts.

    A point z is k-attained when at least k runs' final b_max fronts
    weakly dominate it.  The boundary of that region is a staircase;
    returned as its corner points (f1, f2) sorted by f1 ascending in
    normalized space (empty when fewer than k runs attain anything).

    Raises:
        MetricsError: If k is outside [1, len(runs)].
    """
    runs = list(runs)
    if not 1 <= k <= len(runs):
        raise MetricsError(f"attainment level k={k} out of range [1, {len(runs)}]")
    fronts = [final_front(run, bounds) for run in runs]
    xs = np.unique(
        np.concatenate([f[:, 0] for f in fronts if f.size] or [np.empty(0)])
    )
    corners: list[tuple[float, float]] = []
    prev_y = np.inf
    for x in xs:
        # Cheapest f2 each run attains at f1 <= x; k-th smallest of those.
        ys = []
        for f in fronts:
            reach = f[f[:, 0] <= x, 1] if f.size else np.empty(0)
            ys.append(reach.min() if reach.size else np.inf)
        y = float(np.sort(ys)[k - 1])
        if np.isfinite(y) and y < prev_y:
            corners.append((float(x), y))
            prev_y = y
    return np.array(corners) if corners else np.empty((0, 2))
