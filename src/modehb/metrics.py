"""Run trajectories and Pareto-quality metrics.

Front approximations use full-fidelity evaluations only: a record
contributes to hypervolume and attainment computations iff its fidelity
equals the ladder's b_max.  ``normalize`` is the package's one objective
scaling: every hypervolume here is computed in normalized objective space
with reference point ``REF``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPopulationError, MetricsError, NormalizationError
from .pareto import _sweep, hypervolume, non_dominated_sort
from .scheduler import FidelityLadder

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
    """One run's evaluation archive as columns in seq order (row i is seq
    i + 1): fidelity and cost (n,), objectives (n, 2), genotypes (n, d)."""

    fidelity: np.ndarray
    cost: np.ndarray
    objectives: np.ndarray
    genotypes: np.ndarray
    metadata: RunMetadata


@dataclass(frozen=True)
class HVSeries:
    """Hypervolume over budget: parallel cumulative-cost / HV arrays."""

    cumulative_cost: np.ndarray
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
    """Normalized objectives of the run's b_max rows, (n, m) in seq order."""
    return normalize(run.objectives[run.fidelity == run.metadata.ladder.b_max], bounds)


def hv_trajectory(run: RunTrajectory, bounds) -> HVSeries:
    """Normalized-HV growth of the archive's full-fidelity front.

    One series point per evaluation; the HV value is that of the non-dominated
    set of all b_max records seen so far (0.0 before the first).

    Only the staircase is kept, as [f1, f2] rows in the sweep's order: the
    points that add a term to ``pareto._sweep`` (non-dominated, one per
    duplicate).  A point weakly dominated by it leaves the value as it is;
    any other point joins it and evicts the points it dominates.  The sweep
    over the staircase adds the same terms in the same order as
    ``hypervolume`` over all points, so the values are bit-identical.
    """
    staircase: list[list[float]] = []
    hv = 0.0
    # hv_after[j]: the value once the first j b_max records are in.
    hv_after = [hv]
    for f1, f2 in _bmax_points(run, bounds).tolist():
        # Clamped into [0, 1], so never beyond the reference point.
        if not any(a <= f1 and b <= f2 for a, b in staircase):
            kept = [row for row in staircase if row[0] < f1 or row[1] < f2]
            staircase = sorted(kept + [[f1, f2]])
            hv = _sweep(staircase, *REF.tolist())
        hv_after.append(hv)
    n_bmax_seen = np.cumsum(run.fidelity == run.metadata.ladder.b_max)
    return HVSeries(np.cumsum(run.cost), np.array(hv_after)[n_bmax_seen])


def final_hv(run: RunTrajectory, bounds) -> float:
    """Normalized HV of all the run's b_max records (0.0 with none): the
    last value of ``hv_trajectory``, bit for bit."""
    return hypervolume(_bmax_points(run, bounds), REF)


def log_hv_diff(hv, hv_best):
    """log10 of the HV gap to the best-known front, floored at 1e-12; elementwise for arrays."""
    return np.log10(np.maximum(hv_best - hv, LOG_HV_DIFF_FLOOR))


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
    # Repeated x values give equal y, so only the first can be a corner.
    xs = np.sort(np.concatenate([f[:, 0] for f in fronts]))
    reach = np.empty((len(fronts), len(xs)))
    for row, f in zip(reach, fronts):
        # Cheapest f2 the run attains at f1 <= x: a step function of x.
        f1, f2 = f[np.argsort(f[:, 0])].T
        steps = np.concatenate([[np.inf], np.minimum.accumulate(f2)])
        row[:] = steps[np.searchsorted(f1, xs, side="right")]
    ys = np.sort(reach, axis=0)[k - 1]
    # The k-th smallest of those never rises with x; a corner is where it drops.
    drops = ys < np.concatenate([[np.inf], ys[:-1]])
    return np.column_stack([xs[drops], ys[drops]])
