"""Pareto kernels timed on fixed-size inputs and checked against tests/oracles.py.

Inputs come from the workload seed.  Each case is timed as the median of
several calls; the result of one call is then compared with the
brute-force oracles outside the timed region.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF = np.array([1.0, 1.0])
# hv_grid classifies cell centres of a cells x cells lattice over [0, 1]^2;
# only cells crossed by the (monotone, length <= 2) staircase can be wrong.
GRID_CELLS = 1000
GRID_TOL = 2.0 / GRID_CELLS + 1.0 / GRID_CELLS**2
EXACT_TOL = 1e-12


def _time_ms(fn, args, repeats: int):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        result = fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3, result


def _check_nds(oracles, pts, fronts):
    expected = oracles.nds_bf(pts)
    return [] if fronts == expected else ["non_dominated_sort differs from nds_bf"]


def _check_hv(oracles, pareto, pts, hv):
    problems = []
    grid = oracles.hv_grid(pts, REF, GRID_CELLS)
    if abs(hv - grid) > GRID_TOL:
        problems.append(f"hypervolume {hv!r} vs hv_grid {grid!r}")
    few = pts[:8]
    exact = oracles.hv_inclusion_exclusion(few, REF)
    if abs(pareto.hypervolume(few, REF) - exact) > EXACT_TOL:
        problems.append("hypervolume of 8 points differs from hv_inclusion_exclusion")
    return problems


def _check_hvc(oracles, pts, contrib):
    """On a set of mutually non-dominated 2-D points, a point's exclusive
    region is bounded by its two neighbours in f1 order, so
    HV({l, p, r}) - HV({l, r}) is its exact contribution."""
    fronts = oracles.nds_bf(pts)
    if len(fronts) != 1:
        return ["hv_contributions input is not a single front"]
    front = sorted(fronts[0], key=lambda i: pts[i, 0])
    expected = np.zeros(len(pts))
    for pos, i in enumerate(front):
        nbrs = [front[j] for j in (pos - 1, pos + 1) if 0 <= j < len(front)]
        expected[i] = oracles.hv_inclusion_exclusion(
            pts[nbrs + [i]], REF
        ) - oracles.hv_inclusion_exclusion(pts[nbrs], REF)
    worst = float(np.max(np.abs(contrib - expected)))
    return [] if worst <= EXACT_TOL else [f"hv_contributions off by {worst!r}"]


def _check_truncate(oracles, pts, k, selected):
    """Whole nds_bf fronts in input order, then k - len distinct members
    of the next front."""
    taken: list[int] = []
    for front in oracles.nds_bf(pts):
        if len(taken) + len(front) > k:
            rest = selected[len(taken) :]
            ok = (
                selected[: len(taken)] == taken
                and len(rest) == k - len(taken)
                and len(set(rest)) == len(rest)
                and set(rest) <= set(front)
            )
            return [] if ok else ["rank_and_truncate breaks front order"]
        taken.extend(front)
        if len(taken) == k:
            break
    return [] if selected == taken else ["rank_and_truncate breaks front order"]


def run_kernels(seed: int, pareto, oracles):
    """Returns ({metric: ms}, {metric: [problem, ...]})."""
    rng = np.random.default_rng([7, seed])
    uniform = {n: rng.random((n, 2)) for n in (40, 200, 1000)}
    lattice = rng.integers(0, 10, size=(1000, 2)).astype(float)
    # Survivor selection passes one front at a time to hv_contributions.
    f1 = rng.permutation(np.linspace(0.0, 1.0, 202)[1:-1])
    front = np.column_stack([f1, 1.0 - np.sqrt(f1)])
    trunc = rng.random((200, 2))
    timings, problems = {}, {}

    for n, repeats in ((40, 50), (200, 15), (1000, 5)):
        name = f"pareto.kernel.nds_ms.n{n}"
        timings[name], fronts = _time_ms(pareto.non_dominated_sort, (uniform[n],), repeats)
        problems[name] = _check_nds(oracles, uniform[n], fronts)

    name = "pareto.kernel.nds_ties_ms.n1000"
    timings[name], fronts = _time_ms(pareto.non_dominated_sort, (lattice,), 5)
    problems[name] = _check_nds(oracles, lattice, fronts)

    name = "pareto.kernel.hv_ms.n1000"
    timings[name], hv = _time_ms(pareto.hypervolume, (uniform[1000], REF), 20)
    problems[name] = _check_hv(oracles, pareto, uniform[1000], hv)

    name = "pareto.kernel.hvc_ms.n200"
    timings[name], contrib = _time_ms(pareto.hv_contributions, (front, REF), 5)
    problems[name] = _check_hvc(oracles, front, contrib)

    for strategy in ("crowding", "epsnet"):
        name = f"pareto.kernel.rank_and_truncate_ms.n200.{strategy}"
        timings[name], selected = _time_ms(
            pareto.rank_and_truncate, (trunc, 100, strategy), 10
        )
        problems[name] = _check_truncate(oracles, trunc, 100, selected)
    return timings, problems
