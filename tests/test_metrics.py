"""Tests for normalization, trajectories, and attainment surfaces."""

import numpy as np
import pytest

from modehb.errors import EmptyPopulationError, MetricsError, NormalizationError
from modehb.metrics import (
    LOG_HV_DIFF_FLOOR,
    RunMetadata,
    RunTrajectory,
    attainment_surface,
    empirical_best_hv,
    final_front,
    final_hv,
    hv_trajectory,
    log_hv_diff,
    normalize,
)
from modehb.pareto import hypervolume
from modehb.scheduler import build_ladder
from oracles import staircase_attains

LADDER = build_ladder(1, 4, 2)
UNIT = ((0.0, 1.0), (0.0, 1.0))


def make_run(points, fidelities=None, costs=None, seed=0, optimizer="modehb_nsga2"):
    """A hand-built trajectory; fidelities default to b_max everywhere."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    fidelities = fidelities or [LADDER.b_max] * n
    costs = costs or list(fidelities)
    meta = RunMetadata(
        seed=seed, optimizer=optimizer, benchmark="toy", ladder=LADDER,
        stop_cause="max_tae",
    )
    return RunTrajectory(
        fidelity=np.array(fidelities, dtype=float),
        cost=np.array(costs, dtype=float),
        objectives=points,
        genotypes=np.full((n, 2), 0.5),
        metadata=meta,
    )


# --------------------------------------------------------------- normalize


def test_normalize_basic_and_shapes():
    out = normalize([[0.0, 2.0], [1.0, 0.0]], ((0.0, 1.0), (0.0, 2.0)))
    assert np.allclose(out, [[0.0, 1.0], [1.0, 0.0]])
    vec = normalize([0.5, 1.0], ((0.0, 1.0), (0.0, 2.0)))
    assert vec.shape == (2,)
    assert vec == pytest.approx([0.5, 0.5])


def test_normalize_clamps_and_warns():
    out = normalize([[-0.5, 0.5], [1.5, 0.5]], UNIT)
    assert np.allclose(out, [[0.0, 0.5], [1.0, 0.5]])


def test_normalize_validation():
    with pytest.raises(NormalizationError):
        normalize([[0.5, 0.5]], ((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(NormalizationError):
        normalize([[0.5, 0.5, 0.5]], UNIT)


# ------------------------------------------------------------- trajectory


def test_hv_trajectory_hand_case():
    run = make_run(
        [(0.5, 0.5), (0.1, 0.1), (0.25, 0.75)],
        fidelities=[4.0, 1.0, 4.0],
        costs=[4.0, 1.0, 4.0],
    )
    series = hv_trajectory(run, UNIT)
    assert series.cumulative_cost == pytest.approx([4.0, 5.0, 9.0])
    # The cheap mid-run record is ignored by the front; HV holds steady.
    assert series.hv == pytest.approx([0.25, 0.25, 0.3125])


def test_hv_trajectory_is_zero_until_first_full_fidelity_record():
    run = make_run(
        [(0.1, 0.1), (0.2, 0.2), (0.5, 0.5)],
        fidelities=[1.0, 2.0, 4.0],
    )
    series = hv_trajectory(run, UNIT)
    assert series.hv == pytest.approx([0.0, 0.0, 0.25])
    assert final_hv(make_run([(0.1, 0.1)], fidelities=[1.0]), UNIT) == 0.0


def test_hv_trajectory_never_decreases():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(40, 2))
    fids = rng.choice(LADDER.levels, size=40)
    run = make_run(pts, fidelities=list(fids))
    series = hv_trajectory(run, UNIT)
    assert np.all(np.diff(series.hv) >= 0.0)
    assert np.all(np.diff(series.cumulative_cost) > 0.0)


def _lattice_run(seed):
    # Lattice points near the anti-diagonal: the front grows slowly and
    # holds ties and exact duplicates; values beyond the bounds are clamped
    # onto the edges of the reference box.
    rng = np.random.default_rng(seed)
    f1 = rng.integers(-1, 12, size=300)
    pts = np.column_stack([f1, 10 - f1 + rng.integers(0, 4, size=300)]) / 10.0
    return make_run(pts, fidelities=list(rng.choice(LADDER.levels, size=300)))


def _dense_front_run():
    # f2 = 1 - f1 on a grid, in shuffled order: every point joins the staircase.
    f1 = np.random.default_rng(4).permutation(np.linspace(0.0, 1.0, 101))
    return make_run(np.column_stack([f1, 1.0 - f1]))


@pytest.mark.parametrize(
    "run",
    [_lattice_run(9), _lattice_run(10), _lattice_run(11), _dense_front_run()],
    ids=["lattice9", "lattice10", "lattice11", "dense_front"],
)
def test_hv_trajectory_equals_hypervolume_of_each_prefix(run):
    series = hv_trajectory(run, UNIT)
    assert final_hv(run, UNIT) == series.hv[-1]
    ref = np.array([1.0, 1.0])
    for i in range(len(run.cost)):
        prefix = run.objectives[: i + 1][run.fidelity[: i + 1] == LADDER.b_max]
        expect = 0.0
        if len(prefix):
            expect = hypervolume(normalize(prefix, UNIT), ref)
        assert series.hv[i] == expect


# ------------------------------------------------------------ log hv diff


def test_log_hv_diff_values():
    assert log_hv_diff(2.0 / 3.0, 2.0 / 3.0) == pytest.approx(-12.0)
    assert log_hv_diff(2.0 / 3.0 - 0.01, 2.0 / 3.0) == pytest.approx(-2.0)
    assert log_hv_diff(0.5667, 2.0 / 3.0) == pytest.approx(-1.0, abs=0.01)
    # Overshooting the reference front still floors at the minimum gap.
    assert log_hv_diff(0.7, 2.0 / 3.0) == pytest.approx(-12.0)
    assert LOG_HV_DIFF_FLOOR == 1e-12


def test_log_hv_diff_of_an_array_is_the_scalar_call_per_element():
    rng = np.random.default_rng(5)
    best = 2.0 / 3.0
    # Gaps across many decades, exact hits, overshoots and the floor itself.
    hv = np.concatenate([
        best - 10.0 ** rng.uniform(-14, 0, size=200),
        best + rng.uniform(0, 0.1, size=20),
        [best, best - LOG_HV_DIFF_FLOOR, 0.0, 1.0],
    ]).reshape(28, 8)
    table = log_hv_diff(hv, best)
    assert table.shape == hv.shape
    expect = np.array([[log_hv_diff(float(h), best) for h in row] for row in hv])
    assert table.tobytes() == expect.tobytes()


# ------------------------------------------------------- fronts and unions


def test_final_front_filters_and_normalizes():
    run = make_run(
        [(1.0, 0.5), (0.4, 1.6), (1.9, 1.9), (0.2, 0.2)],
        fidelities=[4.0, 4.0, 4.0, 1.0],
    )
    front = final_front(run, ((0.0, 2.0), (0.0, 2.0)))
    # The cheap (0.2, 0.2) record is excluded; (1.9, 1.9) is dominated.
    assert sorted(map(tuple, front)) == [
        pytest.approx((0.2, 0.8)),
        pytest.approx((0.5, 0.25)),
    ]
    empty = final_front(make_run([(0.5, 0.5)], fidelities=[1.0]), UNIT)
    assert empty.shape == (0, 2)


def test_empirical_best_hv_unions_runs():
    a = make_run([(0.5, 0.5)])
    b = make_run([(0.25, 0.75)])
    assert empirical_best_hv([a], UNIT) == pytest.approx(0.25)
    assert empirical_best_hv([a, b], UNIT) == pytest.approx(0.3125)
    with pytest.raises(EmptyPopulationError):
        empirical_best_hv([make_run([(0.5, 0.5)], fidelities=[1.0])], UNIT)


# -------------------------------------------------------------- attainment


def test_attainment_surface_single_run_is_its_front():
    run = make_run([(0.2, 0.8), (0.6, 0.4), (0.5, 0.5)])
    surface = attainment_surface([run], 1, UNIT)
    assert sorted(map(tuple, surface)) == [
        pytest.approx((0.2, 0.8)),
        pytest.approx((0.5, 0.5)),
        pytest.approx((0.6, 0.4)),
    ]
    # Dominated points never produce corners.
    dominated = make_run([(0.2, 0.8), (0.6, 0.4), (0.7, 0.9)])
    surface = attainment_surface([dominated], 1, UNIT)
    assert len(surface) == 2


def test_attainment_surface_k2_needs_both_runs():
    runs = [make_run([(0.2, 0.8)]), make_run([(0.8, 0.2)])]
    k1 = attainment_surface(runs, 1, UNIT)
    k2 = attainment_surface(runs, 2, UNIT)
    assert [tuple(p) for p in k1] == [
        pytest.approx((0.2, 0.8)),
        pytest.approx((0.8, 0.2)),
    ]
    # Only the upper-right corner is attained by both runs.
    assert [tuple(p) for p in k2] == [pytest.approx((0.8, 0.8))]


def test_attainment_surface_identical_runs_collapse():
    runs = [make_run([(0.3, 0.6), (0.6, 0.3)])] * 3
    for k in (1, 2, 3):
        surface = attainment_surface(runs, k, UNIT)
        assert sorted(map(tuple, surface)) == [
            pytest.approx((0.3, 0.6)),
            pytest.approx((0.6, 0.3)),
        ]


def test_attainment_surface_validation():
    runs = [make_run([(0.5, 0.5)])]
    with pytest.raises(MetricsError):
        attainment_surface(runs, 0, UNIT)
    with pytest.raises(MetricsError):
        attainment_surface(runs, 2, UNIT)


def test_attainment_regions_nest_with_k():
    rng = np.random.default_rng(9)
    runs = [make_run(rng.uniform(0.05, 0.95, size=(6, 2))) for _ in range(4)]
    surfaces = {k: attainment_surface(runs, k, UNIT) for k in (1, 2, 3, 4)}
    grid = rng.uniform(size=(500, 2))
    for z in grid:
        attained = [staircase_attains(z, surfaces[k]) for k in (1, 2, 3, 4)]
        # Once a level fails, every deeper level fails too.
        assert attained == sorted(attained, reverse=True)
