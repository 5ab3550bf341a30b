"""Tests for the synthetic multi-fidelity benchmarks."""

import numpy as np
import pytest

from modehb.bench import (
    Benchmark,
    make_benchmark,
    toy_grid,
    toy_table,
    true_front_hv,
    zdt1_mf,
    zdt2_mf,
)
from modehb.errors import BenchmarkError, DimensionError, OracleError
from modehb.pareto import hypervolume
from modehb.scheduler import build_ladder
from oracles import hv_inclusion_exclusion, nds_bf

LADDER = build_ladder(1, 27, 3)
TOY_LADDER = build_ladder(1, 4, 2)


# -------------------------------------------------------------------- zdt


def test_zdt1_front_corners_at_full_fidelity():
    bm = zdt1_mf(6, LADDER)
    objs, cost = bm.evaluate(np.zeros(6), 27.0)
    assert objs == pytest.approx([0.0, 1.0])
    assert cost == 27.0
    objs, _ = bm.evaluate(np.array([1.0, 0, 0, 0, 0, 0]), 27.0)
    assert objs == pytest.approx([1.0, 0.0])


def test_zdt1_distance_term():
    bm = zdt1_mf(3, LADDER)
    # g = 1 + 9 * mean(x2, x3) = 10 at the all-ones tail.
    objs, _ = bm.evaluate(np.array([0.25, 1.0, 1.0]), 27.0)
    g = 10.0
    assert objs == pytest.approx([0.25, g * (1.0 - np.sqrt(0.25 / g))])


def test_zdt2_front_corners_at_full_fidelity():
    bm = zdt2_mf(6, LADDER)
    objs, _ = bm.evaluate(np.zeros(6), 27.0)
    assert objs == pytest.approx([0.0, 1.0])
    objs, _ = bm.evaluate(np.array([1.0, 0, 0, 0, 0, 0]), 27.0)
    assert objs == pytest.approx([1.0, 0.0])


def test_low_fidelity_adds_vanishing_bias():
    # Same genotype across the ladder: both objectives carry an additive
    # offset 0.5 * (1 - b / b_max) that hits zero at b_max.
    bm = zdt1_mf(6, LADDER)
    x = np.full(6, 0.3)
    top, _ = bm.evaluate(x, 27.0)
    for level in (1.0, 3.0, 9.0):
        objs, cost = bm.evaluate(x, level)
        offset = 0.5 * (1.0 - level / 27.0)
        assert objs == pytest.approx(top + offset)
        assert cost == level


def test_bias_shrinks_monotonically_toward_b_max():
    bm = zdt2_mf(4, LADDER)
    x = np.full(4, 0.6)
    f1 = [bm.evaluate(x, level)[0][0] for level in LADDER.levels]
    assert f1 == sorted(f1, reverse=True)


def test_zdt_rejects_off_ladder_fidelity_and_bad_shape():
    # Evaluators accept exact ladder levels only, not one a ulp off b_max.
    for bm in (zdt1_mf(6, LADDER), toy_grid(4, TOY_LADDER)):
        for fidelity in (5.0, np.nextafter(bm.ladder.b_max, 0.0)):
            with pytest.raises(BenchmarkError):
                bm.evaluate(np.zeros(len(bm.space)), fidelity)
    with pytest.raises(DimensionError):
        zdt1_mf(6, LADDER).evaluate(np.zeros(5), 27.0)


@pytest.mark.parametrize(
    "bm",
    [zdt1_mf(6, LADDER), zdt2_mf(6, LADDER), toy_grid(4, TOY_LADDER)],
    ids=lambda bm: bm.name,
)
def test_evaluators_accept_genotypes_in_the_unit_cube_only(bm):
    d, b_max = len(bm.space), bm.ladder.b_max
    for bad in (-0.1, np.nextafter(1.0, 2.0), np.nan):
        for i in (0, d - 1):
            x = np.full(d, 0.5)
            x[i] = bad
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                bm.evaluate(x, b_max)
    for edge in (-0.0, 1.0):
        objectives, _ = bm.evaluate(np.full(d, edge), b_max)
        assert np.isfinite(objectives).all()


def test_zdt_requires_two_dimensions():
    with pytest.raises(BenchmarkError):
        zdt1_mf(1, LADDER)


def test_zdt_true_hv_and_front_curve():
    bm1 = zdt1_mf(6, LADDER)
    bm2 = zdt2_mf(6, LADDER)
    assert true_front_hv(bm1) == pytest.approx(2.0 / 3.0)
    assert true_front_hv(bm2) == pytest.approx(1.0 / 3.0)
    curve = bm1.front_curve(101)
    assert curve[0] == pytest.approx([0.0, 1.0])
    assert curve[-1] == pytest.approx([1.0, 0.0])
    # A dense staircase sample must approach the analytic value from below.
    for bm in (bm1, bm2):
        sampled = hypervolume(bm.front_curve(20001), np.array([1.0, 1.0]))
        assert sampled <= bm.true_hv
        assert sampled == pytest.approx(bm.true_hv, abs=1e-4)


# --------------------------------------------------------------- toy grid


def test_toy_table_is_deterministic():
    t1 = toy_table(4)
    t2 = toy_table(4)
    assert np.array_equal(t1, t2)
    assert t1.shape == (4, 4)
    # Frozen spot checks of the published table.
    assert t1[0, 0] == pytest.approx(0.7347042755382017, rel=1e-15)
    assert t1[0, 2] == pytest.approx(0.14896098818391224, rel=1e-15)
    assert t1[1, 1] == pytest.approx(0.013603096834729711, rel=1e-15)


def test_toy_grid_front_and_true_hv():
    bm = toy_grid(4, TOY_LADDER)
    front = sorted(map(tuple, bm.front))
    assert front[0][0] == pytest.approx(0.0)
    assert front[0][1] == pytest.approx(0.14896098818391224, rel=1e-15)
    assert front[1][0] == pytest.approx(1.0 / 3.0)
    assert front[1][1] == pytest.approx(0.013603096834729711, rel=1e-15)
    assert bm.true_hv == pytest.approx(0.9708782478362272, rel=1e-12)
    # Independent check: inclusion-exclusion over the normalized front.
    oracle = hv_inclusion_exclusion(np.array(bm.front) / 1.5, (1.0, 1.0))
    assert bm.true_hv == pytest.approx(oracle, rel=1e-12)


def test_toy_grid_front_is_nondominated_set_of_all_cells():
    for k in (4, 5, 9):
        bm = toy_grid(k, TOY_LADDER)
        table = toy_table(k)
        cells = [
            (i / (k - 1), table[i, j]) for i in range(k) for j in range(k)
        ]
        expected = {cells[i] for i in nds_bf(cells)[0]}
        assert {tuple(p) for p in bm.front} == expected


def test_toy_grid_cell_decoding():
    bm = toy_grid(4, TOY_LADDER)
    table = toy_table(4)
    # Bin centers map to their cell; c == 1.0 stays in the last bin.
    objs, cost = bm.evaluate(np.array([0.1, 0.6]), 4.0)
    assert objs == pytest.approx([0.0, table[0, 2]])
    assert cost == 4.0
    objs, _ = bm.evaluate(np.array([1.0, 1.0]), 4.0)
    assert objs == pytest.approx([1.0, table[3, 3]])


def test_toy_grid_bias_and_bounds():
    bm = toy_grid(4, TOY_LADDER)
    x = np.array([0.4, 0.4])
    top, _ = bm.evaluate(x, 4.0)
    low, _ = bm.evaluate(x, 1.0)
    assert low == pytest.approx(top + 0.5 * (1.0 - 1.0 / 4.0))
    assert bm.objective_bounds == ((0.0, 1.5), (0.0, 1.5))
    # Every reachable value (including the bias) fits inside the bounds.
    table = toy_table(4)
    assert table.max() + 0.5 <= 1.5
    assert 1.0 + 0.5 <= 1.5


def test_toy_grid_k_range():
    with pytest.raises(BenchmarkError):
        toy_grid(3, TOY_LADDER)
    with pytest.raises(BenchmarkError):
        toy_grid(65, TOY_LADDER)


# ---------------------------------------------------------------- factory


def test_make_benchmark_dispatch():
    bm = make_benchmark("zdt1_mf", LADDER, d=6)
    assert bm.name == "zdt1_mf" and len(bm.space) == 6
    bm = make_benchmark("toy_grid", TOY_LADDER, k=4)
    assert bm.name == "toy_grid" and len(bm.space) == 2
    with pytest.raises(BenchmarkError):
        make_benchmark("zdt9_mf", LADDER)
    with pytest.raises(BenchmarkError):
        make_benchmark("zdt1_mf", LADDER, k=7)  # wrong parameter name


def test_true_front_hv_requires_known_front():
    bm = make_benchmark("zdt1_mf", LADDER, d=6)
    anonymous = Benchmark(
        name="opaque",
        space=bm.space,
        ladder=LADDER,
        objective_bounds=bm.objective_bounds,
        evaluate=bm.evaluate,
    )
    assert true_front_hv(bm) == pytest.approx(2.0 / 3.0)
    with pytest.raises(OracleError):
        true_front_hv(anonymous)
