"""Tests for the optimization loop: budgets, populations, determinism."""

from collections import Counter

import numpy as np
import pytest

from modehb import optimizer
from modehb.bench import toy_grid, zdt1_mf
from modehb.errors import EvaluationError, NormalizationError, UnsupportedDimensionError
from modehb.optimizer import (
    EvaluationRecord,
    StoppingCriteria,
    _vanilla_bracket,
    derive_rng,
    evolve_rung,
    initialize,
    promote,
    run,
    run_random_search,
    tae_budget,
)
from modehb.scheduler import build_ladder, dehb_iteration_plan
from modehb.space import decode

LADDER = build_ladder(1, 9, 3)
BENCH = zdt1_mf(3, LADDER)


def small_run(variant="nsga2", seed=0, max_tae=40):
    return run(
        BENCH.space,
        LADDER,
        variant,
        BENCH.evaluate,
        StoppingCriteria(max_tae=max_tae),
        seed,
        objective_bounds=BENCH.objective_bounds,
        benchmark_name=BENCH.name,
    )


# ----------------------------------------------------------- rng and budget


def test_derive_rng_streams_are_stable_and_independent():
    a = derive_rng(7, "optimizer").random(4)
    b = derive_rng(7, "optimizer").random(4)
    c = derive_rng(7, "benchmark").random(4)
    d = derive_rng(8, "optimizer").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_tae_budget_table():
    assert tae_budget(6) == 216
    assert tae_budget(10) == 273
    assert tae_budget(14) == 320
    assert tae_budget(26) == 428
    with pytest.raises(ValueError):
        tae_budget(0)


def test_stopping_criteria_validation():
    with pytest.raises(ValueError):
        StoppingCriteria()
    with pytest.raises(ValueError):
        StoppingCriteria(max_tae=0)
    with pytest.raises(ValueError):
        StoppingCriteria(max_wallclock=0.0)
    stop = StoppingCriteria(max_tae=5, max_wallclock=100.0)
    assert stop.cause_if_tripped(4, 0.0) is None
    assert stop.cause_if_tripped(5, 0.0) == "max_tae"
    assert stop.cause_if_tripped(0, 100.0) == "max_wallclock"


# ------------------------------------------------------------ initialization


def test_initialize_freezes_first_bracket_capacities():
    state = initialize(BENCH.space, LADDER, seed=0, variant="nsga2")
    assert state.capacities == {1.0: 9, 3.0: 3, 9.0: 1}
    big = initialize(BENCH.space, build_ladder(1, 27, 3), seed=0, variant="epsnet")
    assert big.capacities == {1.0: 27, 3.0: 9, 9.0: 3, 27.0: 1}


def test_initialize_samples_lowest_subpopulation_unevaluated():
    state = initialize(BENCH.space, LADDER, seed=3, variant="nsga2")
    assert state.rows == {1.0: range(0, 9), 3.0: range(9, 12), 9.0: range(12, 13)}
    assert state.genotypes.shape == (13, 3)
    # Only the b_min slice is sampled.
    low = state.genotypes[:9]
    assert np.all((low >= 0.0) & (low <= 1.0)) and len(np.unique(low, axis=0)) == 9
    assert not state.genotypes[9:].any()
    # No row is evaluated yet.
    assert not state.seqs.any() and np.isnan(state.objectives).all()
    assert state.archive.records == []
    again = initialize(BENCH.space, LADDER, seed=3, variant="nsga2")
    assert np.array_equal(state.genotypes, again.genotypes)


def test_initialize_validation():
    with pytest.raises(ValueError):
        initialize(BENCH.space, LADDER, seed=0, variant="spea2")
    with pytest.raises(NormalizationError):
        initialize(
            BENCH.space, LADDER, seed=0, variant="nsga2",
            objective_bounds=((0.0, 0.0), (0.0, 1.0)),
        )


@pytest.mark.parametrize("n_bounds", [1, 3])
def test_run_rejects_bounds_for_other_than_two_objectives(n_bounds):
    calls = []

    def objective(genotype, fidelity):
        calls.append(fidelity)
        return BENCH.evaluate(genotype, fidelity)

    bounds = ((0.0, 1.0),) * n_bounds
    with pytest.raises(UnsupportedDimensionError):
        initialize(BENCH.space, LADDER, seed=0, variant="nsga2", objective_bounds=bounds)
    with pytest.raises(UnsupportedDimensionError):
        run(
            BENCH.space, LADDER, "nsga2", objective, StoppingCriteria(max_tae=60), 0,
            objective_bounds=bounds,
        )
    assert calls == []


# ----------------------------------------------------------------- promote


def _record(seq, objectives):
    return EvaluationRecord(
        seq=seq,
        genotype=np.full(2, float(seq)),
        fidelity=1.0,
        objectives=np.asarray(objectives, dtype=float),
        cost=1.0,
    )


def test_promote_selects_top_ranked_genotypes():
    records = [
        _record(1, (0.1, 0.9)),
        _record(2, (0.9, 0.1)),
        _record(3, (0.5, 0.5)),
        _record(4, (0.6, 0.6)),
    ]
    objectives = np.array([rec.objectives for rec in records])
    genotypes = np.array([rec.genotype for rec in records])
    for variant in ("nsga2", "epsnet"):
        top1 = promote(objectives, genotypes, 1, variant)
        assert len(top1) == 1
        assert np.array_equal(top1[0], records[0].genotype)
        top3 = {tuple(g) for g in promote(objectives, genotypes, 3, variant)}
        assert top3 == {(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)}
        assert len(promote(objectives, genotypes, 4, variant)) == 4


def test_parent_pool_keeps_promoted_genotypes_when_rows_change():
    state = initialize(BENCH.space, LADDER, seed=0, variant="nsga2")
    opening = dehb_iteration_plan(LADDER)[0]
    _vanilla_bracket(state, opening, BENCH.evaluate, StoppingCriteria(max_tae=100))
    assert set(state.parent_pool) == {3.0, 9.0}
    before = {level: np.array(pool) for level, pool in state.parent_pool.items()}
    state.genotypes[:] = -1.0
    for level, pool in state.parent_pool.items():
        assert np.array_equal(pool, before[level])


# ------------------------------------------------------------------- runs


def test_run_spends_the_planned_rung_budgets():
    # Ladder (1, 9, 3): the opening bracket evaluates 9 at fidelity 1,
    # promotes 3, then 1.  The next bracket plans 5 evaluations at
    # fidelity 3 (more than the sub-population of 3, so targets cycle)
    # and 1 at fidelity 9.
    expect = {
        13: {1.0: 9, 3.0: 3, 9.0: 1},
        18: {1.0: 9, 3.0: 8, 9.0: 1},
        19: {1.0: 9, 3.0: 8, 9.0: 2},
        22: {1.0: 9, 3.0: 8, 9.0: 5},
    }
    for budget, counts in expect.items():
        result = small_run(max_tae=budget)
        assert len(result.records) == budget
        assert dict(Counter(rec.fidelity for rec in result.records)) == counts
        assert result.metadata.stop_cause == "max_tae"


def test_run_archive_is_sequential_and_within_bounds():
    result = small_run()
    assert [rec.seq for rec in result.records] == list(range(1, 41))
    for rec in result.records:
        assert rec.fidelity in LADDER.levels
        assert rec.cost == rec.fidelity
        assert np.all(rec.genotype >= 0.0) and np.all(rec.genotype <= 1.0)
    assert result.metadata.optimizer == "modehb_nsga2"
    assert result.metadata.benchmark == "zdt1_mf"
    assert result.metadata.seed == 0


def test_run_is_deterministic():
    a = small_run(seed=5)
    b = small_run(seed=5)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.seq == rb.seq and ra.fidelity == rb.fidelity
        assert np.array_equal(ra.genotype, rb.genotype)
        assert np.array_equal(ra.objectives, rb.objectives)
        assert ra.cost == rb.cost
    c = small_run(seed=6)
    assert any(
        not np.array_equal(ra.genotype, rc.genotype)
        for ra, rc in zip(a.records, c.records)
    )


def test_variants_share_init_then_diverge():
    a = small_run(variant="nsga2")
    b = small_run(variant="epsnet")
    # The random init at the cheapest fidelity is variant-independent.
    for ra, rb in zip(a.records[:9], b.records[:9]):
        assert np.array_equal(ra.genotype, rb.genotype)
    assert a.metadata.optimizer == "modehb_nsga2"
    assert b.metadata.optimizer == "modehb_epsnet"
    assert any(
        not np.array_equal(ra.genotype, rb.genotype)
        for ra, rb in zip(a.records, b.records)
    )


def test_wallclock_stop():
    result = run(
        BENCH.space,
        LADDER,
        "nsga2",
        BENCH.evaluate,
        StoppingCriteria(max_wallclock=20.0),
        0,
        objective_bounds=BENCH.objective_bounds,
    )
    assert result.metadata.stop_cause == "max_wallclock"
    total = sum(rec.cost for rec in result.records)
    assert total >= 20.0
    # The limit is checked before each evaluation, never mid-run after one.
    assert total - result.records[-1].cost < 20.0


def test_evaluation_failures_are_wrapped():
    def boom(genotype, fidelity):
        raise ValueError("synthetic failure")

    with pytest.raises(EvaluationError):
        run(
            BENCH.space, LADDER, "nsga2", boom, StoppingCriteria(max_tae=5), 0,
            objective_bounds=BENCH.objective_bounds,
        )

    def nan_objectives(genotype, fidelity):
        return np.array([np.nan, 0.5]), 1.0

    with pytest.raises(EvaluationError):
        run(
            BENCH.space, LADDER, "nsga2", nan_objectives,
            StoppingCriteria(max_tae=5), 0,
            objective_bounds=BENCH.objective_bounds,
        )


@pytest.mark.parametrize("objectives", [0.5, [0.5], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
def test_objective_vectors_must_hold_two_values(objectives):
    def objective(genotype, fidelity):
        return objectives, 1.0

    stop = StoppingCriteria(max_tae=60)
    with pytest.raises(EvaluationError, match="expected two objectives"):
        run(
            BENCH.space, LADDER, "nsga2", objective, stop, 0,
            objective_bounds=BENCH.objective_bounds,
        )
    with pytest.raises(EvaluationError, match="expected two objectives"):
        run_random_search(BENCH.space, LADDER, objective, stop, 0)


def test_run_is_invariant_to_scaling_objectives_and_bounds():
    # Scaling by 4 is exact in binary floating point; dominance, crowding,
    # epsilon-net order and the order of hypervolume contributions (with the
    # reference point scaled too) are then unchanged, and so is the run.
    def scaled(genotype, fidelity):
        objectives, cost = BENCH.evaluate(genotype, fidelity)
        return 4.0 * objectives, cost

    bounds = tuple((4.0 * lo, 4.0 * hi) for lo, hi in BENCH.objective_bounds)
    for variant in ("nsga2", "epsnet"):
        plain = small_run(variant, max_tae=250)
        big = run(
            BENCH.space, LADDER, variant, scaled, StoppingCriteria(max_tae=250), 0,
            objective_bounds=bounds,
        )
        for rp, rb in zip(plain.records, big.records, strict=True):
            assert np.array_equal(rp.genotype, rb.genotype)
            assert rp.fidelity == rb.fidelity
            assert np.array_equal(4.0 * rp.objectives, rb.objectives)


def test_run_keeps_going_for_multiple_iterations():
    # 3 full DEHB sweeps of ladder (1, 9, 3) cost 22 evaluations each
    # after the opening one; a large budget must keep cycling, not stall.
    result = small_run(max_tae=100)
    assert len(result.records) == 100
    counts = Counter(rec.fidelity for rec in result.records)
    assert counts[9.0] >= 10


# ------------------------------------------------------ duplicate children


def _grid_state(k):
    """toy_grid k x k on ladder (1, 4, 2); every member holds cell (0, 0)."""
    ladder = build_ladder(1, 4, 2)
    grid = toy_grid(k, ladder)
    stop = StoppingCriteria(max_tae=10_000)
    state = initialize(
        grid.space, ladder, 0, "nsga2", objective_bounds=grid.objective_bounds
    )
    corner = np.full(2, 0.5 / k)
    for level, rows in state.rows.items():
        for row in rows:
            state.store(row, state.evaluate(grid.evaluate, corner, level, stop))
    return grid, state, stop


def _evaluate_cells(grid, state, stop, cells, fidelity):
    k = len(grid.space.params[0].choices)
    for cell in cells:
        genotype = (np.asarray(cell) + 0.5) / k
        state.evaluate(grid.evaluate, genotype, fidelity, stop)


def _configs(space, records):
    return [(tuple(decode(space, r.genotype).values()), r.fidelity) for r in records]


def test_evolve_rung_children_avoid_evaluated_configurations():
    grid, state, stop = _grid_state(32)
    # A pool of identical genotypes makes every plain rand/1/bin child of a
    # corner member the corner itself, a repeat.
    corner = state.genotypes[0].copy()
    state.parent_pool[1.0] = [corner] * 3
    # The archive also holds a 4 x 4 block of cells at the lowest fidelity.
    block = [(i, j) for i in range(4) for j in range(4)]
    _evaluate_cells(grid, state, stop, block, 1.0)
    before = len(state.archive.records)
    evolve_rung(state, 1.0, grid.evaluate, stop, n_slots=8)
    configs = _configs(grid.space, state.archive.records)
    children = configs[before:]
    assert len(children) == 8
    assert not set(children) & set(configs[:before])
    assert len(set(children)) == 8


def test_evolve_rung_spends_every_slot_once_all_configurations_are_seen():
    grid, state, stop = _grid_state(4)
    every_cell = [(i, j) for i in range(4) for j in range(4)]
    _evaluate_cells(grid, state, stop, every_cell, 1.0)
    before = len(state.archive.records)
    evolve_rung(state, 1.0, grid.evaluate, stop, n_slots=5)
    children = state.archive.records[before:]
    assert len(children) == 5
    assert all(rec.fidelity == 1.0 for rec in children)
    seen = set(_configs(grid.space, state.archive.records[:before]))
    assert set(_configs(grid.space, children)) <= seen


def test_config_key_runs_once_per_draw_and_once_per_unsampled_evaluation(
    monkeypatch,
):
    calls = Counter()

    def count(name):
        original = getattr(optimizer, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)

    for name in ("config_key", "crossover_binomial", "encode_sample"):
        count(name)
    result = small_run(max_tae=100)
    # The first bracket evaluates its random initial population and then
    # the genotypes it promotes; neither was drawn, so each needs a key.
    first_bracket = dehb_iteration_plan(LADDER)[0].rungs
    n_initial = first_bracket[0][1]
    unsampled = sum(n for _, n in first_bracket)
    # Every later evaluation is a drawn child.  A draw is a DE draw (one
    # crossover) or a uniform draw (one encode_sample after the initial
    # population); repeats are redrawn, and the budget stops the last draw.
    draws = calls["crossover_binomial"] + calls["encode_sample"] - n_initial
    assert draws > len(result.records) - unsampled > 0
    assert calls["config_key"] == draws + unsampled


# ---------------------------------------------------------- random search


def test_random_search_samples_full_fidelity_only():
    result = run_random_search(
        BENCH.space, LADDER, BENCH.evaluate, StoppingCriteria(max_tae=25), 0,
        benchmark_name=BENCH.name,
    )
    assert len(result.records) == 25
    assert all(rec.fidelity == 9.0 for rec in result.records)
    assert result.metadata.optimizer == "random_search"
    assert result.metadata.stop_cause == "max_tae"


def test_random_search_is_deterministic_and_distinct_from_dehb():
    a = run_random_search(
        BENCH.space, LADDER, BENCH.evaluate, StoppingCriteria(max_tae=25), 4
    )
    b = run_random_search(
        BENCH.space, LADDER, BENCH.evaluate, StoppingCriteria(max_tae=25), 4
    )
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.genotype, rb.genotype)
    dehb = small_run(seed=4, max_tae=25)
    assert any(
        not np.array_equal(ra.genotype, rd.genotype)
        for ra, rd in zip(a.records, dehb.records)
    )
