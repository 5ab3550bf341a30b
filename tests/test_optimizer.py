"""Tests for the optimization loop: budgets, populations, determinism."""

import math
from collections import Counter, namedtuple

import numpy as np
import pytest

import modehb
from modehb import optimizer
from modehb.bench import toy_grid, zdt1_mf
from modehb.errors import EvaluationError, NormalizationError, UnsupportedDimensionError
from modehb.optimizer import (
    Optimizer,
    StoppingCriteria,
    _fill_rows,
    _mo_dehb,
    derive_rng,
    evolve_rung,
    initialize,
    promote,
    run,
    run_random_search,
    tae_budget,
)
from modehb.scheduler import build_ladder, dehb_iteration_plan
from modehb.space import config_key, decode, encode_sample

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


# One evaluation of a run's archive.
Row = namedtuple("Row", "seq genotype fidelity objectives cost")


def rows_of(result):
    """A run's archive as Rows, seq taken from the row."""
    columns = zip(
        result.genotypes, result.fidelity, result.objectives, result.cost, strict=True
    )
    return [
        Row(i + 1, genotype, float(fidelity), objectives, float(cost))
        for i, (genotype, fidelity, objectives, cost) in enumerate(columns)
    ]


def drive(records, objective_fn, proposals, n=math.inf):
    """Evaluate the first ``n`` proposals (every one, of a finite generator),
    sending each but the n-th its ``(seq, objectives)``; the Rows are
    appended to ``records`` in seq order."""
    told, end = None, len(records) + n
    while len(records) < end:
        try:
            genotype, fidelity = proposals.send(told)
        except StopIteration:
            return
        objectives, cost = objective_fn(genotype, fidelity)
        records.append(Row(len(records) + 1, genotype.copy(), fidelity, objectives, cost))
        told = records[-1].seq, np.asarray(objectives, dtype=float)


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
    # A NaN or infinite limit never trips, so a run would never end.
    for limit in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            StoppingCriteria(max_wallclock=limit)
        with pytest.raises(ValueError, match="finite"):
            StoppingCriteria(max_tae=limit)
    stop = StoppingCriteria(max_tae=5, max_wallclock=100.0)
    assert stop.cause_if_tripped(4, 0.0) is None
    assert stop.cause_if_tripped(5, 0.0) == "max_tae"
    assert stop.cause_if_tripped(0, 100.0) == "max_wallclock"


# ------------------------------------------------------------------ ask/tell

def ask_tell(variant, n=80, seed=3):
    """An Optimizer after a hand-written loop of n asks and tells."""
    opt = Optimizer(
        BENCH.space, LADDER, variant, seed, objective_bounds=BENCH.objective_bounds
    )
    for _ in range(n):
        genotype, fidelity = opt.ask()
        opt.tell(*BENCH.evaluate(genotype, fidelity))
    return opt


def assert_same_columns(a, b):
    for column in ("fidelity", "cost", "objectives", "genotypes"):
        x, y = getattr(a, column), getattr(b, column)
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())


@pytest.mark.parametrize("variant", ["nsga2", "epsnet", "random_search"])
def test_ask_tell_loop_gives_the_columns_of_a_run(variant):
    stop = StoppingCriteria(max_tae=80)
    if variant == "random_search":
        expected = run_random_search(BENCH.space, LADDER, BENCH.evaluate, stop, 3)
    else:
        expected = run(
            BENCH.space, LADDER, variant, BENCH.evaluate, stop, 3,
            objective_bounds=BENCH.objective_bounds,
        )
    opt = ask_tell(variant)
    assert (opt.tae, opt.cost) == (80, sum(expected.cost.tolist()))
    got = opt.trajectory("max_tae")
    assert_same_columns(got, expected)
    assert got.metadata == expected.metadata


def test_asking_again_before_a_tell_returns_the_same_proposal():
    opt = Optimizer(BENCH.space, LADDER, "nsga2", 0, objective_bounds=BENCH.objective_bounds)
    # The opening bracket's 13 evaluations, then DE children.
    for _ in range(20):
        proposal = opt.ask()
        assert opt.ask() is proposal
        opt.tell(*BENCH.evaluate(*proposal))


# Results whose objectives or cost cannot be archived.
UNARCHIVABLE = [
    ([0.5, 0.5], np.nan),
    ([0.5, 0.5], -1.0),
    ([0.5, 0.5], np.inf),
    ([0.5, 0.5], None),
    (["a", "b"], 1.0),
    # A complex array only warns when cast to float, and drops its imaginary part.
    (np.array([0.5 + 1j, 0.5]), 1.0),
    ([0.5, 0.5], np.complex128(1.0)),
]


@pytest.mark.parametrize("result", UNARCHIVABLE)
def test_a_result_that_cannot_be_archived_fails_the_run(result):
    # max_tae ends the run even where a bad cost keeps max_wallclock from
    # tripping.
    stop = StoppingCriteria(max_tae=30, max_wallclock=5.0)
    with pytest.raises(EvaluationError):
        run(
            BENCH.space, LADDER, "nsga2", lambda genotype, fidelity: result, stop, 0,
            objective_bounds=BENCH.objective_bounds,
        )
    with pytest.raises(EvaluationError):
        run_random_search(BENCH.space, LADDER, lambda genotype, fidelity: result, stop, 0)


@pytest.mark.parametrize("variant", ["nsga2", "random_search"])
def test_a_rejected_tell_changes_nothing(variant):
    # A long run survives one bad evaluation: after it, the run goes on
    # exactly as one that never saw it.
    opt = Optimizer(BENCH.space, LADDER, variant, 3, objective_bounds=BENCH.objective_bounds)
    for i in range(80):
        proposal = opt.ask()
        if i == 30:
            before = opt.tae, opt.cost
            for bad in ([np.nan, 0.5], [0.5, -np.inf], [0.5], [0.1, 0.2, 0.3], [[0.1, 0.2]]):
                with pytest.raises(EvaluationError):
                    opt.tell(bad, 1.0)
            for bad in UNARCHIVABLE:
                with pytest.raises(EvaluationError):
                    opt.tell(*bad)
                assert (opt.tae, opt.cost) == before and opt.ask() is proposal
        opt.tell(*BENCH.evaluate(*proposal))
    assert_same_columns(opt.trajectory(), ask_tell(variant).trajectory())


def test_package_exports_the_optimizer_not_its_internals():
    assert "Optimizer" in modehb.__all__ and modehb.Optimizer is Optimizer
    internals = {"EvaluationRecord", "OptimizerState", "evolve_rung", "initialize", "promote"}
    assert not internals & set(modehb.__all__)


# ------------------------------------------------------------ initialization


def test_initialize_freezes_first_bracket_capacities():
    state = initialize(BENCH.space, LADDER, seed=0, variant="nsga2")
    sizes = {level: len(rows) for level, rows in state.rows.items()}
    assert sizes == {1.0: 9, 3.0: 3, 9.0: 1}
    big = initialize(BENCH.space, build_ladder(1, 27, 3), seed=0, variant="epsnet")
    sizes = {level: len(rows) for level, rows in big.rows.items()}
    assert sizes == {1.0: 27, 3.0: 9, 9.0: 3, 27.0: 1}


def test_initialize_draws_nothing_and_the_opening_rung_samples_as_it_proposes():
    state = initialize(BENCH.space, LADDER, seed=3, variant="nsga2")
    assert state.rows == {1.0: range(0, 9), 3.0: range(9, 12), 9.0: range(12, 13)}
    assert state.genotypes.shape == (13, 3)
    # No row is evaluated or filled yet, and the optimizer stream is untouched.
    assert not state.genotypes.any()
    assert not state.seqs.any() and np.isnan(state.objectives).all()
    assert state.seen == set()
    assert state.rng.random() == derive_rng(3, "optimizer").random()
    # The opening rung proposes that stream's uniform samples in row order;
    # the tenth proposal is a promotion, which draws nothing.
    state = initialize(BENCH.space, LADDER, seed=3, variant="nsga2")
    rng = derive_rng(3, "optimizer")
    records = []
    drive(records, BENCH.evaluate, _mo_dehb(state, dehb_iteration_plan(LADDER)), n=10)
    assert [rec.fidelity for rec in records] == [1.0] * 9 + [3.0]
    for row, rec in enumerate(records[:9]):
        assert np.array_equal(rec.genotype, encode_sample(BENCH.space, rng))
        assert np.array_equal(state.genotypes[row], rec.genotype)
    assert state.rng.random() == rng.random()


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
    return Row(
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
    # The opening bracket of ladder (1, 9, 3) makes 9 + 3 + 1 proposals.
    records = []
    drive(records, BENCH.evaluate, _mo_dehb(state, dehb_iteration_plan(LADDER)), n=13)
    assert [rec.fidelity for rec in records] == [1.0] * 9 + [3.0] * 3 + [9.0]
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
        assert len(rows_of(result)) == budget
        assert dict(Counter(rec.fidelity for rec in rows_of(result))) == counts
        assert result.metadata.stop_cause == "max_tae"


def test_run_archive_is_sequential_and_within_bounds():
    result = small_run()
    assert [rec.seq for rec in rows_of(result)] == list(range(1, 41))
    for rec in rows_of(result):
        assert rec.fidelity in LADDER.levels
        assert rec.cost == rec.fidelity
        assert np.all(rec.genotype >= 0.0) and np.all(rec.genotype <= 1.0)
    assert result.metadata.optimizer == "modehb_nsga2"
    assert result.metadata.benchmark == "zdt1_mf"
    assert result.metadata.seed == 0


def test_run_is_deterministic():
    a = small_run(seed=5)
    b = small_run(seed=5)
    assert len(rows_of(a)) == len(rows_of(b))
    for ra, rb in zip(rows_of(a), rows_of(b)):
        assert ra.seq == rb.seq and ra.fidelity == rb.fidelity
        assert np.array_equal(ra.genotype, rb.genotype)
        assert np.array_equal(ra.objectives, rb.objectives)
        assert ra.cost == rb.cost
    c = small_run(seed=6)
    assert any(
        not np.array_equal(ra.genotype, rc.genotype)
        for ra, rc in zip(rows_of(a), rows_of(c))
    )


def test_variants_share_init_then_diverge():
    # The variants differ only in how promotion splits a front.  The nine
    # initial evaluations return one front on the line f2 = 1 - f1 whose
    # first point is interior, so promoting three of them splits it with
    # k = 3: crowding takes both ends and then that point, the epsilon-net
    # starts from it.  Later evaluations use the benchmark.
    line = [0.5, 0.0, 0.1, 0.2, 0.3, 0.7, 0.8, 0.9, 1.0]

    def objectives():
        calls = iter(line)

        def evaluate(genotype, fidelity):
            f1 = next(calls, None)
            if f1 is None:
                return BENCH.evaluate(genotype, fidelity)
            return np.array([f1, 1.0 - f1]), fidelity

        return evaluate

    a, b = (
        run(
            BENCH.space, LADDER, variant, objectives(), StoppingCriteria(max_tae=40), 0,
            objective_bounds=BENCH.objective_bounds,
        )
        for variant in ("nsga2", "epsnet")
    )
    # The random init at the cheapest fidelity is variant-independent.
    for ra, rb in zip(rows_of(a)[:9], rows_of(b)[:9]):
        assert np.array_equal(ra.genotype, rb.genotype)
    assert a.metadata.optimizer == "modehb_nsga2"
    assert b.metadata.optimizer == "modehb_epsnet"
    # The same three genotypes are promoted, in different orders.
    init = [rec.genotype for rec in rows_of(a)[:9]]
    for result, order in ((a, [1, 8, 0]), (b, [0, 1, 8])):
        promoted = [rec.genotype for rec in rows_of(result)[9:12]]
        assert all(rec.fidelity == 3.0 for rec in rows_of(result)[9:12])
        assert all(np.array_equal(g, init[i]) for g, i in zip(promoted, order))


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
    total = sum(rec.cost for rec in rows_of(result))
    assert total >= 20.0
    # The limit is checked before each evaluation, never mid-run after one.
    assert total - rows_of(result)[-1].cost < 20.0


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
        for rp, rb in zip(rows_of(plain), rows_of(big), strict=True):
            assert np.array_equal(rp.genotype, rb.genotype)
            assert rp.fidelity == rb.fidelity
            assert np.array_equal(4.0 * rp.objectives, rb.objectives)


@pytest.mark.parametrize("optimizer_name", ["nsga2", "epsnet", "random_search"])
def test_shorter_budget_is_a_prefix(optimizer_name):
    # The driver only truncates: a budget changes where a run stops, never
    # what it proposes before that.
    def archive(max_tae):
        stop = StoppingCriteria(max_tae=max_tae)
        if optimizer_name == "random_search":
            return run_random_search(BENCH.space, LADDER, BENCH.evaluate, stop, 3)
        return run(
            BENCH.space, LADDER, optimizer_name, BENCH.evaluate, stop, 3,
            objective_bounds=BENCH.objective_bounds,
        )

    n = 37
    short, long = rows_of(archive(n)), rows_of(archive(2 * n))
    assert len(short) == n and len(long) == 2 * n
    for rs, rl in zip(short, long[:n], strict=True):
        assert rs.seq == rl.seq and rs.fidelity == rl.fidelity and rs.cost == rl.cost
        assert np.array_equal(rs.genotype, rl.genotype)
        assert np.array_equal(rs.objectives, rl.objectives)


def test_run_keeps_going_for_multiple_iterations():
    # 3 full DEHB sweeps of ladder (1, 9, 3) cost 22 evaluations each
    # after the opening one; a large budget must keep cycling, not stall.
    result = small_run(max_tae=100)
    assert len(rows_of(result)) == 100
    counts = Counter(rec.fidelity for rec in rows_of(result))
    assert counts[9.0] >= 10


# ------------------------------------------------------ duplicate children


def _grid_state(k):
    """toy_grid k x k on ladder (1, 4, 2); every member holds cell (0, 0).

    Returns the benchmark, the state and the list of records so far."""
    ladder = build_ladder(1, 4, 2)
    grid = toy_grid(k, ladder)
    state = initialize(
        grid.space, ladder, 0, "nsga2", objective_bounds=grid.objective_bounds
    )
    corner = np.full(2, 0.5 / k)
    records = []
    for level, rows in state.rows.items():
        drive(records, grid.evaluate, _fill_rows(state, level, [corner] * len(rows)))
    return grid, state, records


def _evaluate_cells(grid, state, records, cells, fidelity):
    """Evaluate the cells at ``fidelity``, marking each as seen."""
    k = len(grid.space.params[0].choices)

    def proposals():
        for cell in cells:
            genotype = (np.asarray(cell) + 0.5) / k
            yield genotype, fidelity
            state.seen.add((config_key(state.space, genotype), fidelity))

    drive(records, grid.evaluate, proposals())


def _configs(space, records):
    return [(tuple(decode(space, r.genotype).values()), r.fidelity) for r in records]


def test_evolve_rung_children_avoid_evaluated_configurations():
    grid, state, records = _grid_state(32)
    # A pool of identical genotypes makes every plain rand/1/bin child of a
    # corner member the corner itself, a repeat.
    corner = state.genotypes[0].copy()
    state.parent_pool[1.0] = [corner] * 3
    # The archive also holds a 4 x 4 block of cells at the lowest fidelity.
    block = [(i, j) for i in range(4) for j in range(4)]
    _evaluate_cells(grid, state, records, block, 1.0)
    before = len(records)
    drive(records, grid.evaluate, evolve_rung(state, 1.0, n_slots=8))
    configs = _configs(grid.space, records)
    children = configs[before:]
    assert len(children) == 8
    assert not set(children) & set(configs[:before])
    assert len(set(children)) == 8


def test_evolve_rung_spends_every_slot_once_all_configurations_are_seen():
    grid, state, records = _grid_state(4)
    every_cell = [(i, j) for i in range(4) for j in range(4)]
    _evaluate_cells(grid, state, records, every_cell, 1.0)
    before = len(records)
    drive(records, grid.evaluate, evolve_rung(state, 1.0, n_slots=5))
    children = records[before:]
    assert len(children) == 5
    assert all(rec.fidelity == 1.0 for rec in children)
    seen = set(_configs(grid.space, records[:before]))
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
    # The first bracket evaluates its uniform samples and then the
    # genotypes it promotes; none is redrawn, so each is keyed once.
    first_bracket = dehb_iteration_plan(LADDER)[0].rungs
    n_initial = first_bracket[0][1]
    unsampled = sum(n for _, n in first_bracket)
    # Every later evaluation is a drawn child.  A draw is a DE draw (one
    # crossover) or a uniform draw (one encode_sample after the initial
    # population); repeats are redrawn, and the budget stops the last draw.
    draws = calls["crossover_binomial"] + calls["encode_sample"] - n_initial
    assert draws > len(rows_of(result)) - unsampled > 0
    assert calls["config_key"] == draws + unsampled


@pytest.mark.parametrize("in_pool", [0, 1, 2])
def test_mutation_pool_tops_up_with_one_uniform_per_fill_in(in_pool):
    # Fill-ins take 3 - len(pool) uniforms in one block, mapped to distinct
    # candidate rows by de.distinct_indices.
    state = initialize(BENCH.space, LADDER, 0, "nsga2", objective_bounds=BENCH.objective_bounds)
    candidates = np.linspace(0.0, 1.0, 21).reshape(7, 3)
    pool = np.full((in_pool, 3), 0.5)
    for seed in range(20):
        state.rng = np.random.default_rng(seed)
        uniforms = np.random.default_rng(seed).random(3 - in_pool).tolist()
        topped = optimizer._mutation_pool(state, pool, candidates)
        expected = candidates[optimizer.distinct_indices(uniforms, len(candidates))]
        assert np.array_equal(topped, np.concatenate([pool, expected]))


# ---------------------------------------------------------- random search


def test_random_search_samples_full_fidelity_only():
    result = run_random_search(
        BENCH.space, LADDER, BENCH.evaluate, StoppingCriteria(max_tae=25), 0,
        benchmark_name=BENCH.name,
    )
    assert len(rows_of(result)) == 25
    assert all(rec.fidelity == 9.0 for rec in rows_of(result))
    assert result.metadata.optimizer == "random_search"
    assert result.metadata.stop_cause == "max_tae"


def test_random_search_is_deterministic_and_distinct_from_dehb():
    a = run_random_search(
        BENCH.space, LADDER, BENCH.evaluate, StoppingCriteria(max_tae=25), 4
    )
    b = run_random_search(
        BENCH.space, LADDER, BENCH.evaluate, StoppingCriteria(max_tae=25), 4
    )
    for ra, rb in zip(rows_of(a), rows_of(b)):
        assert np.array_equal(ra.genotype, rb.genotype)
    dehb = small_run(seed=4, max_tae=25)
    assert any(
        not np.array_equal(ra.genotype, rd.genotype)
        for ra, rd in zip(rows_of(a), rows_of(dehb))
    )
