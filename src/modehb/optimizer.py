"""The optimization loop: DE-evolved successive-halving sub-populations.

One run keeps a fixed-capacity sub-population per fidelity level (sizes
frozen from the first, largest bracket).  The first bracket fills them
vanilla-SH style: random genotypes at the cheapest fidelity, the top
1/eta promoted and re-evaluated one level up.  Every later bracket walks
its rungs spending the planned per-rung evaluation count (cycling over
the sub-population when a rung is larger than its capacity), evolving
each target with rand/1 mutation over the parent pool (the genotypes
promoted out of the previous rung of the same bracket), binomial
crossover, and rank/hypervolume survivor selection against the global
population.

Each promotion refreshes the parent pool at the target fidelity, pools
persist across the brackets of one iteration and are cleared between
iterations; a rung whose pool holds fewer than three genotypes tops it
up from the global population (per-target, uniformly, skipping genotypes
already in the pool).

Every benchmark here is deterministic, so a child whose decoded
configuration (``space.config_key``) was already evaluated at the rung's
fidelity is redrawn before it is evaluated.  Draw order per slot (part of
the determinism contract): up to ``MAX_DRAWS`` DE draws, each one mutation
pool, ``mutate_rand1`` and ``crossover_binomial`` against the same target;
then up to ``MAX_DRAWS`` uniform genotypes (``encode_sample``).  The first
unseen draw is evaluated; if every draw repeats, the last one is, so each
slot spends exactly one evaluation.  A child that is new on its first draw
uses the same RNG draws as plain DE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .de import DEParams, crossover_binomial, mo_selection, mutate_rand1
from .errors import EvaluationError, NormalizationError, UnsupportedDimensionError
from .metrics import RunMetadata, RunTrajectory
from .pareto import rank_and_truncate
from .scheduler import BracketPlan, FidelityLadder, dehb_iteration_plan
from .space import SearchSpace, config_key, encode_sample

VARIANTS = {"nsga2": "crowding", "epsnet": "epsnet"}

# Fixed stream tags: every consumer derives its generator from
# (tag, run seed), so adding a consumer never perturbs the others.
_STREAMS = {"optimizer": 1, "benchmark": 2}

# DE draws, then uniform draws, per slot before a repeat is evaluated anyway.
MAX_DRAWS = 3


def derive_rng(seed: int, stream: str) -> np.random.Generator:
    """Named RNG sub-stream of a run seed."""
    return np.random.default_rng(np.random.SeedSequence([_STREAMS[stream], seed]))


def tae_budget(n_hyperparameters: int) -> int:
    """Evaluation budget ceil(20 + 80 * sqrt(#hyperparameters))."""
    if n_hyperparameters < 1:
        raise ValueError("need at least one hyperparameter")
    return math.ceil(20.0 + 80.0 * math.sqrt(n_hyperparameters))


@dataclass(frozen=True)
class StoppingCriteria:
    """Run limits; at least one must be set.  Checked before every
    evaluation, so max_tae is exact and never overshot."""

    max_tae: int | None = None
    max_wallclock: float | None = None

    def __post_init__(self):
        if self.max_tae is None and self.max_wallclock is None:
            raise ValueError("at least one stopping criterion is required")
        if self.max_tae is not None and self.max_tae < 1:
            raise ValueError(f"max_tae must be >= 1, got {self.max_tae}")
        if self.max_wallclock is not None and self.max_wallclock <= 0:
            raise ValueError(f"max_wallclock must be > 0, got {self.max_wallclock}")

    def cause_if_tripped(self, tae: int, cost: float) -> str | None:
        if self.max_tae is not None and tae >= self.max_tae:
            return "max_tae"
        if self.max_wallclock is not None and cost >= self.max_wallclock:
            return "max_wallclock"
        return None


@dataclass(frozen=True)
class EvaluationRecord:
    """One target-algorithm execution."""

    seq: int
    genotype: np.ndarray
    fidelity: float
    objectives: np.ndarray
    cost: float


class _BudgetExhausted(Exception):
    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


@dataclass
class _Archive:
    """Evaluation records in seq order and their summed reported cost."""

    records: list[EvaluationRecord] = field(default_factory=list)
    cost: float = 0.0


@dataclass
class OptimizerState:
    """Mutable per-run state shared by the rung-evolution steps.

    The global population is stored as parallel row arrays grouped by
    fidelity, cheapest first; ``rows[level]`` is the fixed block of rows
    owned by that level's sub-population.  ``objectives``, ``owners`` and
    ``seqs`` hold one spare last row for the offspring under selection.
    ``objectives`` are the raw values of the archive records; ``ref``, the
    upper corner of the declared objective bounds, is the hypervolume
    reference point in that same space.  A row's seq is 0 (objectives NaN)
    until its first evaluation.  ``seen`` holds the (configuration key,
    fidelity) pair of every evaluation so far.
    """

    space: SearchSpace
    ladder: FidelityLadder
    variant: str
    de_params: DEParams
    rng: np.random.Generator
    rows: dict[float, range]
    ref: np.ndarray
    genotypes: np.ndarray
    objectives: np.ndarray
    owners: np.ndarray
    seqs: np.ndarray
    parent_pool: dict[float, np.ndarray] = field(default_factory=dict)
    archive: _Archive = field(default_factory=_Archive)
    seen: set[tuple] = field(default_factory=set)

    @property
    def capacities(self) -> dict[float, int]:
        return {level: len(rows) for level, rows in self.rows.items()}

    def store(self, row: int, record: EvaluationRecord):
        """Make the evaluated record the member held in ``row``; the spare
        last row takes an offspring's fidelity as its owner, not its genotype.
        """
        if row < len(self.genotypes):
            self.genotypes[row] = record.genotype
        else:
            self.owners[row] = record.fidelity
        self.objectives[row] = record.objectives
        self.seqs[row] = record.seq

    def evaluate(
        self, objective_fn, genotype, fidelity, stop, key: tuple | None = None
    ) -> EvaluationRecord:
        """``_evaluate`` into the run's archive, marking the pair as seen.

        ``key`` is the genotype's ``config_key`` if the caller has it.
        """
        record = _evaluate(self.archive, objective_fn, genotype, fidelity, stop)
        if key is None:
            key = config_key(self.space, genotype)
        self.seen.add((key, record.fidelity))
        return record


def initialize(
    space: SearchSpace,
    ladder: FidelityLadder,
    seed: int,
    variant: str,
    de_params: DEParams | None = None,
    objective_bounds=((0.0, 1.0), (0.0, 1.0)),
) -> OptimizerState:
    """Fresh run state with the lowest sub-population sampled (unevaluated).

    Sub-population capacities are the first bracket's rung sizes; higher
    fidelities are filled by the first bracket's promotions as it runs.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected {sorted(VARIANTS)}")
    if len(objective_bounds) != 2:
        raise UnsupportedDimensionError(
            f"{len(objective_bounds)} objective bounds; only two objectives are supported"
        )
    lo, hi = np.array(objective_bounds, dtype=float).T
    if np.any(hi <= lo):
        raise NormalizationError(f"degenerate objective bounds {objective_bounds}")
    rng = derive_rng(seed, "optimizer")
    capacities = dict(dehb_iteration_plan(ladder)[0].rungs)
    ends = np.cumsum(list(capacities.values()))
    rows = {
        level: range(end - n, end) for (level, n), end in zip(capacities.items(), ends)
    }
    n_rows = int(ends[-1])
    genotypes = np.zeros((n_rows, len(space)))
    for row in rows[ladder.levels[0]]:
        genotypes[row] = encode_sample(space, rng)
    return OptimizerState(
        space=space,
        ladder=ladder,
        variant=variant,
        de_params=de_params or DEParams(),
        rng=rng,
        rows=rows,
        ref=hi,
        genotypes=genotypes,
        objectives=np.full((n_rows + 1, len(hi)), np.nan),
        owners=np.repeat(list(capacities) + [np.nan], list(capacities.values()) + [1]),
        seqs=np.zeros(n_rows + 1, dtype=int),
    )


def promote(objectives, genotypes, k: int, variant: str) -> np.ndarray:
    """Copies of the genotypes of the top-k rows by front rank + variant
    ordering, in selection order."""
    return genotypes[rank_and_truncate(objectives, k, VARIANTS[variant])]


def _evaluate(
    archive: _Archive, objective_fn, genotype, fidelity, stop
) -> EvaluationRecord:
    """The one evaluation path: stop check, call, validation, bookkeeping."""
    cause = stop.cause_if_tripped(len(archive.records), archive.cost)
    if cause is not None:
        raise _BudgetExhausted(cause)
    try:
        objectives, cost = objective_fn(genotype, fidelity)
    except Exception as exc:
        raise EvaluationError(
            f"evaluation failed at fidelity {fidelity}: {exc}"
        ) from exc
    objectives = np.asarray(objectives, dtype=float)
    if objectives.shape != (2,):
        raise EvaluationError(
            f"objective vector of shape {objectives.shape}, expected two objectives"
        )
    if not np.isfinite(objectives).all():
        raise EvaluationError(f"non-finite objectives {objectives}")
    record = EvaluationRecord(
        seq=len(archive.records) + 1,
        genotype=np.array(genotype, dtype=float, copy=True),
        fidelity=float(fidelity),
        objectives=objectives,
        cost=float(cost),
    )
    archive.records.append(record)
    archive.cost += record.cost
    return record


def _fill_ins(state: OptimizerState, fidelity: float):
    """The parent pool at ``fidelity``, and the genotypes of the global
    population not in it, which may top it up (None if it has three or more).

    Nothing they depend on changes between the draws of one slot, so each
    slot computes them once.
    """
    pool = state.parent_pool.get(fidelity, ())
    if len(pool) >= 3:
        return pool, None
    if len(pool) == 0:
        return pool, state.genotypes
    pool = np.reshape(pool, (-1, state.genotypes.shape[1]))
    in_pool = (state.genotypes[:, None] == pool).all(axis=2).any(axis=1)
    return pool, state.genotypes[~in_pool]


def _mutation_pool(state: OptimizerState, pool, candidates) -> np.ndarray:
    """Per-target mutation pool: the parent pool topped up to three members.

    Fill-ins are drawn uniformly without replacement from ``candidates``
    (see ``_fill_ins``); if even that runs dry (tiny ladders) fresh random
    genotypes complete the pool.
    """
    if candidates is None:
        return pool
    take = min(3 - len(pool), len(candidates))
    if take > 0:
        picked = candidates[state.rng.choice(len(candidates), size=take, replace=False)]
        pool = np.concatenate([pool, picked]) if len(pool) else picked
    while len(pool) < 3:
        pool = np.vstack([pool, encode_sample(state.space, state.rng)])
    return pool


def _apply_selection(state: OptimizerState, row: int, record: EvaluationRecord):
    """Run survivor selection for the offspring of ``row``'s member.

    The offspring is stored in the spare last row; unless it is the victim
    it takes the victim's row, which always lies in the parent's slice.
    """
    spare = len(state.genotypes)
    state.store(spare, record)
    victim = mo_selection(
        state.objectives, state.owners, state.seqs, row, spare, state.ref
    )
    if victim < spare:
        state.store(victim, record)


def _draw_child(
    state: OptimizerState, row: int, fidelity: float
) -> tuple[np.ndarray, tuple]:
    """Offspring genotype for the member in ``row``, avoiding repeats, and
    its ``config_key``.

    See the module docstring for the draw order.
    """
    parents, candidates = _fill_ins(state, fidelity)
    for draw in range(2 * MAX_DRAWS):
        if draw < MAX_DRAWS:
            pool = _mutation_pool(state, parents, candidates)
            mutant = mutate_rand1(pool, state.de_params, state.rng)
            child = crossover_binomial(
                state.genotypes[row], mutant, state.de_params, state.rng
            )
        else:
            child = encode_sample(state.space, state.rng)
        key = config_key(state.space, child)
        if (key, fidelity) not in state.seen:
            break
    return child, key


def evolve_rung(
    state: OptimizerState, fidelity: float, objective_fn, stop, n_slots: int | None = None
):
    """One DE pass over the sub-population at the given fidelity.

    ``n_slots`` is the rung's planned evaluation count (defaults to the
    sub-population size); when it exceeds the capacity the targets cycle
    through the members again, so every bracket spends its proper
    successive-halving budget regardless of the frozen capacities.  Each
    slot evaluates one child, redrawn to avoid repeats (module docstring).
    """
    rows = state.rows[fidelity]
    if n_slots is None:
        n_slots = len(rows)
    for raw_slot in range(n_slots):
        row = rows[raw_slot % len(rows)]
        child, key = _draw_child(state, row, fidelity)
        record = state.evaluate(objective_fn, child, fidelity, stop, key)
        _apply_selection(state, row, record)


def _promote_level(state: OptimizerState, level: float, k: int) -> np.ndarray:
    """Promote up to k members of the sub-population at ``level``."""
    rows = state.rows[level]
    return promote(
        state.objectives[rows], state.genotypes[rows], min(k, len(rows)), state.variant
    )


def _vanilla_bracket(state: OptimizerState, bracket: BracketPlan, objective_fn, stop):
    """First bracket: evaluate the random init, promote, fill upwards."""
    b_min, _ = bracket.rungs[0]
    for row in state.rows[b_min]:
        genotype = state.genotypes[row]
        state.store(row, state.evaluate(objective_fn, genotype, b_min, stop))
    for (level, _), (nxt, n_nxt) in zip(bracket.rungs, bracket.rungs[1:]):
        state.parent_pool[nxt] = _promote_level(state, level, n_nxt)
        for row, g in zip(state.rows[nxt], state.parent_pool[nxt]):
            state.store(row, state.evaluate(objective_fn, g, nxt, stop))


def _de_bracket(state: OptimizerState, bracket: BracketPlan, objective_fn, stop):
    for i, (level, n_configs) in enumerate(bracket.rungs):
        evolve_rung(state, level, objective_fn, stop, n_configs)
        if i + 1 < len(bracket.rungs):
            nxt, n_nxt = bracket.rungs[i + 1]
            state.parent_pool[nxt] = _promote_level(state, level, n_nxt)


def _trajectory(
    archive: _Archive, step, seed: int, optimizer: str, ladder, benchmark_name: str
) -> RunTrajectory:
    """Repeat ``step`` until the budget trips; return the seq-ordered archive."""
    try:
        while True:
            step()
    except _BudgetExhausted as exhausted:
        stop_cause = exhausted.cause
    return RunTrajectory(
        records=tuple(archive.records),
        metadata=RunMetadata(
            seed=seed,
            optimizer=optimizer,
            benchmark=benchmark_name,
            ladder=ladder,
            stop_cause=stop_cause,
        ),
    )


def run(
    space: SearchSpace,
    ladder: FidelityLadder,
    variant: str,
    objective_fn,
    stop: StoppingCriteria,
    seed: int,
    *,
    objective_bounds,
    de_params: DEParams | None = None,
    benchmark_name: str = "",
) -> RunTrajectory:
    """One full optimization run; returns the seq-ordered archive.

    ``objective_fn(genotype, fidelity) -> (objectives, cost_seconds)`` is
    evaluated at ladder fidelities only.  Survivor selection compares raw
    objectives; the upper corner of the declared objective bounds is the
    reference point of its hypervolume tie-break.
    """
    state = initialize(space, ladder, seed, variant, de_params, objective_bounds)
    plan = dehb_iteration_plan(ladder)

    def iteration():
        state.parent_pool.clear()
        for bracket in plan:
            # Only the opening bracket starts from an empty archive.
            fill = _de_bracket if state.archive.records else _vanilla_bracket
            fill(state, bracket, objective_fn, stop)

    return _trajectory(
        state.archive, iteration, seed, f"modehb_{variant}", ladder, benchmark_name
    )


def run_random_search(
    space: SearchSpace,
    ladder: FidelityLadder,
    objective_fn,
    stop: StoppingCriteria,
    seed: int,
    *,
    benchmark_name: str = "",
) -> RunTrajectory:
    """Uniform random sampling evaluated at b_max only (the baseline).

    Each step draws its genotype before the stop check, so the draw that
    meets the exhausted budget is discarded unevaluated.
    """
    rng = derive_rng(seed, "optimizer")
    archive = _Archive()

    def step():
        genotype = encode_sample(space, rng)
        _evaluate(archive, objective_fn, genotype, ladder.levels[-1], stop)

    return _trajectory(archive, step, seed, "random_search", ladder, benchmark_name)
