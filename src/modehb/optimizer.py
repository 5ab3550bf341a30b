"""The optimization loop: DE-evolved successive-halving sub-populations.

One run keeps a fixed-capacity sub-population per fidelity level (sizes
frozen from the first, largest bracket).  Every bracket is one walk over
its rungs, cheapest first: a rung is evaluated, then its top 1/eta by
front rank and variant ordering (``promote``) become the parent pool of
the bracket's next rung.  The opening bracket evaluates what it is given:
uniform genotypes (``encode_sample``) at the cheapest fidelity, each drawn
as it is proposed, and then each parent pool as promoted.  Every later
rung spends its planned evaluation count (cycling over the sub-population
when a rung is larger than its capacity), evolving each target with
rand/1 mutation over the parent pool, binomial crossover, and
rank/hypervolume survivor selection against the global population.

Each promotion refreshes the parent pool at the target fidelity, pools
persist across the brackets of one iteration and are cleared between
iterations; a rung whose pool holds fewer than three genotypes tops it
up from the global population (per-target, uniformly, skipping genotypes
already in the pool).

Every benchmark here is deterministic, so a child whose decoded
configuration (``space.config_key``) was already evaluated at the rung's
fidelity is redrawn before it is evaluated.  Draw order per slot (part of
the determinism contract): up to ``MAX_DRAWS`` DE draws, then up to
``MAX_DRAWS`` uniform genotypes (``encode_sample``, one ``rng.uniform``
block of d).  A DE draw is one ``rng.random`` block, laid out in this order:

1. the mutation pool's fill-ins, one uniform per missing member (none when
   the parent pool holds three or more), mapped to distinct candidates by
   ``de.distinct_indices``;
2. d uniforms per fresh genotype, for members still missing when the
   candidates run dry (tiny ladders): what ``encode_sample`` would draw;
3. ``mutate_rand1``'s three, for r1, r2 and r3, mapped the same way;
4. ``crossover_binomial``'s 1 + d against the slot's target: the forced
   coordinate's and then the mask's.

Consecutive ``Generator.random`` and ``uniform(0, 1)`` calls concatenate bit
for bit, so this is the stream of drawing each part apart.  The first
unseen draw is evaluated; if every draw repeats, the last one is, so each
slot spends exactly one evaluation.  A child that is new on its first draw
uses the same RNG draws as plain DE.

Both optimizers are generators of proposals: each yields a ``(genotype,
fidelity)`` pair and is sent the ``(seq, objectives)`` of its evaluation,
and every RNG draw of a run is made inside it, as it works out a proposal.
``Optimizer`` drives one of them by ask and tell, and owns the archive.
``tell`` takes the next proposal at once, and ``run`` checks the stop only
before it asks, so the draw that meets an exhausted budget is still drawn,
then discarded unevaluated.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .de import (
    DEParams,
    crossover_binomial,
    distinct_indices,
    mo_selection,
    mutate_rand1,
)
from .errors import EvaluationError, UnsupportedDimensionError
from .metrics import RunMetadata, RunTrajectory, check_bounds
from .pareto import rank_and_truncate
from .scheduler import BracketPlan, FidelityLadder, dehb_iteration_plan
from .space import SearchSpace, config_key, encode_sample

VARIANTS = {"nsga2": "crowding", "epsnet": "epsnet"}

# DE draws, then uniform draws, per slot before a repeat is evaluated anyway.
MAX_DRAWS = 3


def derive_rng(seed: int) -> np.random.Generator:
    """The optimizer's generator for a run seed, from entropy ``[1, seed]``."""
    return np.random.default_rng(np.random.SeedSequence([1, seed]))


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
        # True would count as 1.
        if any(isinstance(v, (bool, np.bool_)) for v in (self.max_tae, self.max_wallclock)):
            raise ValueError("a stopping criterion cannot be a bool")
        # A NaN or infinite limit never trips, so the run would never end.
        if self.max_tae is not None and not 1 <= self.max_tae < math.inf:
            raise ValueError(f"max_tae must be finite and >= 1, got {self.max_tae}")
        # 1.5 would run two evaluations.
        if self.max_tae is not None and self.max_tae % 1:
            raise ValueError(f"max_tae must be a whole number, got {self.max_tae}")
        if self.max_wallclock is not None and not 0 < self.max_wallclock < math.inf:
            raise ValueError(
                f"max_wallclock must be finite and > 0, got {self.max_wallclock}"
            )

    def cause_if_tripped(self, tae: int, cost: float) -> str | None:
        if self.max_tae is not None and tae >= self.max_tae:
            return "max_tae"
        if self.max_wallclock is not None and cost >= self.max_wallclock:
            return "max_wallclock"
        return None


@dataclass
class OptimizerState:
    """Mutable per-run state shared by the rung-evolution steps.

    The global population is stored as parallel row arrays grouped by
    fidelity, cheapest first; ``rows[level]`` is the fixed block of rows
    owned by that level's sub-population.  ``genotypes``, ``objectives``,
    ``owners`` and ``seqs`` hold one spare last row for the offspring under
    selection.
    ``objectives`` are the raw values of the archived evaluations; ``ref``, the
    upper corner of the declared objective bounds, is the hypervolume
    reference point in that same space.  A row's seq is 0 (objectives NaN)
    until its first evaluation.  ``seen`` holds the (configuration key,
    fidelity) pair of every evaluation so far.
    """

    space: SearchSpace
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
    seen: set[tuple] = field(default_factory=set)

    def store(self, row: int, genotype, fidelity: float, told: tuple):
        """Make the evaluated proposal, evaluated at ``fidelity``, the member
        held in ``row``.  ``told`` is the ``(seq, objectives)`` pair its
        evaluation sent back.
        """
        self.genotypes[row], self.owners[row] = genotype, fidelity
        self.seqs[row], self.objectives[row] = told


def initialize(
    space: SearchSpace,
    ladder: FidelityLadder,
    seed: int,
    variant: str,
    de_params: DEParams | None = None,
    objective_bounds=((0.0, 1.0), (0.0, 1.0)),
) -> OptimizerState:
    """Fresh run state: every row laid out and unevaluated, no RNG draw made.

    Sub-population capacities are the first bracket's rung sizes.  The
    opening bracket fills the rows as it runs: the cheapest with uniform
    samples drawn as they are proposed, the others with its promotions.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected {sorted(VARIANTS)}")
    if len(objective_bounds) != 2:
        raise UnsupportedDimensionError(
            f"{len(objective_bounds)} objective bounds; only two objectives are supported"
        )
    _, hi = check_bounds(objective_bounds)
    capacities = dict(dehb_iteration_plan(ladder)[0].rungs)
    ends = np.cumsum(list(capacities.values()))
    rows = {
        level: range(end - n, end) for (level, n), end in zip(capacities.items(), ends)
    }
    n_rows = int(ends[-1])
    return OptimizerState(
        space=space,
        variant=variant,
        de_params=de_params or DEParams(),
        rng=derive_rng(seed),
        rows=rows,
        ref=hi,
        genotypes=np.zeros((n_rows + 1, len(space))),
        objectives=np.full((n_rows + 1, len(hi)), np.nan),
        owners=np.repeat(list(capacities) + [np.nan], list(capacities.values()) + [1]),
        seqs=np.zeros(n_rows + 1, dtype=int),
    )


def promote(objectives, genotypes, k: int, variant: str) -> np.ndarray:
    """Copies of the genotypes of the top-k rows by front rank + variant
    ordering, in selection order."""
    return genotypes[rank_and_truncate(objectives, k, VARIANTS[variant])]


def _fill_ins(state: OptimizerState, fidelity: float):
    """The parent pool at ``fidelity``, and the genotypes of the global
    population not in it, which may top it up (None if it has three or more);
    the spare last row is never one of them.

    Nothing they depend on changes between the draws of one slot, so each
    slot computes them once.
    """
    pool = state.parent_pool.get(fidelity, ())
    if len(pool) >= 3:
        return pool, None
    members = state.genotypes[:-1]
    if len(pool) == 0:
        return pool, members
    in_pool = (members[:, None] == pool).all(axis=2).any(axis=1)
    return pool, members[~in_pool]


def _mutation_pool(pool, candidates, n_fill: int, uniforms) -> list:
    """The parent pool topped up to three members from the head of a DE
    draw's block: its first ``n_fill`` uniforms pick distinct ``candidates``
    (see ``_fill_ins``), and each d after them make one fresh genotype."""
    picked = distinct_indices(uniforms[:n_fill].tolist(), len(candidates))
    fresh = uniforms[n_fill:].reshape(-1, candidates.shape[1])
    return [*pool, *[candidates[i] for i in picked], *fresh]


def _apply_selection(state: OptimizerState, row: int, child, fidelity, told):
    """Run survivor selection for the offspring of ``row``'s member.

    The offspring is stored in the spare last row; unless it is the victim
    it takes the victim's row, which always lies in the parent's slice.
    """
    spare = len(state.genotypes) - 1
    state.store(spare, child, fidelity, told)
    victim = mo_selection(
        state.objectives, state.owners, state.seqs, row, spare, state.ref
    )
    if victim < spare:
        state.store(victim, child, fidelity, told)


def _draw_child(
    state: OptimizerState, row: int, fidelity: float
) -> tuple[np.ndarray, tuple]:
    """Offspring genotype for the member in ``row``, avoiding repeats, and
    its ``config_key``.

    See the module docstring for the draw order.
    """
    parents, candidates = _fill_ins(state, fidelity)
    target = state.genotypes[row].tolist()
    d = len(target)
    # The block's head holds its fill-ins and fresh genotypes (module docstring).
    n_fill = 0 if candidates is None else min(3 - len(parents), len(candidates))
    head = n_fill + max(3 - len(parents) - n_fill, 0) * d
    for draw in range(2 * MAX_DRAWS):
        if draw < MAX_DRAWS:
            block = state.rng.random(head + 4 + d)
            pool = _mutation_pool(parents, candidates, n_fill, block[:head]) if head else parents
            uniforms = block[head:].tolist()
            mutant = mutate_rand1(pool, state.de_params, uniforms[:3])
            child = np.array(
                crossover_binomial(target, mutant, state.de_params, uniforms[3:])
            )
        else:
            child = encode_sample(state.space, state.rng)
        key = config_key(state.space, child)
        if (key, fidelity) not in state.seen:
            break
    return child, key


def evolve_rung(state: OptimizerState, fidelity: float, n_slots: int):
    """One DE pass over the sub-population at the given fidelity, as a
    generator of proposals.

    ``n_slots`` is the rung's planned evaluation count; when it exceeds the
    sub-population size the targets cycle through the members again, so
    every bracket spends its proper successive-halving budget regardless of
    the frozen capacities.  Each slot proposes one child, redrawn to avoid
    repeats (module docstring), and runs survivor selection once its
    evaluation is sent back.
    """
    rows = state.rows[fidelity]
    for raw_slot in range(n_slots):
        row = rows[raw_slot % len(rows)]
        child, key = _draw_child(state, row, fidelity)
        told = yield child, fidelity
        state.seen.add((key, fidelity))
        _apply_selection(state, row, child, fidelity, told)


def _fill_rows(state: OptimizerState, level: float, genotypes):
    """Propose ``genotypes`` at ``level``, each stored in the next row of
    that level's sub-population.  Each takes its ``config_key`` once its
    evaluation arrives; a lazy ``genotypes`` is advanced once per row."""
    for row, genotype in zip(state.rows[level], genotypes):
        told = yield genotype, level
        state.seen.add((config_key(state.space, genotype), level))
        state.store(row, genotype, level, told)


def _mo_dehb(state: OptimizerState, plan: list[BracketPlan]):
    """MO-DEHB's proposals, one DEHB iteration after another: every bracket
    walks its rungs as the module docstring describes."""
    opening = True
    while True:
        state.parent_pool.clear()
        for bracket in plan:
            for i, (level, n_configs) in enumerate(bracket.rungs):
                if not opening:
                    yield from evolve_rung(state, level, n_configs)
                elif i == 0:
                    samples = (encode_sample(state.space, state.rng) for _ in range(n_configs))
                    yield from _fill_rows(state, level, samples)
                else:
                    yield from _fill_rows(state, level, state.parent_pool[level])
                if i + 1 < len(bracket.rungs):
                    nxt, n_nxt = bracket.rungs[i + 1]
                    rows = state.rows[level]
                    state.parent_pool[nxt] = promote(
                        state.objectives[rows], state.genotypes[rows],
                        min(n_nxt, len(rows)), state.variant,
                    )
            opening = False


def _random_search(space: SearchSpace, ladder: FidelityLadder, seed: int):
    """Uniform random genotypes, each proposed at b_max."""
    rng = derive_rng(seed)
    while True:
        yield encode_sample(space, rng), ladder.levels[-1]


class Optimizer:
    """One run as ask and tell: MO-DEHB for ``variant`` "nsga2" or
    "epsnet" (``run`` documents the arguments), or random search for
    "random_search".

    ``ask()`` returns the pending ``(genotype, fidelity)`` proposal, its
    genotype read-only.  Only one is out at a time, so asking again before a
    tell returns the same.
    ``tell(objectives, cost)`` reports its evaluation: two finite real
    objectives and a finite, non-negative real cost in seconds.  A tell
    that fails validation raises EvaluationError and changes nothing.  A
    valid one becomes evaluation ``tae`` of the archive, adds to ``cost``,
    and draws the next proposal.
    """

    def __init__(
        self,
        space: SearchSpace,
        ladder: FidelityLadder,
        variant: str,
        seed: int,
        *,
        objective_bounds=((0.0, 1.0), (0.0, 1.0)),
        de_params: DEParams | None = None,
    ):
        if variant == "random_search":
            self._proposals, name = _random_search(space, ladder, seed), variant
        else:
            state = initialize(space, ladder, seed, variant, de_params, objective_bounds)
            self._proposals = _mo_dehb(state, dehb_iteration_plan(ladder))
            name = f"modehb_{variant}"
        self._metadata = {"seed": seed, "optimizer": name, "ladder": ladder}
        self.tae, self.cost = 0, 0.0
        # The archive's rows, flat: fidelity, cost, objectives, genotype.
        self._rows, self._width = array("d"), 4 + len(space)
        self._pending = next(self._proposals)

    def ask(self) -> tuple[np.ndarray, float]:
        self._pending[0].setflags(write=False)
        return self._pending

    def tell(self, objectives, cost: float):
        try:
            # Casting a complex value to float only warns and drops its imaginary
            # part.  A Python float cost, the common case, needs no check.
            if np.iscomplexobj(objectives) or (type(cost) is not float and np.iscomplexobj(cost)):
                raise TypeError(f"complex value in {objectives!r}, {cost!r}")
            objectives = np.asarray(objectives, dtype=float)
            cost = float(cost)
        except (TypeError, ValueError) as exc:
            raise EvaluationError(f"non-numeric objectives or cost: {exc}") from exc
        if objectives.shape != (2,):
            raise EvaluationError(
                f"objective vector of shape {objectives.shape}, expected two objectives"
            )
        values = objectives.tolist()
        if not all(map(math.isfinite, values)):
            raise EvaluationError(f"non-finite objectives {objectives}")
        # A NaN or negative cost would stop max_wallclock from ever tripping.
        if not 0.0 <= cost < math.inf:
            raise EvaluationError(f"cost must be finite and non-negative, got {cost}")
        genotype, fidelity = self._pending
        self._rows.extend([fidelity, cost, *values])
        self._rows.frombytes(genotype.tobytes())
        self.tae += 1
        self.cost += cost
        self._pending = self._proposals.send((self.tae, objectives))

    def trajectory(self, stop_cause=None, benchmark_name="") -> RunTrajectory:
        """The evaluations told so far: column views of one table, seq order."""
        meta = RunMetadata(**self._metadata, benchmark=benchmark_name, stop_cause=stop_cause)
        table = np.array(self._rows).reshape(-1, self._width)
        columns = table[:, 0], table[:, 1], table[:, 2:4], table[:, 4:]
        return RunTrajectory(*columns, metadata=meta)


def _drive(opt: Optimizer, objective_fn, stop: StoppingCriteria, benchmark_name):
    """Evaluate each proposal and tell its result until the stop trips,
    never before the first; return the archive.  A cost that leaves the sum
    unchanged fails a run that only ``max_wallclock`` can stop."""
    while (stop_cause := stop.cause_if_tripped(opt.tae, opt.cost)) is None:
        genotype, fidelity = opt.ask()
        try:
            objectives, cost = objective_fn(genotype, fidelity)
        except Exception as exc:
            raise EvaluationError(
                f"evaluation failed at fidelity {fidelity}: {exc}"
            ) from exc
        spent = opt.cost
        opt.tell(objectives, cost)
        if stop.max_tae is None and opt.cost == spent:
            raise EvaluationError(
                f"cost {cost!r} at fidelity {fidelity} does not add to the summed "
                "cost, so max_wallclock, the only limit, would never stop the run"
            )
    return opt.trajectory(stop_cause, benchmark_name)


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
    opt = Optimizer(
        space, ladder, variant, seed, objective_bounds=objective_bounds, de_params=de_params
    )
    return _drive(opt, objective_fn, stop, benchmark_name)


def run_random_search(
    space: SearchSpace,
    ladder: FidelityLadder,
    objective_fn,
    stop: StoppingCriteria,
    seed: int,
    *,
    benchmark_name: str = "",
) -> RunTrajectory:
    """Uniform random sampling evaluated at b_max only (the baseline)."""
    opt = Optimizer(space, ladder, "random_search", seed)
    return _drive(opt, objective_fn, stop, benchmark_name)
