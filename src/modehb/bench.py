"""Synthetic multi-fidelity benchmarks with known Pareto fronts.

Every benchmark is deterministic and exposes a geometric fidelity ladder;
its evaluator accepts genotypes in [0, 1]^d (``space.check_genotype``:
DimensionError for another length, ValueError for a component outside
the cube or NaN) and the exact ladder levels only.  Lower fidelities
distort the objectives by an additive bias ``bias * (1 - b / b_max)``
that vanishes at full fidelity, and simulated cost equals the fidelity
value in seconds.

The ZDT-style problems declare the full-fidelity front box (0, 1)^2 as
their normalization bounds; values outside (bad configurations, biased
low-fidelity evaluations) are only clamped at reporting time and never
affect front geometry or hypervolume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BenchmarkError, OracleError
from .metrics import REF, normalize
from .pareto import hypervolume, non_dominated_sort
from .scheduler import FidelityLadder
from .space import ParameterSpec, SearchSpace, check_genotype, config_key

# Seed of the precomputed toy-grid objective table.  Changing it changes
# the benchmark, so it is part of the published problem definition.
TOY_TABLE_SEED = 16


@dataclass(frozen=True)
class Benchmark:
    """A named problem: search space, ladder, bounds and evaluator.

    ``evaluate(genotype, fidelity)`` returns ``(objectives, cost_seconds)``
    and is deterministic.  ``true_hv`` is the hypervolume of the true
    full-fidelity front after ``metrics.normalize`` by ``objective_bounds``,
    with reference point ``metrics.REF``; ``front`` holds the exact front
    for enumerable problems and ``front_curve(n)`` samples continuous
    fronts densely.
    """

    name: str
    space: SearchSpace
    ladder: FidelityLadder
    objective_bounds: tuple[tuple[float, float], ...]
    evaluate: Callable[[np.ndarray, float], tuple[np.ndarray, float]]
    true_hv: float | None = None
    front: np.ndarray | None = None
    front_curve: Callable[[int], np.ndarray] | None = field(default=None)


def _check_inputs(space: SearchSpace, ladder: FidelityLadder, genotype, fidelity):
    genotype = check_genotype(space, genotype)
    if fidelity not in ladder.levels:
        raise BenchmarkError(f"fidelity {fidelity} is not a ladder level")
    return genotype


def _zdt(name: str, d: int, ladder: FidelityLadder, bias: float, shape, true_hv) -> Benchmark:
    if d < 2:
        raise BenchmarkError(f"{name} needs d >= 2, got {d}")
    space = SearchSpace(
        tuple(
            ParameterSpec(name=f"x{i + 1}", kind="continuous", lower=0.0, upper=1.0)
            for i in range(d)
        )
    )
    b_max = ladder.b_max

    def evaluate(genotype, fidelity):
        x = _check_inputs(space, ladder, genotype, fidelity)
        f1 = float(x[0])
        # np.mean's own sum and division, without its wrapper: same bits.
        g = 1.0 + 9.0 * (float(np.add.reduce(x[1:])) / (d - 1))
        f2 = g * shape(f1, g)
        offset = bias * (1.0 - fidelity / b_max)
        return np.array([f1 + offset, f2 + offset]), float(fidelity)

    def front_curve(n: int) -> np.ndarray:
        t = np.linspace(0.0, 1.0, n)
        return np.column_stack([t, shape(t, 1.0)])

    return Benchmark(
        name=name,
        space=space,
        ladder=ladder,
        objective_bounds=((0.0, 1.0), (0.0, 1.0)),
        evaluate=evaluate,
        true_hv=true_hv,
        front_curve=front_curve,
    )


def zdt1_mf(d: int, ladder: FidelityLadder, bias: float = 0.5) -> Benchmark:
    """ZDT1 with a convex front f2 = 1 - sqrt(f1); true front HV = 2/3."""
    return _zdt("zdt1_mf", d, ladder, bias, lambda f1, g: 1.0 - np.sqrt(f1 / g), 2 / 3)


def zdt2_mf(d: int, ladder: FidelityLadder, bias: float = 0.5) -> Benchmark:
    """ZDT2 with a concave front f2 = 1 - f1^2; true front HV = 1/3."""
    return _zdt("zdt2_mf", d, ladder, bias, lambda f1, g: 1.0 - (f1 / g) ** 2, 1 / 3)


def toy_table(k: int) -> np.ndarray:
    """The fixed k x k second-objective table of toy_grid."""
    rng = np.random.default_rng(np.random.SeedSequence([TOY_TABLE_SEED, k]))
    return rng.uniform(0.0, 1.0, size=(k, k))


def toy_grid(k: int, ladder: FidelityLadder, bias: float = 0.5) -> Benchmark:
    """Exhaustively enumerable grid of two categorical parameters.

    Cell (i, j) has f1 = i / (k - 1) and f2 = table[i, j] from the fixed
    precomputed table, so the true Pareto set is known exactly.
    """
    if not 4 <= k <= 64:
        raise BenchmarkError(f"toy_grid needs k in [4, 64], got {k}")
    table = toy_table(k)
    space = SearchSpace(
        (
            ParameterSpec(name="a", kind="categorical", choices=tuple(range(k))),
            ParameterSpec(name="b", kind="categorical", choices=tuple(range(k))),
        )
    )
    b_max = ladder.b_max

    def cell_objectives(i: int, j: int) -> np.ndarray:
        return np.array([i / (k - 1), table[i, j]])

    def evaluate(genotype, fidelity):
        i, j = config_key(space, _check_inputs(space, ladder, genotype, fidelity))
        offset = bias * (1.0 - fidelity / b_max)
        return cell_objectives(i, j) + offset, float(fidelity)

    cells = np.array([cell_objectives(i, j) for i in range(k) for j in range(k)])
    front = cells[non_dominated_sort(cells)[0]]
    bounds = ((0.0, 1.5), (0.0, 1.5))
    return Benchmark(
        name="toy_grid",
        space=space,
        ladder=ladder,
        objective_bounds=bounds,
        evaluate=evaluate,
        true_hv=hypervolume(normalize(front, bounds), REF),
        front=front,
    )


BENCHMARKS: dict[str, Callable[..., Benchmark]] = {
    "zdt1_mf": zdt1_mf,
    "zdt2_mf": zdt2_mf,
    "toy_grid": toy_grid,
}


def make_benchmark(name: str, ladder: FidelityLadder, **params) -> Benchmark:
    """Instantiate a benchmark by registry name.

    Raises:
        BenchmarkError: For unknown names or invalid parameters.
    """
    try:
        factory = BENCHMARKS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown benchmark {name!r}, expected one of {sorted(BENCHMARKS)}"
        ) from None
    try:
        return factory(ladder=ladder, **params)
    except TypeError as exc:
        raise BenchmarkError(f"bad parameters for {name}: {exc}") from exc


def true_front_hv(benchmark: Benchmark) -> float:
    """Normalized hypervolume of the benchmark's true full-fidelity front.

    Raises:
        OracleError: If the benchmark has no known true front.
    """
    if benchmark.true_hv is None:
        raise OracleError(f"{benchmark.name} has no true-front oracle")
    return benchmark.true_hv
