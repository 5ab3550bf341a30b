"""The benchmark's workloads: one experiment config each, run through the CLI.

Every workload is a closed loop with a single client: the benchmark issues
`modehb run` (one worker), `modehb run --workers 2` and `modehb report`
one after another and waits for each.  Why each workload exists, and which
layer it loads or bypasses, is in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: dict
    ladder: dict
    optimizers: tuple[str, ...]
    max_tae: int
    # Seeds per measured experiment: the workload's run length.  The seed
    # offset given on the command line picks which block of seeds is used.
    n_seeds: int
    # Traced call sites that legitimately never fire on this workload.
    idle_sites: frozenset = frozenset()

    def seeds(self, offset: int) -> list[int]:
        return [offset * self.n_seeds + j for j in range(self.n_seeds)]

    def config(self, offset: int, output_dir: str) -> dict:
        return {
            "benchmark": dict(self.benchmark),
            "ladder": dict(self.ladder),
            "optimizers": [{"name": name} for name in self.optimizers],
            "seeds": self.seeds(offset),
            "stop": {"max_tae": self.max_tae},
            "output_dir": output_dir,
        }


# The toy_grid benchmark builds its exact front with non_dominated_sort and
# hypervolume when the benchmark is constructed; the ZDT problems do not.
_TOY_ONLY = frozenset({"modehb.bench.non_dominated_sort", "modehb.bench.hypervolume"})

WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP reference experiment: random search puts all of its
        # evaluations at b_max, so metrics, CSV I/O and ~1000-point
        # Pareto fronts dominate `report` and the serial tail of `run`.
        Workload(
            name="zdt1_ref",
            benchmark={"name": "zdt1_mf", "d": 6},
            ladder={"b_min": 1, "b_max": 27, "eta": 3},
            optimizers=("modehb_nsga2", "modehb_epsnet", "random_search"),
            max_tae=1000,
            n_seeds=1,
            idle_sites=_TOY_ONLY,
        ),
        # Deep ladder: the first bracket freezes a 121-member global
        # population, so every offspring's survivor selection sorts ~122
        # points.  Optimizer/DE/Pareto bound; few b_max evaluations, so the
        # metrics layer is nearly idle.
        Workload(
            name="zdt2_deep",
            benchmark={"name": "zdt2_mf", "d": 10},
            ladder={"b_min": 1, "b_max": 81, "eta": 3},
            optimizers=("modehb_nsga2", "modehb_epsnet"),
            max_tae=2000,
            n_seeds=1,
            idle_sites=_TOY_ONLY | {"modehb.optimizer.run_random_search"},
        ),
        # Categorical 16x16 grid with a population of 15: most evaluations
        # repeat a (cell, fidelity) pair and fronts hold ties and
        # duplicates.  Kernel speed barely matters here; duplicate-aware
        # offspring generation would show up in quality.
        Workload(
            name="toy_grid_dup",
            benchmark={"name": "toy_grid", "k": 16},
            ladder={"b_min": 1, "b_max": 8, "eta": 2},
            optimizers=("modehb_nsga2", "modehb_epsnet", "random_search"),
            max_tae=1000,
            n_seeds=1,
        ),
    )
}
