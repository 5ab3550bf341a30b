"""Multi-objective, multi-fidelity hyperparameter optimization.

The optimizer couples a successive-halving fidelity schedule with
differential evolution over per-fidelity sub-populations; survivor
selection uses non-dominated sorting plus either NSGA-II crowding or
greedy eps-net ordering, with hypervolume contributions breaking
same-front ties.
"""

from . import bench, cli, de, metrics, pareto, scheduler, space
from .de import DEParams
from .errors import (
    BenchmarkError,
    BracketError,
    DimensionError,
    EmptyPopulationError,
    EvaluationError,
    InsufficientParentsError,
    LadderError,
    MetricsError,
    ModehbError,
    NormalizationError,
    OracleError,
    SelectionError,
    UnsupportedDimensionError,
)
from .metrics import HVSeries, RunMetadata, RunTrajectory
from .optimizer import Optimizer, StoppingCriteria, run, run_random_search, tae_budget
from .scheduler import BracketPlan, FidelityLadder, bracket_plan, build_ladder, dehb_iteration_plan
from .space import ParameterSpec, SearchSpace, decode, encode_sample

__version__ = "0.1.0"

__all__ = [
    "BenchmarkError",
    "BracketError",
    "BracketPlan",
    "DEParams",
    "DimensionError",
    "EmptyPopulationError",
    "EvaluationError",
    "FidelityLadder",
    "HVSeries",
    "InsufficientParentsError",
    "LadderError",
    "MetricsError",
    "ModehbError",
    "NormalizationError",
    "Optimizer",
    "OracleError",
    "ParameterSpec",
    "RunMetadata",
    "RunTrajectory",
    "SearchSpace",
    "SelectionError",
    "StoppingCriteria",
    "UnsupportedDimensionError",
    "bench",
    "bracket_plan",
    "build_ladder",
    "cli",
    "de",
    "decode",
    "dehb_iteration_plan",
    "encode_sample",
    "metrics",
    "pareto",
    "run",
    "run_random_search",
    "scheduler",
    "space",
    "tae_budget",
]
