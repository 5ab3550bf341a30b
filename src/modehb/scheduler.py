"""Successive-halving bracket geometry over a geometric fidelity ladder."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, LadderError


@dataclass(frozen=True)
class FidelityLadder:
    """Geometric fidelity levels b_min * eta^k up to b_max."""

    b_min: float
    b_max: float
    eta: int
    levels: tuple[float, ...]

    @property
    def s_max(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class BracketPlan:
    """One SH bracket: (fidelity, n_configs) per rung, cheapest first."""

    s: int
    rungs: tuple[tuple[float, int], ...]


def build_ladder(b_min: float, b_max: float, eta: int) -> FidelityLadder:
    """Validate and materialize the fidelity ladder.

    Raises:
        LadderError: If the bounds/eta are invalid or b_max / b_min is not
            an integer power of eta (relative tolerance 1e-6).
    """
    if not (math.isfinite(b_min) and math.isfinite(b_max)):
        raise LadderError(f"b_min={b_min} and b_max={b_max} must be finite")
    if b_min <= 0:
        raise LadderError(f"b_min must be positive, got {b_min}")
    if b_max < b_min:
        raise LadderError(f"b_max={b_max} must be >= b_min={b_min}")
    if eta < 2:
        raise LadderError(f"eta must be >= 2, got {eta}")
    ratio = b_max / b_min
    s_max = round(math.log(ratio, eta))
    if not math.isclose(eta**s_max, ratio, rel_tol=1e-6):
        raise LadderError(
            f"b_max/b_min={ratio} is not an integer power of eta={eta}"
        )
    # The top level is pinned to b_max exactly so fidelity comparisons on
    # records can use plain equality.
    levels = tuple(float(b_min) * eta**k for k in range(s_max)) + (float(b_max),)
    return FidelityLadder(float(b_min), float(b_max), int(eta), levels)


def bracket_plan(ladder: FidelityLadder, s: int) -> BracketPlan:
    """Rung table of bracket s; s == s_max starts at b_min, s == 0 at b_max.

    The first rung holds ceil((s_max + 1) * eta^s / (s + 1)) configs; each
    later rung keeps floor(n / eta), clamped to at least 1.

    Raises:
        BracketError: If s is outside [0, s_max].
    """
    if not 0 <= s <= ladder.s_max:
        raise BracketError(f"bracket index {s} outside [0, {ladder.s_max}]")
    n = math.ceil((ladder.s_max + 1) * ladder.eta**s / (s + 1))
    rungs = []
    for i, level in enumerate(ladder.levels[ladder.s_max - s :]):
        if i > 0:
            n = max(n // ladder.eta, 1)
        rungs.append((level, n))
    return BracketPlan(s, tuple(rungs))


def dehb_iteration_plan(ladder: FidelityLadder) -> list[BracketPlan]:
    """All brackets of one full sweep, s_max down to 0."""
    return [bracket_plan(ladder, s) for s in range(ladder.s_max, -1, -1)]
