"""Tests for fidelity ladders and successive-halving bracket plans."""

import math

import pytest

from modehb.errors import BracketError, LadderError
from modehb.scheduler import bracket_plan, build_ladder, dehb_iteration_plan


def test_ladder_levels_are_geometric():
    ladder = build_ladder(3, 27, 3)
    assert ladder.levels == (3.0, 9.0, 27.0)
    assert ladder.s_max == 2
    assert ladder.b_min == 3 and ladder.b_max == 27 and ladder.eta == 3


def test_ladder_top_level_is_exactly_b_max():
    # The highest level is pinned to b_max, not recomputed as b_min * eta^k,
    # so float drift can never make benchmark fidelity checks miss.
    for args in ((1, 27, 3), (3, 27, 3), (1, 81, 3), (2, 54, 3), (1, 16, 2)):
        ladder = build_ladder(*args)
        assert ladder.levels[-1] == float(args[1])
        assert ladder.levels[0] == float(args[0])


def test_ladder_degenerate_single_level():
    ladder = build_ladder(1, 1, 3)
    assert ladder.levels == (1.0,)
    assert ladder.s_max == 0


def test_ladder_five_levels():
    ladder = build_ladder(1, 81, 3)
    assert ladder.levels == (1.0, 3.0, 9.0, 27.0, 81.0)
    assert ladder.s_max == 4


def test_ladder_validation():
    with pytest.raises(LadderError):
        build_ladder(1, 20, 3)  # 20 is not a power of 3
    with pytest.raises(LadderError):
        build_ladder(0, 27, 3)
    with pytest.raises(LadderError):
        build_ladder(27, 3, 3)
    with pytest.raises(LadderError):
        build_ladder(1, 27, 1)
    # Else round() would overflow on the ratio's log, or fail to convert NaN.
    for b_min, b_max in ((1, math.inf), (math.nan, 9), (1, math.nan), (math.inf, math.inf)):
        with pytest.raises(LadderError, match="must be finite"):
            build_ladder(b_min, b_max, 3)


def test_bracket_plan_tables_eta3_three_levels():
    ladder = build_ladder(3, 27, 3)
    assert bracket_plan(ladder, 2).rungs == ((3.0, 9), (9.0, 3), (27.0, 1))
    assert bracket_plan(ladder, 1).rungs == ((9.0, 5), (27.0, 1))
    assert bracket_plan(ladder, 0).rungs == ((27.0, 3),)


def test_bracket_plan_tables_eta3_five_levels():
    ladder = build_ladder(1, 81, 3)
    assert bracket_plan(ladder, 4).rungs == (
        (1.0, 81),
        (3.0, 27),
        (9.0, 9),
        (27.0, 3),
        (81.0, 1),
    )
    assert bracket_plan(ladder, 3).rungs == ((3.0, 34), (9.0, 11), (27.0, 3), (81.0, 1))
    assert bracket_plan(ladder, 2).rungs == ((9.0, 15), (27.0, 5), (81.0, 1))
    assert bracket_plan(ladder, 1).rungs == ((27.0, 8), (81.0, 2))
    assert bracket_plan(ladder, 0).rungs == ((81.0, 5),)


def test_bracket_plan_rejects_out_of_range_s():
    ladder = build_ladder(3, 27, 3)
    with pytest.raises(BracketError):
        bracket_plan(ladder, -1)
    with pytest.raises(BracketError):
        bracket_plan(ladder, 3)


def test_bracket_counts_positive_and_decreasing():
    for args in ((1, 27, 3), (1, 81, 3), (1, 16, 2), (1, 16, 4), (1, 256, 4)):
        ladder = build_ladder(*args)
        for plan in dehb_iteration_plan(ladder):
            counts = [n for _, n in plan.rungs]
            assert all(n >= 1 for n in counts)
            assert counts == sorted(counts, reverse=True)


def test_bracket_budgets_agree_within_eta():
    # Hyperband's design: every bracket spends roughly the same total
    # budget, so per-bracket sums of n * fidelity stay within a factor eta.
    for args in ((1, 27, 3), (3, 27, 3), (1, 81, 3), (1, 16, 2), (1, 16, 4)):
        ladder = build_ladder(*args)
        totals = [
            sum(n * level for level, n in plan.rungs)
            for plan in dehb_iteration_plan(ladder)
        ]
        assert max(totals) <= args[2] * min(totals)


def test_iteration_plan_orders_brackets_largest_first():
    ladder = build_ladder(1, 81, 3)
    plan = dehb_iteration_plan(ladder)
    assert [p.s for p in plan] == [4, 3, 2, 1, 0]
    assert plan[0].rungs[0] == (1.0, 81)
    # Pure function of the ladder.
    assert dehb_iteration_plan(ladder) == plan


def test_first_bracket_defines_one_capacity_per_level():
    ladder = build_ladder(3, 27, 3)
    first = dehb_iteration_plan(ladder)[0]
    assert dict(first.rungs) == {3.0: 9, 9.0: 3, 27.0: 1}
