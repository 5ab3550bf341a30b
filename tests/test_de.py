"""Tests for the differential-evolution operators and survivor selection."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from modehb import de, optimizer
from modehb.bench import zdt2_mf
from modehb.de import DEParams, crossover_binomial, mo_selection, mutate_rand1
from modehb.errors import (
    DimensionError,
    InsufficientParentsError,
    SelectionError,
    UnsupportedDimensionError,
)
from modehb.pareto import _peel_fronts, hv_contributions
from modehb.scheduler import build_ladder
from oracles import nds_bf


def test_de_params_validation():
    DEParams(scaling_factor=2.0, crossover_prob=1.0)
    with pytest.raises(ValueError):
        DEParams(scaling_factor=0.0)
    with pytest.raises(ValueError):
        DEParams(scaling_factor=2.5)
    with pytest.raises(ValueError):
        DEParams(crossover_prob=0.0)
    with pytest.raises(ValueError):
        DEParams(crossover_prob=1.5)


# Uniforms that make distinct_indices pick rows 0, 1 and 2 in that order.
IN_ORDER = [0.0, 0.0, 0.0]


def _mutant(r1, r2, r3, scaling_factor):
    pool = np.array([r1, r2, r3], dtype=float)
    return mutate_rand1(pool, DEParams(scaling_factor=scaling_factor), IN_ORDER)


def test_mutate_rand1_arithmetic():
    assert _mutant([0.5], [1.0], [0.0], 0.5) == pytest.approx([1.0])
    assert _mutant([0.4], [0.6], [0.2], 0.5) == pytest.approx([0.6])
    # A vanishing F collapses onto the base vector.
    assert _mutant([0.3, 0.7], [0.9, 0.1], [0.1, 0.9], 1e-300) == pytest.approx([0.3, 0.7])


def test_mutate_rand1_clips_to_unit_cube():
    assert _mutant([0.9], [1.0], [0.0], 0.5) == [1.0]
    assert _mutant([0.1], [0.0], [1.0], 0.5) == [0.0]


def test_mutate_rand1_matches_numpy_rand1_bit_for_bit():
    # The mutant is r1 + F * (r2 - r3) in numpy's operation order, clipped.
    rows = np.random.default_rng(3).uniform(-0.5, 1.5, size=(200, 3, 7))
    for f in (0.5, 1.0, 1.7):
        for r1, r2, r3 in rows:
            expected = np.clip((r2 - r3) * f + r1, 0.0, 1.0)
            assert _mutant(r1, r2, r3, f) == expected.tolist()


def test_mutate_rand1_stays_in_bounds_and_replays():
    pool = [np.array([0.1, 0.9]), np.array([0.8, 0.2]), np.array([0.5, 0.5]),
            np.array([0.3, 0.3])]
    params = DEParams(scaling_factor=1.5, crossover_prob=0.5)
    for seed in range(20):
        uniforms = np.random.default_rng(seed).random(3).tolist()
        m1 = mutate_rand1(pool, params, uniforms)
        assert type(m1) is list and m1 == mutate_rand1(pool, params, uniforms)
        assert all(0.0 <= v <= 1.0 for v in m1)


def test_mutate_rand1_uses_three_distinct_parents():
    # With F=1 and a one-hot pool, three distinct parents always leave
    # exactly two coordinates at 1.0 after clipping; a repeated draw
    # (r2 == r3) would instead reproduce a pool row exactly.
    pool = [np.eye(3)[i] for i in range(3)]
    params = DEParams(scaling_factor=1.0, crossover_prob=0.5)
    for uniforms in np.random.default_rng(0).random((100, 3)).tolist():
        mutant = mutate_rand1(pool, params, uniforms)
        assert mutant.count(1.0) == 2
        assert not any(mutant == row.tolist() for row in pool)


def test_mutate_rand1_rejects_small_pools():
    pool = [np.array([0.1]), np.array([0.9])]
    with pytest.raises(InsufficientParentsError):
        mutate_rand1(pool, DEParams(), IN_ORDER)


def test_crossover_full_rate_returns_mutant():
    target = [0.0, 0.0, 0.0, 0.0]
    mutant = [0.1, 0.2, 0.3, 0.4]
    params = DEParams(scaling_factor=0.5, crossover_prob=1.0)
    uniforms = np.random.default_rng(1).random(5).tolist()
    assert crossover_binomial(target, mutant, params, uniforms) == mutant


def test_crossover_tiny_rate_keeps_only_forced_coordinate():
    params = DEParams(scaling_factor=0.5, crossover_prob=1e-12)
    for seed in range(30):
        uniforms = np.random.default_rng(seed).random(7).tolist()
        out = crossover_binomial([0.0] * 6, [1.0] * 6, params, uniforms)
        assert out.count(1.0) == 1


def test_crossover_replays_documented_draw_order():
    # 1 + d uniforms: the forced coordinate's, then the mask.
    target = np.array([0.0, 0.0, 0.0, 0.0])
    mutant = np.array([0.1, 0.2, 0.3, 0.4])
    params = DEParams(scaling_factor=0.5, crossover_prob=0.5)
    for seed in range(10):
        uniforms = np.random.default_rng(seed).random(5)
        take = uniforms[1:] < params.crossover_prob
        take[int(uniforms[0] * 4)] = True
        expected = np.where(take, mutant, target)
        out = crossover_binomial(target.tolist(), mutant.tolist(), params, uniforms.tolist())
        assert out == expected.tolist()


def test_operators_reject_a_wrong_number_of_uniforms():
    # Too few would cut the child short; too many would go unused.
    for n in (0, 2, 4, 6):
        with pytest.raises(ValueError):
            mutate_rand1(np.eye(4), DEParams(), [0.5] * n)
    for n in (0, 4, 6):
        with pytest.raises(ValueError):
            crossover_binomial([0.0] * 4, [1.0] * 4, DEParams(), [0.5] * n)


# ------------------------------------------------- uniforms to distinct indices


def _lattice(n, k, per_bin=2):
    """Every k-tuple of bin midpoints, where axis j splits [0, 1) into
    per_bin * (n - j) equal bins: each of the n - j free indices of pick j
    owns per_bin of them."""
    axes = [(np.arange(per_bin * (n - j)) + 0.5) / (per_bin * (n - j)) for j in range(k)]
    return list(itertools.product(*(axis.tolist() for axis in axes)))


def _assert_uniform_over_ordered_tuples(picks, n, k, per_bin=2):
    counts = Counter(map(tuple, picks))
    assert all(len(set(t)) == k and all(0 <= i < n for i in t) for t in counts)
    assert len(counts) == math.perm(n, k)
    assert set(counts.values()) == {per_bin**k}


@pytest.mark.parametrize("n", range(3, 8))
def test_mutate_rand1_maps_a_uniform_lattice_onto_every_ordered_triple(n):
    # Row i is 0.25 + 0.5 e_i, so with F = 0.5 the mutant reads 0.75 at r1's
    # index, 0.5 at r2's, 0 at r3's and 0.25 elsewhere.
    pool = 0.25 + 0.5 * np.eye(n)
    params = DEParams(scaling_factor=0.5)
    picks = []
    for uniforms in _lattice(n, 3):
        mutant = mutate_rand1(pool, params, uniforms)
        picks.append([mutant.index(v) for v in (0.75, 0.5, 0.0)])
        assert picks[-1] == de.distinct_indices(uniforms, n)
    _assert_uniform_over_ordered_tuples(picks, n, 3)


@pytest.mark.parametrize("n", range(1, 8))
def test_distinct_indices_lattice_for_one_and_two_picks(n):
    # The mutation-pool top-up draws one or two fill-ins this way.
    for k in (1, 2)[: min(n, 2)]:
        picks = [de.distinct_indices(u, n) for u in _lattice(n, k)]
        _assert_uniform_over_ordered_tuples(picks, n, k)


def test_distinct_indices_refuses_more_picks_than_indices():
    # A pick past the last free index would come out as -1, the last row.
    for uniforms, n in (([0.5, 0.5, 0.5], 2), ([0.9], 0), ([0.1, 0.2], 1)):
        with pytest.raises(ValueError):
            de.distinct_indices(uniforms, n)
    assert de.distinct_indices([], 0) == []


@pytest.mark.parametrize("d", range(1, 8))
def test_crossover_forced_coordinate_lattice(d):
    # With every mask uniform above CR, only the forced coordinate is mutant.
    params = DEParams(crossover_prob=0.5)
    forced = []
    for (u,) in _lattice(d, 1):
        out = crossover_binomial([0.0] * d, [1.0] * d, params, [u] + [0.9] * d)
        forced.append([i for i, v in enumerate(out) if v])
    _assert_uniform_over_ordered_tuples(forced, d, 1)


def test_uniform_mappings_stay_below_n_at_the_top_of_the_unit_interval():
    top = float(np.nextafter(1.0, 0.0))
    for n in range(1, 50):
        for k in range(1, min(n, 3) + 1):
            picks = de.distinct_indices([top] * k, n)
            assert picks == list(range(n - 1, n - 1 - k, -1))
    for d in range(1, 12):
        out = crossover_binomial(
            [0.0] * d, [1.0] * d, DEParams(crossover_prob=0.5), [top] * (1 + d)
        )
        assert [i for i, v in enumerate(out) if v] == [d - 1]
    assert de.distinct_indices([0.0, 0.0, 0.0], 5) == [0, 1, 2]


def test_crossover_dimension_mismatch():
    with pytest.raises(DimensionError):
        crossover_binomial([0.0] * 3, [1.0] * 4, DEParams(), [0.5] * 4)


# ------------------------------------------------------------- mo_selection


def _rows(*objs):
    return np.array(objs, dtype=float)


REF = np.array([2.0, 2.0])


def test_selection_offspring_improves_evicts_parent():
    # Offspring lands in a better front than its parent.
    objectives = _rows((0.6, 0.6), (0.9, 0.2), (0.5, 0.5))
    owners = [1.0, 1.0, 1.0]
    seqs = [1, 2, 3]
    victim = mo_selection(objectives, owners, seqs, 0, 2, REF)
    assert victim == 0


def test_selection_offspring_worse_is_discarded():
    objectives = _rows((0.6, 0.6), (0.9, 0.2), (0.7, 0.7))
    owners = [1.0, 1.0, 1.0]
    seqs = [1, 2, 3]
    victim = mo_selection(objectives, owners, seqs, 0, 2, REF)
    assert victim == 2


def test_selection_equal_rank_evicts_least_contributor_of_last_front():
    # Parent and offspring tie in front 2; the last front holds three
    # mutually incomparable points whose exclusive areas are 0.45, 0.05
    # and 0.09, so (1.5, 0.5) goes.
    objectives = _rows(
        (0.1, 0.1),    # front 1, other sub-population
        (0.3, 0.3),    # parent, front 2
        (0.5, 1.5),    # last front, contribution 0.45
        (1.5, 0.5),    # last front, contribution 0.05  <- victim
        (1.4, 0.6),    # last front, contribution 0.09
        (0.35, 0.25),  # offspring, front 2
    )
    owners = [3.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    seqs = [1, 2, 3, 4, 5, 6]
    victim = mo_selection(objectives, owners, seqs, 1, 5, REF)
    assert victim == 3


def test_selection_equal_rank_restricted_to_own_subpopulation():
    # Same geometry, but the least contributor belongs to another fidelity:
    # the search skips it and evicts the cheapest owned one instead.
    objectives = _rows(
        (0.1, 0.1),
        (0.3, 0.3),
        (0.5, 1.5),
        (1.5, 0.5),
        (1.4, 0.6),
        (0.35, 0.25),
    )
    owners = [3.0, 1.0, 1.0, 3.0, 1.0, 1.0]
    seqs = [1, 2, 3, 4, 5, 6]
    victim = mo_selection(objectives, owners, seqs, 1, 5, REF)
    assert victim == 4


def test_selection_contribution_tie_breaks_by_seq():
    # Duplicate last-front points both contribute zero; earliest seq goes.
    objectives = _rows(
        (0.2, 0.2),    # parent
        (0.8, 0.8),    # last front, seq 9
        (0.8, 0.8),    # last front, seq 4  <- victim
        (0.25, 0.15),  # offspring
    )
    owners = [1.0, 1.0, 1.0, 1.0]
    seqs = [1, 9, 4, 12]
    victim = mo_selection(objectives, owners, seqs, 0, 3, REF)
    assert victim == 2


def test_selection_falls_back_to_parent():
    # Last front owned entirely by other sub-populations: evict the parent.
    objectives = _rows(
        (0.3, 0.3),    # parent
        (0.8, 0.8),    # last front, other fidelity
        (0.25, 0.35),  # offspring
    )
    owners = [1.0, 9.0, 1.0]
    seqs = [1, 2, 3]
    victim = mo_selection(objectives, owners, seqs, 0, 2, REF)
    assert victim == 0


def test_selection_never_discards_dominating_offspring():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pop = rng.uniform(size=(6, 2))
        parent_row = int(rng.integers(6))
        offspring = pop[parent_row] - rng.uniform(0.01, 0.1, size=2)
        objectives = np.vstack([pop, offspring])
        owners = [1.0] * 7
        seqs = list(range(1, 8))
        victim = mo_selection(objectives, owners, seqs, parent_row, 6, REF)
        assert victim != 6


def test_selection_validates_inputs():
    objectives = _rows((0.5, 0.5), (0.6, 0.6))
    with pytest.raises(SelectionError):
        mo_selection(objectives, [1.0, 1.0], [1, 2], 0, 5, REF)
    with pytest.raises(SelectionError):
        mo_selection(objectives, [1.0], [1, 2], 0, 1, REF)
    # Parent and offspring owned by different fidelities.
    with pytest.raises(SelectionError, match="same fidelity"):
        mo_selection(objectives, [1.0, 3.0], [1, 2], 0, 1, REF)


def _reference_victim(objectives, owners, seqs, parent, offspring, ref, sort=nds_bf):
    # The documented rule, evaluated from the fronts of a reference sort.
    fronts = sort(objectives)
    rank = np.empty(len(objectives), dtype=int)
    for r, front in enumerate(fronts):
        rank[front] = r
    if rank[offspring] != rank[parent]:
        return parent if rank[offspring] < rank[parent] else offspring
    last = fronts[-1]
    contrib = hv_contributions(objectives[last], ref)
    owned = [
        (contrib[j], seqs[row], row)
        for j, row in enumerate(last)
        if owners[row] == owners[parent]
    ]
    return min(owned)[2] if owned else parent


def _lattice_case(rng):
    # Integer lattices scaled past the (1, 1) reference give rank ties,
    # exact duplicates and zero-contribution last fronts; two owner tags
    # exercise the sub-population restriction and the parent fallback.
    n = int(rng.integers(3, 40))
    width = int(rng.integers(2, 7))
    objectives = rng.integers(0, width, size=(n, 2)) / (width - 1) * 1.2
    owners = rng.choice([1.0, 3.0], size=n)
    seqs = rng.permutation(n) + 1
    parent, offspring = (int(i) for i in rng.choice(n, size=2, replace=False))
    owners[offspring] = owners[parent]
    return objectives, owners, seqs, parent, offspring


def _duplicate_pair(rng):
    objectives, owners, seqs, parent, offspring = _lattice_case(rng)
    objectives[offspring] = objectives[parent]
    return objectives, owners, seqs, parent, offspring


def _dominating_pair(rng):
    objectives, owners, seqs, parent, offspring = _lattice_case(rng)
    step = rng.permutation([0.3, rng.choice([0.0, 0.3])])
    better, worse = (parent, offspring) if rng.random() < 0.5 else (offspring, parent)
    objectives[worse] = objectives[better] + step
    return objectives, owners, seqs, parent, offspring


def test_selection_matches_reference_on_lattice_populations(monkeypatch):
    # The decision path is the number of rankings: 0 when one of the pair
    # dominates the other, 1 when the rows below the pair settle the ranks
    # (one sweep), 2 when they tie and the whole population is sorted.
    ranked = []

    def counted(name):
        real = getattr(de, name)
        return lambda pts: ranked.append((name, len(pts))) or real(pts)

    steps = ("_sweep_ranks", "non_dominated_sort")
    for name in steps:
        monkeypatch.setattr(de, name, counted(name))
    rng = np.random.default_rng(23)
    ref = np.array([1.0, 1.0])
    outcomes = {"parent": 0, "offspring": 0, "other": 0}
    paths = {kind: Counter() for kind in ("2d", "duplicate", "dominating")}
    cases = (
        [("2d", _lattice_case(rng)) for _ in range(300)]
        + [("duplicate", _duplicate_pair(rng)) for _ in range(60)]
        + [("dominating", _dominating_pair(rng)) for _ in range(60)]
    )
    for kind, (objectives, owners, seqs, parent, offspring) in cases:
        args = (objectives, owners, seqs, parent, offspring, ref)
        expected = _reference_victim(*args)
        ranked.clear()
        assert mo_selection(*args) == expected
        paths[kind][len(ranked)] += 1
        assert tuple(name for name, _ in ranked) == steps[: len(ranked)]
        if ranked[1:]:
            assert ranked[1][1] == len(objectives)
        key = {parent: "parent", offspring: "offspring"}.get(expected, "other")
        outcomes[key] += 1
    assert min(outcomes.values()) >= 20, outcomes
    assert paths["dominating"] == {0: 60} and paths["duplicate"] == {2: 60}, paths
    assert min(sum(paths.values(), Counter()).values()) >= 20, paths


def test_selection_rejects_three_objectives_before_any_sort(monkeypatch):
    for name in ("_sweep_ranks", "non_dominated_sort", "hv_contributions"):
        monkeypatch.setattr(de, name, lambda *args: pytest.fail("reached a kernel"))
    objectives, owners, seqs, parent, offspring = _lattice_case(np.random.default_rng(5))
    objectives = np.column_stack([objectives, objectives[:, 0]])
    with pytest.raises(UnsupportedDimensionError):
        mo_selection(objectives, owners, seqs, parent, offspring, REF)


def test_selection_replays_every_choice_of_a_deep_run(monkeypatch):
    # zdt2_mf d=10 on ladder 1/81/3 freezes a 121-member population, so
    # every selection compares against 122 rows: the `zdt2_deep` benchmark
    # workload at seed 0.  Each victim must equal the documented rule's,
    # evaluated from the domination-matrix peel.
    ladder = build_ladder(1, 81, 3)
    bm = zdt2_mf(10, ladder)
    calls = []

    def checked(objectives, owners, seqs, parent, offspring, ref):
        victim = mo_selection(objectives, owners, seqs, parent, offspring, ref)
        expected = _reference_victim(
            objectives, owners, seqs, parent, offspring, ref, sort=_peel_fronts
        )
        calls.append(victim == expected)
        return victim

    monkeypatch.setattr(optimizer, "mo_selection", checked)
    for variant in ("nsga2", "epsnet"):
        optimizer.run(
            bm.space, ladder, variant, bm.evaluate, optimizer.StoppingCriteria(max_tae=2000),
            0, objective_bounds=bm.objective_bounds,
        )
    assert len(calls) > 3000 and all(calls), calls.count(False)
