"""Differential-evolution operators and multi-objective survivor selection.

Genotypes live in [0, 1]^d throughout; mutants are clipped back into the
box.  The operators draw nothing: each maps the uniforms it is given, laid
out in the ``optimizer`` module docstring, to a child as a Python list.

Selection follows the rank-then-hypervolume rule (NSGA-II ranking,
Deb et al. 2002; SMS-EMOA tie-break, Beume et al. 2007) on two objectives:
the offspring replaces its parent when it ranks strictly better in the
joint non-dominated sort, is discarded when strictly worse, and on equal
rank the least hypervolume contributor of the last front (restricted to
the parent's own sub-population) is evicted instead.

The decision ranks only what it compares, in this order:

1. If one of parent and offspring dominates the other, it ranks strictly
   better; nothing is ranked.
2. Otherwise only the rows dominating the parent or the offspring are
   ranked, with those two, by one sweep.  A point's front index depends
   only on the points that dominate it, so both ranks are exact.
3. Only when the two ranks tie is the whole population sorted, because
   the last front is then needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, InsufficientParentsError, SelectionError
from .errors import UnsupportedDimensionError
from .pareto import _as_points, _sweep_ranks, hv_contributions, non_dominated_sort


@dataclass(frozen=True)
class DEParams:
    """Mutation scaling factor F and crossover probability CR."""

    scaling_factor: float = 0.5
    crossover_prob: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.scaling_factor <= 2.0:
            raise ValueError(f"scaling_factor must be in (0, 2], got {self.scaling_factor}")
        if not 0.0 < self.crossover_prob <= 1.0:
            raise ValueError(f"crossover_prob must be in (0, 1], got {self.crossover_prob}")


def distinct_indices(uniforms, n: int) -> list[int]:
    """Map uniforms in [0, 1) to as many distinct indices below n.

    The j-th uniform u (counting from 0) picks the floor(u * m)-th of the
    m = n - j indices not taken yet, skipping taken ones in ascending order,
    so every ordered tuple of distinct indices is equally likely.  u * m
    rounds below m for u < 1; u >= 1, outside [0, 1), picks the last one.

    Raises:
        ValueError: If there are more uniforms than indices.
    """
    if len(uniforms) > n:
        raise ValueError(f"{len(uniforms)} distinct picks from {n} indices")
    picked: list[int] = []
    free = n
    for u in uniforms:
        i = int(u * free)
        if i >= free:  # only u >= 1 gets here (docstring)
            i = free - 1
        for taken in sorted(picked):
            if i >= taken:
                i += 1
        picked.append(i)
        free -= 1
    return picked


def mutate_rand1(pool, params: DEParams, uniforms) -> list[float]:
    """rand/1 mutant r1 + F * (r2 - r3), clipped to [0, 1], of the three
    distinct pool rows (ndarrays) that the three ``uniforms`` pick by
    ``distinct_indices``.  Draws nothing (module docstring).

    Raises:
        InsufficientParentsError: If the pool holds fewer than 3 genotypes
            (callers fall back to the global population, see optimizer).
        ValueError: Unless exactly three uniforms are given.
    """
    if len(pool) < 3:
        raise InsufficientParentsError(f"mutation needs 3 parents, pool has {len(pool)}")
    i1, i2, i3 = distinct_indices(uniforms, len(pool))
    r1, r2, r3 = pool[i1].tolist(), pool[i2].tolist(), pool[i3].tolist()
    mutant = [(b - c) * params.scaling_factor + a for a, b, c in zip(r1, r2, r3)]
    # min(max(v, 0.0), 1.0) for every float, NaN and -0.0 included, but faster.
    return [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in mutant]


def crossover_binomial(target, mutant, params: DEParams, uniforms) -> list:
    """Binomial crossover; one uniformly chosen coordinate is always mutant.

    Of the 1 + d ``uniforms``, the first picks the forced coordinate as
    ``distinct_indices`` picks one index (u >= 1 gives d - 1); coordinate i
    takes the mutant's value when uniform 1 + i is below the crossover
    probability.  Draws nothing (module docstring).

    Raises:
        DimensionError: If target and mutant differ in length.
        ValueError: Unless exactly 1 + d uniforms are given.
    """
    d = len(target)
    if len(mutant) != d:
        raise DimensionError(f"length mismatch {d} vs {len(mutant)}")
    # zip would silently cut the child short on too few uniforms.
    if len(uniforms) != 1 + d:
        raise ValueError(f"crossover needs {1 + d} uniforms, got {len(uniforms)}")
    cr = params.crossover_prob
    child = [m if u < cr else t for t, m, u in zip(target, mutant, uniforms[1:])]
    forced = min(int(uniforms[0] * d), d - 1)  # the min catches only u >= 1
    child[forced] = mutant[forced]
    return child


def mo_selection(
    objectives,
    owners,
    seqs,
    parent: int,
    offspring: int,
    ref,
) -> int:
    """Pick the member a freshly evaluated offspring replaces (or itself).

    Args:
        objectives: (N, 2) objective rows of the global population with the
            offspring already included provisionally, in the same space
            as ref.
        owners: Sub-population tag per row (the fidelity owning the member).
        seqs: Evaluation sequence number per row.
        parent: Row index of the parent (the DE target).
        offspring: Row index of the offspring.
        ref: Hypervolume reference point.

    Returns:
        The victim's row index: the parent when the offspring ranks
        strictly better, the offspring when strictly worse, otherwise the
        minimum-contribution member of the last front among rows owned by
        the parent's sub-population (contribution ties broken by earliest
        seq; no owned row in the last front falls back to the parent).

    Raises:
        UnsupportedDimensionError: For any number of objectives but two.
        SelectionError: On malformed indices or mismatched fidelities.
    """
    objectives = _as_points(objectives)
    if objectives.shape[1] != 2:
        raise UnsupportedDimensionError("survivor selection needs exactly two objectives")
    n_rows = len(objectives)
    if not (0 <= parent < n_rows and 0 <= offspring < n_rows) or parent == offspring:
        raise SelectionError(f"invalid parent/offspring rows {parent}, {offspring}")
    if len(owners) != n_rows or len(seqs) != n_rows:
        raise SelectionError("owners/seqs must match the objective rows")
    if owners[parent] != owners[offspring]:
        raise SelectionError(
            "parent and offspring must be evaluated at the same fidelity"
        )

    # Step 1 (see the module docstring): when exactly one of the two weakly
    # dominates the other, it dominates it.
    p1, p2 = objectives[parent].tolist()
    o1, o2 = objectives[offspring].tolist()
    p_le_o = p1 <= o1 and p2 <= o2
    if p_le_o != (o1 <= p1 and o2 <= p2):
        return offspring if p_le_o else parent
    # Step 2: the rows weakly dominating either one (the two themselves and
    # their duplicates included) are all that the two ranks depend on.
    f1, f2 = objectives.T
    below = (((f1 <= p1) & (f2 <= p2)) | ((f1 <= o1) & (f2 <= o2))).nonzero()[0]
    rank = _sweep_ranks(objectives.take(below, axis=0))
    rows = below.tolist()
    p_rank, o_rank = rank[rows.index(parent)], rank[rows.index(offspring)]
    if p_rank != o_rank:
        return offspring if p_rank < o_rank else parent

    # Step 3: equal ranks; the last front needs the whole population.
    last = non_dominated_sort(objectives)[-1]
    owned = [i for i in last if owners[i] == owners[parent]]
    if not owned:
        return parent
    contrib = hv_contributions(objectives[last], ref)
    by_row = dict(zip(last, contrib))
    return min(owned, key=lambda i: (by_row[i], seqs[i]))
