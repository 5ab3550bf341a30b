"""Differential-evolution operators and multi-objective survivor selection.

Genotypes live in [0, 1]^d throughout; mutants are clipped back into the
box.  Selection follows the rank-then-hypervolume rule (NSGA-II ranking,
Deb et al. 2002; SMS-EMOA tie-break, Beume et al. 2007): the offspring
replaces its parent when it ranks strictly better in the joint
non-dominated sort, is discarded when strictly worse, and on equal rank
the least hypervolume contributor of the last front (restricted to the
parent's own sub-population) is evicted instead.

The decision sorts only what it compares, in this order:

1. If one of parent and offspring dominates the other, it ranks strictly
   better; no sort is needed.
2. Otherwise only the rows dominating the parent or the offspring are
   sorted, with those two.  A point's front index depends only on the
   points that dominate it, so both ranks are exact.
3. Only when the two ranks tie is the whole population sorted, because
   the last front is then needed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientParentsError, SelectionError
from .pareto import _as_points, hv_contributions, non_dominated_sort


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


def rand1_combine(r1, r2, r3, scaling_factor: float) -> np.ndarray:
    """rand/1 mutant r1 + F * (r2 - r3), clipped to [0, 1]."""
    mutant = np.subtract(r2, r3, dtype=float)
    mutant *= scaling_factor
    mutant += r1
    return mutant.clip(0.0, 1.0, out=mutant)


def distinct_indices(uniforms, n: int) -> list[int]:
    """Map uniforms in [0, 1) to as many distinct indices below n.

    The j-th uniform u (counting from 0) picks the floor(u * m)-th, clamped
    below m, of the m = n - j indices not taken yet, by skipping the taken
    ones in ascending order.  Independent uniforms thus give every ordered
    tuple of distinct indices the same probability.
    """
    picked: list[int] = []
    free = n
    for u in uniforms:
        i = min(int(u * free), free - 1)
        for taken in sorted(picked):
            if i >= taken:
                i += 1
        picked.append(i)
        free -= 1
    return picked


def mutate_rand1(pool, params: DEParams, rng: np.random.Generator) -> np.ndarray:
    """Pick three distinct pool members uniformly and combine them.

    Draw order (part of the determinism contract): one ``rng.random(3)``
    block, mapped to the indices of r1, r2 and r3 by ``distinct_indices``.

    Raises:
        InsufficientParentsError: If the pool holds fewer than 3 genotypes
            (callers fall back to the global population, see optimizer).
    """
    if len(pool) < 3:
        raise InsufficientParentsError(
            f"mutation needs 3 parents, pool has {len(pool)}"
        )
    i1, i2, i3 = distinct_indices(rng.random(3).tolist(), len(pool))
    return rand1_combine(pool[i1], pool[i2], pool[i3], params.scaling_factor)


def crossover_binomial(
    target, mutant, params: DEParams, rng: np.random.Generator
) -> np.ndarray:
    """Binomial crossover; one uniformly chosen coordinate is always mutant.

    Draw order (part of the determinism contract): one ``rng.random(1 + d)``
    block.  Its first uniform u picks the forced coordinate floor(u * d),
    clamped below d (``distinct_indices``' map for one pick); coordinate i
    takes the mutant's value when uniform 1 + i is below the crossover
    probability.
    """
    target = np.asarray(target, dtype=float)
    mutant = np.asarray(mutant, dtype=float)
    if target.shape != mutant.shape:
        raise DimensionError(f"shape mismatch {target.shape} vs {mutant.shape}")
    d = len(target)
    uniforms = rng.random(1 + d)
    take = uniforms[1:] < params.crossover_prob
    take[min(int(uniforms[0] * d), d - 1)] = True
    return np.where(take, mutant, target)


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
        objectives: (N, n) objective rows of the global population with the
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
        SelectionError: On malformed indices or mismatched fidelities.
    """
    objectives = _as_points(objectives)
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
    p, o = objectives[parent].tolist(), objectives[offspring].tolist()
    p_le_o = all(map(operator.le, p, o))
    o_le_p = all(map(operator.le, o, p))
    if p_le_o != o_le_p:
        return offspring if p_le_o else parent
    # Step 2: the rows weakly dominating either one (the two themselves and
    # their duplicates included) are all that the two ranks depend on.
    # Compared column by column, in place: cheaper than .all(axis=1).
    cols = objectives.T
    below, below_o = cols[0] <= p[0], cols[0] <= o[0]
    for k in range(1, len(p)):
        below &= cols[k] <= p[k]
        below_o &= cols[k] <= o[k]
    below |= below_o
    below = below.nonzero()[0]
    rows = below.tolist()
    p_at, o_at = rows.index(parent), rows.index(offspring)
    for front in non_dominated_sort(objectives.take(below, axis=0)):
        if (p_at in front) != (o_at in front):
            return offspring if p_at in front else parent
        if p_at in front:
            break

    # Step 3: equal ranks; the last front needs the whole population.
    last = non_dominated_sort(objectives)[-1]
    owned = [i for i in last if owners[i] == owners[parent]]
    if not owned:
        return parent
    contrib = hv_contributions(objectives[last], ref)
    by_row = dict(zip(last, contrib))
    return min(owned, key=lambda i: (by_row[i], seqs[i]))
