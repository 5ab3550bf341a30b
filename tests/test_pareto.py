"""Tests for sorting, ranking, and hypervolume primitives.

Expected values come from the brute-force oracles in oracles.py or from
hand arithmetic recorded inline.
"""

import numpy as np
import pytest

from modehb.errors import (
    DimensionError,
    EmptyPopulationError,
    SelectionError,
    UnsupportedDimensionError,
)
from modehb.pareto import (
    RANKING_STRATEGIES,
    _peel_fronts,
    _sweep_ranks,
    crowding_distance,
    epsnet_order,
    hv_contributions,
    hypervolume,
    non_dominated_sort,
    rank_and_truncate,
)
from oracles import (
    hv_contributions_numpy,
    hv_grid,
    hv_inclusion_exclusion,
    hv_numpy,
    nds_bf,
)


# --------------------------------------------------------------------- NDS


def test_nds_hand_cases():
    fronts = non_dominated_sort(np.array([[1, 2], [2, 1], [3, 3]], dtype=float))
    assert fronts == [[0, 1], [2]]
    chain = non_dominated_sort(np.array([[1, 1], [2, 2], [3, 3]], dtype=float))
    assert chain == [[0], [1], [2]]
    assert non_dominated_sort(np.array([[0.3, 0.7]])) == [[0]]


def test_nds_empty_raises():
    with pytest.raises(EmptyPopulationError):
        non_dominated_sort(np.empty((0, 2)))


@pytest.mark.parametrize(
    "points, error",
    [
        ([0.5, 0.5], DimensionError),
        ([[0.5], [0.25]], DimensionError),
        ([[0.5, 0.5], [np.nan, 0.25]], ValueError),
    ],
    ids=["one_dimensional", "one_column", "nan"],
)
def test_nds_rejects_bad_points(points, error):
    with pytest.raises(error):
        non_dominated_sort(np.array(points))


def test_nds_stable_within_front():
    # Duplicates and incomparable points keep their input order.
    pts = np.array([[2, 1], [1, 2], [2, 1], [1, 2]], dtype=float)
    assert non_dominated_sort(pts) == [[0, 1, 2, 3]]


def test_nds_matches_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 60))
        m = int(rng.choice([2, 3]))
        pts = rng.uniform(size=(n, m))
        assert non_dominated_sort(pts) == nds_bf(pts)
    # Integer lattices: ties in single objectives, exact duplicates, and
    # (on the narrow lattices) long dominance chains through many fronts.
    for _ in range(60):
        n = int(rng.integers(1, 60))
        m = int(rng.choice([2, 3]))
        pts = rng.integers(0, int(rng.integers(1, 8)), size=(n, m)).astype(float)
        assert non_dominated_sort(pts) == nds_bf(pts)
    chain = np.tile(np.arange(20.0)[::-1, None], (2, 2))  # duplicated chain
    assert non_dominated_sort(chain) == nds_bf(chain)


def _front_index(fronts):
    rank = [-1] * sum(map(len, fronts))
    for k, front in enumerate(fronts):
        for i in front:
            rank[i] = k
    return rank


def _assert_both_paths(pts, oracle=True):
    # The public sort takes the 2-D sweep; the domination-matrix peel that
    # serves three or more objectives must agree on the same points, and
    # the sweep's ranks (which survivor selection compares) are each
    # point's front index.
    fronts = non_dominated_sort(pts)
    peeled = _peel_fronts(pts)
    assert fronts == peeled
    assert _sweep_ranks(pts) == _front_index(peeled)
    if oracle:
        brute = nds_bf(pts)
        assert fronts == brute
        assert _sweep_ranks(pts) == _front_index(brute)


def test_nds_two_objective_sweep_matches_peel_and_bruteforce():
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 301))
        _assert_both_paths(rng.uniform(size=(n, 2)), oracle=n <= 60)
        width = int(rng.integers(1, 12))
        lattice = rng.integers(0, width, size=(n, 2)).astype(float)
        _assert_both_paths(lattice, oracle=n <= 60)
    for _ in range(20):
        # Exact duplicates of points that share f1 with other points.
        base = np.column_stack([
            rng.integers(0, 3, size=12), rng.integers(0, 8, size=12)
        ]).astype(float)
        pts = base[rng.integers(0, 12, size=30)]
        _assert_both_paths(pts)
    column = np.column_stack([np.full(25, 0.5), rng.integers(0, 6, size=25)])
    row = np.column_stack([rng.integers(0, 6, size=25), np.full(25, 0.5)])
    for pts in (column, row):
        _assert_both_paths(pts)
        assert len(non_dominated_sort(pts)) == len(np.unique(pts, axis=0))
    _assert_both_paths(np.array([[0.3, 0.7]]))


def test_nds_two_objective_signed_zeros_are_duplicates():
    pts = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0],
                    [-0.0, -0.0], [0.0, 0.0], [1.0, 1.0]])
    _assert_both_paths(pts)
    assert non_dominated_sort(pts) == [[4, 5], [0, 1, 2, 3], [6]]


# ---------------------------------------------------------------- crowding


def test_crowding_three_point_front():
    d = crowding_distance(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]))
    assert d[0] == np.inf and d[2] == np.inf
    assert d[1] == pytest.approx(2.0)


def test_crowding_small_fronts_all_infinite():
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))))


def test_crowding_four_collinear():
    d = crowding_distance(np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]))
    assert d[0] == np.inf and d[3] == np.inf
    # Interior gap is 2/3 per objective after min-max normalization.
    assert d[1] == pytest.approx(4.0 / 3.0)
    assert d[2] == pytest.approx(4.0 / 3.0)


def test_crowding_constant_objective_contributes_zero():
    d = crowding_distance(np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]))
    assert d[0] == np.inf and d[2] == np.inf
    assert d[1] == pytest.approx(1.0)


# ------------------------------------------------------------------ epsnet


def test_epsnet_three_point_front():
    order = epsnet_order(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]))
    # Seeded at index 0; (1,0) is sqrt(2) away versus sqrt(0.5) for the middle.
    assert list(order) == [0, 2, 1]


def test_epsnet_degenerate_fronts():
    assert list(epsnet_order(np.array([[0.4, 0.4]]))) == [0]
    assert list(epsnet_order(np.array([[0.4, 0.4], [0.4, 0.4]]))) == [0, 1]


def test_epsnet_tie_breaks_by_lowest_index():
    # Both candidates are at distance 1 from the seed.
    order = epsnet_order(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert list(order) == [0, 1, 2]


def test_epsnet_is_permutation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.uniform(size=(int(rng.integers(1, 30)), 2))
        order = epsnet_order(pts)
        assert sorted(order) == list(range(len(pts)))


# ------------------------------------------------------------- hypervolume


def test_hypervolume_hand_cases():
    ref = np.array([2.0, 2.0])
    assert hypervolume(np.array([[1.0, 1.0]]), ref) == pytest.approx(1.0)
    assert hypervolume(np.array([[0.5, 1.5], [1.5, 0.5]]), ref) == pytest.approx(1.25)
    assert hypervolume(np.empty((0, 2)), ref) == 0.0
    assert hypervolume(np.array([[2.5, 2.5]]), ref) == 0.0


def test_hypervolume_ignores_dominated_and_duplicate_points():
    ref = np.array([2.0, 2.0])
    base = hypervolume(np.array([[0.5, 1.5], [1.5, 0.5]]), ref)
    padded = np.array([[0.5, 1.5], [1.5, 0.5], [1.6, 1.6], [0.5, 1.5]])
    assert hypervolume(padded, ref) == pytest.approx(base)


def test_hypervolume_rejects_higher_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        hypervolume(np.array([[0.5, 0.5, 0.5]]), np.array([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("kernel", [hypervolume, hv_contributions])
@pytest.mark.parametrize(
    "points, ref, error",
    [
        ([[0.5, 0.5, 0.5]], [1.0, 1.0], UnsupportedDimensionError),
        ([0.5, 0.5], [1.0, 1.0], UnsupportedDimensionError),
        ([[0.5, 0.5]], [1.0, 1.0, 1.0], UnsupportedDimensionError),
        ([[0.5, 0.5]], [[1.0, 1.0]], UnsupportedDimensionError),
        ([[0.5, 0.5], [np.nan, 0.5]], [1.0, 1.0], ValueError),
        ([[0.5, np.inf]], [1.0, 1.0], ValueError),
        ([[0.5, 0.5]], [1.0, np.nan], ValueError),
    ],
)
def test_hypervolume_kernels_reject_bad_input(kernel, points, ref, error):
    with pytest.raises(error):
        kernel(np.array(points), np.array(ref))


def _hv_cases():
    """(points, ref) sets: random, tied lattices, exact duplicates, points on
    and beyond ref, and empty and single-point sets."""
    rng = np.random.default_rng(30)
    unit = np.array([1.0, 1.0])
    cases = [(np.empty((0, 2)), unit), (np.array([[0.3, 0.7]]), unit)]
    cases += [(np.array([[1.0, 0.2]]), unit), (np.array([[0.2, 1.0]]), unit)]
    cases += [(np.array([[1.5, 0.2]]), unit), (np.array([[1.0, 1.0]]), unit)]
    for n in (2, 3, 5, 10, 40, 200):
        pts = rng.random((n, 2))
        cases.append((pts, unit))
        cases.append((pts * 1.3 - 0.1, rng.random(2) + 0.5))
        # A lattice with ties in either objective, some on or beyond ref.
        cases.append((rng.integers(0, 6, (n, 2)) / 4.0, unit))
        # Ties on values whose products round: the sweep order within a tie shows.
        ties = np.column_stack([rng.choice(rng.random(3), n), pts[:, 1]])
        cases += [(ties, unit), (ties[:, ::-1].copy(), unit)]
        # Exact duplicates, interleaved.
        cases.append((np.vstack([pts, pts[: n // 2 + 1]])[rng.permutation(n + n // 2 + 1)], unit))
        # Points exactly on ref in one objective.
        edge = pts.copy()
        edge[::3, n % 2] = 1.0
        cases.append((edge, unit))
    return cases


def test_hypervolume_kernels_match_the_numpy_sweep_bit_for_bit():
    for pts, ref in _hv_cases():
        hv = hypervolume(pts, ref)
        assert type(hv) is float and hv == hv_numpy(pts, ref)
        contrib, expected = hv_contributions(pts, ref), hv_contributions_numpy(pts, ref)
        assert contrib.dtype == expected.dtype and contrib.shape == expected.shape
        assert contrib.tobytes() == expected.tobytes()


def test_hypervolume_exact_on_dyadic_instances():
    # Coordinates on a 1/1024 lattice make every partial product exact, so
    # the sweep and inclusion-exclusion must agree bit for bit.
    rng = np.random.default_rng(7)
    ref = np.array([1.0, 1.0])
    for _ in range(100):
        n = int(rng.integers(1, 7))
        pts = rng.integers(0, 1025, size=(n, 2)) / 1024.0
        assert hypervolume(pts, ref) == hv_inclusion_exclusion(pts, ref)


def test_hypervolume_matches_grid_oracle():
    rng = np.random.default_rng(8)
    ref = np.array([1.0, 1.0])
    for _ in range(8):
        pts = rng.uniform(size=(int(rng.integers(1, 9)), 2))
        assert hypervolume(pts, ref) == pytest.approx(
            hv_grid(pts, ref, cells=1000), abs=3e-3
        )


# ----------------------------------------------------------- contributions


def test_contributions_hand_cases():
    ref = np.array([2.0, 2.0])
    assert hv_contributions(np.array([[1.0, 1.0]]), ref) == pytest.approx([1.0])
    assert hv_contributions(np.array([[0.5, 1.5], [1.5, 0.5]]), ref) == pytest.approx(
        [0.5, 0.5]
    )
    assert hv_contributions(np.array([[1.0, 1.0], [1.0, 1.0]]), ref) == pytest.approx(
        [0.0, 0.0]
    )


def test_contributions_three_incomparable_points():
    # Leave-one-out areas: 1.34 total; removing each point in turn leaves
    # 0.89, 1.29, 1.25, so the contributions are 0.45, 0.05, 0.09.
    pts = np.array([[0.5, 1.5], [1.5, 0.5], [1.4, 0.6]])
    contrib = hv_contributions(pts, np.array([2.0, 2.0]))
    assert contrib == pytest.approx([0.45, 0.05, 0.09], abs=1e-12)


def test_contributions_of_dominated_points_are_zero():
    pts = np.array([[0.2, 0.2], [0.5, 0.5], [0.2, 0.9]])
    contrib = hv_contributions(pts, np.array([1.0, 1.0]))
    assert contrib[1] == 0.0 and contrib[2] == 0.0
    # 0.8 * 0.8 minus the 0.28 the two dominated points cover on their own.
    assert contrib[0] == pytest.approx(0.36)


def test_contributions_sum_never_exceeds_hv():
    rng = np.random.default_rng(9)
    ref = np.array([1.0, 1.0])
    for _ in range(30):
        pts = rng.uniform(size=(int(rng.integers(1, 12)), 2))
        hv = hypervolume(pts, ref)
        contrib = hv_contributions(pts, ref)
        assert np.all(np.asarray(contrib) >= 0.0)
        assert np.sum(contrib) <= hv + 1e-12


# -------------------------------------------------------- rank and truncate


def test_rank_and_truncate_takes_whole_fronts_in_input_order():
    pts = np.array([[1, 2], [2, 1], [3, 3], [0.5, 0.5]], dtype=float)
    # F1 = {3}, F2 = {0, 1}, F3 = {2}.
    assert list(rank_and_truncate(pts, 3, "crowding")) == [3, 0, 1]
    assert list(rank_and_truncate(pts, 4, "epsnet")) == [3, 0, 1, 2]


def test_rank_and_truncate_crowding_split():
    pts = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    # Boundary points win; the interior tie breaks by input index.
    assert list(rank_and_truncate(pts, 3, "crowding")) == [0, 3, 1]
    assert list(rank_and_truncate(pts, 2, "crowding")) == [0, 3]


def test_rank_and_truncate_epsnet_split():
    pts = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert list(rank_and_truncate(pts, 2, "epsnet")) == [0, 2]
    assert list(rank_and_truncate(pts, 1, "epsnet")) == [0]


def test_rank_and_truncate_validation():
    pts = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SelectionError):
        rank_and_truncate(pts, 0, "crowding")
    with pytest.raises(SelectionError):
        rank_and_truncate(pts, 3, "crowding")
    with pytest.raises(SelectionError):
        rank_and_truncate(pts, 1, "lexicographic")
    assert set(RANKING_STRATEGIES) == {"crowding", "epsnet"}


def test_rank_and_truncate_selection_grows_with_k():
    # Growing k never drops a previously selected candidate.
    rng = np.random.default_rng(10)
    for strategy in RANKING_STRATEGIES:
        pts = rng.uniform(size=(12, 2))
        previous: set[int] = set()
        for k in range(1, 13):
            sel = rank_and_truncate(pts, k, strategy)
            assert len(sel) == k
            assert previous <= set(sel)
            previous = set(sel)
