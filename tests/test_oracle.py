import time
import tracemalloc
from itertools import combinations

import pytest

from gaptile import oracle
from gaptile.blocks3d import axis_family, base_covering, skew_family, verify_covering
from gaptile.core import GapSequence, InternalInconsistency, Tiling, verify_tiling
from gaptile.oracle import (
    BUDGET_EXHAUSTED, SearchBudget, min_interval, solve_covering, solve_interval,
)
from test_core import gap_multiset


def brute_interval_tilable(gaps, n):
    """Independent existence check: try every combination of candidate parts."""
    size = gaps.set_size
    if n % size:
        return False
    candidates = [c for c in combinations(range(1, n + 1), size)
                  if tuple(sorted(b - a for a, b in zip(c, c[1:]))) == gaps.gaps]
    for chosen in combinations(candidates, n // size):
        flat = [x for part in chosen for x in part]
        if len(set(flat)) == n:
            return True
    return False


class TestSolveInterval:
    def test_unit_gaps(self):
        result = solve_interval(GapSequence.of(1, 1, 1), 4)
        assert isinstance(result, Tiling)
        assert result.parts[0] == (1, 2, 3, 4)

    def test_non_divisible_length(self):
        assert solve_interval(GapSequence.of(1, 1, 1), 6) is None

    def test_impossible_even_when_divisible(self):
        # a part with gaps {1,1,2} spans 5 integers, so [1,4] cannot host one
        assert solve_interval(GapSequence.of(1, 1, 2), 4) is None

    def test_found_tilings_verify(self):
        for gaps, n in [((1, 1, 2), 8), ((1, 2, 3), 24), ((2, 2), 6)]:
            g = GapSequence(gaps)
            result = solve_interval(g, n)
            if isinstance(result, Tiling):
                assert verify_tiling(result, g)
                assert all(gap_multiset(part) == g.gaps for part in result.parts)

    @pytest.mark.parametrize("gaps,n", [
        ((1, 1, 1), 8), ((1, 1, 2), 8), ((1, 1, 2), 12), ((1, 3), 6), ((2, 2), 6),
    ])
    def test_agrees_with_brute_force(self, gaps, n):
        g = GapSequence(gaps)
        result = solve_interval(g, n)
        assert result is not BUDGET_EXHAUSTED
        assert isinstance(result, Tiling) == brute_interval_tilable(g, n)

    def test_deterministic(self):
        g = GapSequence.of(1, 2, 3)
        a = solve_interval(g, 24)
        b = solve_interval(g, 24)
        assert a == b

    def test_budget_exhausted_repr(self):
        assert repr(BUDGET_EXHAUSTED) == "BUDGET_EXHAUSTED"

    def test_budget_exhaustion_is_distinct(self):
        out = solve_interval(GapSequence.of(1, 2, 3), 24, SearchBudget(2))
        assert out is BUDGET_EXHAUSTED

    def test_bad_length(self):
        with pytest.raises(ValueError):
            solve_interval(GapSequence.of(1, 1, 1), 0)

    def test_deep_instance_does_not_recurse(self):
        # 2000 parts deep, twice the default recursion limit
        g = GapSequence.of(1, 1, 1)
        result = solve_interval(g, 8000)
        assert isinstance(result, Tiling)
        assert verify_tiling(result, g)

    @pytest.mark.parametrize("gaps,n,nodes,found", [
        ((1, 2, 3), 24, 18, True), ((1, 1, 2), 8, 2, True), ((1, 3), 6, 3, True),
        ((1, 1, 2), 12, 5, False), ((3, 4, 5), 24, 100, False),
    ])
    def test_node_count(self, gaps, n, nodes, found):
        # the least budget that settles each instance, as the recursive search counted it
        g = GapSequence(gaps)
        assert solve_interval(g, n, SearchBudget(nodes - 1)) is BUDGET_EXHAUSTED
        assert isinstance(solve_interval(g, n, SearchBudget(nodes)), Tiling) == found


class TestMinInterval:
    def test_unit_gaps(self):
        n, tiling = min_interval(GapSequence.of(1, 1, 1), 12)
        assert n == 4
        assert verify_tiling(tiling, GapSequence.of(1, 1, 1))

    def test_three_sets(self):
        n, tiling = min_interval(GapSequence.of(1, 1), 12)
        assert n == 3
        assert verify_tiling(tiling, GapSequence.of(1, 1))

    def test_none_when_span_exceeds_max(self):
        # any part with gaps {1,2,56} spans 60 integers, out of reach below n=60
        assert min_interval(GapSequence.of(1, 2, 56), 16) is None

    def test_exhausted_budget_proves_nothing(self):
        # [1, 36] tiles, but one node per length settles none of the lengths
        # that need more, so no length is found and none is ruled out
        g = GapSequence.of(3, 4, 12)
        assert min_interval(g, 120, SearchBudget(1)) is BUDGET_EXHAUSTED
        n, tiling = min_interval(g, 120)
        assert n == 36
        assert verify_tiling(tiling, g)

    def test_none_only_when_every_length_is_settled(self):
        # one node settles [1, 4] (no part fits); [1, 8] needs more
        g = GapSequence.of(1, 1, 2)
        assert min_interval(g, 4, SearchBudget(1)) is None
        assert min_interval(g, 8, SearchBudget(1)) is BUDGET_EXHAUSTED

    @pytest.mark.parametrize("gaps,budget,least", [
        ((1, 3, 4), 5, 12), ((2, 5, 13), 50, 32), ((1, 4, 6), 20, 16)])
    def test_exhausted_length_stops_the_search(self, gaps, budget, least):
        # under these budgets the search of the least length runs out, and a
        # longer length (16, 56 and 48) is found; it is not the least
        g = GapSequence(gaps)
        assert min_interval(g, 60, SearchBudget(budget)) is BUDGET_EXHAUSTED
        n, tiling = min_interval(g, 60)
        assert n == least
        assert verify_tiling(tiling, g)


class TestSolveCovering:
    def test_covers_catalog_shape(self):
        base = base_covering("S1")
        found = solve_covering(base.cells, base.height, base.family)
        assert found is not None and found is not BUDGET_EXHAUSTED
        assert verify_covering(found)
        assert found.cells == base.cells

    def test_skew_shape(self):
        base = base_covering("T5")
        found = solve_covering(base.cells, base.height, base.family)
        assert verify_covering(found)

    def test_none_when_cardinality_is_wrong(self):
        # 3 cells at height 1 gives 3 points, not a multiple of 4
        assert solve_covering({(1, 1), (2, 1), (3, 1)}, 1, axis_family(1)) is None

    def test_none_when_exhaustive_search_fails(self):
        # a 2x2 slab of height 1 has no e3 room and no room for e2+e1 walks
        assert solve_covering({(1, 1), (2, 1), (1, 2), (2, 2)}, 1, axis_family(1)) is None

    def test_two_member_family(self):
        cells = {(1, 1), (1, 2), (2, 1), (3, 1)}
        found = solve_covering(cells, 2, skew_family(1, 2))
        if found is not None and found is not BUDGET_EXHAUSTED:
            assert verify_covering(found)

    @pytest.mark.parametrize("name,nodes", [("S1", 10), ("T5", 4), ("S4_2x4", 2596)])
    def test_node_count(self, name, nodes):
        # the least budget that finds each catalog covering, as the recursive search counted it
        base = base_covering(name)
        assert solve_covering(base.cells, base.height, base.family,
                              SearchBudget(nodes - 1)) is BUDGET_EXHAUSTED
        found = solve_covering(base.cells, base.height, base.family, SearchBudget(nodes))
        assert verify_covering(found)

    def test_node_cost_does_not_follow_the_slab(self):
        # 1500 nodes on a 300,000-point slab; taking the least uncovered
        # point over the whole slab at every node took 82 s (Python 3.11,
        # one core of a Xeon VM), scanning forward from the latest anchor 0.4 s
        start = time.perf_counter()
        out = solve_covering([(1, 1), (1, 2), (2, 2)], 100_000, axis_family(1),
                             SearchBudget(1500))
        assert out is BUDGET_EXHAUSTED
        assert time.perf_counter() - start < 10

    def test_memory_does_not_follow_the_slab(self):
        # a slab of 3 * 10**9 points; memory follows the 1500 nodes, not the slab
        tracemalloc.start()
        try:
            out = solve_covering([(1, 1), (1, 2), (2, 2)], 10**9, axis_family(1),
                                 SearchBudget(1500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is BUDGET_EXHAUSTED
        assert peak < 20_000_000

    def test_deterministic(self):
        base = base_covering("T4")
        a = solve_covering(base.cells, base.height, base.family)
        b = solve_covering(base.cells, base.height, base.family)
        assert a == b

    def test_revisiting_walk_is_no_block(self):
        # every ordering of (e1, e1, -e1) visits a point twice, so the family
        # has no block and no covering exists; a placed walk of three points
        # would build a covering the verifier rejects
        family = (((1, 0, 0), (1, 0, 0), (-1, 0, 0)),)
        assert solve_covering({(1, 1), (2, 1), (3, 1), (4, 1)}, 3, family) is None


class TestSharedSearch:
    """What both public searches owe their caller, whatever _exact_cover does."""

    SEARCHES = {
        "solve_interval": lambda: solve_interval(GapSequence.of(1, 1, 1), 8),
        "min_interval": lambda: min_interval(GapSequence.of(1, 1, 1), 12),
        "solve_covering": lambda: solve_covering(base_covering("S1").cells, 4, axis_family(1)),
    }

    @pytest.mark.parametrize("name", SEARCHES)
    def test_altered_placement_is_internal_inconsistency(self, monkeypatch, name):
        # the first placement found is returned shifted by one index: the
        # verifier of each public search must reject what that builds
        real = oracle._exact_cover

        def altered(size, anchored, budget):
            found = real(size, anchored, budget)
            found[0] = tuple(i + 1 for i in found[0])
            return found

        monkeypatch.setattr(oracle, "_exact_cover", altered)
        with pytest.raises(InternalInconsistency):
            self.SEARCHES[name]()

    @pytest.mark.parametrize("call", [
        lambda: SearchBudget(2.5),
        lambda: SearchBudget(True),
        lambda: SearchBudget("5"),
        lambda: solve_interval(GapSequence.of(1, 1, 1), 8.0),
        lambda: solve_interval(GapSequence.of(1, 1, 1), True),
        lambda: min_interval(GapSequence.of(1, 1, 1), 12.5),
        lambda: min_interval(GapSequence.of(1, 1, 1), True),
        lambda: solve_covering(base_covering("S1").cells, 4.0, base_covering("S1").family),
        lambda: solve_covering(base_covering("S1").cells, True, base_covering("S1").family),
        lambda: solve_covering([(1, 1), ("a", 1)], 4, axis_family(1)),
        lambda: solve_covering([(1, 1), (1, 2, 3)], 4, axis_family(1)),
        lambda: solve_covering(base_covering("S1").cells, 4, [((1, 0), (0, 1), (0, 0))]),
        lambda: solve_covering(base_covering("S1").cells, 4, ()),
    ], ids=["budget-float", "budget-bool", "budget-str", "n-float", "n-bool",
            "n_max-float", "n_max-bool", "height-float", "height-bool", "str-cell",
            "3d-cell", "planar-member", "empty-family"])
    def test_malformed_input_is_value_error_before_any_search(self, monkeypatch, call):
        def no_search(*args):
            raise AssertionError("the search ran on malformed input")

        monkeypatch.setattr(oracle, "_exact_cover", no_search)
        with pytest.raises(ValueError):
            call()
