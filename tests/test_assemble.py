import math
import sys
from operator import lt

import pytest
from hypothesis import given, settings, strategies as st

from gaptile import assemble, flatten
from gaptile.assemble import build_T, plan, threshold, tile
from gaptile.blocks3d import Covering
from gaptile.core import GapSequence, InternalInconsistency, UnsupportedParameters, \
    Verdict, verify_tiling
from gaptile.flatten import flatten_blocks
from gaptile.layers import layer_x1, layer_x2, layer_y1, layer_y2
from test_core import gap_multiset


def stacked_twice(cov):
    """The covering with a copy of itself on top: same cells, twice the height."""
    lifted = tuple(tuple((x, y, z + cov.height) for x, y, z in blk) for blk in cov.blocks)
    return Covering(cov.cells, 2 * cov.height, cov.blocks + lifted, cov.family)


def brute_decompositions(s, n1, n2):
    return {(a, b) for b in range(s // n2 + 1) for a in [(s - b * n2) // n1]
            if a * n1 + b * n2 == s}


def least_count2_split(s, n1, n2):
    """Reference: the split s = count1 * n1 + count2 * n2 with nonnegative
    counts and the least count2, by brute force."""
    return min(brute_decompositions(s, n1, n2), key=lambda split: split[1])


class TestThreshold:
    def test_wide_regime_values(self):
        # q >= 2p: 4q(4q - 1), independent of p
        assert threshold(1, 2) == 4 * 2 * 7 == 56
        assert threshold(1, 3) == 132
        assert threshold(2, 5) == 380

    def test_near_regime_values(self):
        # q <= 2p: (5p + 4q - d)(4p + 3q - d) / d
        assert threshold(1, 1) == 8 * 6 == 48
        assert threshold(2, 3) == 21 * 16 == 336
        assert threshold(2, 2) == 16 * 12 // 2 == 96

    def test_boundary_takes_smaller_bound(self):
        # q = 2p: both regimes apply
        assert threshold(3, 6) == min(4 * 6 * 23, (39 - 3) * (30 - 3) // 3) == 324
        assert threshold(1, 2) == min(56, 8 * 13)

    def test_symmetric_in_p_q(self):
        assert threshold(5, 3) == threshold(3, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            threshold(0, 3)


BAD_GAPS = [1.5, 56.5, True, "2", 0]


class TestGapsMustBePositiveIntegers:
    """threshold, plan and tile check their gaps first, by GapSequence's rule
    and with its message."""

    @pytest.mark.parametrize("bad", BAD_GAPS, ids=repr)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_threshold(self, slot, bad):
        gaps = [1, 2]
        gaps[slot] = bad
        with pytest.raises(ValueError, match="gaps must be positive integers"):
            threshold(*gaps)

    @pytest.mark.parametrize("bad", BAD_GAPS, ids=repr)
    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("build", [plan, tile])
    def test_plan_and_tile_build_no_layer(self, monkeypatch, build, slot, bad):
        def no_layer(p, q):
            raise AssertionError("a layer was built for bad gaps")

        for name in ("layer_x1", "layer_x2", "layer_y1", "layer_y2"):
            monkeypatch.setattr(assemble, name, no_layer)
        gaps = [1, 2, 56]
        gaps[slot] = bad
        with pytest.raises(ValueError, match="gaps must be positive integers"):
            build(*gaps)


class TestPlan:
    def test_wide_branch(self):
        params = plan(1, 4, 240)
        assert params.branch == "big"
        assert (params.d, params.n1, params.n2) == (1, 16, 17)
        assert params.height == 20
        assert (params.n1 - 1) * (params.n2 - 1) == 15 * 16 == threshold(1, 4)
        assert params.layer1[0].a == 4  # width q at strides (p, q)

    def test_near_branch_reduces_by_gcd(self):
        params = plan(2, 4, 216)
        assert params.branch == "small"
        assert (params.d, params.n1, params.n2) == (2, 13, 10)
        assert (params.p // params.d, params.q // params.d) == (1, 2)
        assert params.layer1[0].a == params.layer2[0].a == 3  # width p/d + q/d
        assert params.height == 4

    def test_boundary_prefers_smaller_threshold(self):
        assert plan(1, 2, 56).branch == "big"
        assert plan(2, 4, 216).branch == "small"

    def test_below_threshold(self):
        with pytest.raises(UnsupportedParameters) as info:
            plan(1, 2, 55)
        assert info.value.threshold == 56

    def test_normalizes_argument_order(self):
        assert plan(4, 2, 216).branch == "small"

    def test_layer_heights_must_agree(self, monkeypatch):
        def tall_y2(p, q):
            layer, cov = layer_y2(p, q)
            return layer, stacked_twice(cov)

        monkeypatch.setattr(assemble, "layer_y2", tall_y2)
        with pytest.raises(InternalInconsistency, match="heights 4, 8"):
            plan(1, 1, 48)

    def test_layer_sizes_must_match_the_regime(self, monkeypatch):
        monkeypatch.setattr(assemble, "layer_y2", layer_y1)
        with pytest.raises(InternalInconsistency, match="layer sizes 9, 7"):
            plan(1, 1, 48)


def two_function_reference(p, q):
    """Reference: the threshold and the plan fields as threshold() and plan()
    chose the regime separately, before one regime table drove both."""
    p, q = sorted((p, q))
    bound_big = 4 * q * (4 * q - 1)
    g = math.gcd(p, q)
    bound_small = (5 * p + 4 * q - g) * (4 * p + 3 * q - g) // g
    bounds = []
    if q >= 2 * p:
        bounds.append(bound_big)
    if q <= 2 * p:
        bounds.append(bound_small)
    use_big = q > 2 * p or (q == 2 * p and bound_big <= bound_small)
    if use_big:
        branch, d = "big", 1
        r1, r2 = 4 * q, 4 * q + 1
        stride1, stride2 = p, q
        layer1, layer2 = layer_x1(p, q), layer_x2(p, q)
    else:
        branch, d = "small", g
        r1, r2 = 5 * p + 4 * q, 4 * p + 3 * q
        stride1, stride2 = p // d, q // d
        layer1, layer2 = layer_y1(stride1, stride2), layer_y2(stride1, stride2)
    n1, n2 = r1 // d, r2 // d
    return min(bounds), {
        "branch": branch, "d": d, "n1": n1, "n2": n2,
        "height": math.lcm(layer1[1].height, layer2[1].height),
        "layer1": layer1, "layer2": layer2}


def check_against_reference(p, q):
    r0, want = two_function_reference(p, q)
    assert threshold(p, q) == r0
    params = plan(p, q, r0)
    assert {name: getattr(params, name) for name in want} == want
    with pytest.raises(UnsupportedParameters) as info:
        plan(p, q, r0 - 1)
    assert info.value.threshold == r0


class TestRegimeTable:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60))
    def test_matches_two_function_reference(self, p, q):
        check_against_reference(p, q)

    @pytest.mark.parametrize("p", range(1, 31))
    def test_every_tie_matches_reference(self, p):
        # q = 2p: both regimes apply; big wins only at p = 1
        check_against_reference(p, 2 * p)


class TestBuildT:
    def test_covers_initial_interval_without_shift(self):
        params = plan(1, 1, 48)
        parts = build_T(params, 48, 0)
        assert len(parts) == 48  # l * s / 4 = 4 * 48 / 4
        covered = sorted(x for part in parts for x in part)
        assert covered == list(range(1, 193))

    def test_shift_translates_everything(self):
        params = plan(1, 1, 48)
        base = build_T(params, 48, 0)
        shifted = build_T(params, 48, 5)
        assert shifted == [tuple(x + 5 for x in p) for p in base]

    @pytest.mark.parametrize("p,q", [
        (1, 1), (2, 3), (1, 2), (1, 3), (2, 5),  # d = 1, both regimes
        (2, 2), (2, 4), (3, 6), (12, 18),        # small regime, d > 1
    ])
    def test_matches_least_count2_reference(self, p, q):
        # n1 + 1 consecutive s at each end of the window meet every residue
        # of count2 mod n1; below n1 * n2 the split is unique, above
        # s_min + n1 * n2 there are at least two, and the least count2 wins
        params = plan(p, q, threshold(p, q))
        d, n1, n2 = params.d, params.n1, params.n2
        s_min = (n1 - 1) * (n2 - 1)
        s_max = s_min + n1 * n2 + n1
        r = d * s_max
        params = plan(p, q, r)
        for s in [*range(s_min, s_min + n1 + 1), *range(s_max - n1, s_max + 1)]:
            count1, count2 = least_count2_split(s, n1, n2)
            runs = [(params.layer1, count1), (params.layer2, count2)]
            assert build_T(params, s, s % 3) == flatten_blocks(runs, d, r, s % 3)

    @pytest.mark.parametrize("shift", range(1, 7))
    def test_parts_come_out_increasing(self, shift):
        # tile(12, 18, 2016) builds d = 6 translates, one per shift
        params = plan(12, 18, 2016)
        assert params.d == 6
        parts = build_T(params, 2016 // params.d, shift)
        assert all(map(lt, parts, parts[1:]))

    @pytest.mark.parametrize("p,q", [(1, 2), (10, 30), (3, 60)])
    def test_empty_run_is_not_mapped(self, monkeypatch, p, q):
        # at r = threshold these slice sizes split with count2 = 0, so
        # tile() maps layer1 once and layer2 never
        calls = []
        pattern = flatten._pattern

        def counted(layer, cov, d, r):
            calls.append(layer)
            return pattern(layer, cov, d, r)

        params = plan(p, q, threshold(p, q))
        assert params.d == 1
        assert least_count2_split(params.r, params.n1, params.n2)[1] == 0
        monkeypatch.setattr(flatten, "_pattern", counted)
        tile(p, q, params.r)
        assert calls == [params.layer1[0]]

    def test_stack_slice_size_is_s(self):
        params = plan(1, 1, 50)
        covered = [x for part in build_T(params, 49, 0) for x in part]
        assert len(covered) == len(set(covered)) == 49 * params.height
        assert set(covered) == {k + (j - 1) * 50
                                for j in range(1, params.height + 1) for k in range(1, 50)}


class TestStackPreconditions:
    """build_T and flatten_blocks check nothing; what they assume, plan()'s
    layers and tile()'s choice of s must guarantee."""

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3), (2, 4), (12, 18)])
    def test_plan_layers_form_one_stack(self, p, q):
        params = plan(p, q, threshold(p, q))
        (layer1, cov1), (layer2, cov2) = params.layer1, params.layer2
        assert layer1.a == layer2.a
        assert cov1.height == cov2.height == params.height
        assert set(cov1.family) == set(cov2.family)
        for layer, cov in (params.layer1, params.layer2):
            assert cov.cells == layer.cells()
            assert all(1 <= z <= cov.height for blk in cov.blocks for _, _, z in blk)

    @pytest.mark.parametrize("p,q,k", [
        (1, 2, 0), (1, 3, 1),               # big regime, d = 1
        (2, 3, 0), (2, 2, 1), (12, 18, 5),  # small regime, r mod d != 0 for d > 1
    ])
    def test_tile_meets_the_stack_step_preconditions(self, monkeypatch, p, q, k):
        # r = threshold + k; every s tile() builds lies in the good window,
        # and every stack it flattens is two runs, count1 copies of layer1
        # then count2 of layer2, s cells per slice, of one width, height and
        # family, each covering on its own layer's cells, with r at least
        # the injectivity bound
        r = threshold(p, q) + k
        params = plan(p, q, r)
        d, n1, n2 = params.d, params.n1, params.n2
        seen_s, seen_stacks = [], []
        build, flatten = assemble.build_T, assemble.flatten_blocks

        def recording_build(params, s, shift):
            seen_s.append(s)
            return build(params, s, shift)

        def recording_flatten(runs, d, r, shift):
            seen_stacks.append((list(runs), d, r))
            return flatten(runs, d, r, shift)

        monkeypatch.setattr(assemble, "build_T", recording_build)
        monkeypatch.setattr(assemble, "flatten_blocks", recording_flatten)
        tile(p, q, r)
        assert len(seen_s) == len(seen_stacks) == d
        assert sorted(seen_s) == sorted(r // d + (i <= r % d) for i in range(1, d + 1))
        assert all((n1 - 1) * (n2 - 1) <= s <= (r - 1 + d) // d for s in seen_s)
        for s, (runs, stack_d, stack_r) in zip(seen_s, seen_stacks):
            assert (stack_d, stack_r) == (d, r) and d >= 1
            (pair1, count1), (pair2, count2) = runs
            assert (pair1, pair2) == (params.layer1, params.layer2)
            assert count1 >= 0 and count2 >= 0
            assert count1 * n1 + count2 * n2 == s > 0
            assert r >= 1 - d + d * s
            for layer, cov in (pair1, pair2):
                assert layer.a == pair1[0].a
                assert cov.height == pair1[1].height == params.height
                assert set(cov.family) == set(pair1[1].family)
                assert cov.cells == layer.cells()


class TestTile:
    @pytest.mark.parametrize("p,q,r,length", [
        (1, 1, 48, 192),     # near, d=1
        (1, 2, 56, 1120),    # wide boundary, l=20
        (2, 2, 96, 384),     # d=2
        (2, 3, 336, 1344),
    ])
    def test_verified_examples(self, p, q, r, length):
        tiling = tile(p, q, r)
        assert tiling.length == length
        assert verify_tiling(tiling, GapSequence((p, q, r)))

    def test_interval_endpoints(self):
        tiling = tile(3, 3, 144)  # d = 3
        assert (tiling.lo, tiling.hi) == (4, 4 * 144 + 3)

    def test_parts_sorted_by_least_element(self):
        tiling = tile(1, 1, 48)
        starts = [part[0] for part in tiling.parts]
        assert starts == sorted(starts)

    def test_translates_merge_into_sorted_parts(self):
        # d = 3: three increasing runs, one per translate, merged by the sort
        tiling = tile(3, 3, 144)
        assert all(map(lt, tiling.parts, tiling.parts[1:]))
        assert all(map(lt, map(min, tiling.parts), map(min, tiling.parts[1:])))

    def test_rejected_tiling_is_internal_inconsistency(self, monkeypatch):
        monkeypatch.setattr(assemble, "verify_tiling",
                            lambda tiling, gaps: Verdict(False, "gaps", 2))
        with pytest.raises(InternalInconsistency, match="reject: gaps"):
            tile(1, 1, 48)

    def test_below_threshold_raises(self):
        with pytest.raises(UnsupportedParameters):
            tile(1, 1, 47)

    def test_interval_longer_than_an_index_is_unsupported(self):
        with pytest.raises(UnsupportedParameters, match="sys.maxsize"):
            tile(1, 2, 10**22)
        with pytest.raises(UnsupportedParameters):
            tile(1, 2, sys.maxsize // 20 + 1)  # l = 20

    def test_index_bound_is_inclusive(self, monkeypatch):
        # tile(1, 2, 56) holds exactly 1120 integers
        monkeypatch.setattr(sys, "maxsize", 1120)
        assert tile(1, 2, 56).length == 1120
        monkeypatch.setattr(sys, "maxsize", 1119)
        with pytest.raises(UnsupportedParameters):
            tile(1, 2, 56)

    def test_gap_argument_order_irrelevant_for_p_q(self):
        assert tile(2, 1, 56) == tile(1, 2, 56)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_tiles_its_interval_by_set_check(self, p, q, data):
        # the stack step checks nothing, so this check shares no code with
        # verify_tiling: r runs over two periods d * n1 past the threshold,
        # every residue of r mod d among them
        params = plan(p, q, threshold(p, q))
        d, n1 = params.d, params.n1
        r = threshold(p, q) + data.draw(st.integers(0, 2 * d * n1 - 1), label="k")
        tiling = tile(p, q, r)
        assert (tiling.lo, tiling.hi) == (d + 1, params.height * r + d)
        assert sorted(x for part in tiling.parts for x in part) == \
            list(range(tiling.lo, tiling.hi + 1))
        assert all(gap_multiset(part) == tuple(sorted((p, q, r))) for part in tiling.parts)

    def test_remainder_interleaving(self):
        # r not divisible by d exercises the enlarged leading copies
        tiling = tile(2, 2, 97)
        assert verify_tiling(tiling, GapSequence((2, 2, 97)))
        assert (tiling.lo, tiling.hi) == (3, 4 * 97 + 2)


class TestQuadraticBound:
    def test_threshold_below_63_max_squared_small_grid(self):
        for p in range(1, 21):
            for q in range(1, 21):
                assert threshold(p, q) <= 63 * max(p, q) ** 2
