from itertools import accumulate, groupby
from operator import lt
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from gaptile import assemble, flatten
from gaptile.assemble import plan, threshold, tile
from gaptile.blocks3d import Block, Covering
from gaptile.core import InternalInconsistency
from gaptile.flatten import flatten_blocks
from gaptile.layers import NiceLayer, layer_x1, layer_x2, layer_y1, layer_y2
from test_assemble import least_count2_split
from test_core import gap_multiset


# ---------- reference: the per-point flattening map ----------

class Stack(NamedTuple):
    """A stack copy by copy: (NiceLayer, Covering) pairs in stack order, and
    the multiplier d."""

    pairs: list
    d: int

    @property
    def runs(self):
        """The stack as flatten_blocks takes it: each stretch of equal
        consecutive pairs as one (pair, count) run."""
        return [(pair, len(list(copies))) for pair, copies in groupby(self.pairs)]

    @property
    def layers(self):
        return [layer for layer, _ in self.pairs]

    @property
    def height(self):
        return self.pairs[0][1].height

    @property
    def size(self):
        return sum(layer.size for layer in self.layers)


def rank_by_sorting(layers):
    """Independent rank oracle: enumerate one slice in (layer, row, column)
    order and number the cells 1..s."""
    cells = [(i, x, y) for i, layer in enumerate(layers)
             for (x, y) in layer.cells()]
    cells.sort(key=lambda c: (c[0], c[2], c[1]))
    return {cell: k for k, cell in enumerate(cells, start=1)}


def min_spacing(stack):
    """Least r for which phi is injective on the stack: 1 - d + d*s."""
    return 1 - stack.d + stack.d * stack.size


def phi(layers, height, d, r):
    """The flattening map d * rank + (z - 1) * r on every slab cell
    (layer index, x, y, z), with the rank from rank_by_sorting."""
    return {(i, x, y, z): d * k + (z - 1) * r
            for (i, x, y), k in rank_by_sorting(layers).items()
            for z in range(1, height + 1)}


def phi_image(stack, r):
    """The target set union_j (d * {1..s} + (j - 1) * r), computed directly."""
    return {stack.d * k + (z - 1) * r
            for z in range(1, stack.height + 1) for k in range(1, stack.size + 1)}


def flatten_with_phi(stack, r, shift):
    """Reference flattening: every point of every block through phi."""
    values = phi(stack.layers, stack.height, stack.d, r)
    return [tuple(sorted(values[(i, *point)] + shift for point in blk))
            for i, (_, cov) in enumerate(stack.pairs) for blk in cov.blocks]


class TestStack:
    def test_single_row_shape(self):
        values = phi([NiceLayer(2, 1, 0)], height=1, d=1, r=2)
        assert values[(0, 1, 1, 1)] == 1
        assert values[(0, 2, 1, 1)] == 2

    def test_second_slice_offsets_by_r(self):
        values = phi([NiceLayer(2, 1, 0)], height=2, d=1, r=3)
        assert values[(0, 1, 1, 2)] == 1 + 3

    def test_multiplier_spreads_ranks(self):
        # layers of sizes 3 and 2 sharing width 3; d=2 sends slice one to even numbers
        values = phi([NiceLayer(3, 1, 0), NiceLayer(3, 0, 2)], height=1, d=2, r=11)
        assert sorted(values.values()) == [2, 4, 6, 8, 10]

    def test_spacing_at_bound_flattens(self):
        stack = Stack([layer_x1(1, 2)], 2)
        assert min_spacing(stack) == 15
        assert len(flatten_blocks(stack.runs, stack.d, 15, 0)) == 40


BUILT_STACKS = [
    (Stack([layer_x1(1, 2)], 1), 56),
    (Stack([layer_y1(1, 1), layer_y2(1, 1)], 1), 48),
    (Stack([layer_y2(2, 3), layer_y1(2, 3), layer_y1(2, 3)], 2), 200),
]


class TestBijection:
    @pytest.mark.parametrize("stack,r", BUILT_STACKS)
    def test_rank_matches_sort_oracle(self, stack, r):
        # flatten_blocks ranks a cell by its layer's start plus NiceLayer.rank
        starts = [0, *accumulate(layer.size for layer in stack.layers)]
        oracle = rank_by_sorting(stack.layers)
        for (i, x, y), want in oracle.items():
            assert starts[i] + stack.layers[i].rank(x, y) == want

    @pytest.mark.parametrize("stack,r", BUILT_STACKS)
    def test_phi_bijective_onto_image(self, stack, r):
        values = list(phi(stack.layers, stack.height, stack.d, r).values())
        assert len(values) == len(set(values)) == stack.size * stack.height
        assert set(values) == phi_image(stack, r)

    def test_phi_strictly_increases_along_cell_order(self):
        stack, r = BUILT_STACKS[1]
        values = phi(stack.layers, stack.height, stack.d, r)
        # cell order: slice, layer, row, column
        order = sorted(values, key=lambda c: (c[3], c[0], c[2], c[1]))
        assert [values[cell] for cell in order] == sorted(values.values())


class TestFlattenBlocks:
    def test_wide_stack_parts(self):
        parts = flatten_blocks([(layer_x1(1, 2), 1)], 1, 56, 0)
        assert len(parts) == 40  # 8 cells x 20 slices / 4
        assert all(gap_multiset(part) == (1, 2, 56) for part in parts)

    def test_near_stack_parts(self):
        parts = flatten_blocks([(layer_y1(1, 1), 1), (layer_y2(1, 1), 1)], 1, 48, 0)
        assert len(parts) == 16
        assert all(gap_multiset(part) == (1, 1, 48) for part in parts)

    def test_parts_partition_the_image(self):
        stack = Stack([layer_y1(2, 3), layer_y2(2, 3)], 1)
        r = min_spacing(stack) + 7
        parts = flatten_blocks(stack.runs, stack.d, r, 0)
        covered = [x for part in parts for x in part]
        assert len(covered) == len(set(covered))
        assert set(covered) == phi_image(stack, r)

    def test_slice_step_is_exactly_r(self):
        # a block stepping e3 must land r apart; with d=1 and a choice of r
        # distinct from every in-slice gap, each part shows r exactly once
        stack = Stack([layer_x1(1, 3)], 1)
        r = min_spacing(stack) + 1
        for part in flatten_blocks(stack.runs, stack.d, r, 0):
            gaps = gap_multiset(part)
            assert gaps.count(r) == 1

    def test_each_nonempty_run_mapped_once(self, monkeypatch):
        calls = []
        pattern = flatten._pattern

        def counted(layer, cov, d, r):
            calls.append(layer)
            return pattern(layer, cov, d, r)

        x1, x2 = layer_x1(1, 2), layer_x2(1, 2)
        monkeypatch.setattr(flatten, "_pattern", counted)
        parts = flatten_blocks([(x1, 250), (x2, 0), (x2, 250), (x1, 0)], 1, 250 * (8 + 9), 0)
        assert calls == [x1[0], x2[0]]
        assert len(parts) == 250 * (40 + 45)


def _stack_12_18():
    params = plan(12, 18, 2016)
    count1, count2 = least_count2_split(2016 // params.d, params.n1, params.n2)
    stack = Stack([params.layer1] * count1 + [params.layer2] * count2, params.d)
    return stack, 2016, params.p // params.d, params.q // params.d


# (stack, r, p, q): p and q are the reduced strides its blocks flatten to
REPEATED_STACKS = [
    # big branch, d = 1: both wide layers, one repeated
    (Stack([layer_x1(1, 3), layer_x2(1, 3), layer_x1(1, 3)], 1), 400, 1, 3),
    # small branch, d = 1: both near layers, one repeated
    (Stack([layer_y1(2, 3), layer_y2(2, 3), layer_y1(2, 3)], 1), 900, 2, 3),
    # small branch, d = 6: the stack tile(12, 18, 2016) flattens
    _stack_12_18(),
]


class TestFlattenOnceReference:
    @pytest.mark.parametrize("shift", [0, 5])
    @pytest.mark.parametrize("stack,r,p,q", REPEATED_STACKS)
    def test_matches_per_point_phi(self, stack, r, p, q, shift):
        assert len(set(stack.layers)) < len(stack.layers)
        got = sorted(flatten_blocks(stack.runs, stack.d, r, shift))
        assert got == sorted(flatten_with_phi(stack, r, shift))
        # the gaps come from the blocks; the reduced strides p, q predict them
        assert {gap_multiset(part) for part in got} == \
            {tuple(sorted((stack.d * p, stack.d * q, r)))}

    @pytest.mark.parametrize("shift", [0, 5])
    @pytest.mark.parametrize("stack,r,p,q", REPEATED_STACKS)
    def test_parts_come_out_increasing(self, stack, r, p, q, shift):
        # by slice, then copy in stack order, then least element in the copy
        parts = flatten_blocks(stack.runs, stack.d, r, shift)
        assert all(map(lt, parts, parts[1:]))
        assert all(map(lt, map(min, parts), map(min, parts[1:])))

    def test_wrong_gaps_raise_internal_inconsistency(self, monkeypatch):
        # the stack step checks nothing; a layer whose first block is a unit
        # square (gaps {1, 1, 1}, not {1, 2, r}) is caught by tile()'s verifier
        def squared_x1(p, q):
            layer, cov = layer_x1(p, q)
            square = Block(((1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)))
            return layer, Covering(cov.cells, cov.height, (square,) + cov.blocks[1:],
                                   cov.family)

        monkeypatch.setattr(assemble, "layer_x1", squared_x1)
        message = r"^constructed tiling failed, reject: disjointness \(witness 4\)$"
        with pytest.raises(InternalInconsistency, match=message):
            tile(1, 2, 56)


# plan()'s layers in the big regime, the small one with d = 1, and with d > 1
RUN_PLANS = [plan(p, q, threshold(p, q)) for p, q in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 6)]]


@st.composite
def run_stacks(draw):
    """1-4 runs of a plan's two layers, 0-4 copies each, so runs may be
    empty and one pair may come back in a later run; a shift in 0..d."""
    params = draw(st.sampled_from(RUN_PLANS))
    layers = {1: params.layer1, 2: params.layer2}
    runs = draw(st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(0, 4)),
                         min_size=1, max_size=4))
    return params.d, [(layers[i], count) for i, count in runs], draw(st.integers(0, params.d))


class TestRuns:
    @settings(max_examples=100, deadline=None)
    @given(run_stacks())
    def test_matches_per_point_phi(self, case):
        d, runs, shift = case
        stack = Stack([pair for pair, count in runs for _ in range(count)], d)
        assume(stack.pairs)
        r = min_spacing(stack)
        with mock.patch.object(flatten, "_pattern", wraps=flatten._pattern) as pattern:
            parts = flatten_blocks(runs, d, r, shift)
        assert parts == sorted(flatten_with_phi(stack, r, shift))
        assert all(map(lt, map(min, parts), map(min, parts[1:])))
        assert [call.args for call in pattern.call_args_list] == \
            [(*pair, d, r) for pair, count in runs if count]
