import pytest

from gaptile.assemble import build_stack, plan
from gaptile.blocks3d import Block, Covering
from gaptile.core import InternalInconsistency, gap_multiset
from gaptile.flatten import LayerStack, flatten_blocks, min_spacing, phi, phi_image
from gaptile.layers import NiceLayer, layer_x1, layer_x2, layer_y1, layer_y2


def rank_by_sorting(stack):
    """Independent rank oracle: enumerate one slice in (layer, row, column)
    order and number the cells 1..s."""
    cells = [(i, x, y) for i, layer in enumerate(stack.layers)
             for (x, y) in layer.cells()]
    cells.sort(key=lambda c: (c[0], c[2], c[1]))
    return {cell: k for k, cell in enumerate(cells, start=1)}


class TestStack:
    def test_single_row_shape(self):
        stack = LayerStack.from_shapes([NiceLayer(2, 1, 0)], height=1, d=1)
        assert phi(stack, (0, 1, 1, 1), 2) == 1
        assert phi(stack, (0, 2, 1, 1), 2) == 2

    def test_second_slice_offsets_by_r(self):
        stack = LayerStack.from_shapes([NiceLayer(2, 1, 0)], height=2, d=1)
        assert phi(stack, (0, 1, 1, 2), 3) == 1 + 3

    def test_multiplier_spreads_ranks(self):
        # layers of sizes 3 and 2 sharing width 3; d=2 sends slice one to even numbers
        stack = LayerStack.from_shapes(
            [NiceLayer(3, 1, 0), NiceLayer(3, 0, 2)], height=1, d=2)
        values = sorted(phi(stack, cell, 11) for cell in stack.cells())
        assert values == [2, 4, 6, 8, 10]

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError):
            LayerStack.from_shapes([NiceLayer(3, 1, 0), NiceLayer(2, 1, 0)], 1, 1)

    def test_spacing_below_bound_rejected(self):
        stack = LayerStack.from_shapes([NiceLayer(3, 1, 0)], height=2, d=2)
        assert min_spacing(stack) == 5
        assert phi(stack, (0, 1, 1, 1), 5) == 2
        with pytest.raises(ValueError):
            phi(stack, (0, 1, 1, 1), 4)

    def test_cell_outside_stack_rejected(self):
        stack = LayerStack.from_shapes([NiceLayer(3, 1, 0)], height=2, d=1)
        with pytest.raises(ValueError):
            phi(stack, (1, 1, 1, 1), 99)
        with pytest.raises(ValueError):
            phi(stack, (0, 1, 1, 3), 99)

    def test_build_lifts_heights(self):
        stack = LayerStack.build([layer_y1(1, 1), layer_y2(1, 1)], d=1)
        assert stack.height == 4
        assert stack.sizes == (9, 7)
        assert stack.size == 16


BUILT_STACKS = [
    (LayerStack.build([layer_x1(1, 2)], 1), 56),
    (LayerStack.build([layer_y1(1, 1), layer_y2(1, 1)], 1), 48),
    (LayerStack.build([layer_y2(2, 3), layer_y1(2, 3), layer_y1(2, 3)], 2), 200),
]


class TestBijection:
    @pytest.mark.parametrize("stack,r", BUILT_STACKS)
    def test_rank_matches_sort_oracle(self, stack, r):
        oracle = rank_by_sorting(stack)
        for (i, x, y), want in oracle.items():
            assert stack.rank(i, x, y) == want

    @pytest.mark.parametrize("stack,r", BUILT_STACKS)
    def test_phi_bijective_onto_image(self, stack, r):
        values = [phi(stack, cell, r) for cell in stack.cells()]
        assert len(values) == len(set(values)) == stack.size * stack.height
        assert set(values) == phi_image(stack, r)

    def test_phi_strictly_increases_along_cell_order(self):
        stack, r = BUILT_STACKS[1]
        values = [phi(stack, cell, r) for cell in stack.cells()]
        assert values == sorted(values)


class TestFlattenBlocks:
    def test_wide_stack_parts(self):
        stack = LayerStack.build([layer_x1(1, 2)], 1)
        parts = flatten_blocks(stack, 56, 1, 2)
        assert len(parts) == 40  # 8 cells x 20 slices / 4
        assert all(gap_multiset(part) == (1, 2, 56) for part in parts)

    def test_near_stack_parts(self):
        stack = LayerStack.build([layer_y1(1, 1), layer_y2(1, 1)], 1)
        parts = flatten_blocks(stack, 48, 1, 1)
        assert len(parts) == 16
        assert all(gap_multiset(part) == (1, 1, 48) for part in parts)

    def test_parts_partition_the_image(self):
        stack = LayerStack.build([layer_y1(2, 3), layer_y2(2, 3)], 1)
        r = min_spacing(stack) + 7
        parts = flatten_blocks(stack, r, 2, 3)
        covered = [x for part in parts for x in part]
        assert len(covered) == len(set(covered))
        assert set(covered) == phi_image(stack, r)

    def test_slice_step_is_exactly_r(self):
        # a block stepping e3 must land r apart; with d=1 and a choice of r
        # distinct from every in-slice gap, each part shows r exactly once
        stack = LayerStack.build([layer_x1(1, 3)], 1)
        r = min_spacing(stack) + 1
        for part in flatten_blocks(stack, r, 1, 3):
            gaps = gap_multiset(part)
            assert gaps.count(r) == 1

    def test_stride_mismatch_rejected(self):
        stack = LayerStack.build([layer_x1(1, 2)], 1)
        with pytest.raises(ValueError):
            flatten_blocks(stack, 56, 2, 2)
        near = LayerStack.build([layer_y1(2, 3)], 1)
        with pytest.raises(ValueError):
            flatten_blocks(near, 1000, 2, 4)

    def test_bare_stack_cannot_flatten(self):
        stack = LayerStack.from_shapes([NiceLayer(2, 1, 0)], 1, 1)
        with pytest.raises(ValueError):
            flatten_blocks(stack, 10, 1, 2)


def flatten_with_phi(stack, r, shift):
    """Reference flattening: every point of every block through phi."""
    return [tuple(sorted(phi(stack, (i, x, y, z), r) + shift for x, y, z in blk))
            for i, cov in enumerate(stack.coverings) for blk in cov.blocks]


def _stack_12_18():
    params = plan(12, 18, 2016)
    return build_stack(params, 2016 // params.d), 2016, params.stride1, params.stride2


REPEATED_STACKS = [
    # big branch, d = 1: both wide layers, one repeated
    (LayerStack.build([layer_x1(1, 3), layer_x2(1, 3), layer_x1(1, 3)], 1), 400, 1, 3),
    # small branch, d = 1: both near layers, one repeated
    (LayerStack.build([layer_y1(2, 3), layer_y2(2, 3), layer_y1(2, 3)], 1), 900, 2, 3),
    # small branch, d = 6: the stack tile(12, 18, 2016) flattens
    _stack_12_18(),
]


class TestFlattenOnceReference:
    @pytest.mark.parametrize("shift", [0, 5])
    @pytest.mark.parametrize("stack,r,p,q", REPEATED_STACKS)
    def test_matches_per_point_phi(self, stack, r, p, q, shift):
        assert len(set(stack.layers)) < len(stack.layers)
        got = sorted(flatten_blocks(stack, r, p, q, shift))
        assert got == sorted(flatten_with_phi(stack, r, shift))

    def test_spacing_below_bound_rejected(self):
        stack = LayerStack.build([layer_x1(1, 2)], 1)
        with pytest.raises(ValueError):
            flatten_blocks(stack, min_spacing(stack) - 1, 1, 2)

    def test_wrong_gaps_raise_internal_inconsistency(self):
        layer, cov = layer_x1(1, 2)
        # a unit square in one slice has gaps {1, 1, 1}, not {1, 2, r}
        square = Block(((1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)))
        bad = Covering(cov.cells, cov.height, (square,) + cov.blocks[1:], cov.family)
        stack = LayerStack((layer, layer), (cov, bad), cov.height, 1)
        with pytest.raises(InternalInconsistency):
            flatten_blocks(stack, 100, 1, 2)
