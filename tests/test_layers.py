import math

import pytest

from gaptile import blocks3d, layers
from gaptile.blocks3d import Covering, axis_family, skew_family, verify_covering
from gaptile.core import InternalInconsistency
from gaptile.layers import NiceLayer, layer_x1, layer_x2, layer_y1, layer_y2


def box(w, h):
    return frozenset((x, y) for x in range(1, w + 1) for y in range(1, h + 1))


def e1_strides(covering):
    """Column strides actually used by the blocks: x-extent of steps with dy=dz=0."""
    strides = set()
    for blk in covering.blocks:
        for a, b in zip(blk, blk[1:]):
            dx, dy, dz = (b[i] - a[i] for i in range(3))
            if dy == 0 and dz == 0:
                strides.add(abs(dx))
    return strides


class TestNiceLayer:
    def test_cells_and_size(self):
        layer = NiceLayer(3, 2, 1)
        assert layer.size == 7
        assert layer.cells() == box(3, 2) | {(1, 3)}

    def test_rank_is_row_major(self):
        layer = NiceLayer(3, 2, 2)
        ordered = sorted(layer.cells(), key=lambda c: (c[1], c[0]))
        assert [layer.rank(x, y) for x, y in ordered] == list(range(1, 9))

    def test_rank_outside(self):
        layer = NiceLayer(3, 2, 1)
        with pytest.raises(ValueError):
            layer.rank(2, 3)

    @pytest.mark.parametrize("shape", [(3, 2, 1), (3, 2, 0), (3, 2, 4), (1, 0, 1), (2, 3, 3)])
    def test_rank_rejects_every_cell_outside(self, shape):
        # rank is the one per-point guard of tile()'s stack step
        layer = NiceLayer(*shape)
        cells = layer.cells()
        for x in range(-1, layer.a + 4):
            for y in range(-1, layer.b + 4):
                if (x, y) not in cells:
                    with pytest.raises(ValueError, match="outside the layer"):
                        layer.rank(x, y)

    def test_partial_row_may_overhang_by_one(self):
        assert NiceLayer(3, 2, 4).size == 10
        with pytest.raises(ValueError):
            NiceLayer(3, 2, 5)
        with pytest.raises(ValueError):
            NiceLayer(0, 1, 0)

    def test_layer_without_cells_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            NiceLayer(1, 0, 0)


WIDE_GRID = [(p, q) for p in range(1, 5) for q in range(2 * p, 13)]
NEAR_GRID = [(p, q) for p in range(1, 7) for q in range(p, 2 * p + 1)]


class TestWideLayers:
    @pytest.mark.parametrize("p,q", WIDE_GRID)
    def test_x1(self, p, q):
        layer, cov = layer_x1(p, q)
        assert (layer.a, layer.b, layer.c) == (q, 4, 0)
        assert cov.cells == box(q, 4)
        assert cov.height == 20
        assert e1_strides(cov) == {p}
        assert verify_covering(cov)

    @pytest.mark.parametrize("p,q", WIDE_GRID)
    def test_x2(self, p, q):
        layer, cov = layer_x2(p, q)
        assert layer.size == 4 * q + 1
        assert cov.cells == box(q, 4) | {(q + 1, 4)}
        assert cov.height == 20
        assert e1_strides(cov) == {p}
        assert verify_covering(cov)

    def test_x2_extra_cell_example(self):
        layer, cov = layer_x2(2, 5)
        assert (6, 4) in cov.cells

    def test_x1_degenerate_single_piece(self):
        # p=1 stretches by 1, so the rectangle covering is used as is
        _, cov = layer_x1(1, 4)
        assert cov.cells == box(4, 4)

    def test_rejects_narrow_q(self):
        with pytest.raises(ValueError):
            layer_x1(2, 3)
        with pytest.raises(ValueError):
            layer_x2(3, 5)


class TestNearLayers:
    @pytest.mark.parametrize("p,q", NEAR_GRID)
    def test_y1(self, p, q):
        layer, cov = layer_y1(p, q)
        assert layer.size == 5 * p + 4 * q
        assert cov.cells == box(p + q, 4) | {(x, 5) for x in range(1, p + 1)}
        assert e1_strides(cov) <= {p, q}
        assert verify_covering(cov)

    @pytest.mark.parametrize("p,q", NEAR_GRID)
    def test_y2(self, p, q):
        layer, cov = layer_y2(p, q)
        assert layer.size == 4 * p + 3 * q
        assert cov.cells == box(p + q, 3) | {(x, 4) for x in range(1, p + 1)}
        assert verify_covering(cov)

    @pytest.mark.parametrize("p,q", NEAR_GRID)
    def test_sizes_are_coprime(self, p, q):
        # the assembly depends on the two layer sizes being coprime exactly
        # when p and q are; check the underlying identity
        assert math.gcd(5 * p + 4 * q, 4 * p + 3 * q) == math.gcd(p, q)

    def test_size_examples(self):
        assert layer_y1(1, 1)[0].size == 9
        assert layer_y2(1, 1)[0].size == 7
        assert layer_y1(2, 3)[0].size == 22
        assert layer_y2(2, 4)[0].size == 20
        assert layer_y2(5, 7)[0].size == 41
        assert layer_y1(3, 6)[0].size == 39

    def test_rejects_out_of_regime(self):
        with pytest.raises(ValueError):
            layer_y1(2, 5)
        with pytest.raises(ValueError):
            layer_y2(3, 2)


@pytest.mark.parametrize("build,p,q", [
    (layer_x1, 3, 7), (layer_x2, 3, 7), (layer_x2, 1, 300), (layer_y1, 2, 3), (layer_y2, 2, 3),
    (layer_x2, 2, 7), (layer_x1, 10, 30),
])
def test_builder_certifies_its_layer_once(monkeypatch, build, p, q):
    build(p, q)  # the catalog pieces are certified once per process, here
    checked = []

    def counted(covering):
        checked.append(covering)
        return verify_covering(covering)

    monkeypatch.setattr(blocks3d, "verify_covering", counted)
    _, cov = build(p, q)
    assert len(checked) == 1 and checked[0] is cov


@pytest.mark.parametrize("build,p,q", [
    (layer_x1, 1, 300), (layer_x2, 3, 7), (layer_y1, 2, 3), (layer_y2, 3, 3),
])
def test_builder_constructs_one_covering(monkeypatch, build, p, q):
    # the pieces are block lists; only the finished layer is a Covering
    build(p, q)  # the catalog coverings are built once per process, here
    built = []
    post_init = Covering.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Covering, "__post_init__", counted)
    _, cov = build(p, q)
    assert len(built) == 1 and built[0] is cov


@pytest.mark.parametrize("slip", [
    lambda blocks: blocks[1:], lambda blocks: blocks + blocks[:1],
], ids=["dropped", "repeated"])
def test_builder_slip_raises(monkeypatch, slip):
    skew_piece = layers._skew_piece
    monkeypatch.setattr(layers, "_skew_piece", lambda name: slip(skew_piece(name)))
    with pytest.raises(InternalInconsistency):
        layer_y1(2, 3)


@pytest.mark.parametrize("build", [
    lambda: layer_x1(1.5, 4), lambda: layer_y1(2.0, 3), lambda: layer_x1(1, 4.0),
    lambda: layer_x2(1, 2.0), lambda: layer_y2(2, 3.0), lambda: layer_x1(True, 2),
    lambda: NiceLayer(2.5, 1, 0), lambda: NiceLayer(2, True, 0), lambda: axis_family(2.0),
    lambda: skew_family(1, True),
], ids=["x1-float-p", "y1-float-p", "x1-float-q", "x2-float-q", "y2-float-q", "x1-bool-p",
        "layer-float-a", "layer-bool-b", "axis-float", "skew-bool"])
def test_non_integer_arguments_are_value_errors(build):
    # the range checks read only ints, bool excluded
    with pytest.raises(ValueError):
        build()
