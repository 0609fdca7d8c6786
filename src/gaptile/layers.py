"""Nice layers: the four parameterized shapes the flattener consumes.

A nice layer is a rectangle of width a and height b of cells, plus an
optional partial top row of c cells flush left: ([a] x [b]) u ([c] x {b+1}).
Width matters because the flattening step turns row-to-row steps into gaps
of size a (or a minus the column stride); the partial row may stick one cell
past the rectangle (c = a + 1), which is exactly the notched X2 shape below.

Four layer coverings are built here, two per parameter regime:

  wide regime, q >= 2p, axis blocks with stride p, height 20:
    X1(p, q): [q] x [4]                  size 4q
    X2(p, q): [q] x [4] u {(q+1, 4)}     size 4q + 1

  near regime, p <= q <= 2p, skew blocks with strides p and q, height 4:
    Y1(p, q): [p+q] x [4] u ([p] x {5})  size 5p + 4q
    Y2(p, q): [p+q] x [3] u ([p] x {4})  size 4p + 3q

The X layers tile b = q mod p stretched width-(a+1) rectangle coverings next
to p - b width-a ones (a = q div p), so the column strides are all p and the
total width is exactly q; X2 swaps the notched rectangle into the middle
slot.  The Y layers interleave five narrow skew pieces (stretched to stride
p) with a top row of stride-q hooks.  Each builder returns the NiceLayer
descriptor together with its covering.  The builders assemble the covering
with blocks3d's uncertified algebra, then check that its cells are exactly
the descriptor's cells and certify it with verify_covering, once per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks3d import Covering, _affine, _certified, _composed, _notched_rectangle, \
    _rectangle, _replicated, base_covering
from .core import InternalInconsistency


@dataclass(frozen=True)
class NiceLayer:
    """Shape descriptor: full rows 1..b of width a, then c cells in row b+1."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 1 or self.b < 0 or not 0 <= self.c <= self.a + 1:
            raise ValueError(f"bad layer shape a={self.a}, b={self.b}, c={self.c}")
        if self.size < 1:
            raise ValueError("a layer needs at least one cell")

    @property
    def size(self) -> int:
        return self.a * self.b + self.c

    def cells(self) -> frozenset[tuple[int, int]]:
        full = {(x, y) for x in range(1, self.a + 1) for y in range(1, self.b + 1)}
        return frozenset(full | {(x, self.b + 1) for x in range(1, self.c + 1)})

    def rank(self, x: int, y: int) -> int:
        """Row-major position of a cell, 1-based; rows fill bottom to top."""
        if 1 <= y <= self.b and 1 <= x <= self.a:
            return (y - 1) * self.a + x
        if y == self.b + 1 and 1 <= x <= self.c:
            return self.b * self.a + x
        raise ValueError(f"cell ({x}, {y}) is outside the layer")


def _copies(piece: Covering, w: int, columns, dy: int = 0) -> list[Covering]:
    # piece stretched to column stride w, its column x = 1 moved to 1 + dx
    return [_affine(piece, w, 1 - w + dx, dy) for dx in columns]


def _as_layer(layer: NiceLayer, covering: Covering) -> tuple[NiceLayer, Covering]:
    if covering.cells != layer.cells():
        raise InternalInconsistency(
            f"assembled covering does not match layer shape {layer}")
    return layer, _certified(covering)


def _require_wide(p: int, q: int):
    if p < 1 or q < 2 * p:
        raise ValueError(f"wide layers need 1 <= p and q >= 2p, got p={p}, q={q}")


def _require_near(p: int, q: int):
    if p < 1 or not p <= q <= 2 * p:
        raise ValueError(f"near layers need 1 <= p <= q <= 2p, got p={p}, q={q}")


def layer_x1(p: int, q: int) -> tuple[NiceLayer, Covering]:
    """[q] x [4] covered at height 20 by axis blocks of stride p (q >= 2p)."""
    _require_wide(p, q)
    a, b = divmod(q, p)
    pieces = _copies(_rectangle(a + 1), p, range(b)) if b else []
    pieces += _copies(_rectangle(a), p, range(b, p))
    return _as_layer(NiceLayer(q, 4, 0), _composed(pieces))


def layer_x2(p: int, q: int) -> tuple[NiceLayer, Covering]:
    """[q] x [4] plus the cell (q+1, 4), same regime as layer_x1.

    The notched rectangle takes the slot after the b wide columns, which
    lands its extra cell at (q+1, 4).
    """
    _require_wide(p, q)
    a, b = divmod(q, p)
    pieces = _copies(_rectangle(a + 1), p, range(b)) if b else []
    pieces += _copies(_notched_rectangle(a), p, [b])
    if b + 1 < p:
        pieces += _copies(_rectangle(a), p, range(b + 1, p))
    return _as_layer(NiceLayer(q, 3, q + 1), _composed(pieces))


def _skew_piece(name: str) -> Covering:
    # narrow catalog piece lifted to height 4
    return _replicated(base_covering(name), 4)


def layer_y1(p: int, q: int) -> tuple[NiceLayer, Covering]:
    """[p+q] x [4] plus a top row [p] x {5}, skew blocks, height 4 (p <= q <= 2p).

    With t = q - p: stride-p corner pieces at columns t..p-1 of rows 1 and 2,
    stride-p steps at columns p..p+t-1 of row 2, staircases at columns
    0..t-1 of row 1, and stride-q hooks across row 4 into the partial row.
    Empty index ranges (t = 0 or t = p) drop the corresponding pieces.
    """
    _require_near(p, q)
    t = q - p
    pieces = _copies(_skew_piece("T1"), p, range(t, p))
    pieces += _copies(_skew_piece("T2"), p, range(t, p), 1)
    pieces += _copies(_skew_piece("T3"), p, range(p, p + t), 1)
    pieces += _copies(_skew_piece("T5"), p, range(t))
    pieces += _copies(_skew_piece("T1"), q, range(p), 3)
    return _as_layer(NiceLayer(p + q, 4, p), _composed(pieces))


def layer_y2(p: int, q: int) -> tuple[NiceLayer, Covering]:
    """[p+q] x [3] plus a top row [p] x {4}, the short companion of layer_y1."""
    _require_near(p, q)
    t = q - p
    pieces = _copies(_skew_piece("T1"), p, range(t))
    pieces += _copies(_skew_piece("T3"), p, range(p, p + t))
    pieces += _copies(_skew_piece("T4"), p, range(t, p))
    pieces += _copies(_skew_piece("T1"), q, range(p), 2)
    return _as_layer(NiceLayer(p + q, 3, p), _composed(pieces))
