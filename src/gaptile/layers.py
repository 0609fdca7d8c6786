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

Every layer is a list of placements: a catalog piece stacked to the layer's
height, stretched to a column stride and moved to a column.  X1 fills slot j
of p with a [k] x [4] rectangle of pieces at stride p, its columns on j+1,
j+1+p, ...: k = a + 1 for the first b slots and a for the rest (a, b =
divmod(q, p)), so the width is q; X2 puts the notched rectangle in slot b.
The Y layers interleave five narrow skew pieces at stride p with a top row
of stride-q hooks.  Each builder places every block once, certifies its one
Covering once, and returns it with the NiceLayer descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .blocks3d import Block, Covering, Family, _certified, axis_family, base_covering, \
    covering_S3, skew_family


@dataclass(frozen=True)
class NiceLayer:
    """Shape descriptor: full rows 1..b of width a, then c cells in row b+1.
    Each of a, b and c is an int, bool excluded."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if (any(type(v) is not int for v in (self.a, self.b, self.c))
                or self.a < 1 or self.b < 0 or not 0 <= self.c <= self.a + 1):
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
        """Row-major position of a cell, 1-based; rows fill bottom to top.
        The only per-point guard on tile()'s stack step: a cell outside the
        layer is a ValueError."""
        if not (1 <= y <= self.b + 1 and 1 <= x <= (self.a if y <= self.b else self.c)):
            raise ValueError(f"cell ({x}, {y}) is outside the layer")
        return (y - 1) * self.a + x


def _moved(blocks, w: int, dx: int, dy: int) -> list[Block]:
    """The blocks under x -> w*x + dx, y -> y + dy, heights untouched, in
    order; a stretch by w maps an (m*e1, ...) member to (w*m*e1, ...)."""
    return [((w * x1 + dx, y1 + dy, z1), (w * x2 + dx, y2 + dy, z2),
             (w * x3 + dx, y3 + dy, z3), (w * x4 + dx, y4 + dy, z4))
            for (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), (x4, y4, z4) in blocks]


def _stacked(blocks, h: int, height: int) -> list[Block]:
    """height / h copies of blocks that fill heights 1..h, lowest first."""
    return [tuple((x, y, z + dz) for x, y, z in blk)
            for dz in range(0, height, h) for blk in blocks]


def _copies(piece: list[Block], w: int, columns, dy: int = 0) -> list[Block]:
    # piece stretched to column stride w, its column x = 1 moved to 1 + dx
    return [blk for dx in columns for blk in _moved(piece, w, 1 - w + dx, dy)]


def _as_layer(layer: NiceLayer, height: int, blocks: list[Block],
              family: Family) -> tuple[NiceLayer, Covering]:
    # the one covering of the layer's cells; verify_covering rejects a
    # missing, stray, overlapping or wrong-stride block
    return layer, _certified(Covering(layer.cells(), height, blocks, family))


def _require_wide(p: int, q: int):
    if type(p) is not int or type(q) is not int or p < 1 or q < 2 * p:
        raise ValueError(f"wide layers need integers 1 <= p and q >= 2p, got p={p!r}, q={q!r}")


def _require_near(p: int, q: int):
    if type(p) is not int or type(q) is not int or p < 1 or not p <= q <= 2 * p:
        raise ValueError(f"near layers need integers 1 <= p <= q <= 2p, got p={p!r}, q={q!r}")


#: A multiple of the [2] x [4] column's height 5 and the other X pieces' 4.
_X_HEIGHT = 20


@cache
def _x_pieces() -> tuple:
    # stacked to _X_HEIGHT: the [2] x [4] column, [3] x [4] from two S3s, and
    # the notched tails (piece, width) by width parity, S6 or S5 beside S1
    s3, s1 = covering_S3().blocks, base_covering("S1").blocks
    return (_stacked(base_covering("S4_2x4").blocks, 5, _X_HEIGHT),
            _stacked([*s3, *_moved(s3, 1, 0, 2)], 4, _X_HEIGHT),
            ((_stacked(base_covering("S6").blocks, 4, _X_HEIGHT), 2),
             (_stacked([*base_covering("S5").blocks, *_moved(s1, 1, 2, 2)], 4, _X_HEIGHT), 3)))


def _rectangle(k: int, notched: bool) -> list[tuple[list[Block], int]]:
    """(piece, column) placements covering [k] x [4], plus (k+1, 4) when
    notched, for k >= 2: [2] x [4] columns, after the [3] x [4] piece for
    odd plain k, before the tail of k's parity when notched."""
    column, three, tails = _x_pieces()
    if notched:
        tail, width = tails[k % 2]
        return [(column, x) for x in range(0, k - width, 2)] + [(tail, k - width)]
    if k % 2:
        return [(three, 0)] + [(column, x) for x in range(3, k, 2)]
    return [(column, x) for x in range(0, k, 2)]


def _layer_x(p: int, q: int, notched: bool) -> tuple[NiceLayer, Covering]:
    # slot j's rectangle column x lands on column p*x + j + 1; each distinct
    # rectangle is laid out once and every block is placed once, in slot order
    _require_wide(p, q)
    a, b = divmod(q, p)
    slots = [_rectangle(a + 1, False)] * b + [_rectangle(a, False)] * (p - b)
    if notched:
        slots[b] = _rectangle(a, True)
    blocks = [blk for slot, placements in enumerate(slots) for piece, x in placements
              for blk in _copies(piece, p, [p * x + slot])]
    layer = NiceLayer(q, 3, q + 1) if notched else NiceLayer(q, 4, 0)
    return _as_layer(layer, _X_HEIGHT, blocks, axis_family(p))


def layer_x1(p: int, q: int) -> tuple[NiceLayer, Covering]:
    """[q] x [4] covered at height 20 by axis blocks of stride p (q >= 2p)."""
    return _layer_x(p, q, False)


def layer_x2(p: int, q: int) -> tuple[NiceLayer, Covering]:
    """[q] x [4] plus the cell (q+1, 4), same regime as layer_x1.

    The notched rectangle takes the slot after the b wide ones, which
    lands its extra cell at (q+1, 4).
    """
    return _layer_x(p, q, True)


def _skew_piece(name: str) -> list[Block]:
    # narrow catalog piece stacked to height 4
    piece = base_covering(name)
    return _stacked(piece.blocks, piece.height, 4)


def layer_y1(p: int, q: int) -> tuple[NiceLayer, Covering]:
    """[p+q] x [4] plus a top row [p] x {5}, skew blocks, height 4 (p <= q <= 2p).

    With t = q - p: stride-p corner pieces at columns t..p-1 of rows 1 and 2,
    stride-p steps at columns p..p+t-1 of row 2, staircases at columns
    0..t-1 of row 1, and stride-q hooks across row 4 into the partial row.
    Empty index ranges (t = 0 or t = p) drop the corresponding pieces.
    """
    _require_near(p, q)
    t = q - p
    blocks = _copies(_skew_piece("T1"), p, range(t, p))
    blocks += _copies(_skew_piece("T2"), p, range(t, p), 1)
    blocks += _copies(_skew_piece("T3"), p, range(p, p + t), 1)
    blocks += _copies(_skew_piece("T5"), p, range(t))
    blocks += _copies(_skew_piece("T1"), q, range(p), 3)
    return _as_layer(NiceLayer(p + q, 4, p), 4, blocks, skew_family(p, q))


def layer_y2(p: int, q: int) -> tuple[NiceLayer, Covering]:
    """[p+q] x [3] plus a top row [p] x {4}, the short companion of layer_y1."""
    _require_near(p, q)
    t = q - p
    blocks = _copies(_skew_piece("T1"), p, range(t))
    blocks += _copies(_skew_piece("T3"), p, range(p, p + t))
    blocks += _copies(_skew_piece("T4"), p, range(t, p))
    blocks += _copies(_skew_piece("T1"), q, range(p), 2)
    return _as_layer(NiceLayer(p + q, 3, p), 4, blocks, skew_family(p, q))
