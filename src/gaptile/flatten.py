"""Flattening stacked layer coverings into integer parts: tile()'s stack step.

A stack is its runs ((NiceLayer, Covering), count), count copies of one
layer each, in stack order, of one width a, one block family and one height
l.  Order all cells of the slab by (slice z, layer index, row, column),
number the cells of one slice 1..s in that order (s = cells per slice) and map

    phi(cell) = d * rank(cell) + (z - 1) * r

for a spacing r and a multiplier d.  The image is the union of the slices
d * {1..s} + (j - 1) * r for j = 1..l, and phi is a bijection onto it
whenever r >= 1 - d + d*s, because consecutive slices then cannot overlap.

Within one layer the rank is plain row-major arithmetic, so the three step
vectors of a block land on fixed integer gaps:

    step m*e1 along a row          ->  d * m
    step e2 (or e2 - m*e1) up      ->  d * a   (or d * (a - m))
    step e3 to the next slice      ->  r

The row steps rely on the rows below the top being full width a, which is
what the nice-layer shape guarantees.  So family and width fix one gap
multiset per stack, {p, q, r} for a stack of plan()'s layers.

Every copy of a layer in the stack flattens to the same values, shifted by
d times the copy's start rank, so a flattened stack is a few patterns plus
offsets: flatten_blocks maps each nonempty run once and emits its copies as
translates, each part a plain 4-tuple of integers.

flatten_blocks checks nothing.  Its preconditions (one width, height and
family, each covering certified on its own layer's cells, d >= 1 and r at
least the injectivity bound) are what plan()'s certified layers and tile()'s
choice of s guarantee, and verify_tiling, which tile() runs over every part
before it returns, is the one check of the result: a slip in the stack
surfaces there as an InternalInconsistency.

The parts come out in increasing order of least element.  A block's least
value lies in its lowest slice z, and since r exceeds every difference of
ranks, least values order by (z, start of the copy, rank).  So each pattern
is split by its blocks' lowest slice, each group sorted once, and the
groups are emitted slice by slice, then run by run, then copy by copy.
"""

from __future__ import annotations

from typing import Sequence

from .blocks3d import Covering
from .core import Part
from .layers import NiceLayer


def flatten_blocks(runs: Sequence[tuple[tuple[NiceLayer, Covering], int]], d: int,
                   r: int, shift: int) -> list[Part]:
    """Map every block of the stack through phi, shifted by shift, and
    return the parts.

    runs are the stack's ((NiceLayer, Covering), count) entries in stack
    order, of one width, height and family, each covering certified on its
    layer's cells; d >= 1 and r >= 1 - d + d*s.  None of this is checked
    here: tile()'s verify_tiling is the one check of what the stack yields.

    A copy starting at rank start flattens to its layer's pattern, the
    sorted values d * layer.rank(x, y) + (z - 1) * r of each block,
    translated by d * start + shift.  Each run with count > 0 is mapped
    once, a run of count 0 not at all.  The parts are returned in increasing
    order, for any d and shift: slice by slice of each block's lowest point,
    within a slice run by run, then copy by copy, then by least element.
    """
    placed: list[tuple[dict[int, list[Part]], range]] = []
    offset = shift
    for (layer, cov), count in runs:
        if count:
            offsets = range(offset, offset + count * d * layer.size, d * layer.size)
            placed.append((_pattern(layer, cov, d, r), offsets))
            offset = offsets.stop

    parts: list[Part] = []
    for z in sorted({z for groups, _ in placed for z in groups}):
        # every block has four points, so every pattern part is a 4-tuple
        parts += [(w + offset, x + offset, y + offset, v + offset)
                  for groups, offsets in placed if z in groups
                  for offset in offsets for w, x, y, v in groups[z]]
    return parts


def _pattern(layer: NiceLayer, cov: Covering, d: int, r: int) -> dict[int, list[Part]]:
    """The flattened parts of one layer copy at offset 0, each the sorted
    values of one block, grouped by the block's lowest slice and sorted
    within each group."""
    groups: dict[int, list[Part]] = {}
    for blk in cov.blocks:
        values = sorted(d * layer.rank(x, y) + (z - 1) * r for x, y, z in blk)
        groups.setdefault(min(z for _, _, z in blk), []).append(tuple(values))
    for group in groups.values():
        group.sort()
    return groups
