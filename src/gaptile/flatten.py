"""Flattening stacked layer coverings into integer parts.

A stack is a list of (NiceLayer, Covering) pairs of one width a, one
block family and one height l.  Order all cells of the slab by (slice z,
layer index, row, column), number the cells of one slice 1..s in that order
(s = cells per slice) and map

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
multiset per stack, which flatten_blocks reads from the stack's first block.

Every copy of a layer in the stack flattens to the same values, shifted by
d times the copy's start rank, so a flattened stack is a few patterns plus
offsets: flatten_blocks maps each distinct (layer, covering) pair once and
emits the copies as translates, each part a plain 4-tuple of integers.
What translation preserves is checked once: the injectivity bound per
stack, and per distinct pair its width, height, cells, family and each
block's slice range and gap multiset against the first pair's, so an
assembly slip still raises ValueError or InternalInconsistency instead of
leaking a wrong part.  Since every gap is positive, that check also proves
each part strictly increases.  What translation does not preserve, that
the copies are disjoint and cover the interval, is checked by verify_tiling
over every part before assemble.tile returns.

The parts come out in increasing order of least element.  A block's least
value lies in its lowest slice z, and since r exceeds every difference of
ranks, least values order by (z, start of the copy, rank).  So each pattern
is split by its blocks' lowest slice, each group sorted once, and the
groups are emitted slice by slice, each slice's copies in stack order.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Sequence

from .blocks3d import Covering
from .core import InternalInconsistency, Part
from .layers import NiceLayer


def flatten_blocks(pairs: Sequence[tuple[NiceLayer, Covering]], d: int, r: int,
                   shift: int = 0) -> list[Part]:
    """Map every block of the stack through phi, shifted by shift, and
    return the parts.

    pairs are the stack's (NiceLayer, Covering) pairs in stack order.  d
    must be positive and r at least the injectivity bound 1 - d + d*s.
    Every pair must share the first pair's width, height and family (as a
    set) and hold exactly its layer's cells, else ValueError.

    Copy i of a layer flattens to its pattern, the sorted values
    d * layer.rank(x, y) + (z - 1) * r of each block, translated by
    d * start_i + shift.  The parts are returned in increasing order, for
    any d and shift: slice by slice of each block's lowest point, within a
    slice copy by copy in stack order, and within a copy by least element.

    Each distinct (layer, covering) pair is checked and mapped once: its
    block points must lie in slices 1..l, and each block must flatten to
    the stack's gap multiset, that of its first block, whose three gaps (a
    Covering block is four points) must be positive; translation keeps
    gaps, and a mismatch raises InternalInconsistency.  Positive gaps make
    the sorted values strictly increase, so each copy is a plain 4-tuple.  That the copies
    are disjoint and cover their target, and that the gaps are the
    {p, q, r} asked for, verify_tiling checks over every part tile() emits.
    """
    if not pairs:
        raise ValueError("a stack needs at least one layer")
    if d < 1:
        raise ValueError(f"stack multiplier must be positive, got {d}")
    bound = 1 - d + d * sum(layer.size for layer, _ in pairs)
    if r < bound:
        raise ValueError(f"spacing {r} below injectivity bound {bound}")
    a, height, family = pairs[0][0].a, pairs[0][1].height, set(pairs[0][1].family)

    gaps = None
    patterns: dict[tuple[NiceLayer, int], dict[int, list[Part]]] = {}
    copies: list[tuple[int, dict[int, list[Part]]]] = []
    start = 0
    for layer, cov in pairs:
        key = (layer, id(cov))
        if key not in patterns:
            if layer.a != a:
                raise ValueError("all stacked layers must share the same width a")
            if cov.height != height:
                raise ValueError(f"covering height {cov.height} != stack height {height}")
            if cov.cells != layer.cells():
                raise ValueError(f"covering cells do not match layer {layer}")
            if set(cov.family) != family:
                raise ValueError(f"covering family {sorted(cov.family)} differs from "
                                 f"the stack family {sorted(family)}")
            patterns[key], gaps = _pattern(layer, cov, d, r, gaps)
        copies.append((d * start + shift, patterns[key]))
        start += layer.size

    parts: list[Part] = []
    for z in sorted({z for groups in patterns.values() for z in groups}):
        # every block has four points, so every pattern part is a 4-tuple
        parts += [(w + offset, x + offset, y + offset, v + offset)
                  for offset, groups in copies for w, x, y, v in groups.get(z, ())]
    return parts


def _pattern(layer: NiceLayer, cov: Covering, d: int, r: int,
             gaps: tuple[int, ...] | None) -> tuple[dict[int, list[Part]], tuple[int, ...]]:
    """The flattened parts of one layer copy at offset 0, each the sorted
    values of one block, grouped by the block's lowest slice and sorted
    within each group; and the stack's gap multiset: gaps, or if that is
    None the first block's."""
    groups: dict[int, list[Part]] = {}
    for blk in cov.blocks:
        values = []
        for x, y, z in blk:
            if not 1 <= z <= cov.height:
                raise ValueError(f"slice {z} outside 1..{cov.height}")
            values.append(d * layer.rank(x, y) + (z - 1) * r)
        values.sort()
        got = tuple(sorted(b - a for a, b in pairwise(values)))
        if gaps is None:
            if got[0] < 1:
                raise InternalInconsistency(
                    f"first flattened block {blk} has gaps {got}, not three positive gaps")
            gaps = got
        elif got != gaps:
            raise InternalInconsistency(
                f"flattened block {blk} has gaps {got}, expected {gaps}")
        groups.setdefault(min(z for _, _, z in blk), []).append(tuple(values))
    for group in groups.values():
        group.sort()
    return groups, gaps
