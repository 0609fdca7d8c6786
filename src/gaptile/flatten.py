"""Flattening stacked layer coverings into integer parts.

A stack is a list of (NiceLayer, Covering) pairs of one width a, each
covering at a common height l.  Order all cells of the slab by (slice z,
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
what the nice-layer shape guarantees.

Every copy of a layer in the stack flattens to the same values, shifted by
d times the copy's start rank, so a flattened stack is a few patterns plus
offsets: flatten_blocks maps each distinct (layer, covering) pair once and
emits the copies as translates, each part a plain 4-tuple of integers.
What translation preserves is checked once: the injectivity bound per
stack, and per distinct pair its width, height, cells, family and each
block's slice range and gap multiset, so an assembly slip still raises
InternalInconsistency instead of leaking a wrong part.  Since every gap is
positive, that check also proves each part strictly increases.  What
translation does not preserve, that the copies are disjoint and cover the
interval, is checked by verify_tiling over every part before assemble.tile
returns.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Sequence

from .blocks3d import Covering, axis_family, skew_family
from .core import InternalInconsistency, Part
from .layers import NiceLayer


def flatten_blocks(pairs: Sequence[tuple[NiceLayer, Covering]], d: int, r: int,
                   p: int, q: int, shift: int = 0) -> list[Part]:
    """Map every block of the stack through phi, shifted by shift, and
    return the parts.

    pairs are the stack's (NiceLayer, Covering) pairs in stack order.  d
    must be positive and r at least the injectivity bound 1 - d + d*s.  p
    and q name the intended column strides: an axis covering must have
    family axis_family(p) and width a = q, a skew covering skew_family(p, q)
    and width a = p + q.  Either way every block then flattens to gaps
    {d*p, d*q, r}.  Every pair must share the first pair's width and
    height, and each covering must hold exactly its layer's cells.  A
    violation of any of these raises ValueError.

    Copy i of a layer flattens to its pattern, the sorted values
    d * layer.rank(x, y) + (z - 1) * r of each block, translated by
    d * start_i + shift.  Each distinct (layer, covering) pair is checked
    and mapped once: its block points must lie in slices 1..l, and each
    block's gaps are checked against {d*p, d*q, r}, since translation keeps
    gaps; a mismatch raises InternalInconsistency.  The sorted values of a
    block with positive gaps strictly increase, so every copy is emitted as
    a plain 4-tuple without further checks.  That the copies are disjoint
    and cover their target is not checked here; verify_tiling checks it
    over every part tile() emits.
    """
    if not pairs:
        raise ValueError("a stack needs at least one layer")
    if d < 1:
        raise ValueError(f"stack multiplier must be positive, got {d}")
    bound = 1 - d + d * sum(layer.size for layer, _ in pairs)
    if r < bound:
        raise ValueError(f"spacing {r} below injectivity bound {bound}")
    a, height = pairs[0][0].a, pairs[0][1].height
    families = ((set(axis_family(p)), q), (set(skew_family(p, q)), p + q))

    patterns: dict[tuple[NiceLayer, int], list[tuple[int, ...]]] = {}
    parts: list[Part] = []
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
            if (set(cov.family), a) not in families:
                raise ValueError(f"layer of width {a} and family {sorted(cov.family)} "
                                 f"does not flatten to strides p={p}, q={q}")
            patterns[key] = _pattern(layer, cov, d, r, p, q)
        offset = d * start + shift
        # every block has four points, so every pattern is a 4-tuple
        parts += [(w + offset, x + offset, y + offset, z + offset)
                  for w, x, y, z in patterns[key]]
        start += layer.size
    return parts


def _pattern(layer: NiceLayer, cov: Covering, d: int,
             r: int, p: int, q: int) -> list[tuple[int, ...]]:
    """Sorted flattened values of each block of one layer copy at offset 0,
    each checked against the target gap multiset {d*p, d*q, r}."""
    expected = tuple(sorted((d * p, d * q, r)))
    pattern = []
    for blk in cov.blocks:
        values = []
        for x, y, z in blk:
            if not 1 <= z <= cov.height:
                raise ValueError(f"slice {z} outside 1..{cov.height}")
            values.append(d * layer.rank(x, y) + (z - 1) * r)
        values.sort()
        got = tuple(sorted(b - a for a, b in pairwise(values)))
        if got != expected:
            raise InternalInconsistency(
                f"flattened block {blk} has gaps {got}, expected {expected}")
        pattern.append(tuple(values))
    return pattern
