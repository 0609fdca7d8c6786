"""Flattening stacked layer coverings into integer parts.

Stack several layers of equal width a, each covered at a common height l,
and order all cells of the slab by (slice z, layer index, row, column).
Number the cells of one slice 1..s in that order (s = cells per slice) and
map

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
d times the copy's start rank, so flatten_blocks maps each distinct
(layer, covering) pair once and emits the copies as translates, each part a
plain 4-tuple of integers.  What translation preserves is checked once: the
injectivity bound per stack, and each block's gap multiset per pattern, so
an assembly slip still raises InternalInconsistency instead of leaking a
wrong part.  Since every gap is positive, that check also proves each part
strictly increases.  What translation does not preserve, that the copies
are disjoint and cover the interval, is checked by verify_tiling over every
part before assemble.tile returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import Iterator

from .blocks3d import Covering, axis_family, replicate_height, skew_family
from .core import InternalInconsistency, Part
from .layers import NiceLayer

StackCell = tuple[int, int, int, int]  # (layer index, x, y, z), layer index 0-based


@dataclass(frozen=True)
class LayerStack:
    """Layers of one width stacked for flattening.

    coverings is None for a bare geometry (rank and phi work, flatten_blocks
    does not); otherwise it runs parallel to layers, every covering has the
    stack's common height and exactly its layer's cells.
    """

    layers: tuple[NiceLayer, ...]
    coverings: tuple[Covering, ...] | None
    height: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a stack needs at least one layer")
        if self.d < 1 or self.height < 1:
            raise ValueError("stack multiplier and height must be positive")
        if any(layer.a != self.a for layer in self.layers):
            raise ValueError("all stacked layers must share the same width a")
        if self.coverings is not None:
            object.__setattr__(self, "coverings", tuple(self.coverings))
            if len(self.coverings) != len(self.layers):
                raise ValueError("need exactly one covering per layer")
            for layer, cov in zip(self.layers, self.coverings):
                if cov.height != self.height:
                    raise ValueError(
                        f"covering height {cov.height} != stack height {self.height}")
                if cov.cells != layer.cells():
                    raise ValueError(f"covering cells do not match layer {layer}")

    @classmethod
    def build(cls, pairs, d: int) -> LayerStack:
        """Stack (NiceLayer, Covering) pairs, lifting all coverings to the
        least common multiple of their heights."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("a stack needs at least one layer")
        height = math.lcm(*(cov.height for _, cov in pairs))
        layers = tuple(layer for layer, _ in pairs)
        coverings = tuple(replicate_height(cov, height) for _, cov in pairs)
        return cls(layers, coverings, height, d)

    @classmethod
    def from_shapes(cls, layers, height: int, d: int) -> LayerStack:
        """Bare stack over layer shapes only, for rank and phi experiments."""
        return cls(tuple(layers), None, height, d)

    @property
    def a(self) -> int:
        return self.layers[0].a

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(layer.size for layer in self.layers)

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        starts, total = [], 0
        for size in self.sizes:
            starts.append(total)
            total += size
        return tuple(starts)

    @cached_property
    def size(self) -> int:
        """Cells per slice, the s of the map."""
        return sum(self.sizes)

    def rank(self, i: int, x: int, y: int) -> int:
        """Position of a cell within its slice, 1..size, in (layer, row,
        column) order."""
        if not 0 <= i < len(self.layers):
            raise ValueError(f"layer index {i} out of range")
        return self._starts[i] + self.layers[i].rank(x, y)

    def cells(self) -> Iterator[StackCell]:
        """All slab cells in (z, layer, row, column) order."""
        for z in range(1, self.height + 1):
            for i, layer in enumerate(self.layers):
                for (x, y) in sorted(layer.cells(), key=lambda c: (c[1], c[0])):
                    yield (i, x, y, z)


def min_spacing(stack: LayerStack) -> int:
    """Least r for which phi is injective on the stack: 1 - d + d*s."""
    return 1 - stack.d + stack.d * stack.size


def phi(stack: LayerStack, cell: StackCell, r: int) -> int:
    """The flattening map d * rank + (z - 1) * r.

    Requires r >= min_spacing(stack); smaller spacings would let slices
    collide and are refused.
    """
    if r < min_spacing(stack):
        raise ValueError(f"spacing {r} below injectivity bound {min_spacing(stack)}")
    i, x, y, z = cell
    if not 1 <= z <= stack.height:
        raise ValueError(f"slice {z} outside 1..{stack.height}")
    return stack.d * stack.rank(i, x, y) + (z - 1) * r


def phi_image(stack: LayerStack, r: int) -> set[int]:
    """The target set union_j (d * {1..s} + (j - 1) * r), computed directly."""
    d, s = stack.d, stack.size
    return {d * k + (z - 1) * r for z in range(1, stack.height + 1) for k in range(1, s + 1)}


def flatten_blocks(stack: LayerStack, r: int, p: int, q: int, shift: int = 0) -> list[Part]:
    """Map every block of the stack through phi, shifted by shift, and
    return the parts.

    p and q name the intended column strides and are checked against the
    stack's families: an axis stack must have stride p and width a = q, a
    skew stack strides {p, q} and width a = p + q.  Either way every block
    then flattens to gaps {d*p, d*q, r}.  r must be at least
    min_spacing(stack), as phi requires.

    Copy i of a layer flattens to its pattern, the sorted values
    d * layer.rank(x, y) + (z - 1) * r of each block, translated by
    d * start_i + shift.  Each distinct (layer, covering) pair is mapped
    once: its points are range-checked as phi checks them, and each block's
    gaps are checked against {d*p, d*q, r} once, since translation keeps
    gaps; a mismatch raises InternalInconsistency.  The sorted values of a
    block with positive gaps strictly increase, so every copy is emitted as
    a plain 4-tuple without further checks.  That the copies are disjoint
    and cover their target is not checked here; verify_tiling checks it
    over every part tile() emits.
    """
    if stack.coverings is None:
        raise ValueError("cannot flatten a bare stack, it has no blocks")
    if r < min_spacing(stack):
        raise ValueError(f"spacing {r} below injectivity bound {min_spacing(stack)}")
    family = {member for cov in stack.coverings for member in cov.family}
    if (family, stack.a) not in ((set(axis_family(p)), q), (set(skew_family(p, q)), p + q)):
        raise ValueError(f"stack of width {stack.a} and family {sorted(family)} "
                         f"does not flatten to strides p={p}, q={q}")

    patterns: dict[tuple[NiceLayer, int], list[tuple[int, ...]]] = {}
    parts: list[Part] = []
    for layer, cov, start in zip(stack.layers, stack.coverings, stack._starts):
        key = (layer, id(cov))
        if key not in patterns:
            patterns[key] = _pattern(stack, layer, cov, r, p, q)
        offset = stack.d * start + shift
        # every block has four points, so every pattern is a 4-tuple
        parts += [(w + offset, x + offset, y + offset, z + offset)
                  for w, x, y, z in patterns[key]]
    return parts


def _pattern(stack: LayerStack, layer: NiceLayer, cov: Covering,
             r: int, p: int, q: int) -> list[tuple[int, ...]]:
    """Sorted flattened values of each block of one layer copy at offset 0,
    each checked against the target gap multiset {d*p, d*q, r}."""
    d = stack.d
    expected = tuple(sorted((d * p, d * q, r)))
    pattern = []
    for blk in cov.blocks:
        values = []
        for x, y, z in blk:
            if not 1 <= z <= stack.height:
                raise ValueError(f"slice {z} outside 1..{stack.height}")
            values.append(d * layer.rank(x, y) + (z - 1) * r)
        values.sort()
        got = tuple(sorted(b - a for a, b in pairwise(values)))
        if got != expected:
            raise InternalInconsistency(
                f"flattened block {blk} has gaps {got}, expected {expected}")
        pattern.append(tuple(values))
    return pattern
