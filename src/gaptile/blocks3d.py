"""Blocks in Z^3 and verified coverings of planar shapes.

A block is a set of four points of Z^3 that can be ordered v1, v2, v3, v4 so
that the step vectors {v2-v1, v3-v2, v4-v3} are exactly a prescribed triple
of vectors, as a multiset and without negation.  The triple is a "family
member"; the two kinds used here are

    axis member   (m*e1, e2, e3)            unit steps plus a column jump m
    skew member   (m*e1, e2 - m*e1, e3)     the row step leans back m columns

A block is a plain 4-tuple of point tuples (Block).  verify_covering sorts
its points and looks up the offsets of the other three from the least among
the keys of the family's walks, built once per call: translation keeps
lexicographic order, so two 4-sets are translates exactly when keys agree.

A covering of a planar shape S at height h is a partition of the slab
S x {1..h} into family blocks.  This module ships a small catalog of base
coverings over tiny shapes and the [3] x [2] rectangle covering S3, each
certified once per process; the layer builders in gaptile.layers place
stretched, translated and stacked copies of their blocks.

A builder wraps the block list it placed in the one Covering of the shape it
means to cover, and runs verify_covering on that covering once.  An invalid
covering cannot escape the package, and verify_covering never trusts stored
block orderings.  Covering is the one check of blocks, cells and family
members, each in bulk by core._nested_ints; verify_covering then judges
only geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, permutations, repeat
from operator import itemgetter

from .core import InternalInconsistency, Verdict, _QUOTE, _nested_ints

Point3 = tuple[int, int, int]
Vec3 = tuple[int, int, int]
Cell = tuple[int, int]
Member = tuple[Vec3, Vec3, Vec3]
Family = tuple[Member, ...]

E1: Vec3 = (1, 0, 0)
E2: Vec3 = (0, 1, 0)
E3: Vec3 = (0, 0, 1)


def axis_family(m: int) -> Family:
    """One-member family (m*e1, e2, e3)."""
    if type(m) is not int or m < 1:
        raise ValueError(f"column stride must be a positive integer, got {m!r}")
    return (((m, 0, 0), E2, E3),)


def skew_family(p: int, q: int) -> Family:
    """Family {(m*e1, e2 - m*e1, e3) : m in {p, q}}; one member when p == q."""
    if type(p) is not int or type(q) is not int or p < 1 or q < 1:
        raise ValueError(f"column strides must be positive integers, got {p!r}, {q!r}")
    members = []
    for m in (p, q):
        member = ((m, 0, 0), (-m, 1, 0), E3)
        if member not in members:
            members.append(member)
    return tuple(members)


#: Four points of Z^3.  Their order is a convenience: verify_covering
#: judges a block by its points sorted.
Block = tuple[Point3, Point3, Point3, Point3]


@dataclass(frozen=True)
class Covering:
    """A shape, a height, the blocks partitioning shape x {1..height}, and
    the family the blocks are drawn from, each stored as tuples built once.
    The one check of blocks, cells and family, in that order: a ValueError
    names the first block that is not four lists or tuples of three ints
    (bool excluded), cell that is not two ints or member that is not three
    such lists, and is raised for fields that are not sequences or a height
    that is not a positive int.  verify_covering judges the geometry."""

    cells: frozenset[Cell]
    height: int
    blocks: tuple[Block, ...]
    family: Family

    def __post_init__(self):
        try:
            blocks = tuple(self.blocks)
            bad = _nested_ints(blocks, 4, 3)
            if bad < len(blocks):
                raise ValueError(f"a block must be 4 lists of 3 integers, got block {bad}: "
                                 f"{_QUOTE.repr(blocks[bad])}")
            cells, family = tuple(self.cells), tuple(self.family)
        except TypeError as exc:
            raise ValueError(f"cells, blocks and family must be sequences: {exc}") from None
        bad = _nested_ints(cells, 2)
        if bad < len(cells):
            raise ValueError(f"a cell must be two integers, got {_QUOTE.repr(cells[bad])}")
        bad = _nested_ints(family, 3, 3)
        if bad < len(family):
            raise ValueError("a family member must be 3 lists of 3 integers, "
                             f"got {_QUOTE.repr(family[bad])}")
        object.__setattr__(self, "blocks", tuple(map(tuple, map(map, repeat(tuple), blocks))))
        object.__setattr__(self, "cells", frozenset(map(tuple, cells)))
        object.__setattr__(self, "family", tuple(tuple(map(tuple, m)) for m in family))
        if type(self.height) is not int:
            raise ValueError("height must be an integer")
        if self.height < 1:
            raise ValueError("covering height must be positive")
        if not self.family:
            raise ValueError("covering needs a nonempty family")


def verify_covering(covering: Covering) -> Verdict:
    """Accept iff every block is a block of the covering's family and the
    blocks partition cells x {1..height} exactly.

    Checks run in the fixed order block validity, overlap, coverage; the
    verdict's witness is the offending block index or point.  Covering has
    already made each block four points of three ints, so a block is valid
    iff its key, the offsets of its sorted points from the least, is a
    member walk's; a repeated point makes an offset zero or repeats one,
    which no key does.  Any Covering yields a verdict, never an exception.

    Coverage is accepted when the distinct points number len(cells) *
    height, each (x, y) is a cell and the least and greatest z lie in
    1..height.  Otherwise the witness is the least stray point or the least
    missing one, found within len(seen) + 1 steps of the sorted slab by
    pigeonhole, so memory follows the blocks, never the height.
    """
    blocks = covering.blocks
    keys = _family_keys(covering.family)
    for (a, b, c), (d, e, f), (g, h, i), (j, k, l) in map(sorted, blocks):
        if (d - a, e - b, f - c, g - a, h - b, i - c, j - a, k - b, l - c) not in keys:
            missed = [(a, b, c), (d, e, f), (g, h, i), (j, k, l)]
            return Verdict(False, "block", list(map(sorted, blocks)).index(missed))
    seen: set[Point3] = set(chain.from_iterable(blocks))
    if len(seen) < 4 * len(blocks):
        # name the first point, in block order, that an earlier block holds
        seen = set()
        for point in chain.from_iterable(blocks):
            if point in seen:
                return Verdict(False, "overlap", point)
            seen.add(point)
    cells, height = covering.cells, covering.height
    zs = set(map(itemgetter(2), seen))
    if (len(seen) == len(cells) * height and set(map(itemgetter(0, 1), seen)) <= cells
            and 1 <= min(zs, default=1) and max(zs, default=1) <= height):
        return Verdict(True)
    mismatches = [pt for pt in seen if pt[:2] not in cells or not 1 <= pt[2] <= height]
    if len(seen) - len(mismatches) < len(cells) * height:
        slab = ((x, y, z) for x, y in sorted(cells) for z in range(1, height + 1))
        mismatches.append(next(pt for pt in slab if pt not in seen))
    # the bulk checks failed, so some point is stray or missing
    return Verdict(False, "coverage", min(mismatches))


def _family_keys(family: Family) -> set[tuple[int, ...]]:
    """The keys of a family's blocks: each member's walk from the origin,
    under every ordering of its steps, that visits four distinct points."""
    keys = set()
    for steps in chain.from_iterable(map(permutations, family)):
        walk = sorted({tuple(map(sum, zip((0, 0, 0), *steps[:n]))) for n in range(4)})
        if len(walk) == 4:
            (a, b, c), (d, e, f), (g, h, i), (j, k, l) = walk
            keys.add((d - a, e - b, f - c, g - a, h - b, i - c, j - a, k - b, l - c))
    return keys


def _certified(covering: Covering) -> Covering:
    verdict = verify_covering(covering)
    if not verdict:
        raise InternalInconsistency(f"covering failed self-check, {verdict.message()}")
    return covering


# ---------- base covering catalog ----------
#
# Shapes use 1-based coordinates; cell (x, y) spans heights z = 1..h.  The
# block lists are fixed data, one block per line; changing any point breaks
# the partition and is caught by the constructor self-check.

_AXIS: Member = (E1, E2, E3)
_SKEW: Member = (E1, (-1, 1, 0), E3)


def _box(w: int, h: int) -> frozenset[Cell]:
    return frozenset((x, y) for x in range(1, w + 1) for y in range(1, h + 1))


_BASE: dict[str, tuple[frozenset[Cell], int, Member, tuple]] = {
    "S1": (frozenset({(1, 1), (1, 2), (2, 2)}), 4, _AXIS, (
        ((1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)),
        ((1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 3)),
        ((1, 1, 3), (1, 1, 4), (1, 2, 4), (2, 2, 4)),
    )),
    "S2": (frozenset({(1, 1), (2, 1), (2, 2)}), 4, _AXIS, (
        ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)),
        ((1, 1, 2), (2, 1, 2), (2, 1, 3), (2, 2, 3)),
        ((1, 1, 3), (1, 1, 4), (2, 1, 4), (2, 2, 4)),
    )),
    "S4_2x4": (_box(2, 4), 5, _AXIS, (
        ((1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2)),
        ((1, 2, 1), (2, 2, 1), (2, 3, 1), (2, 3, 2)),
        ((1, 3, 1), (1, 4, 1), (2, 4, 1), (2, 4, 2)),
        ((1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 3)),
        ((1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 4, 3)),
        ((1, 1, 3), (2, 1, 3), (2, 1, 4), (2, 2, 4)),
        ((1, 3, 3), (2, 3, 3), (2, 3, 4), (2, 4, 4)),
        ((1, 1, 4), (1, 1, 5), (2, 1, 5), (2, 2, 5)),
        ((1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5)),
        ((1, 3, 4), (1, 4, 4), (1, 4, 5), (2, 4, 5)),
    )),
    "S5": (_box(2, 4) | {(3, 1), (3, 2)}, 4, _AXIS, (
        ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)),
        ((1, 2, 1), (2, 2, 1), (2, 3, 1), (2, 3, 2)),
        ((2, 1, 1), (3, 1, 1), (3, 2, 1), (3, 2, 2)),
        ((1, 3, 1), (1, 4, 1), (2, 4, 1), (2, 4, 2)),
        ((2, 1, 2), (3, 1, 2), (3, 1, 3), (3, 2, 3)),
        ((1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 4, 3)),
        ((1, 1, 3), (1, 1, 4), (1, 2, 4), (2, 2, 4)),
        ((1, 2, 3), (2, 2, 3), (2, 3, 3), (2, 3, 4)),
        ((2, 1, 3), (2, 1, 4), (3, 1, 4), (3, 2, 4)),
        ((1, 3, 3), (1, 3, 4), (1, 4, 4), (2, 4, 4)),
    )),
    "S6": (_box(2, 4) | {(3, 4)}, 4, _AXIS, (
        ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)),
        ((1, 2, 1), (1, 2, 2), (1, 3, 2), (2, 3, 2)),
        ((1, 3, 1), (1, 4, 1), (1, 4, 2), (2, 4, 2)),
        ((2, 3, 1), (2, 4, 1), (3, 4, 1), (3, 4, 2)),
        ((1, 1, 2), (2, 1, 2), (2, 1, 3), (2, 2, 3)),
        ((1, 1, 3), (1, 1, 4), (2, 1, 4), (2, 2, 4)),
        ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)),
        ((1, 3, 3), (1, 4, 3), (1, 4, 4), (2, 4, 4)),
        ((2, 3, 3), (2, 4, 3), (3, 4, 3), (3, 4, 4)),
    )),
    "T1": (frozenset({(1, 1), (1, 2), (2, 1)}), 4, _SKEW, (
        ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 2, 2)),
        ((1, 1, 2), (2, 1, 2), (2, 1, 3), (1, 2, 3)),
        ((1, 1, 3), (1, 1, 4), (2, 1, 4), (1, 2, 4)),
    )),
    "T2": (frozenset({(1, 2), (2, 1), (2, 2)}), 4, _SKEW, (
        ((2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)),
        ((2, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 3)),
        ((2, 1, 3), (2, 1, 4), (1, 2, 4), (2, 2, 4)),
    )),
    "T3": (frozenset({(1, 2), (1, 3), (2, 1), (2, 2)}), 2, _SKEW, (
        ((2, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)),
        ((1, 2, 1), (2, 2, 1), (1, 3, 1), (1, 3, 2)),
    )),
    "T4": (_box(2, 2), 2, _SKEW, (
        ((1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2)),
        ((2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)),
    )),
    "T5": (frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)}), 2, _SKEW, (
        ((1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2)),
        ((2, 1, 1), (3, 1, 1), (3, 1, 2), (2, 2, 2)),
        ((1, 2, 1), (2, 2, 1), (1, 3, 1), (1, 3, 2)),
    )),
}

BASE_IDS: tuple[str, ...] = tuple(_BASE)


@cache
def base_covering(name: str) -> Covering:
    """One of the catalog coverings, by id; see BASE_IDS.  Each is certified
    once per process and then shared."""
    try:
        cells, height, member, blocks = _BASE[name]
    except KeyError:
        raise ValueError(f"unknown base covering {name!r}, expected one of {BASE_IDS}") from None
    return _certified(Covering(cells, height, blocks, (member,)))


@cache
def covering_S3() -> Covering:
    """The [3] x [2] rectangle at height 4: S1 next to S2 shifted one column
    right.  Certified once per process and then shared, like base_covering."""
    s2 = (tuple((x + 1, y, z) for x, y, z in blk) for blk in base_covering("S2").blocks)
    return _certified(Covering(_box(3, 2), 4, [*base_covering("S1").blocks, *s2], (_AXIS,)))


# ---------- JSON wire format ----------

def covering_to_json(covering: Covering) -> dict:
    """Schema: {"cells": [[x, y], ...], "height": h,
    "family": [[[dx, dy, dz]] * 3 per member], "blocks": [[[x, y, z]] * 4, ...]}.

    The cells (sorted), family members and blocks are the covering's own
    tuples, with no copy per cell, member or block, in fresh outer lists;
    json.dumps writes each tuple as a JSON array.
    """
    return {
        "cells": sorted(covering.cells),
        "height": covering.height,
        "family": list(covering.family),
        "blocks": list(covering.blocks),
    }


def covering_from_json(obj) -> Covering:
    """Inverse of covering_to_json; blocks must be a list, and Covering
    checks the blocks, cells and family and builds each tuple once.  The
    result is *not* auto-verified: feed it to verify_covering."""
    cells = shape_from_json(obj)
    try:
        height = obj["height"]
        family = obj["family"]
        blocks = obj["blocks"]
    except KeyError as exc:
        raise ValueError(f"covering JSON missing field: {exc}") from None
    if not isinstance(blocks, list):
        raise ValueError("blocks must be a list")
    return Covering(cells, height, blocks, family)


def shape_from_json(obj) -> list:
    """The cells list of a shape document {"cells": [[x, y], ...]}, else a
    ValueError; Covering, which solve_covering builds from it, checks each
    cell."""
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise ValueError('expected a JSON object with a "cells" list')
    return obj["cells"]
