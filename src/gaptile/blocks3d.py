"""Blocks in Z^3 and verified coverings of planar shapes.

A block is a set of four points of Z^3 that can be ordered v1, v2, v3, v4 so
that the step vectors {v2-v1, v3-v2, v4-v3} are exactly a prescribed triple
of vectors, as a multiset and without negation.  The triple is a "family
member"; the two kinds used here are

    axis member   (m*e1, e2, e3)            unit steps plus a column jump m
    skew member   (m*e1, e2 - m*e1, e3)     the row step leans back m columns

A block is a plain 4-tuple of point tuples (Block), judged by verify_covering.

A covering of a planar shape S at height h is a partition of the slab
S x {1..h} into family blocks.  This module ships a small catalog of base
coverings over tiny shapes, an algebra to assemble larger ones (translate,
stretch_e1, replicate_height, compose), and the rectangle and notched
rectangle coverings the layer builders consume.

The algebra's moves keep a valid covering valid, so each builder assembles
from their private, uncertified forms and runs verify_covering once on the
covering it returns; the public algebra functions certify their results
too.  An invalid covering cannot escape the package, and verify_covering
never trusts stored block orderings but re-derives them from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate, permutations

from .core import InternalInconsistency, Verdict

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
    if m < 1:
        raise ValueError("column stride must be positive")
    return (((m, 0, 0), E2, E3),)


def skew_family(p: int, q: int) -> Family:
    """Family {(m*e1, e2 - m*e1, e3) : m in {p, q}}; one member when p == q."""
    if p < 1 or q < 1:
        raise ValueError("column strides must be positive")
    members = []
    for m in (p, q):
        member = ((m, 0, 0), (-m, 1, 0), E3)
        if member not in members:
            members.append(member)
    return tuple(members)


#: Four points of Z^3.  Their order is a convenience: verify_covering
#: rejects a block that is not four distinct points, and re-derives an
#: ordering with is_block.
Block = tuple[Point3, Point3, Point3, Point3]


@dataclass(frozen=True)
class Covering:
    """A shape, a height, the blocks partitioning shape x {1..height}, and
    the family the blocks are drawn from.  Cells, blocks and their points are
    stored as tuples, whatever sequences they were given as.  A height that
    is not a positive integer (bool included) is a ValueError."""

    cells: frozenset[Cell]
    height: int
    blocks: tuple[Block, ...]
    family: Family

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(tuple(c) for c in self.cells))
        object.__setattr__(self, "blocks", tuple(tuple(map(tuple, b)) for b in self.blocks))
        object.__setattr__(self, "family", tuple(self.family))
        if type(self.height) is not int:
            raise ValueError("height must be an integer")
        if self.height < 1:
            raise ValueError("covering height must be positive")
        if not self.family:
            raise ValueError("covering needs a nonempty family")


def is_block(points, member: Member) -> tuple[Point3, ...] | None:
    """Find an ordering of the four points whose consecutive step vectors
    are a permutation of the member triple, matched exactly.

    Returns the ordering, or None when no ordering works; among several it
    is the one with the least start point, then the first permutation in
    sorted order.  Points must be four distinct triples; anything else
    raises ValueError.
    """
    pts = {tuple(p) for p in points}
    if len(pts) != 4:
        raise ValueError(f"is_block needs exactly 4 distinct points, got {len(pts)}")
    base = min(pts)
    walk = _walks(tuple(map(tuple, member))).get(frozenset(_sub(p, base) for p in pts))
    return None if walk is None else tuple(_add(base, v) for v in walk)


@lru_cache(maxsize=256)
def _walks(member: Member) -> dict[frozenset[Vec3], tuple[Vec3, ...]]:
    """Every block shape of a member, translated so its least point is the
    origin, mapped to the walk is_block reports for it."""
    walks: dict[frozenset[Vec3], tuple[Vec3, ...]] = {}
    for perm in sorted(set(permutations(member))):
        walk = list(accumulate(perm, _add, initial=(0, 0, 0)))
        base = min(walk)
        walk = tuple(_sub(p, base) for p in walk)
        shape = frozenset(walk)
        # a walk from a lesser start point wins; ties keep the earlier permutation
        if shape not in walks or walk[0] < walks[shape][0]:
            walks[shape] = walk
    return walks


def verify_covering(covering: Covering, family: Family | None = None) -> Verdict:
    """Accept iff every block is a family block and the blocks partition
    cells x {1..height} exactly.

    Checks run in the fixed order block validity, overlap, coverage; the
    verdict's witness is the offending block index or point.  Candidates
    assembled from untrusted JSON yield a reject, never an exception.

    Memory follows the blocks, not the slab: the coverage witness is the
    least stray point or the least missing one, found by scanning the slab
    in sorted order, within len(seen) + 1 steps by pigeonhole.
    """
    if family is None:
        family = covering.family
    for index, block in enumerate(covering.blocks):
        if (len(block) != 4 or len(set(block)) != 4
                or not any(is_block(block, m) for m in family)):
            return Verdict(False, "block", index)
    seen: set[Point3] = set()
    for block in covering.blocks:
        for point in block:
            if point in seen:
                return Verdict(False, "overlap", point)
            seen.add(point)
    cells, height = covering.cells, covering.height
    mismatches = [pt for pt in seen if pt[:2] not in cells or not 1 <= pt[2] <= height]
    if len(seen) - len(mismatches) < len(cells) * height:
        slab = ((x, y, z) for x, y in sorted(cells) for z in range(1, height + 1))
        mismatches.append(next(pt for pt in slab if pt not in seen))
    if mismatches:
        return Verdict(False, "coverage", min(mismatches))
    return Verdict(True)


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


# ---------- covering algebra: private forms build, public forms certify ----------

def _affine(covering: Covering, w: int, dx: int, dy: int) -> Covering:
    """The map x -> w*x + dx, y -> y + dy, heights untouched; an
    (m*e1, ...) family becomes (w*m*e1, ...)."""
    cells = frozenset((w * x + dx, y + dy) for x, y in covering.cells)
    family = tuple(tuple((w * v[0], v[1], v[2]) for v in member) for member in covering.family)
    blocks = tuple(tuple((w * x + dx, y + dy, z) for x, y, z in blk) for blk in covering.blocks)
    return Covering(cells, covering.height, blocks, family)


def _replicated(covering: Covering, height: int) -> Covering:
    if height < 1 or height % covering.height:
        raise ValueError(
            f"target height {height} is not a multiple of covering height {covering.height}")
    blocks = tuple(tuple((x, y, z + dz) for x, y, z in blk)
                   for dz in range(0, height, covering.height) for blk in covering.blocks)
    return Covering(covering.cells, height, blocks, covering.family)


def _composed(coverings) -> Covering:
    coverings = list(coverings)
    if not coverings:
        raise ValueError("compose needs at least one covering")
    height = coverings[0].height
    for i, cov in enumerate(coverings):
        if cov.height != height:
            raise ValueError(f"components 0 and {i} differ in height: {height} vs {cov.height}")
    owner: dict[Cell, int] = {}
    for i, cov in enumerate(coverings):
        for cell in sorted(cov.cells):
            if cell in owner:
                raise ValueError(f"components {owner[cell]} and {i} overlap at cell {cell}")
            owner[cell] = i
    family = dict.fromkeys(member for cov in coverings for member in cov.family)
    blocks = tuple(blk for cov in coverings for blk in cov.blocks)
    return Covering(frozenset(owner), height, blocks, tuple(family))


def translate(covering: Covering, dx: int, dy: int) -> Covering:
    """Rigid shift in the plane; height and family are unchanged."""
    return _certified(_affine(covering, 1, dx, dy))


def stretch_e1(covering: Covering, w: int) -> Covering:
    """Scale every x coordinate by w, mapping an (m*e1, ...) family to
    (w*m*e1, ...); rows and heights are untouched."""
    if w < 1:
        raise ValueError("stretch factor must be positive")
    return _certified(_affine(covering, w, 0, 0))


def replicate_height(covering: Covering, height: int) -> Covering:
    """Stack height / h(covering) vertical copies; height must be a multiple.
    A covering already at that height comes back as it is, uncertified."""
    if height == covering.height:
        return covering
    return _certified(_replicated(covering, height))


def compose(coverings) -> Covering:
    """Disjoint union of coverings of equal height; families are merged.

    Overlapping cells or mismatched heights raise ValueError naming the
    offending pair of components.
    """
    return _certified(_composed(coverings))


# ---------- composed rectangle coverings ----------

def _s3() -> Covering:
    return _composed([base_covering("S1"), _affine(base_covering("S2"), 1, 1, 0)])


def covering_S3() -> Covering:
    """The [3] x [2] rectangle at height 4: S1 next to a shifted S2."""
    return _certified(_s3())


def covering_S4(k: int) -> Covering:
    """The [k] x [4] rectangle at height 20, for k >= 2.

    Even k is filled with [2] x [4] columns (native height 5); odd k uses two
    stacked copies of the [3] x [2] rectangle for the first three columns and
    [2] x [4] columns after that.  Everything is replicated to height 20 so
    the pieces compose.
    """
    return _certified(_rectangle(k))


def _rectangle(k: int) -> Covering:
    if k < 2:
        raise ValueError(f"rectangle width must be at least 2, got {k}")
    pieces = []
    start = 0
    if k % 2:
        three = _s3()
        pieces.append(_replicated(_composed([three, _affine(three, 1, 0, 2)]), 20))
        start = 3
    pieces += _two_wide_columns(start, k)
    return _composed(pieces)


def covering_S7(k: int) -> Covering:
    """The [k] x [4] rectangle plus the extra cell (k+1, 4), at height 20.

    The last columns come from a notched base piece (S6 for even k, an S5
    plus S1 assembly for odd k); the remaining width is filled with
    [2] x [4] columns.
    """
    return _certified(_notched_rectangle(k))


def _notched_rectangle(k: int) -> Covering:
    if k < 2:
        raise ValueError(f"notched rectangle width must be at least 2, got {k}")
    if k % 2 == 0:
        tail, tail_width = base_covering("S6"), 2
    else:
        tail = _composed([base_covering("S5"), _affine(base_covering("S1"), 1, 2, 2)])
        tail_width = 3
    pieces = _two_wide_columns(0, k - tail_width)
    pieces.append(_replicated(_affine(tail, 1, k - tail_width, 0), 20))
    return _composed(pieces)


def _two_wide_columns(start: int, stop: int) -> list[Covering]:
    # [2] x [4] columns at height 20 filling x = start+1 .. stop
    column = _replicated(base_covering("S4_2x4"), 20)
    return [_affine(column, 1, x, 0) for x in range(start, stop - 1, 2)]


# ---------- JSON wire format ----------

def covering_to_json(covering: Covering) -> dict:
    """Schema: {"cells": [[x, y], ...], "height": h,
    "family": [[[dx, dy, dz]] * 3 per member], "blocks": [[[x, y, z]] * 4, ...]}."""
    return {
        "cells": [list(c) for c in sorted(covering.cells)],
        "height": covering.height,
        "family": [[list(v) for v in member] for member in covering.family],
        "blocks": [[list(p) for p in blk] for blk in covering.blocks],
    }


def covering_from_json(obj) -> Covering:
    """Inverse of covering_to_json; raises ValueError on schema violations.

    The result is *not* auto-verified: feed it to verify_covering to judge it.
    """
    cells = shape_from_json(obj)
    try:
        height = obj["height"]
        raw_family = obj["family"]
        raw_blocks = obj["blocks"]
    except KeyError as exc:
        raise ValueError(f"covering JSON missing field: {exc}") from None
    if not isinstance(raw_family, list) or not isinstance(raw_blocks, list):
        raise ValueError("family and blocks must be lists")
    family = tuple(_points(m, 3, 3, "a family member") for m in raw_family)
    blocks = tuple(_points(b, 4, 3, "a block") for b in raw_blocks)
    return Covering(cells, height, blocks, family)


def shape_from_json(obj) -> frozenset[Cell]:
    """The cells of a shape document {"cells": [[x, y], ...]}, validated as
    covering_from_json validates a covering's cells; raises ValueError on
    schema violations."""
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise ValueError('expected a JSON object with a "cells" list')
    return frozenset(_point(c, 2) for c in obj["cells"])


def _point(values, arity: int) -> tuple[int, ...]:
    # bool is an int subclass, but true is not a coordinate
    if (not isinstance(values, (list, tuple)) or len(values) != arity
            or any(type(v) is not int for v in values)):
        raise ValueError(f"expected {arity} integers, got {values!r}")
    return tuple(values)


def _points(values, count: int, arity: int, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(values, (list, tuple)) or len(values) != count:
        raise ValueError(f"{what} must be {count} lists of {arity} integers, got {values!r}")
    return tuple(_point(v, arity) for v in values)


def _add(a: Point3, v: Vec3) -> Point3:
    return (a[0] + v[0], a[1] + v[1], a[2] + v[2])


def _sub(b: Point3, a: Point3) -> Vec3:
    return (b[0] - a[0], b[1] - a[1], b[2] - a[2])
