import tracemalloc
from itertools import accumulate, chain, permutations

import pytest
from hypothesis import example, given, strategies as st

from gaptile import blocks3d
from gaptile.blocks3d import (
    BASE_IDS, Block, Covering, axis_family, base_covering, covering_S3,
    covering_from_json, covering_to_json, skew_family, verify_covering,
)
from gaptile.core import Verdict, _nested_ints
from gaptile.layers import layer_x1, layer_x2, layer_y1, layer_y2
from test_core import _shaped, reference_nested_ints

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
AXIS = (E1, E2, E3)
SKEW = (E1, (-1, 1, 0), E3)

# the heights the catalog promises
HEIGHTS = {"S1": 4, "S2": 4, "S4_2x4": 5, "S5": 4, "S6": 4,
           "T1": 4, "T2": 4, "T3": 2, "T4": 2, "T5": 2}


def box(w, h):
    return frozenset((x, y) for x in range(1, w + 1) for y in range(1, h + 1))


def is_block_by_walks(points, member):
    """Reference: the walk search for the block rule, every start point and
    every permutation of the member's steps.  Anything but four distinct
    points is no block."""
    pts = {tuple(p) for p in points}
    if len(points) != 4 or len(pts) != 4:
        return None
    for start in sorted(pts):
        for perm in sorted(set(permutations(member))):
            walk = [start]
            for step in perm:
                walk.append(tuple(a + b for a, b in zip(walk[-1], step)))
            if set(walk) == pts:
                return tuple(walk)
    return None


def one_block(points, family):
    """A covering whose only block is the given points; verify_covering
    judges the block before it looks at the cells and the height."""
    return Covering({(1, 1)}, 1, [points], family)


def block_error(index):
    """The message Covering raises for a block that is not four points of
    three ints, up to the quoted block."""
    return rf"^a block must be 4 lists of 3 integers, got block {index}: "


def steps(block):
    return tuple(tuple(b - a for a, b in zip(u, v)) for u, v in zip(block, block[1:]))


def rejected_block(points, family=(AXIS,)):
    v = verify_covering(one_block(points, family))
    return (v.ok, v.reason, v.witness) == (False, "block", 0)


def reordered_blocks_verify(name):
    # the first block in each of its 24 orders, most of them no walk
    cov = base_covering(name)
    first, *rest = cov.blocks
    orders = list(permutations(first))
    assert sum(steps(order) in set(permutations(cov.family[0])) for order in orders) < 24
    return all(verify_covering(Covering(cov.cells, cov.height, [order, *rest], cov.family))
               for order in orders)


class TestIsBlock:
    """The block rule, as verify_covering applies it to each block."""

    def test_axis_ordering_rederived(self):
        # a block is judged by its shape, not by the order its points are stored in
        assert reordered_blocks_verify("S1")

    def test_skew_ordering_rederived(self):
        assert reordered_blocks_verify("T2")

    def test_collinear_is_not_a_block(self):
        assert rejected_block([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])

    def test_no_negated_steps(self):
        # reachable only by walking e2 downward, which is not allowed
        assert rejected_block([(0, 0, 0), (1, 0, 0), (1, -1, 0), (1, -1, 1)])

    def test_wrong_cardinality(self):
        # four points with one repeated are stored and judged by their key;
        # three or five points cannot be stored
        assert rejected_block([(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0)])
        with pytest.raises(ValueError, match=block_error(0)):
            one_block([(0, 0, 0), (1, 0, 0), (1, 1, 0)], (AXIS,))
        with pytest.raises(ValueError, match=block_error(0)):
            one_block([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, 1)], (AXIS,))

    @pytest.mark.parametrize("points", [
        [(1, 1), (1, 2), (1, 3), (1, 4)],
        [(1, 1, 1, 0), (1, 2, 1, 0), (2, 2, 1, 0), (2, 2, 2, 0)],
        [("1", 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)],
        [(None, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)],
        [5, (1, 2, 1), (2, 2, 1), (2, 2, 2)],
    ], ids=["2d", "4d", "str", "none", "not-a-point"])
    def test_points_must_be_triples(self, points):
        # a point that is not three ints cannot be stored
        with pytest.raises(ValueError, match=block_error(0)):
            one_block(points, (AXIS,))


MEMBERS = [m for k in (1, 2, 3) for m in axis_family(k) + skew_family(k, k + 1)] + [
    ((1, 0, 0), (1, 0, 0), (0, 0, 1)),   # a repeated step
    ((1, 0, 0), (-1, 0, 0), (0, 0, 1)),  # a walk that revisits its start
    ((0, 0, 0), (0, 1, 0), (0, 0, 1)),   # a zero step
]


@st.composite
def four_points(draw):
    """Four distinct points, half the time a member's walk from a random
    start with one point possibly nudged."""
    member = draw(st.sampled_from(MEMBERS))
    coord = st.integers(-3, 3)
    if draw(st.booleans()):
        walk = [(draw(coord), draw(coord), draw(coord))]
        for step in draw(st.permutations(member)):
            walk.append(tuple(a + b for a, b in zip(walk[-1], step)))
        if draw(st.booleans()):
            i = draw(st.integers(0, 3))
            walk[i] = tuple(v + draw(st.integers(-1, 1)) for v in walk[i])
        if len(set(walk)) == 4:
            return walk, member
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=4, unique=True))
    return points, member


class TestIsBlockReference:
    @given(four_points())
    @example(([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)], AXIS))  # collinear
    @example(([(0, 0, 0), (1, 0, 0), (1, -1, 0), (1, -1, 1)], AXIS))  # a negated step
    @example(([(0, 0, 0), (1, 0, 0), (1, 1, 0)], AXIS))  # three points
    @example(([(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0)], AXIS))  # a repeated point
    @example(([(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 1)], MEMBERS[-2]))  # a revisiting walk
    def test_matches_walk_search(self, case):
        # verify_covering rejects the block exactly when the walk search
        # finds no walk; anything but four points cannot be stored
        points, member = case
        if len(points) != 4:
            with pytest.raises(ValueError, match=block_error(0)):
                one_block(points, (member,))
            return
        v = verify_covering(one_block(points, (member,)))
        assert (v.reason == "block") == (is_block_by_walks(points, member) is None)

    @pytest.mark.parametrize("name", BASE_IDS)
    def test_catalog_orderings_unchanged(self, name):
        # the catalog stores every block as a walk of its member, and each
        # block alone passes the rule under its family and not under the
        # other kind of member
        cov = base_covering(name)
        (member,) = cov.family
        for blk in cov.blocks:
            assert steps(blk) in set(permutations(member))
            assert is_block_by_walks(blk, member) is not None
            assert verify_covering(one_block(blk, cov.family)).reason != "block"
            assert rejected_block(blk, (SKEW if member == AXIS else AXIS,))


class TestCatalog:
    @pytest.mark.parametrize("name", BASE_IDS)
    def test_base_covering_verifies(self, name):
        cov = base_covering(name)
        assert cov.height == HEIGHTS[name]
        assert len(cov.blocks) * 4 == len(cov.cells) * cov.height
        assert verify_covering(cov)

    def test_catalog_is_complete(self):
        assert set(BASE_IDS) == set(HEIGHTS)

    def test_families(self):
        assert base_covering("S1").family == axis_family(1)
        assert base_covering("T4").family == skew_family(1, 1)

    def test_shapes(self):
        assert base_covering("S2").cells == {(1, 1), (2, 1), (2, 2)}
        assert base_covering("S4_2x4").cells == box(2, 4)
        assert base_covering("S5").cells == box(2, 4) | {(3, 1), (3, 2)}
        assert base_covering("S6").cells == box(2, 4) | {(3, 4)}
        assert base_covering("T5").cells == \
            {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)}

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            base_covering("S99")

    def test_tampered_covering_rejected(self):
        cov = base_covering("S1")
        blocks = list(cov.blocks)
        bad = tuple((x, y, z + 1) for x, y, z in blocks[0])
        blocks[0] = Block(bad)
        verdict = verify_covering(Covering(cov.cells, cov.height, blocks, cov.family))
        assert not verdict

    def test_foreign_family_rejected(self):
        cov = base_covering("T1")
        v = verify_covering(Covering(cov.cells, cov.height, cov.blocks, axis_family(1)))
        assert (v.ok, v.reason, v.witness) == (False, "block", 0)


def verify_covering_with_sets(covering):
    """Reference verifier: the set-based check verify_covering replaced,
    with the walk search for block validity."""
    for index, block in enumerate(covering.blocks):
        if not any(is_block_by_walks(block, member) for member in covering.family):
            return Verdict(False, "block", index)
    seen = set()
    for block in covering.blocks:
        for point in block:
            if point in seen:
                return Verdict(False, "overlap", point)
            seen.add(point)
    target = {(x, y, z) for x, y in covering.cells for z in range(1, covering.height + 1)}
    if seen != target:
        return Verdict(False, "coverage", min(seen ^ target))
    return Verdict(True)


@st.composite
def tampered_coverings(draw):
    """A catalog covering (or S3), then blocks dropped, repeated or moved,
    points nudged, cells added or removed, and the height changed; up to
    three foreign members go ahead of the covering's own in its family."""
    name = draw(st.sampled_from(BASE_IDS + ("S3",)))
    cov = covering_S3() if name == "S3" else base_covering(name)
    foreign = [m for m in MEMBERS if m not in cov.family]
    family = tuple(draw(st.lists(st.sampled_from(foreign), max_size=3, unique=True))) + cov.family
    blocks = [blk for blk in cov.blocks]
    blocks = [b for b in blocks if draw(st.integers(0, 9))]
    if blocks and draw(st.booleans()):
        blocks.insert(draw(st.integers(0, len(blocks))), draw(st.sampled_from(blocks)))
    shift = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
    for _ in range(draw(st.integers(0, 2))):
        if blocks:
            j = draw(st.integers(0, len(blocks) - 1))
            moved = draw(shift)
            nudge = [moved] * 4 if draw(st.booleans()) else \
                [(0, 0, 0)] * 3 + [moved]
            blocks[j] = tuple(tuple(a + b for a, b in zip(pt, d))
                              for pt, d in zip(blocks[j], draw(st.permutations(nudge))))
    cells = set(cov.cells)
    cells -= set(draw(st.lists(st.sampled_from(sorted(cells)), max_size=2)))
    cells |= set(draw(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 5)), max_size=2)))
    height = cov.height + draw(st.sampled_from([0, 0, 0, -1, 1, cov.height]))
    return Covering(cells, max(1, height), tuple(Block(b) for b in blocks), family)


class TestVerifyCoveringReference:
    """verify_covering agrees with the set-based reference on every verdict,
    reason and witness."""

    @given(tampered_coverings())
    @example(Covering({(1, 1)}, 1, (), axis_family(1)))
    def test_matches_set_reference(self, cov):
        got = verify_covering(cov)
        want = verify_covering_with_sets(cov)
        assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)

    def test_no_cells_no_blocks_accepts(self):
        # no z at all: the bulk z bounds must hold on the empty set
        v = verify_covering(Covering(frozenset(), 1, (), axis_family(1)))
        assert (v.ok, v.reason, v.witness) == (True, "", None)

    def test_huge_height_memory_follows_blocks(self):
        s1 = base_covering("S1")
        cov = Covering(s1.cells, 10**12, s1.blocks, s1.family)
        # nothing is cached between calls: the family's keys are built
        # inside the trace, and counted in its peak
        tracemalloc.start()
        try:
            v = verify_covering(cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (v.ok, v.reason, v.witness) == (False, "coverage", (1, 1, 5))
        assert peak < 10_000


def frozenset_shape(points):
    """Reference: the point set translated so that its least point is the
    origin, the rule verify_covering applied per block before keys."""
    bx, by, bz = min(points)
    return frozenset((x - bx, y - by, z - bz) for x, y, z in points)


def frozenset_shapes(family):
    """Reference: the shapes of each member's walks from the origin, under
    every ordering of its steps, that visit four distinct points."""
    walks = (list(accumulate(steps, lambda a, v: tuple(map(sum, zip(a, v))), initial=(0, 0, 0)))
             for member in family for steps in permutations(member))
    return {shape for shape in map(frozenset_shape, walks) if len(shape) == 4}


def verify_covering_with_frozensets(covering):
    """Reference: verify_covering as it was before keys and the bulk
    coverage check, a frozenset per block and a scan of every point."""
    blocks = covering.blocks
    shapes = frozenset_shapes(covering.family)
    for index, block in enumerate(blocks):
        if frozenset_shape(block) not in shapes:
            return Verdict(False, "block", index)
    points = list(chain.from_iterable(blocks))
    seen = set(points)
    if len(seen) < len(points):
        seen = set()
        for point in points:
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


@st.composite
def families(draw):
    stride = st.integers(1, 6) | st.integers(1, 10**12)
    if draw(st.booleans()):
        return axis_family(draw(stride))
    return skew_family(draw(stride), draw(stride))


@st.composite
def block_candidates(draw):
    """A family and four points in any order: a member's walk from a small
    or huge start, the walk with a point nudged or repeated, or any four
    points, repeats allowed."""
    family = draw(families())
    coord = st.integers(-5, 5) | st.integers(-10**20, 10**20)
    point = st.tuples(coord, coord, coord)
    walk = [draw(point)]
    for step in draw(st.permutations(draw(st.sampled_from(family)))):
        walk.append(tuple(a + b for a, b in zip(walk[-1], step)))
    i, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["walk", "nudged", "repeated", "any"]))
    if kind == "nudged":
        walk[i] = tuple(v + draw(st.integers(-1, 1)) for v in walk[i])
    elif kind == "repeated":
        walk[i] = walk[k]
    elif kind == "any":
        walk = draw(st.lists(point, min_size=4, max_size=4))
    return draw(st.permutations(walk)), family


class TestBlockKeys:
    """verify_covering's block check, a key of offsets from the least
    sorted point, agrees with the frozenset shape rule it replaced."""

    @given(block_candidates())
    @example(([(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0)], axis_family(1)))
    @example(([(5, 5, 5), (5, 5, 5), (5, 5, 5), (5, 5, 5)], skew_family(1, 2)))
    @example(([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 1)], skew_family(1, 1)))
    def test_matches_frozenset_rule(self, case):
        points, family = case
        v = verify_covering(one_block(points, family))
        missed = frozenset_shape(points) not in frozenset_shapes(family)
        assert (v.reason == "block") == missed

    def test_first_miss_is_named_among_repeats(self):
        # the witness is the first failing block, whichever later block
        # repeats it
        s1 = base_covering("S1")
        bad = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
        blocks = [s1.blocks[0], bad[::-1], s1.blocks[1], bad, bad[::-1]]
        v = verify_covering(Covering(s1.cells, s1.height, blocks, s1.family))
        assert (v.ok, v.reason, v.witness) == (False, "block", 1)


def tampered(blocks, height, tamper):
    """A layer covering's blocks and height, tampered one way."""
    if tamper == "moved-point":
        *rest, (x, y, z) = blocks[7]
        blocks[7] = (*rest, (x + 1, y, z))
    elif tamper == "duplicated-block":
        blocks.insert(5, blocks[4])
    elif tamper == "point-outside-cells":
        blocks[3] = tuple((x + 10**6, y, z) for x, y, z in blocks[3])
    elif tamper in ("z-0", "z-height-plus-1"):
        dz = -1 if tamper == "z-0" else 1
        blocks = [tuple((x, y, z + dz) for x, y, z in blk) for blk in blocks]
    elif tamper == "height-minus-1":
        height -= 1
    elif tamper == "missing-point":
        del blocks[-2]
    elif tamper == "height-1e18":
        height = 10**18
    return blocks, height


TAMPERS = ["none", "moved-point", "duplicated-block", "point-outside-cells", "z-0",
           "z-height-plus-1", "height-minus-1", "missing-point", "height-1e18"]


class TestVerifyCoveringFrozensetReference:
    """Every layer covering, tampered one way, gets the same verdict, reason
    and witness from verify_covering as from the frozenset reference."""

    @pytest.mark.parametrize("tamper", TAMPERS)
    @pytest.mark.parametrize("build,p,q", [
        (layer_x1, 1, 5), (layer_x2, 2, 7), (layer_y1, 2, 3), (layer_y2, 3, 3),
        (layer_x1, 1, 300),
    ], ids=["X1-1-5", "X2-2-7", "Y1-2-3", "Y2-3-3", "X1-1-300"])
    def test_matches_frozenset_reference(self, build, p, q, tamper):
        _, cov = build(p, q)
        blocks, height = tampered(list(cov.blocks), cov.height, tamper)
        cov = Covering(cov.cells, height, blocks, cov.family)
        got, want = verify_covering(cov), verify_covering_with_frozensets(cov)
        assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)
        assert got.ok == (tamper == "none")


def listed(cov):
    """The same covering with every cell, block, point, family member and
    step given as a list."""
    return Covering([list(c) for c in sorted(cov.cells)], cov.height,
                    [[list(pt) for pt in blk] for blk in cov.blocks],
                    [[list(v) for v in member] for member in cov.family])


S1_BLOCKS = base_covering("S1").blocks + tuple(
    [list(pt) for pt in blk] for blk in base_covering("S1").blocks)


def four_repeated(block):
    """The one malformed reshape Covering stores: four points, one twice."""
    return block[:3] + block[:1]


class TestPlainBlocks:
    @pytest.mark.parametrize("name", BASE_IDS)
    def test_list_points_store_as_tuples(self, name):
        cov = base_covering(name)
        assert listed(cov) == cov
        assert all(type(blk) is tuple and all(type(pt) is tuple for pt in blk)
                   for blk in listed(cov).blocks)

    @given(tampered_coverings())
    def test_list_points_verify_as_tuples(self, cov):
        got, want = verify_covering(listed(cov)), verify_covering(cov)
        assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("reshape", [
        lambda b: b[:3], lambda b: b + b[:1], lambda b: b + ((9, 9, 9),),
        four_repeated, lambda b: (),
        lambda b: tuple(pt[:2] for pt in b),
        lambda b: (b[0][:2],) + b[1:], lambda b: (b[0] + (0,),) + b[1:],
        lambda b: ((str(b[0][0]),) + b[0][1:],) + b[1:],
        lambda b: (b[0][:2] + (None,),) + b[1:],
        # equal to the int point it replaces: only its type is wrong
        lambda b: ((b[0][0], bool(b[0][1]), b[0][2]),) + b[1:],
    ], ids=["three", "five-repeated", "five-distinct", "four-repeated", "empty",
            "planar", "2d-point", "4d-point", "str-point", "none-point", "bool-point"])
    def test_malformed_block_rejected_with_its_index(self, index, reshape):
        # four points of three ints, one repeated, are stored and get a
        # block verdict; any other block cannot be stored
        cov = base_covering("S1")
        blocks = list(cov.blocks)
        blocks[index] = reshape(blocks[index])
        if reshape is not four_repeated:
            with pytest.raises(ValueError, match=block_error(index)):
                Covering(cov.cells, cov.height, blocks, cov.family)
            return
        v = verify_covering(Covering(cov.cells, cov.height, blocks, cov.family))
        assert (v.ok, v.reason, v.witness) == (False, "block", index)

    def test_earlier_invalid_block_named_first(self):
        # the construction check runs before any walk check: of a wrong
        # walk at index 1 and mistyped points at 2 and 3, Covering names 2
        cov = base_covering("S1")
        blocks = [list(blk) for blk in cov.blocks] + [list(cov.blocks[0])]
        blocks[1] = [(9, 9, 9), (9, 9, 10), (9, 9, 11), (9, 9, 12)]
        blocks[2][0] = (1, 1)
        blocks[3][0] = (1, 1)
        with pytest.raises(ValueError, match=block_error(2) + r"\[\(1, 1\), "):
            Covering(cov.cells, cov.height, blocks, cov.family)
        blocks[2:] = cov.blocks[2:]
        v = verify_covering(Covering(cov.cells, cov.height, blocks, cov.family))
        assert (v.ok, v.reason, v.witness) == (False, "block", 1)

    @given(st.lists(st.sampled_from(S1_BLOCKS) | _shaped((4, 3)), max_size=6), st.booleans())
    @example([S1_BLOCKS[0], [[1, 1], [1, 2], [2, 2], [2, 2]]], True)
    def test_one_block_check(self, blocks, bad_cell):
        # Covering names the first block that is not four lists or tuples
        # of three ints, before it looks at the cells, as a covering
        # document's reader always has; any Covering it builds gets a
        # verdict, the frozenset reference's
        s1 = base_covering("S1")
        cells = [*sorted(s1.cells), ("a", 1)] if bad_cell else s1.cells
        first = next((i for i, blk in enumerate(blocks)
                      if not reference_nested_ints(blk, (4, 3))), None)
        if first is not None:
            with pytest.raises(ValueError, match=block_error(first)):
                Covering(cells, s1.height, blocks, s1.family)
        elif bad_cell:
            with pytest.raises(ValueError, match="^a cell must be two integers"):
                Covering(cells, s1.height, blocks, s1.family)
        else:
            cov = Covering(cells, s1.height, blocks, s1.family)
            got, want = verify_covering(cov), verify_covering_with_frozensets(cov)
            assert isinstance(got, Verdict)
            assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)

    def test_block_check_runs_once_per_covering(self, monkeypatch):
        # a layer builder's Covering checks its blocks once, and certifying
        # it checks them no more
        calls, built, verified = [], [], []
        post_init, verify = Covering.__post_init__, blocks3d.verify_covering

        def counted(values, *lengths):
            calls.append(lengths)
            return _nested_ints(values, *lengths)

        def counted_post_init(cov):
            built.append(cov)
            post_init(cov)

        def counted_verify(cov):
            verified.append(cov)
            return verify(cov)

        monkeypatch.setattr(blocks3d, "_nested_ints", counted)
        monkeypatch.setattr(Covering, "__post_init__", counted_post_init)
        monkeypatch.setattr(blocks3d, "verify_covering", counted_verify)
        _, cov = layer_x1(1, 300)
        assert len(cov.blocks) == 6000
        assert verified[-1] is cov is built[-1]
        assert calls == [(4, 3), (2,), (3, 3)] * len(built)

    @pytest.mark.parametrize("family", [
        [((1, 0), (0, 1), (0, 0))],
        [5],
        [(("a", 0, 0), (0, 1, 0), (0, 0, 1))],
        [((True, 0, 0), (0, 1, 0), (0, 0, 1))],
        [((1, 0, 0), (0, 1, 0))],
    ], ids=["planar-member", "int-member", "str-step", "bool-step", "two-steps"])
    def test_malformed_family_is_value_error(self, family):
        # read as covering_from_json reads a family: three triples of ints
        s1 = base_covering("S1")
        with pytest.raises(ValueError):
            Covering(s1.cells, s1.height, s1.blocks, family)

    def test_first_bad_family_member_is_named(self):
        s1 = base_covering("S1")
        family = [*axis_family(2), [[1, 0, 0], [0, 1, 0]], (E1, E2, (0, 0, True)), AXIS]
        with pytest.raises(ValueError, match=r"^a family member must be 3 lists of 3 integers, "
                                             r"got \[\[1, 0, 0\], \[0, 1, 0\]\]$"):
            Covering(s1.cells, s1.height, s1.blocks, family)

    @pytest.mark.parametrize("cells,blocks", [
        ({(1, 1)}, [5]),
        (5, []),
        ({(1, 1)}, 5),
        ([5], []),
        ({(1, 1)}, [[5, 6, 7, 8]]),
    ], ids=["int-block", "int-cells", "int-blocks", "int-cell", "int-points"])
    def test_non_iterable_fields_are_value_errors(self, cells, blocks):
        with pytest.raises(ValueError):
            Covering(cells, 4, blocks, axis_family(1))

    @pytest.mark.parametrize("cells", [
        {(1, 1), ("a", 1)},
        {(1, 1), (None, 1)},
        [(1, 1, 1)],
        [(1,)],
        [(1, 1), (True, 2)],
        [(1, 1), (1, 2.0)],
    ], ids=["str-cell", "none-cell", "3d-cell", "1d-cell", "bool-cell", "float-cell"])
    def test_cell_must_be_two_ints(self, cells):
        # read as shape_from_json reads a cell, so verify_covering never
        # meets a cell it cannot compare or unpack
        with pytest.raises(ValueError, match="a cell must be two integers"):
            Covering(cells, 4, [], axis_family(1))


class TestRectangles:
    def test_covering_S3(self):
        cov = covering_S3()
        assert cov.cells == box(3, 2)
        assert cov.height == 4
        assert verify_covering(cov)

    def test_covering_S3_is_built_once(self):
        # certified once per process and then shared, like base_covering
        assert covering_S3() is covering_S3()


class TestJson:
    @pytest.mark.parametrize("name", ["S1", "T5"])
    def test_round_trip(self, name):
        cov = base_covering(name)
        loaded = covering_from_json(covering_to_json(cov))
        assert loaded.cells == cov.cells
        assert loaded.height == cov.height
        assert loaded.family == cov.family
        assert [b for b in loaded.blocks] == [b for b in cov.blocks]
        assert verify_covering(loaded)

    def test_writes_the_coverings_own_tuples(self):
        # no copy per cell, member or block; the outer values are fresh lists
        cov = covering_S3()
        doc = covering_to_json(cov)
        assert doc["blocks"][0] is cov.blocks[0]
        assert doc["family"][0] is cov.family[0]
        assert all(cell in cov.cells and type(cell) is tuple for cell in doc["cells"])
        assert all(type(doc[field]) is list for field in ("cells", "family", "blocks"))
        doc["blocks"].pop()
        assert len(cov.blocks) == len(doc["blocks"]) + 1

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            covering_from_json({"cells": [[1, 1]], "height": 1, "family": []})
        with pytest.raises(ValueError):
            covering_from_json({"cells": [[1, 1, 1]], "height": 1,
                                "family": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                                "blocks": []})

    def test_first_bad_block_is_named(self):
        obj = covering_to_json(base_covering("S5"))
        blocks = [[list(pt) for pt in blk] for blk in obj["blocks"]]
        blocks[4][1][2] = True
        blocks[7] = blocks[7][:3]
        with pytest.raises(ValueError, match=r"^a block must be 4 lists of 3 integers, got block 4: "
                                             r"\[\[2, 1, 2\], \[3, 1, True\], "):
            covering_from_json(dict(obj, blocks=blocks))

    @pytest.mark.parametrize("field,value", [
        ("height", True),
        ("cells", [[1, 1], [1, 2], [True, 2]]),
        ("blocks", [[[1, 1, 1], [1, 2, 1], [2, 2, 1], [2, 2, True]]]),
        ("blocks", [5]),
        ("family", 5),
        ("cells", 5),
    ])
    def test_bool_or_non_list_is_malformed(self, field, value):
        obj = dict(covering_to_json(base_covering("S1")), **{field: value})
        with pytest.raises(ValueError):
            covering_from_json(obj)

    @pytest.mark.parametrize("height", [2.5, 4.0, True, "4", None])
    def test_height_must_be_an_integer(self, height):
        # the same check, and message, for Python callers and JSON readers
        s1 = base_covering("S1")
        with pytest.raises(ValueError, match="height must be an integer"):
            Covering(s1.cells, height, s1.blocks, s1.family)
        with pytest.raises(ValueError, match="height must be an integer"):
            covering_from_json(dict(covering_to_json(s1), height=height))

    @pytest.mark.parametrize("height", [0, -1])
    def test_height_must_be_positive(self, height):
        s1 = base_covering("S1")
        with pytest.raises(ValueError, match="^covering height must be positive$"):
            Covering(s1.cells, height, s1.blocks, s1.family)
        with pytest.raises(ValueError, match="^covering height must be positive$"):
            covering_from_json(dict(covering_to_json(s1), height=height))

    def test_bad_candidate_loads_then_rejects(self):
        # malformed content (not schema) must yield a reject, not an exception
        obj = covering_to_json(base_covering("S1"))
        obj["blocks"][0] = [[9, 9, 9], [9, 9, 9], [8, 8, 8], [7, 7, 7]]
        verdict = verify_covering(covering_from_json(obj))
        assert not verdict
        assert verdict.reason == "block"
