import tracemalloc
from itertools import permutations

import pytest
from hypothesis import example, given, strategies as st

from gaptile.blocks3d import (
    BASE_IDS, Block, Covering, axis_family, base_covering, compose,
    covering_S3, covering_S4, covering_S7, covering_from_json,
    covering_to_json, is_block, replicate_height, skew_family, stretch_e1,
    translate, verify_covering,
)
from gaptile.core import InternalInconsistency, Verdict

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
AXIS = (E1, E2, E3)
SKEW = (E1, (-1, 1, 0), E3)

# the heights the catalog promises
HEIGHTS = {"S1": 4, "S2": 4, "S4_2x4": 5, "S5": 4, "S6": 4,
           "T1": 4, "T2": 4, "T3": 2, "T4": 2, "T5": 2}


def box(w, h):
    return frozenset((x, y) for x in range(1, w + 1) for y in range(1, h + 1))


class TestIsBlock:
    def test_axis_ordering_rederived(self):
        pts = {(1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)}
        walk = is_block(pts, AXIS)
        steps = tuple(tuple(b[i] - a[i] for i in range(3))
                      for a, b in zip(walk, walk[1:]))
        assert steps == (E2, E1, E3)

    def test_skew_ordering_rederived(self):
        pts = {(2, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)}
        walk = is_block(pts, SKEW)
        steps = tuple(tuple(b[i] - a[i] for i in range(3))
                      for a, b in zip(walk, walk[1:]))
        assert steps == (E3, (-1, 1, 0), E1)

    def test_collinear_is_not_a_block(self):
        assert is_block({(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)}, AXIS) is None

    def test_no_negated_steps(self):
        # reachable only by walking e2 downward, which is not allowed
        pts = {(0, 0, 0), (1, 0, 0), (1, -1, 0), (1, -1, 1)}
        assert is_block(pts, AXIS) is None

    def test_wrong_cardinality(self):
        with pytest.raises(ValueError):
            is_block({(0, 0, 0), (1, 0, 0), (1, 1, 0)}, AXIS)
        with pytest.raises(ValueError):
            is_block([(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 0)], AXIS)


def is_block_by_walks(points, member):
    """Reference: the walk search is_block replaced, every start point and
    every permutation of the member's steps."""
    pts = {tuple(p) for p in points}
    for start in sorted(pts):
        for perm in sorted(set(permutations(member))):
            walk = [start]
            for step in perm:
                walk.append(tuple(a + b for a, b in zip(walk[-1], step)))
            if set(walk) == pts:
                return tuple(walk)
    return None


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
    def test_matches_walk_search(self, case):
        points, member = case
        assert is_block(points, member) == is_block_by_walks(points, member)

    @pytest.mark.parametrize("name", BASE_IDS)
    def test_catalog_orderings_unchanged(self, name):
        cov = base_covering(name)
        for blk in cov.blocks:
            assert is_block(blk.points, cov.family[0]) == \
                is_block_by_walks(blk.points, cov.family[0])


class TestCatalog:
    @pytest.mark.parametrize("name", BASE_IDS)
    def test_base_covering_verifies(self, name):
        cov = base_covering(name)
        assert cov.height == HEIGHTS[name]
        assert len(cov.blocks) * 4 == len(cov.cells) * cov.height
        assert verify_covering(cov)
        assert verify_covering(cov, cov.family)

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
        bad = tuple((x, y, z + 1) for x, y, z in blocks[0].points)
        blocks[0] = Block(bad)
        verdict = verify_covering(Covering(cov.cells, cov.height, blocks, cov.family))
        assert not verdict

    def test_foreign_family_rejected(self):
        cov = base_covering("T1")
        assert not verify_covering(cov, axis_family(1))


def verify_covering_with_sets(covering, family=None):
    """Reference verifier: the set-based check verify_covering replaced,
    with the walk search for block validity."""
    family = covering.family if family is None else family
    for index, block in enumerate(covering.blocks):
        if len(set(block.points)) != 4:
            return Verdict(False, "block", index)
        if not any(is_block_by_walks(block.points, member) for member in family):
            return Verdict(False, "block", index)
    seen = set()
    for block in covering.blocks:
        for point in block.points:
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
    points nudged, cells added or removed, and the height changed."""
    name = draw(st.sampled_from(BASE_IDS + ("S3",)))
    cov = covering_S3() if name == "S3" else base_covering(name)
    blocks = [blk.points for blk in cov.blocks]
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
    return Covering(cells, max(1, height), tuple(Block(b) for b in blocks), cov.family)


class TestVerifyCoveringReference:
    """verify_covering agrees with the set-based reference on every verdict,
    reason and witness."""

    @given(tampered_coverings())
    @example(Covering({(1, 1)}, 1, (), axis_family(1)))
    def test_matches_set_reference(self, cov):
        got = verify_covering(cov)
        want = verify_covering_with_sets(cov)
        assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)

    def test_huge_height_memory_follows_blocks(self):
        s1 = base_covering("S1")
        cov = Covering(s1.cells, 10**12, s1.blocks, s1.family)
        verify_covering(s1)  # build is_block's lookup table outside the trace
        tracemalloc.start()
        try:
            v = verify_covering(cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (v.ok, v.reason, v.witness) == (False, "coverage", (1, 1, 5))
        assert peak < 10_000


class TestAlgebra:
    def test_translate(self):
        cov = translate(base_covering("S1"), 3, -1)
        assert cov.cells == {(4, 0), (4, 1), (5, 1)}
        assert verify_covering(cov)
        back = translate(cov, -3, 1)
        assert back == base_covering("S1")

    def test_translate_certifies_its_result(self):
        # the public algebra keeps its contract: an invalid result raises
        cov = base_covering("S1")
        bad = Covering(cov.cells, cov.height, cov.blocks[1:], cov.family)
        with pytest.raises(InternalInconsistency):
            translate(bad, 1, 0)

    def test_stretch_identity(self):
        cov = base_covering("S1")
        assert stretch_e1(cov, 1) == cov

    def test_stretch_scales_family(self):
        cov = stretch_e1(base_covering("T1"), 3)
        assert cov.cells == {(3, 1), (3, 2), (6, 1)}
        assert cov.family == (((3, 0, 0), (-3, 1, 0), E3),)
        assert verify_covering(cov)

    def test_stretch_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stretch_e1(base_covering("S1"), 0)

    @given(st.integers(1, 4), st.integers(-3, 3), st.integers(-3, 3))
    def test_stretch_commutes_with_translate(self, w, dx, dy):
        cov = base_covering("S2")
        assert stretch_e1(translate(cov, dx, dy), w) == \
            translate(stretch_e1(cov, w), w * dx, dy)

    def test_replicate(self):
        cov = replicate_height(base_covering("S1"), 20)
        assert cov.height == 20
        assert len(cov.blocks) == 15  # 5 copies of 3 blocks
        assert verify_covering(cov)

    def test_replicate_identity(self):
        cov = base_covering("S1")
        assert replicate_height(cov, 4) == cov

    def test_replicate_t3(self):
        cov = replicate_height(base_covering("T3"), 4)
        assert cov.height == 4 and len(cov.blocks) == 4

    def test_replicate_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            replicate_height(base_covering("S1"), 6)

    def test_compose_s3(self):
        cov = covering_S3()
        assert cov.cells == box(3, 2)
        assert cov.height == 4
        assert verify_covering(cov)

    def test_compose_singleton(self):
        cov = base_covering("S1")
        assert compose([cov]) == cov

    def test_compose_overlap_names_pair(self):
        cov = base_covering("S1")
        with pytest.raises(ValueError, match=r"components 0 and 1 overlap"):
            compose([cov, cov])

    def test_compose_height_mismatch(self):
        with pytest.raises(ValueError, match="height"):
            compose([base_covering("S1"), translate(base_covering("T3"), 5, 0)])

    def test_compose_merges_families(self):
        left = stretch_e1(base_covering("T1"), 2)
        right = translate(stretch_e1(base_covering("T1"), 3), 10, 0)
        cov = compose([left, right])
        assert cov.family == skew_family(2, 3)


class TestRectangles:
    @pytest.mark.parametrize("k", range(2, 10))
    def test_covering_S4(self, k):
        cov = covering_S4(k)
        assert cov.cells == box(k, 4)
        assert cov.height == 20
        assert verify_covering(cov)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_covering_S7(self, k):
        cov = covering_S7(k)
        assert cov.cells == box(k, 4) | {(k + 1, 4)}
        assert cov.height == 20
        assert verify_covering(cov)

    def test_small_widths_rejected(self):
        with pytest.raises(ValueError):
            covering_S4(1)
        with pytest.raises(ValueError):
            covering_S7(1)


class TestJson:
    @pytest.mark.parametrize("name", ["S1", "T5"])
    def test_round_trip(self, name):
        cov = base_covering(name)
        loaded = covering_from_json(covering_to_json(cov))
        assert loaded.cells == cov.cells
        assert loaded.height == cov.height
        assert loaded.family == cov.family
        assert [b.points for b in loaded.blocks] == [b.points for b in cov.blocks]
        assert verify_covering(loaded)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            covering_from_json({"cells": [[1, 1]], "height": 1, "family": []})
        with pytest.raises(ValueError):
            covering_from_json({"cells": [[1, 1, 1]], "height": 1,
                                "family": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                                "blocks": []})

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

    def test_bad_candidate_loads_then_rejects(self):
        # malformed content (not schema) must yield a reject, not an exception
        obj = covering_to_json(base_covering("S1"))
        obj["blocks"][0] = [[9, 9, 9], [9, 9, 9], [8, 8, 8], [7, 7, 7]]
        verdict = verify_covering(covering_from_json(obj))
        assert not verdict
        assert verdict.reason == "block"
