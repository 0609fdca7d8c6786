import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from gaptile.assemble import plan, threshold, tile
from gaptile.core import (
    GapSequence, Tiling, Verdict, gap_multiset,
    tiling_from_json, tiling_to_json, verify_tiling,
)


def triple(*gaps):
    return GapSequence(tuple(gaps))


def parts(*element_lists):
    return tuple(tuple(xs) for xs in element_lists)


class TestGapSequence:
    def test_normalizes_sorted(self):
        assert GapSequence.of(3, 1, 2).gaps == (1, 2, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GapSequence.of(1, 0, 2)
        with pytest.raises(ValueError):
            GapSequence(())

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            GapSequence.of(True, 1, 1)

    def test_sizes(self):
        g = GapSequence.of(1, 2, 3)
        assert g.set_size == 4
        assert g.span == 6


class TestGapMultiset:
    def test_cumulative_offsets(self):
        # {0, p, p+q, p+q+r} must give back {p, q, r}
        for p, q, r in [(1, 2, 3), (2, 2, 5), (4, 1, 1)]:
            part = (0, p, p + q, p + q + r)
            assert gap_multiset(part) == tuple(sorted((p, q, r)))

    def test_examples(self):
        assert gap_multiset((1, 2, 4, 7)) == (1, 2, 3)
        assert gap_multiset((3, 5, 6)) == (1, 2)

    def test_short_part_rejected(self):
        with pytest.raises(ValueError):
            gap_multiset((5,))


class TestParts:
    """A part is a plain tuple: the JSON reader rejects a repeated element,
    verify_tiling an element order that no positive gaps can give."""

    def test_part_must_increase(self):
        for raw in ([1, 1, 2, 3], [4, 4, 5, 6], [6, 4, 5, 4]):
            with pytest.raises(ValueError, match="not strictly increasing"):
                tiling_from_json({"gaps": [1, 1, 1], "interval": [1, 4], "parts": [raw]})
        v = verify_tiling(Tiling(1, 4, ((2, 1, 3, 4),)), triple(1, 1, 1))
        assert (v.ok, v.reason, v.witness) == (False, "gaps", 1)

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError, match="at least one element"):
            Tiling(1, 4, ((),))
        with pytest.raises(ValueError, match="at least one element"):
            tiling_from_json({"gaps": [1, 1, 1], "interval": [1, 4], "parts": [[]]})

    def test_parts_stored_as_tuples(self):
        t = Tiling(1, 4, [[1, 2, 3, 4]])
        assert t.parts == ((1, 2, 3, 4),)

    def test_hi_below_lo_is_the_empty_interval(self):
        assert verify_tiling(Tiling(5, 4, ()), triple(1))
        v = verify_tiling(Tiling(5, 4, ((5, 6),)), triple(1))
        assert (v.ok, v.reason, v.witness) == (False, "coverage", 5)


class TestVerifyTiling:
    def test_accepts_single_consecutive_part(self):
        t = Tiling(1, 4, parts([1, 2, 3, 4]))
        assert verify_tiling(t, triple(1, 1, 1))

    def test_rejects_hole(self):
        t = Tiling(1, 4, parts([1, 2, 3, 5]))
        v = verify_tiling(t, triple(1, 1, 1))
        assert not v
        assert v.reason == "coverage"
        # 4 is missing and 5 is stray; the smallest mismatch is the witness
        assert v.witness == 4

    def test_rejects_wrong_gap_multiset(self):
        t = Tiling(1, 8, parts([1, 2, 4, 5], [3, 6, 7, 8]))
        v = verify_tiling(t, triple(1, 1, 2))
        assert not v
        assert v.reason == "gaps"
        assert v.witness == 3  # {3,6,7,8} has gaps {3,1,1}

    def test_rejects_overlap_before_coverage(self):
        # candidate violating both disjointness and coverage: fixed check order
        t = Tiling(1, 8, parts([1, 2, 3, 4], [4, 5, 6, 7]))
        v = verify_tiling(t, triple(1, 1, 1))
        assert v.reason == "disjointness"
        assert v.witness == 4

    def test_accepting_tiling_has_consistent_counts(self):
        t = Tiling(1, 8, parts([1, 2, 3, 4], [5, 6, 7, 8]))
        assert verify_tiling(t, triple(1, 1, 1))
        assert sum(len(p) for p in t.parts) == t.length
        assert len(t.parts) * 4 == t.length

    def test_verifier_is_pure(self):
        t = Tiling(1, 4, parts([1, 2, 3, 4]))
        g = triple(1, 1, 1)
        assert verify_tiling(t, g) == verify_tiling(t, g)

    @given(st.lists(st.integers(-50, 50), min_size=4, max_size=4, unique=True),
           st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    def test_singleton_acceptance_characterized(self, raw, gaps):
        # one part tiles [min, max] iff it is 4 consecutive integers whose
        # differences match the prescribed multiset
        part = tuple(sorted(raw))
        t = Tiling(part[0], part[-1], (part,))
        g = GapSequence(gaps)
        expected = (gap_multiset(part) == g.gaps
                    and part[-1] - part[0] == 3)
        assert bool(verify_tiling(t, g)) == expected

    def test_verdict_is_falsy_with_message(self):
        v = Verdict(False, "coverage", 7)
        assert not v
        assert "coverage" in v.message() and "7" in v.message()


def verify_tiling_with_sets(tiling, gaps):
    """Reference verifier: the set-based check verify_tiling replaced."""
    seen = set()
    for part in tiling.parts:
        for x in part:
            if x in seen:
                return Verdict(False, "disjointness", x)
            seen.add(x)
    interval = set(range(tiling.lo, tiling.hi + 1))
    if seen != interval:
        return Verdict(False, "coverage", min(seen ^ interval))
    want = gaps.gaps
    for part in tiling.parts:
        if len(part) != len(want) + 1 or gap_multiset(part) != want:
            return Verdict(False, "gaps", part[0])
    return Verdict(True)


@st.composite
def candidate_tilings(draw):
    """Tilings near a partition of [lo, hi]: the interval, in order or
    shuffled, cut into parts, then parts dropped, repeated or added, with
    elements inside and outside the interval."""
    lo = draw(st.integers(-20, 20))
    hi = lo + draw(st.integers(-3, 24))
    values = list(range(lo, hi + 1))
    if draw(st.booleans()):
        values = draw(st.permutations(values))
    size = draw(st.integers(1, 4))
    chunks = [values[i:i + size] for i in range(0, len(values), size)]
    chunks = [c for c in chunks if draw(st.integers(0, 9)) != 0]
    extra = st.lists(st.integers(lo - 6, hi + 6), min_size=1, max_size=5, unique=True)
    chunks += draw(st.lists(extra, max_size=3))
    chunks += draw(st.lists(st.sampled_from(chunks), max_size=2)) if chunks else []
    order = draw(st.permutations(range(len(chunks))))
    tiling = Tiling(lo, hi, tuple(tuple(sorted(chunks[i])) for i in order))
    gaps = GapSequence((1,) * max(1, size - 1))
    if draw(st.booleans()):
        gaps = GapSequence(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))))
    return tiling, gaps


class TestVerifyTilingReference:
    """verify_tiling agrees with the set-based reference on every verdict,
    reason and witness."""

    @given(candidate_tilings())
    @example((Tiling(5, 4, ()), GapSequence.of(1)))
    @example((Tiling(5, 4, parts([5, 6])), GapSequence.of(1)))
    @example((Tiling(1, 4, ()), GapSequence.of(1)))
    @example((Tiling(1, 4, parts([1, 2], [3, 4], [9, 10], [9, 11])), GapSequence.of(1)))
    @example((Tiling(1, 4, parts([-3, 1, 2], [3, 4], [-3, 7])), GapSequence.of(1)))
    def test_matches_set_reference(self, case):
        tiling, gaps = case
        got = verify_tiling(tiling, gaps)
        want = verify_tiling_with_sets(tiling, gaps)
        assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)

    def test_huge_interval_memory_follows_input(self):
        t = Tiling(1, 10**12, parts([1, 2, 3, 4]))
        tracemalloc.start()
        try:
            v = verify_tiling(t, triple(1, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (v.ok, v.reason, v.witness) == (False, "coverage", 5)
        assert peak < 10_000

    def test_duplicate_past_short_window_is_disjointness(self):
        # the window covers only 9 of the interval's integers; 50 repeats past it
        t = Tiling(1, 1000, parts([1, 2, 3, 50], [50, 51, 52, 53]))
        v = verify_tiling(t, triple(1, 1, 47))
        assert (v.reason, v.witness) == ("disjointness", 50)


class TestTileAgainstReference:
    """tile() output passes the set-based reference verifier for random
    small (p, q) and r in [threshold, threshold + 50]."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 50))
    @example(1, 3, 0)   # big branch
    @example(3, 4, 50)  # small branch, gcd 1
    @example(2, 4, 7)   # the branch boundary q = 2p, gcd 2
    @example(6, 6, 1)   # small branch, gcd 6
    def test_tile_passes_reference_verifier(self, p, q, extra):
        r = threshold(p, q) + extra
        tiling = tile(p, q, r)
        v = verify_tiling_with_sets(tiling, GapSequence((p, q, r)))
        assert (v.ok, v.reason, v.witness) == (True, "", None)
        assert all(type(part) is tuple and list(part) == sorted(set(part))
                   for part in tiling.parts)
        assert list(tiling.parts) == sorted(tiling.parts)

    def test_examples_cover_both_branches_and_gcd(self):
        plans = [plan(p, q, threshold(p, q) + e)
                 for p, q, e in [(1, 3, 0), (3, 4, 50), (2, 4, 7), (6, 6, 1)]]
        assert {(params.branch, params.d > 1) for params in plans} == \
            {("big", False), ("small", False), ("small", True)}


class TestJson:
    def test_round_trip_sorts_parts(self):
        t = Tiling(1, 8, parts([5, 6, 7, 8], [1, 2, 3, 4]))
        g = triple(1, 1, 1)
        obj = tiling_to_json(t, g)
        assert obj["parts"] == [[1, 2, 3, 4], [5, 6, 7, 8]]
        assert obj["interval"] == [1, 8]
        g2, t2 = tiling_from_json(obj)
        assert g2 == g
        assert verify_tiling(t2, g2)

    def test_malformed_raises_value_error(self):
        with pytest.raises(ValueError):
            tiling_from_json({"gaps": [1, 1, 1], "interval": [1, 4]})
        with pytest.raises(ValueError):
            tiling_from_json({"gaps": [1, "x"], "interval": [1, 4], "parts": []})
        with pytest.raises(ValueError):
            tiling_from_json([1, 2, 3])

    @pytest.mark.parametrize("doc", [
        {"gaps": [True, 1, 1], "interval": [1, 4], "parts": [[1, 2, 3, 4]]},
        {"gaps": [1, 1, 1], "interval": [True, 4], "parts": [[1, 2, 3, 4]]},
        {"gaps": [1, 1, 1], "interval": [1, 4], "parts": [[True, 2, 3, 4]]},
        {"gaps": [1, 1, 1], "interval": [1, 4], "parts": 5},
    ])
    def test_bool_or_non_list_is_malformed(self, doc):
        with pytest.raises(ValueError):
            tiling_from_json(doc)
