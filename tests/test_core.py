import functools
import json
import tracemalloc
from enum import IntEnum
from itertools import compress, count, islice, permutations, repeat
from numbers import Real
from operator import itemgetter, ne, sub

import pytest
from hypothesis import example, given, settings, strategies as st

import gaptile.core
from gaptile.assemble import plan, threshold, tile
from gaptile.core import (
    GapSequence, Tiling, Verdict, _nested_ints, _part,
    tiling_from_json, tiling_to_json, verify_tiling,
)
from gaptile.oracle import min_interval
from test_golden import GOLDEN


def triple(*gaps):
    return GapSequence(tuple(gaps))


def parts(*element_lists):
    return tuple(tuple(xs) for xs in element_lists)


def gap_multiset(part):
    """Reference: the consecutive differences of a part, sorted ascending."""
    return tuple(sorted(map(sub, part[1:], part)))


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

    @pytest.mark.parametrize("parts", [(5,), 5, None, ((1, 2), 3)],
                             ids=["int-part", "int-parts", "none-parts", "int-second-part"])
    def test_non_iterable_parts_are_value_errors(self, parts):
        with pytest.raises(ValueError, match="sequence of sequences"):
            Tiling(1, 4, parts)

    def test_parts_stored_as_tuples(self):
        t = Tiling(1, 4, [[1, 2, 3, 4]])
        assert t.parts == ((1, 2, 3, 4),)

    def test_hi_below_lo_is_the_empty_interval(self):
        assert verify_tiling(Tiling(5, 4, ()), triple(1))
        v = verify_tiling(Tiling(5, 4, ((5, 6),)), triple(1))
        assert (v.ok, v.reason, v.witness) == (False, "coverage", 5)

    @pytest.mark.parametrize("lo,hi", [
        (1, 2.5), (1.0, 2), (True, 2), (1, False), ("1", 2), (None, 2)])
    def test_endpoints_must_be_integers(self, lo, hi):
        # the same check, and message, for Python callers and JSON readers
        with pytest.raises(ValueError, match="interval endpoints must be integers"):
            Tiling(lo, hi, ((1, 2),))
        with pytest.raises(ValueError, match="interval endpoints must be integers"):
            tiling_from_json({"gaps": [1], "interval": [lo, hi], "parts": [[1, 2]]})


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
    """Tilings near a partition of [lo, hi]: the interval, in order, shuffled
    or with a few nearby elements swapped, cut into parts of k elements with
    parts of other lengths in between, then parts dropped, repeated or
    added, with elements inside and outside the interval.  The gaps have
    k - 1 entries for k from 2 to 5: all 1, random, or those of one of the
    parts, so that right-gap, wrong-gap and wrong-length parts interleave."""
    lo = draw(st.integers(-20, 20))
    hi = lo + draw(st.integers(-3, 24))
    values = list(range(lo, hi + 1))
    if draw(st.booleans()):
        values = draw(st.permutations(values))
    elif values:
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.integers(0, len(values) - 1))
            j = min(len(values) - 1, i + draw(st.integers(1, 3)))
            values[i], values[j] = values[j], values[i]
    k = draw(st.integers(2, 5))
    chunks, start = [], 0
    while start < len(values):
        size = k if draw(st.integers(0, 3)) else draw(st.integers(1, 6))
        chunks.append(values[start:start + size])
        start += size
    chunks = [c for c in chunks if draw(st.integers(0, 9)) != 0]
    if draw(st.booleans()):
        extra = st.lists(st.integers(lo - 6, hi + 6), min_size=1, max_size=5, unique=True)
        chunks += draw(st.lists(extra, max_size=3))
        chunks += draw(st.lists(st.sampled_from(chunks), max_size=2)) if chunks else []
    order = draw(st.permutations(range(len(chunks))))
    tiling = Tiling(lo, hi, tuple(tuple(sorted(chunks[i])) for i in order))
    gaps = GapSequence((1,) * (k - 1))
    shaped = [part for part in tiling.parts if len(part) == k]
    choice = draw(st.integers(0, 2))
    if choice == 1:
        gaps = GapSequence(tuple(draw(st.lists(st.integers(1, 3), min_size=k - 1,
                                               max_size=k - 1))))
    elif choice == 2 and shaped:
        gaps = GapSequence(gap_multiset(draw(st.sampled_from(shaped))))
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

    def test_first_wrong_length_part_after_right_length_parts(self):
        # (5, 6) is the first part of another length; (9, 10, 11, 13) after
        # it has the wrong gaps but comes later
        t = Tiling(1, 13, parts([1, 2, 3, 4], [5, 6], [7, 8], [9, 10, 11, 13], [12]))
        v = verify_tiling(t, triple(1, 1, 1))
        assert (v.reason, v.witness) == ("gaps", 5)
        t = Tiling(1, 13, parts([1, 2, 3, 5], [4, 6], [7, 8], [9, 10, 11, 12], [13]))
        v = verify_tiling(t, triple(1, 1, 1))
        assert (v.reason, v.witness) == ("gaps", 1)

    def test_long_gap_sequence(self):
        # 19 gaps: a table of every order of distinct gaps would hold 19!
        # entries, the check sorts each distinct difference tuple once
        runs = Tiling(0, 39, (tuple(range(20)), tuple(range(20, 40))))
        evens_odds = Tiling(0, 39, (tuple(range(0, 40, 2)), tuple(range(1, 40, 2))))
        for tiling, gaps, want in [
            (runs, (1,) * 19, (True, "", None)),
            (runs, tuple(range(1, 20)), (False, "gaps", 0)),
            (evens_odds, (2,) * 19, (True, "", None)),
            (evens_odds, (1,) * 19, (False, "gaps", 0)),
        ]:
            v = verify_tiling(tiling, GapSequence(gaps))
            assert (v.ok, v.reason, v.witness) == want


def reference_verify_tiling(tiling, gaps):
    """Reference verifier: verify_tiling as it was before the distinct-tuple
    gap pass, which looked every part's differences up in a table in order,
    and before bools were strays."""
    lo, hi = tiling.lo, tiling.hi
    parts = tiling.parts
    window = max(0, min(hi - lo + 1, sum(map(len, parts)) + 1))
    marked = bytearray(window)
    others: set = set()
    strays: list = []
    for part in parts:
        for x in part:
            if isinstance(x, int) and 0 <= (i := x - lo) < window:
                if marked[i]:
                    return Verdict(False, "disjointness", x)
                marked[i] = 1
            elif not isinstance(x, Real):
                strays.append(x)
            elif x in others:
                return Verdict(False, "disjointness", x)
            else:
                others.add(x)
    mismatches = [x for x in others if not (isinstance(x, int) and lo <= x <= hi)]
    missing = marked.find(0)
    if missing >= 0:
        mismatches.append(lo + missing)
    if mismatches or strays:
        return Verdict(False, "coverage", min(mismatches) if mismatches else strays[0])
    want = gaps.gaps
    k = len(want) + 1
    j = next(compress(count(), map(ne, map(len, parts), repeat(k))), len(parts))
    columns = [map(sub, map(itemgetter(i + 1), islice(parts, j)),
                   map(itemgetter(i), islice(parts, j))) for i in range(k - 1)]
    mismatch = {}

    def bad_gaps(diffs):
        if diffs not in mismatch:
            mismatch[diffs] = tuple(sorted(diffs)) != want
        return mismatch[diffs]

    bad = next(compress(count(), map(bad_gaps, zip(*columns))), j)
    if bad < len(parts):
        return Verdict(False, "gaps", min(parts[bad]))
    return Verdict(True)


def column_verdict(tiling, gaps):
    """verify_tiling's column path, the only path for parts of other
    lengths, run on any candidate."""
    return gaptile.core._column_verdict(tiling.parts, tiling.lo, tiling.hi, gaps.gaps)


def four_set_verdict(tiling, gaps):
    """verify_tiling's 4-set path: an accept, a gaps reject, or None where
    it hands the candidate to the column path."""
    assert tiling.length == 4 * len(tiling.parts)
    return gaptile.core._four_set_verdict(tiling.parts, tiling.lo, tiling.hi, gaps.gaps)


def threes_tiling():
    """A tiling of [1, 600] by 3-sets with gaps {1, 3}, which only the
    column path judges: 100 translates of the oracle's tiling of [1, 6]."""
    _, base = min_interval(GapSequence.of(1, 3), 6)
    return Tiling(1, 600, tuple(tuple(x + 6 * m for x in part)
                                for m in range(100) for part in base.parts))


def traded(tiling, i, j):
    """The tiling with element 1 of part i and element 2 of part j swapped,
    both parts re-sorted."""
    swapped = [list(part) for part in tiling.parts]
    swapped[i][1], swapped[j][2] = swapped[j][2], swapped[i][1]
    return Tiling(tiling.lo, tiling.hi, tuple(tuple(sorted(part)) for part in swapped))


class TestGapPass:
    """The gaps of every part are looked up once, in order, up to the first
    part with the wrong gaps, on an accept and on a gaps reject alike, and
    on both paths: the 4-set pass, which takes no columns, and the column
    pass, which takes them once."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Every gap-table lookup, and the part count of each _differences call."""
        lookups, columns = [], []
        differences = gaptile.core._differences

        class Recording(gaptile.core._GapMismatch):
            def __getitem__(self, diffs):
                lookups.append(diffs)
                return super().__getitem__(diffs)

        def counted(parts, k):
            columns.append(len(parts))
            return differences(parts, k)

        monkeypatch.setattr(gaptile.core, "_GapMismatch", Recording)
        monkeypatch.setattr(gaptile.core, "_differences", counted)
        return lookups, columns

    @staticmethod
    def differences(parts):
        return [tuple(map(sub, part[1:], part)) for part in parts]

    def check_accept(self, reads, tiling, g, column_passes):
        lookups, columns = reads
        lookups.clear()
        columns.clear()
        assert verify_tiling(tiling, g)
        assert lookups == self.differences(tiling.parts)
        assert columns == [len(tiling.parts)] * column_passes

    def check_gaps_reject(self, reads, tiling, g, column_passes):
        i = 10
        candidate = traded(tiling, i, len(tiling.parts) - 10)
        lookups, columns = reads
        lookups.clear()
        columns.clear()
        v = verify_tiling(candidate, g)
        assert (v.ok, v.reason, v.witness) == (False, "gaps", min(candidate.parts[i]))
        assert lookups == self.differences(candidate.parts[:i + 1])
        assert columns == [len(candidate.parts)] * column_passes
        assert verdict_key(v) == verdict_key(reference_verify_tiling(candidate, g))

    def test_accept_reads_the_gaps_once(self, reads):
        # 4-sets: the one-loop pass, no columns
        self.check_accept(reads, tile(5, 7, 2080), GapSequence.of(5, 7, 2080), 0)

    def test_gaps_reject_reads_the_gaps_once(self, reads):
        self.check_gaps_reject(reads, tile(5, 7, 2080), GapSequence.of(5, 7, 2080), 0)

    def test_column_accept_reads_the_gaps_once(self, reads):
        # 3-sets: the column pass, once
        self.check_accept(reads, threes_tiling(), GapSequence.of(1, 3), 1)

    def test_column_gaps_reject_reads_the_gaps_once(self, reads):
        self.check_gaps_reject(reads, threes_tiling(), GapSequence.of(1, 3), 1)


@functools.cache
def valid_tilings():
    """Accepted tilings with one to six part shapes, by gap sequence."""
    found = [(tile(*gaps), GapSequence(gaps)) for gaps in [(1, 1, 48), (1, 2, 56)]]
    for gaps in [(2, 3, 4), (1, 1, 2)]:
        _, tiling = min_interval(GapSequence(gaps), 40)
        found.append((tiling, GapSequence(gaps)))
    found.append((Tiling(-6, 5, tuple((x, x + 2) for x in (-6, -5, -2, -1, 2, 3))),
                  GapSequence.of(2)))
    assert all(verify_tiling(*case) for case in found)
    return tuple(found)


TAMPERINGS = ("trade", "split", "duplicate", "foreign", "empty", "regap")


@st.composite
def tampered_tilings(draw):
    """An accepted tiling with its parts shuffled, then up to four of:
    two elements traded between parts, the two re-sorted or not; a part
    split in two, the second piece put first, last or anywhere; a part
    repeated; an element replaced by a float, a str or None, or an extra
    part of such elements; the interval emptied (hi = lo - 1); other gaps."""
    tiling, gaps = draw(st.sampled_from(valid_tilings()))
    lo, hi = tiling.lo, tiling.hi
    parts = [list(part) for part in draw(st.permutations(tiling.parts))]
    for step in draw(st.lists(st.sampled_from(TAMPERINGS), max_size=4)):
        n = len(parts)
        if step == "trade" and n >= 2:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            a = draw(st.integers(0, len(parts[i]) - 1))
            b = draw(st.integers(0, len(parts[j]) - 1))
            parts[i][a], parts[j][b] = parts[j][b], parts[i][a]
            if draw(st.booleans()):
                for part in (parts[i], parts[j]):
                    if all(type(x) is int for x in part):
                        part.sort()
        elif step == "split" and n:
            i = draw(st.integers(0, n - 1))
            if len(parts[i]) >= 2:
                cut = draw(st.integers(1, len(parts[i]) - 1))
                piece = parts[i][cut:]
                del parts[i][cut:]
                at = draw(st.sampled_from([0, len(parts), draw(st.integers(0, len(parts)))]))
                parts.insert(at, piece)
        elif step == "duplicate" and n:
            parts.insert(draw(st.integers(0, n)), list(parts[draw(st.integers(0, n - 1))]))
        elif step == "foreign":
            kind = draw(st.sampled_from([float, str, lambda x: None]))
            if n and draw(st.booleans()):
                i = draw(st.integers(0, n - 1))
                a = draw(st.integers(0, len(parts[i]) - 1))
                if type(parts[i][a]) is int:
                    parts[i][a] = kind(parts[i][a])
            else:
                extra = draw(st.lists(st.integers(lo - 3, hi + 3), min_size=1, max_size=4))
                parts.insert(draw(st.integers(0, n)), list(map(kind, extra)))
        elif step == "empty":
            hi = lo - 1
        elif step == "regap":
            gaps = GapSequence(tuple(draw(st.lists(st.integers(1, 4), min_size=len(gaps.gaps),
                                                   max_size=len(gaps.gaps)))))
    return Tiling(lo, hi, tuple(map(tuple, parts))), gaps


def verdict_key(v):
    return v.ok, v.reason, type(v.witness), v.witness


class TestVerifyTilingAgainstLookupReference:
    """verify_tiling gives the reference's verdict, reason and witness on
    tampered tilings; bools and other int subclasses, which the reference
    takes for the ints they equal, are the one intended difference."""

    @settings(max_examples=300, deadline=None)
    @given(tampered_tilings())
    def test_matches_reference_on_tampered_tilings(self, case):
        tiling, gaps = case
        assert verdict_key(verify_tiling(tiling, gaps)) == \
            verdict_key(reference_verify_tiling(tiling, gaps))

    @pytest.mark.parametrize("tiling,want", [
        # traded elements: (1, 2, 3, 6) and (4, 5, 7, 8) both go wrong; the first names it
        (Tiling(1, 8, parts([1, 2, 3, 6], [4, 5, 7, 8])), (False, "gaps", 1)),
        (Tiling(1, 8, parts([4, 5, 7, 8], [1, 2, 3, 6])), (False, "gaps", 4)),
        # a part of the wrong length first, last, or after a bad part
        (Tiling(1, 8, parts([5, 6], [1, 2, 3, 4], [7, 8])), (False, "gaps", 5)),
        (Tiling(1, 8, parts([1, 2, 3, 4], [5, 6, 7], [8])), (False, "gaps", 5)),
        (Tiling(1, 12, parts([1, 2, 3, 4], [5, 6, 8, 9], [7, 10], [11, 12])),
         (False, "gaps", 5)),
        # a repeated part
        (Tiling(1, 8, parts([1, 2, 3, 4], [5, 6, 7, 8], [1, 2, 3, 4])),
         (False, "disjointness", 1)),
        # float, str and None elements
        (Tiling(1, 4, ((1.0, 2, 3, 4),)), (False, "coverage", 1.0)),
        (Tiling(1, 4, ((1, 2, 3, 4), ("5",))), (False, "coverage", "5")),
        (Tiling(1, 4, ((1, 2, 3, None),)), (False, "coverage", 4)),
        # the empty interval
        (Tiling(5, 4, ()), (True, "", None)),
        (Tiling(5, 2, ()), (True, "", None)),
        (Tiling(5, 4, parts([5, 6, 7, 8])), (False, "coverage", 5)),
        # four integers of the interval per part, so the 4-set loop runs:
        # the offset -1 of 0 would wrap to the last slot
        (Tiling(1, 4, ((0, 1, 2, 3),)), (False, "coverage", 0)),
        # 4 twice and 8 missing, the repeat in the first part or the last
        (Tiling(1, 8, parts([1, 2, 3, 4], [4, 5, 6, 7])), (False, "disjointness", 4)),
        (Tiling(1, 8, parts([5, 6, 7, 8], [1, 2, 3, 5])), (False, "disjointness", 5)),
    ])
    def test_named_cases(self, tiling, want):
        g = triple(1, 1, 1)
        got = verify_tiling(tiling, g)
        assert (got.ok, got.reason, got.witness) == want
        assert verdict_key(got) == verdict_key(reference_verify_tiling(tiling, g))

    @pytest.mark.parametrize("tiling,witness", [
        (Tiling(1, 4, ((True, 2, 3, 4),)), 1),
        (Tiling(0, 3, ((False, True, 2, 3),)), 0),
    ])
    def test_bool_is_a_stray(self, tiling, witness):
        # the reference took True for 1 and accepted; tiling_to_json then wrote
        # true, which tiling_from_json rejects as malformed
        g = triple(1, 1, 1)
        assert reference_verify_tiling(tiling, g)
        v = verify_tiling(tiling, g)
        assert (v.ok, v.reason, type(v.witness), v.witness) == (False, "coverage", int, witness)
        with pytest.raises(ValueError):
            tiling_from_json(json.loads(json.dumps(tiling_to_json(tiling, g))))

    def test_int_subclass_is_not_an_integer(self):
        # like a bool, an IntEnum member is no integer, though the reference
        # takes ONE for 1 and accepts; unlike a bool it is a number, and the
        # least mismatch
        class Small(IntEnum):
            ONE = 1

        tiling, g = Tiling(1, 4, ((Small.ONE, 2, 3, 4),)), triple(1, 1, 1)
        assert reference_verify_tiling(tiling, g)
        assert verdict_key(verify_tiling(tiling, g)) == (False, "coverage", Small, Small.ONE)

    def test_bool_beside_a_covered_interval(self):
        # no number is missing or stray, so the bool itself is the witness
        v = verify_tiling(Tiling(1, 4, ((1, 2, 3, 4), (True,))), triple(1, 1, 1))
        assert (v.ok, v.reason) == (False, "coverage") and v.witness is True


FOUR_SET_TAMPERINGS = ("trade", "duplicate", "out_of_range", "bool", "float", "regap")


@st.composite
def four_set_candidates(draw):
    """An accepted tiling by 4-sets with its parts shuffled, then up to four
    changes that keep four elements to a part and as many elements as the
    interval has integers, so the 4-set pass runs on it: two elements traded
    between parts; an element replaced by another part's element, by an
    integer outside [lo, hi], by a bool or by a float; other gaps.  Each
    changed part is re-sorted or not."""
    tiling, gaps = draw(st.sampled_from(
        [case for case in valid_tilings() if case[1].set_size == 4]))
    lo, hi = tiling.lo, tiling.hi
    parts = [list(part) for part in draw(st.permutations(tiling.parts))]
    slots = st.tuples(st.integers(0, len(parts) - 1), st.integers(0, 3))
    for step in draw(st.lists(st.sampled_from(FOUR_SET_TAMPERINGS), max_size=4)):
        i, a = draw(slots)
        j, b = draw(slots)
        if step == "trade":
            parts[i][a], parts[j][b] = parts[j][b], parts[i][a]
        elif step == "duplicate":
            parts[i][a] = parts[j][b]
        elif step == "out_of_range":
            parts[i][a] = draw(st.sampled_from([lo - 1, hi + 1, lo - 10**6, hi + 10**6]))
        elif step == "bool":
            parts[i][a] = draw(st.booleans())
        elif step == "float":
            parts[i][a] = parts[i][a] + draw(st.sampled_from([0.0, 0.5]))
        else:
            gaps = GapSequence(tuple(draw(st.lists(st.integers(1, 4), min_size=3,
                                                   max_size=3))))
        for k in {i, j}:
            if draw(st.booleans()):
                parts[k].sort()
    return Tiling(lo, hi, tuple(map(tuple, parts))), gaps


class TestFourSetPath:
    """verify_tiling judges 4-sets that partition the interval in one loop
    per part, with the column path's accept or gaps reject; every other
    candidate, a cover reject included, goes to the column path."""

    @settings(max_examples=300, deadline=None)
    @given(four_set_candidates())
    def test_matches_column_path(self, case):
        tiling, gaps = case
        got = four_set_verdict(tiling, gaps)
        want = column_verdict(tiling, gaps)
        assert verdict_key(verify_tiling(tiling, gaps)) == verdict_key(want)
        if got is None:
            assert want.reason in ("disjointness", "coverage")
        else:
            assert got.ok or got.reason == "gaps"
            assert verdict_key(got) == verdict_key(want)
        # the reference takes a bool for the int it equals
        if not any(type(x) is bool for part in tiling.parts for x in part):
            assert verdict_key(want) == verdict_key(reference_verify_tiling(tiling, gaps))

    @pytest.mark.parametrize("part", permutations((1, 2, 3, 4)),
                             ids=lambda part: "".join(map(str, part)))
    def test_every_order_of_the_interval_is_judged_in_the_loop(self, part):
        # lo and hi in every slot of the one part: each bound check must
        # admit them, and the loop names the verdict itself
        tiling, g = Tiling(1, 4, (part,)), triple(1, 1, 1)
        got = four_set_verdict(tiling, g)
        assert got is not None
        assert verdict_key(got) == verdict_key(column_verdict(tiling, g))
        assert verdict_key(got) == verdict_key(reference_verify_tiling(tiling, g))
        assert (got.ok, got.reason) == ((True, "") if part == (1, 2, 3, 4) else (False, "gaps"))

    def test_mixed_lengths_take_the_column_path(self):
        # eight elements in two parts, but a 3-part beside a 5-part
        t = Tiling(1, 8, ((1, 2, 3), (4, 5, 6, 7, 8)))
        g = triple(1, 1, 1)
        assert four_set_verdict(t, g) is None
        v = verify_tiling(t, g)
        assert v.message() == "reject: gaps (witness 1)"
        assert verdict_key(v) == verdict_key(column_verdict(t, g))

    @pytest.mark.parametrize("tiling,witness", [
        (Tiling(1, 4, ((True, 2, 3, 4),)), 1),
        (Tiling(1, 8, ((1, 2, 3, 4), (5, 6, 7, True))), 8),
    ])
    def test_bool_in_a_four_part_is_a_stray(self, tiling, witness):
        g = triple(1, 1, 1)
        assert four_set_verdict(tiling, g) is None
        v = verify_tiling(tiling, g)
        assert verdict_key(v) == (False, "coverage", int, witness)
        assert verdict_key(v) == verdict_key(column_verdict(tiling, g))

    @pytest.mark.parametrize("tiling,witness", [
        # 0 stands in for 8 at each place of its part: its offset -1 would
        # wrap to 8's slot, the last of the bytearray, and mark every slot
        *[(Tiling(1, 8, ((1, 2, 3, 4), (5, 6, 7)[:at] + (0,) + (5, 6, 7)[at:])), 0)
          for at in range(4)],
        (Tiling(1, 8, ((-10**6, 2, 3, 4), (5, 6, 7, 8))), -10**6),
    ])
    def test_element_below_lo_is_a_coverage_reject(self, tiling, witness):
        g = triple(1, 1, 1)
        assert four_set_verdict(tiling, g) is None
        v = verify_tiling(tiling, g)
        assert (v.ok, v.reason, v.witness) == (False, "coverage", witness)
        assert verdict_key(v) == verdict_key(reference_verify_tiling(tiling, g))


class TestCoverVerdict:
    """The cover walk is None exactly when the parts partition [lo, hi],
    and otherwise names verify_tiling's verdict."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tampered_tilings(), four_set_candidates()))
    @example((Tiling(5, 4, ()), triple(1, 1, 1)))
    @example((Tiling(1, 4, ((True, 2, 3, 4),)), triple(1, 1, 1)))
    @example((Tiling(1, 4, ((1, 2, 3, 4), (True,))), triple(1, 1, 1)))
    def test_none_exactly_on_a_partition(self, case):
        tiling, gaps = case
        elements = [x for part in tiling.parts for x in part]
        partition = (all(type(x) is int for x in elements)
                     and sorted(elements) == list(range(tiling.lo, tiling.hi + 1)))
        got = gaptile.core._cover_verdict(tiling.parts, tiling.lo, tiling.hi)
        if partition:
            assert got is None
        else:
            assert got.reason in ("disjointness", "coverage")
            assert verdict_key(got) == verdict_key(verify_tiling(tiling, gaps))


class TestNonNumericElements:
    """An element that is not a number is a stray: a reject, never an
    exception, with the least numeric mismatch as witness, else the first
    such stray met.  Verdicts on ints and floats are as before."""

    @pytest.mark.parametrize("element", ["a", None, [4]])
    def test_stray_beside_a_missing_integer(self, element):
        v = verify_tiling(Tiling(1, 4, ((element, 1, 2, 3),)), triple(1, 1, 1))
        assert (v.ok, v.reason, v.witness) == (False, "coverage", 4)

    @pytest.mark.parametrize("element", ["a", None, [4]])
    def test_stray_is_the_witness_when_no_number_mismatches(self, element):
        t = Tiling(1, 4, ((1, 2), (3, element, 4), ([5], "b")))
        v = verify_tiling(t, triple(1))
        assert (v.ok, v.reason, v.witness) == (False, "coverage", element)

    def test_mixed_types_take_the_least_number(self):
        t = Tiling(1, 4, ((1, "a", 2, [3]), (None, 3, 4, 9.5, 7), ((8,), "a")))
        v = verify_tiling(t, triple(1, 1, 1))
        assert (v.ok, v.reason, v.witness) == (False, "coverage", 7)

    def test_disjointness_still_comes_first(self):
        t = Tiling(1, 4, (([4], 1, 2), ([4], 2, 3)))
        v = verify_tiling(t, triple(1, 1, 1))
        assert (v.ok, v.reason, v.witness) == (False, "disjointness", 2)

    def test_floats_unchanged(self):
        v = verify_tiling(Tiling(1, 4, ((1.0, 2, 3, 4),)), triple(1, 1, 1))
        assert (v.ok, v.reason, v.witness) == (False, "coverage", 1.0)
        v = verify_tiling(Tiling(1, 4, ((1, 2, 3, 4), (2.5, 2.5))), triple(1, 1, 1))
        assert (v.ok, v.reason, v.witness) == (False, "disjointness", 2.5)


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


_ELEMENT = (st.integers(-5, 5) | st.integers(-10**30, 10**30) | st.booleans()
            | st.floats() | st.text(max_size=2) | st.none()
            | st.lists(st.integers(0, 3), max_size=2))
_RAW_PART = (st.lists(st.integers(-4, 4), max_size=5)
             | st.lists(st.integers(-4, 4), max_size=5).map(tuple)
             | st.lists(_ELEMENT, max_size=5)
             | _ELEMENT)


@st.composite
def _increasing_parts(draw):
    """Parts as tiling_to_json writes them (lists of one length, each
    strictly increasing), sometimes with one part changed: a neighbouring
    pair swapped or made equal, an element dropped, or one made a bool."""
    k = draw(st.integers(1, 5))
    raw = draw(st.lists(st.lists(st.integers(-20, 20), min_size=k, max_size=k, unique=True)
                        .map(sorted), min_size=1, max_size=6))
    i = draw(st.integers(0, len(raw) - 1))
    part, a = raw[i], draw(st.integers(0, k - 1))
    change = draw(st.sampled_from(["none", "swap", "repeat", "drop", "bool"]))
    if change == "swap" and a + 1 < k:
        part[a], part[a + 1] = part[a + 1], part[a]
    elif change == "repeat" and a + 1 < k:
        part[a + 1] = part[a]
    elif change == "drop":
        del part[a]
    elif change == "bool":
        part[a] = draw(st.booleans())
    return raw


def reference_tiling_to_json(tiling, gaps):
    """Reference rendering: one list per part, as tiling_to_json once built."""
    return {
        "gaps": list(gaps.gaps),
        "interval": [tiling.lo, tiling.hi],
        "parts": [list(part) for part in sorted(tiling.parts)],
    }


@st.composite
def unsorted_tilings(draw):
    """Disjoint parts of mixed lengths in any order, each part increasing or
    shuffled, and sometimes a part repeated."""
    values = draw(st.lists(st.integers(-30, 30) | st.integers(-10**20, 10**20),
                           unique=True, max_size=40))
    chunks, start = [], 0
    while start < len(values):
        size = draw(st.integers(1, 6))
        chunk = values[start:start + size]
        chunks.append(chunk if draw(st.booleans()) else sorted(chunk))
        start += size
    if chunks and draw(st.booleans()):
        chunks.append(draw(st.sampled_from(chunks)))
    lo = draw(st.integers(-40, 40))
    return Tiling(lo, lo + draw(st.integers(-1, 60)), tuple(map(tuple, chunks)))


def reference_nested_ints(value, lengths) -> bool:
    """Reference, one element at a time: a list or tuple of lengths[0]
    values, each a list or tuple of lengths[1] values, and so on down to
    leaves whose type is int (a bool is not one)."""
    if not lengths:
        return type(value) is int
    return (isinstance(value, (list, tuple)) and len(value) == lengths[0]
            and all(reference_nested_ints(v, lengths[1:]) for v in value))


_OTHER = (st.integers(-3, 3) | st.booleans() | st.floats() | st.text(max_size=2)
          | st.none() | st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=3))


@st.composite
def _shaped(draw, lengths):
    """A value shaped by lengths, a list or a tuple at each level, but
    sometimes one level a value too short or too long, or a value of
    another kind (an int, bool, float, str, None or dict) in its place."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_OTHER)
    if not lengths:
        return draw(st.integers(-10**20, 10**20))
    n = draw(st.sampled_from([lengths[0]] * 6 + [max(0, lengths[0] - 1), lengths[0] + 1]))
    items = [draw(_shaped(lengths[1:])) for _ in range(n)]
    return items if draw(st.booleans()) else tuple(items)


_SHAPED_LISTS = st.lists(st.integers(0, 3), min_size=1, max_size=3).flatmap(
    lambda lengths: st.tuples(st.just(tuple(lengths)), st.lists(_shaped(lengths), max_size=9)))


class TestNestedInts:
    @settings(max_examples=300)
    @given(_SHAPED_LISTS)
    @example(((2,), [[1, 2], [True, 2]]))
    @example(((2,), [[1, 2], {1: 0, 2: 0}]))
    @example(((4, 3), [[[1, 1, 1]] * 4, [[1, 1, 1]] * 3]))
    @example(((3, 3), [((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5]))
    def test_matches_per_element_reference(self, case):
        lengths, values = case
        want = next((i for i, v in enumerate(values)
                     if not reference_nested_ints(v, lengths)), len(values))
        assert _nested_ints(values, *lengths) == want
        assert _nested_ints(tuple(values), *lengths) == want

    @pytest.mark.parametrize("first", [0, 1, 510, 511, 512, 1022, 1023])
    def test_names_the_first_bad_item_of_many(self, first):
        # found by halves; every later block is bad too
        good, short, floats = [[1, 2, 3]] * 4, [[1, 2, 3]] * 3, [[1, 2, 3.0]] * 4
        blocks = [good] * first + [short] + [floats] * (1023 - first)
        assert _nested_ints(blocks, 4, 3) == first

    def test_leaves_are_not_copied(self):
        # a list per inner level, none for the ints themselves
        parts = [[4 * i + 1, 4 * i + 2, 4 * i + 3, 4 * i + 4] for i in range(20_000)]
        tracemalloc.start()
        try:
            assert _nested_ints(parts, 4) == len(parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000


class TestJson:
    def test_round_trip_sorts_parts(self):
        t = Tiling(1, 8, parts([5, 6, 7, 8], [1, 2, 3, 4]))
        g = triple(1, 1, 1)
        obj = tiling_to_json(t, g)
        assert obj["parts"] == [(1, 2, 3, 4), (5, 6, 7, 8)]
        assert json.dumps(obj) == \
            '{"gaps": [1, 1, 1], "interval": [1, 8], "parts": [[1, 2, 3, 4], [5, 6, 7, 8]]}'
        assert obj["interval"] == [1, 8]
        g2, t2 = tiling_from_json(obj)
        assert g2 == g
        assert verify_tiling(t2, g2)

    @settings(max_examples=300)
    @given(unsorted_tilings(), st.lists(st.integers(1, 9), min_size=1, max_size=4))
    def test_bytes_match_list_reference(self, tiling, gaps):
        g = GapSequence(tuple(gaps))
        obj = tiling_to_json(tiling, g)
        assert json.dumps(obj) == json.dumps(reference_tiling_to_json(tiling, g))
        assert all(type(part) is tuple for part in obj["parts"])
        # in order of first element, which is the least in an increasing part
        firsts = [part[0] for part in obj["parts"]]
        assert firsts == sorted(firsts)

    def test_unorderable_parts_raise_value_error(self):
        t = Tiling(1, 4, ((1, 2), ("a", 3)))
        with pytest.raises(ValueError, match="cannot be ordered"):
            tiling_to_json(t, GapSequence.of(1))

    @pytest.mark.parametrize("gaps", GOLDEN, ids=str)
    def test_tile_bytes_match_list_reference(self, gaps):
        tiling, g = tile(*gaps), GapSequence(gaps)
        assert json.dumps(tiling_to_json(tiling, g)) == \
            json.dumps(reference_tiling_to_json(tiling, g))

    def test_malformed_raises_value_error(self):
        with pytest.raises(ValueError):
            tiling_from_json({"gaps": [1, 1, 1], "interval": [1, 4]})
        with pytest.raises(ValueError):
            tiling_from_json({"gaps": [1, "x"], "interval": [1, 4], "parts": []})
        with pytest.raises(ValueError):
            tiling_from_json([1, 2, 3])

    @settings(max_examples=300)
    @given(st.lists(_RAW_PART, max_size=6) | _increasing_parts())
    @example([[4, 3, 2, 1], [1, 2, 3, 4]])
    @example([[1, 2, 3], (4, 5, 6), [-9, 0, 10**30]])
    @example([[1, 2, 3], [6, 4, 5], [7, 8, 9]])
    @example([[0, 4, 5, 6], [1, 2, 2, 3]])
    @example([[1, 2], [3, 4, 5], [6]])
    @example([[0, True, 2], [3, 4, 5]])
    @example([[1, 2], [3, 3]])
    @example([[1, 2], [True, 3]])
    @example([(1, 2), []])
    @example([[2, 1], []])
    @example([[1, 1], []])
    @example([[], [1, 1]])
    @example([[1.0, 2], "ab"])
    def test_bulk_reader_matches_per_part_reference(self, raw):
        def read(parse):
            try:
                return parse()
            except ValueError as exc:
                return f"ValueError: {exc}"

        doc = {"gaps": [1], "interval": [1, 4], "parts": raw}
        got = read(lambda: tiling_from_json(doc)[1].parts)
        want = read(lambda: tuple(map(_part, raw)))
        assert got == want
        if not isinstance(got, str):
            assert all(type(part) is tuple for part in got)

    @pytest.mark.parametrize("doc", [
        {"gaps": [True, 1, 1], "interval": [1, 4], "parts": [[1, 2, 3, 4]]},
        {"gaps": [1, 1, 1], "interval": [True, 4], "parts": [[1, 2, 3, 4]]},
        {"gaps": [1, 1, 1], "interval": [1, 4], "parts": [[True, 2, 3, 4]]},
        {"gaps": [1, 1, 1], "interval": [1, 4], "parts": 5},
    ])
    def test_bool_or_non_list_is_malformed(self, doc):
        with pytest.raises(ValueError):
            tiling_from_json(doc)
