"""Gap sequences, interval tilings, and the tiling verifier.

A finite set of integers x1 < ... < xn has a gap sequence: the multiset of
consecutive differences x(i+1) - xi, reported in nondecreasing order.  This
package partitions integer intervals into parts that all share one prescribed
gap sequence.  The present module holds the shared vocabulary (GapSequence,
Tiling, and Part, which is a plain tuple of integers), the JSON wire format,
and verify_tiling, the acceptance check that every tiling emitted anywhere
in the package must pass.

verify_tiling never trusts the construction that produced its input; it
re-derives everything from the candidate itself.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from numbers import Real
from operator import eq, itemgetter, lt, ne, sub
from typing import Any

#: Quotes an offending value in an error message: six items per list, three
#: levels deep, so a block prints in full and any value in under 10 kB.
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 3


class UnsupportedParameters(ValueError):
    """Requested parameters fall outside the guaranteed range.

    Carries the applicable threshold when one is known, so callers can report
    how far off the request was.
    """

    def __init__(self, message: str, threshold: int | None = None):
        super().__init__(message)
        self.threshold = threshold


class InternalInconsistency(RuntimeError):
    """A construction failed its own verification.

    This always indicates a bug in the package, never bad user input, and is
    raised instead of letting an unverified object escape.
    """


@dataclass(frozen=True)
class GapSequence:
    """Nondecreasing positive gaps; a length-k sequence describes (k+1)-sets."""

    gaps: tuple[int, ...]

    def __post_init__(self):
        if len(self.gaps) < 1:
            raise ValueError("a gap sequence needs at least one gap")
        # bool is an int subclass, but True is not a gap
        if any(type(g) is not int or g < 1 for g in self.gaps):
            raise ValueError(f"gaps must be positive integers, got {_QUOTE.repr(self.gaps)}")
        object.__setattr__(self, "gaps", tuple(sorted(self.gaps)))

    @classmethod
    def of(cls, *gaps: int) -> GapSequence:
        return cls(tuple(gaps))

    @property
    def set_size(self) -> int:
        """Number of elements in a part with this gap sequence."""
        return len(self.gaps) + 1

    @property
    def span(self) -> int:
        """Difference between the largest and smallest element of a part."""
        return sum(self.gaps)


#: One part of a tiling: a tuple of integers, strictly increasing wherever
#: the package builds one.  A plain tuple rather than a class, since a tiling
#: holds one part per four integers; verify_tiling checks the ordering
#: through the gaps, which are all positive.
Part = tuple[int, ...]


@dataclass(frozen=True)
class Tiling:
    """A claimed partition of the interval [lo, hi] into parts.

    lo and hi must be integers, bool excluded, and each part is stored as a
    tuple (a part given as a tuple is kept, not copied); another endpoint,
    parts that are not a sequence of sequences, or an empty part is a
    ValueError.  hi < lo is the empty interval:
    Tiling(5, 4, ()) is its one partition, and any element there is stray.
    """

    lo: int
    hi: int
    parts: tuple[Part, ...]

    def __post_init__(self):
        if type(self.lo) is not int or type(self.hi) is not int:
            raise ValueError("interval endpoints must be integers")
        try:
            parts = tuple(map(tuple, self.parts))
        except TypeError as exc:
            raise ValueError(f"parts must be a sequence of sequences: {exc}") from None
        if not all(parts):
            raise ValueError("a part needs at least one element")
        object.__setattr__(self, "parts", parts)

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification; falsy on reject.

    reason names the first violated condition and witness pins it to a
    concrete element, so a reject is always reproducible by hand.
    """

    ok: bool
    reason: str = ""
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok

    def message(self) -> str:
        if self.ok:
            return "accept"
        return f"reject: {self.reason} (witness {self.witness!r})"


def verify_tiling(tiling: Tiling, gaps: GapSequence) -> Verdict:
    """Accept iff the parts are pairwise disjoint, cover [lo, hi] exactly,
    and every part carries the prescribed gap multiset.

    Checks run in that fixed order and stop at the first violation; the
    verdict's witness is a duplicated element, the smallest missing or stray
    number (else the first stray that is not a number), or the least element
    of the first offending part respectively.  Malformed candidates yield a
    reject, never an exception.  Every prescribed gap is positive, so the
    gap check also rejects a part whose elements are not in increasing
    order.

    An element is an integer when its type is int, so a bool is not one.
    One cover walk judges disjointness and coverage: integers of [lo, hi]
    are marked in a bytearray indexed by x - lo, every other real number
    goes into a set, and an element that is not an integer counts as
    stray.  An element that is not a real number, or is a bool, is never
    subtracted, compared or hashed: it is only kept, in the order met, as
    a stray.  The bytearray spans at most (number of elements + 1)
    integers, so memory follows the input, not the interval: an interval
    longer than that cannot be covered, and by pigeonhole its smallest
    missing integer lies inside the bytearray.

    The gaps of a part are its tuple of consecutive differences, taken
    column by column over the parts up to the first of another length.
    One pass in order looks each tuple up in a table that sorts each
    distinct tuple once (a tiling repeats a few shapes many times) and
    stops at the first part with the wrong gaps, else at the first part
    of another length.

    When [lo, hi] has four integers per part, as in every tiling tile()
    builds, one loop over the parts first tries both passes at once: it
    unpacks each part into four integers of [lo, hi], marks them in a
    bytearray, and looks the three differences up in the same table until
    the first mismatch.  If every slot is then marked, the parts partition
    [lo, hi] by pigeonhole, and the loop accepts or names the gaps reject.
    It names no other verdict: a part of another length, an element that
    is not an integer of [lo, hi], or an unmarked slot hands the candidate
    to the cover walk and the column pass.  So a fast pass only accepts or
    names a gaps reject, and every disjointness and coverage verdict comes
    from the one cover walk.
    """
    lo, hi = tiling.lo, tiling.hi
    parts = tiling.parts
    if 4 * len(parts) == hi - lo + 1:
        verdict = _four_set_verdict(parts, lo, hi, gaps.gaps)
        if verdict is not None:
            return verdict
    return _column_verdict(parts, lo, hi, gaps.gaps)


def _four_set_verdict(parts: tuple[Part, ...], lo: int, hi: int,
                      want: tuple[int, ...]) -> Verdict | None:
    """verify_tiling's verdict on len(parts) = (hi - lo + 1) / 4 parts of
    four integers of [lo, hi] that mark every slot, in one loop per part:
    the accept, or the gaps reject of the first part with the wrong gaps.

    None for every other candidate (an element that is not an integer of
    [lo, hi], a part of another length, or a slot left unmarked), which
    _column_verdict then judges, so a guard here that is too strict costs
    speed, never a traceback or a wrong verdict.
    """
    marked = bytearray(hi - lo + 1)
    mismatch = _GapMismatch(want)
    witness = None
    try:
        for a, b, c, d in parts:
            if not (int is type(a) is type(b) is type(c) is type(d)
                    and lo <= a <= hi and lo <= b <= hi and lo <= c <= hi and lo <= d <= hi):
                return None
            marked[a - lo] = marked[b - lo] = marked[c - lo] = marked[d - lo] = 1
            if witness is None and mismatch[b - a, c - b, d - c]:
                witness = min(a, b, c, d)
    except ValueError:
        # raised only by unpacking a part of another length
        return None
    if marked.find(0) >= 0:
        return None
    return Verdict(True) if witness is None else Verdict(False, "gaps", witness)


def _column_verdict(parts: tuple[Part, ...], lo: int, hi: int,
                    want: tuple[int, ...]) -> Verdict:
    """verify_tiling's verdict on any parts: the cover walk, then the gaps
    column by column."""
    verdict = _cover_verdict(parts, lo, hi)
    if verdict is not None:
        return verdict
    k = len(want) + 1
    # parts[:j] is parts itself, not a copy, when every part has k elements
    j = next(compress(count(), map(ne, map(len, parts), repeat(k))), len(parts))
    bad = next(compress(count(), map(_GapMismatch(want).__getitem__,
                                     _differences(parts[:j], k))), j)
    if bad == len(parts):
        return Verdict(True)
    return Verdict(False, "gaps", min(parts[bad]))


def _cover_verdict(parts: tuple[Part, ...], lo: int, hi: int) -> Verdict | None:
    """None when the parts partition [lo, hi], else their disjointness or
    coverage reject."""
    window = max(0, min(hi - lo + 1, sum(map(len, parts)) + 1))
    marked = bytearray(window)
    others: set = set()
    strays: list = []
    for part in parts:
        for x in part:
            if type(x) is int and 0 <= (i := x - lo) < window:
                if marked[i]:
                    return Verdict(False, "disjointness", x)
                marked[i] = 1
            elif type(x) is bool or not isinstance(x, Real):
                strays.append(x)
            elif x in others:
                return Verdict(False, "disjointness", x)
            else:
                others.add(x)
    mismatches = [x for x in others if not (type(x) is int and lo <= x <= hi)]
    missing = marked.find(0)
    if missing >= 0:
        mismatches.append(lo + missing)
    if mismatches:
        return Verdict(False, "coverage", min(mismatches))
    return Verdict(False, "coverage", strays[0]) if strays else None


def _differences(parts: tuple[Part, ...], k: int):
    """Each part's tuple of consecutive differences, taken column by column
    over parts that all have k elements."""
    return zip(*[map(sub, map(itemgetter(i + 1), parts), map(itemgetter(i), parts))
                 for i in range(k - 1)])


class _GapMismatch(dict):
    """Consecutive differences -> whether their sorted multiset differs from
    want; each distinct tuple is sorted once, on its first lookup."""

    def __init__(self, want: tuple[int, ...]):
        super().__init__()
        self.want = want

    def __missing__(self, diffs: tuple[int, ...]) -> bool:
        bad = self[diffs] = tuple(sorted(diffs)) != self.want
        return bad


# ---------- JSON wire format ----------

def tiling_to_json(tiling: Tiling, gaps: GapSequence) -> dict:
    """Schema: {"gaps": [...], "interval": [lo, hi], "parts": [[...], ...]}.

    The parts are the tiling's own tuples, with no copy per part, in sorted
    order: by least element, since a part is increasing wherever the package
    builds one.  json.dumps writes each tuple as a JSON array.  Parts that
    cannot be ordered, such as (1, 2) beside ("a", 3), raise ValueError.
    Elements are integers, as in any tiling verify_tiling accepts; a float
    element such as NaN is outside this contract and is written as it is.
    """
    try:
        parts = sorted(tiling.parts)
    except TypeError as exc:
        raise ValueError(f"tiling parts cannot be ordered: {exc}") from None
    return {
        "gaps": list(gaps.gaps),
        "interval": [tiling.lo, tiling.hi],
        "parts": parts,
    }


def tiling_from_json(obj) -> tuple[GapSequence, Tiling]:
    """Inverse of tiling_to_json; raises ValueError on schema violations.

    The parts get one bulk check, _parts: the passes of _nested_ints and one
    per pair of neighbouring columns.  Parts of one length that are already
    increasing, as tiling_to_json writes them, are taken without sorting.
    Any other parts list is read one part at a time with _part, which sorts
    each part and raises the first bad part's error.  Each part's tuple is
    built once, and Tiling rejects an empty part.
    """
    if not isinstance(obj, dict):
        raise ValueError("tiling JSON must be an object")
    try:
        raw_gaps = obj["gaps"]
        lo, hi = obj["interval"]
        raw_parts = obj["parts"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"tiling JSON missing or malformed field: {exc}") from None
    if not isinstance(raw_parts, list):
        raise ValueError("parts must be a list")
    gaps = GapSequence(tuple(_int_list(raw_gaps, "gaps")))
    return gaps, Tiling(lo, hi, _parts(raw_parts))


def _nested_ints(values, *lengths: int) -> int:
    """The index of the first item of values (a list or tuple) that is not
    lengths[0] lists or tuples of lengths[1] ... of ints, else len(values);
    types are exact, as json.load builds them, so a bool is no int.  Each
    level takes two bulk passes (types, lengths), the leaves one, and only
    inner levels are listed; halving then finds a first bad item in bulk."""
    level = values
    for depth, n in enumerate(lengths):
        if not (set(map(type, level)) <= {list, tuple} and set(map(len, level)) <= {n}):
            break
        level = chain.from_iterable(level)
        if depth < len(lengths) - 1:
            level = list(level)
    else:
        if set(map(type, level)) <= {int}:
            return len(values)
    if len(values) == 1:
        return 0
    # a bulk pass failed, so some item fails on its own: bisect for the first
    half = len(values) // 2
    bad = _nested_ints(values[:half], *lengths)
    return bad if bad < half else half + _nested_ints(values[half:], *lengths)


def _int_list(values, what: str) -> list[int]:
    if not isinstance(values, (list, tuple)) or any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be a list of integers, got {_QUOTE.repr(values)}")
    return list(values)


def _parts(raw_parts: list) -> list:
    """The parts of a JSON parts list, in a list for Tiling to store as
    tuples; list(map(_part, raw_parts)) is the reference.

    When _nested_ints finds every part a list or tuple of ints of the first
    part's length k, and each of the k - 1 pairs of neighbouring columns is
    strictly increasing, as tiling_to_json writes them, raw_parts itself is
    returned unsorted, for a few passes of builtins; Tiling builds the tuples
    and rejects an empty part.  Any other list is read with _part, which
    sorts each part and raises the ValueError of the first bad part.
    """
    if raw_parts and type(raw_parts[0]) in (list, tuple):
        k = len(raw_parts[0])
        if _nested_ints(raw_parts, k) == len(raw_parts) and all(
                all(map(lt, map(itemgetter(i), raw_parts), map(itemgetter(i + 1), raw_parts)))
                for i in range(k - 1)):
            return raw_parts
    return list(map(_part, raw_parts))


def _part(values) -> Part:
    """A part from a JSON list of integers in any order; an empty part and
    a duplicated element are errors."""
    part = tuple(sorted(_int_list(values, "part")))
    if not part:
        raise ValueError("a part needs at least one element")
    if any(map(eq, part[1:], part)):
        raise ValueError(f"part is not strictly increasing: {_QUOTE.repr(part)}")
    return part
