"""Gap sequences, interval tilings, and the tiling verifier.

A finite set of integers x1 < ... < xn has a gap sequence: the multiset of
consecutive differences x(i+1) - xi, reported in nondecreasing order.  This
package partitions integer intervals into parts that all share one prescribed
gap sequence.  The present module holds the shared vocabulary (GapSequence,
Part, Tiling), the JSON wire format, and verify_tiling, the acceptance check
that every tiling emitted anywhere in the package must pass.

verify_tiling never trusts the construction that produced its input; it
re-derives everything from the candidate itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le, sub
from typing import Any


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
        if any(not isinstance(g, int) or g < 1 for g in self.gaps):
            raise ValueError(f"gaps must be positive integers, got {self.gaps!r}")
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


@dataclass(frozen=True, slots=True)
class Part:
    """One part of a tiling: a strictly increasing tuple of integers.

    Slotted: a tiling holds one Part per four integers, and a per-instance
    __dict__ would double the objects the cyclic garbage collector tracks.
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if len(elements) < 1:
            raise ValueError("a part needs at least one element")
        if any(map(le, elements[1:], elements)):
            raise ValueError(f"part is not strictly increasing: {elements!r}")

    @classmethod
    def from_values(cls, values) -> Part:
        """Build a part from values in any order; duplicates are an error."""
        return cls(tuple(sorted(values)))

    def translated(self, offset: int) -> Part:
        return Part(tuple(x + offset for x in self.elements))

    @property
    def least(self) -> int:
        return self.elements[0]


def gap_multiset(part: Part) -> tuple[int, ...]:
    """Consecutive differences of a part, sorted ascending.

    A part with fewer than two elements has no gaps and is rejected.
    """
    if len(part.elements) < 2:
        raise ValueError("gap multiset needs a part with at least 2 elements")
    return tuple(sorted(map(sub, part.elements[1:], part.elements)))


@dataclass(frozen=True)
class Tiling:
    """A claimed partition of the interval [lo, hi] into parts."""

    lo: int
    hi: int
    parts: tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

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
    integer, or the least element of the offending part respectively.
    Malformed candidates yield a reject, never an exception.

    Integers of [lo, hi] are marked in a bytearray indexed by x - lo; every
    other element goes into a set, and an element that is not an integer
    counts as stray.  The bytearray spans at most (number of elements + 1)
    integers, so memory follows the input, not the interval: an interval
    longer than that cannot be covered, and by pigeonhole its smallest
    missing integer lies inside the bytearray.
    """
    lo, hi = tiling.lo, tiling.hi
    window = max(0, min(hi - lo + 1, sum(len(part.elements) for part in tiling.parts) + 1))
    marked = bytearray(window)
    others: set = set()
    for part in tiling.parts:
        for x in part.elements:
            i = x - lo
            if 0 <= i < window and isinstance(i, int):
                if marked[i]:
                    return Verdict(False, "disjointness", x)
                marked[i] = 1
            elif x in others:
                return Verdict(False, "disjointness", x)
            else:
                others.add(x)
    mismatches = [x for x in others if not (isinstance(x, int) and lo <= x <= hi)]
    missing = marked.find(0)
    if missing >= 0:
        mismatches.append(lo + missing)
    if mismatches:
        return Verdict(False, "coverage", min(mismatches))
    want = gaps.gaps
    for part in tiling.parts:
        if len(part.elements) != len(want) + 1 or gap_multiset(part) != want:
            return Verdict(False, "gaps", part.elements[0])
    return Verdict(True)


# ---------- JSON wire format ----------

def tiling_to_json(tiling: Tiling, gaps: GapSequence) -> dict:
    """Schema: {"gaps": [...], "interval": [lo, hi], "parts": [[...], ...]},
    parts sorted by least element."""
    parts = sorted(tiling.parts, key=lambda part: part.elements)
    return {
        "gaps": list(gaps.gaps),
        "interval": [tiling.lo, tiling.hi],
        "parts": [list(part.elements) for part in parts],
    }


def tiling_from_json(obj) -> tuple[GapSequence, Tiling]:
    """Inverse of tiling_to_json; raises ValueError on schema violations."""
    if not isinstance(obj, dict):
        raise ValueError("tiling JSON must be an object")
    try:
        raw_gaps = obj["gaps"]
        lo, hi = obj["interval"]
        raw_parts = obj["parts"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"tiling JSON missing or malformed field: {exc}") from None
    if not isinstance(lo, int) or not isinstance(hi, int):
        raise ValueError("interval endpoints must be integers")
    gaps = GapSequence(tuple(_int_list(raw_gaps, "gaps")))
    parts = tuple(Part.from_values(_int_list(p, "part")) for p in raw_parts)
    return gaps, Tiling(lo, hi, parts)


def _int_list(values, what: str) -> list[int]:
    if not isinstance(values, (list, tuple)) or any(not isinstance(v, int) for v in values):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return list(values)
