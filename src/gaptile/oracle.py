"""Brute-force exact-cover searches, independent of the constructive path.

solve_interval tiles [1, n] by sets with a given gap multiset, solve_covering
fills a slab with family blocks.  Both are one search, _exact_cover, over an
ordered index space 0..size-1: index i is the integer i + 1 of [1, n], or
the i-th point of the slab in sorted order.  The search always extends the
least uncovered index, which any solution must cover by a placement whose
least index sits exactly there, so branching over the few placements
anchored at that index is exhaustive.  With a fixed branching order the
search is deterministic; a node budget caps runtime and is reported as a
distinct outcome instead of being confused with a proven "no solution".
Open nodes sit on an explicit stack, so the depth of a solution is bounded
by memory, not by the interpreter's recursion limit.

The least uncovered index is found by scanning forward from the least index
of the latest placement: everything before it is covered.  The placements
anchored at an index that fit are listed once, the first time the search
reaches that index, and kept, as the precomputed rows of Knuth's Algorithm X
("Dancing Links", arXiv cs/0011047); a node then only keeps the row's
placements that are disjoint from the covered indices.  Rows are filled
lazily and the index space is counted, not stored, so memory follows the
nodes visited, not the slab.  Each public search certifies what it returns
with the matching verifier.

Nothing here shares logic with the builders or verifiers it cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations

from .blocks3d import Covering, Family, verify_covering
from .core import GapSequence, InternalInconsistency, Tiling, verify_tiling


@dataclass(frozen=True)
class SearchBudget:
    """Node limit for a search; a node is one expansion of an anchor.  A
    limit that is not an int (bool excluded) is a ValueError."""

    max_nodes: int = 1_000_000

    def __post_init__(self):
        if type(self.max_nodes) is not int:
            raise ValueError(f"budget must be an integer node count, got {self.max_nodes!r}")
        if self.max_nodes < 1:
            raise ValueError("budget must allow at least one node")


class _BudgetExhausted:
    __slots__ = ()

    def __repr__(self):
        return "BUDGET_EXHAUSTED"


#: Returned when the node budget ran out before the search space did.
#: Compare with `is`; distinct from None, which proves no solution exists.
BUDGET_EXHAUSTED = _BudgetExhausted()


def _exact_cover(size: int, anchored, budget: SearchBudget):
    """Cover the indices 0..size-1 exactly by placements, tuples of indices.

    anchored(i) lists, in branching order, the placements whose least index
    is i and that fit; it is called once per index the search anchors at.
    Each expansion of the least uncovered index is one node.  Returns the
    placements of the first cover found, in the order they were placed,
    None when the search space is exhausted, or BUDGET_EXHAUSTED.
    """
    rows: dict[int, list] = {}
    covered: set[int] = set()
    chosen: list[tuple[int, ...]] = []
    stack = []
    i = nodes = 0
    while True:
        while i < size and i in covered:
            i += 1
        if i == size:
            return chosen
        nodes += 1
        if nodes > budget.max_nodes:
            return BUDGET_EXHAUSTED
        if (row := rows.get(i)) is None:
            row = rows[i] = anchored(i)
        stack.append(iter([placement for placement in row if covered.isdisjoint(placement)]))
        while (placement := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return None
            covered.difference_update(chosen.pop())
        covered.update(placement)
        chosen.append(placement)
        i = min(placement) + 1


def solve_interval(gaps: GapSequence, n: int, budget: SearchBudget | None = None):
    """Search for a tiling of [1, n] by parts with the given gap multiset.

    Returns a verified Tiling, or None when the exhaustive search proves
    there is none, or BUDGET_EXHAUSTED.  An n that is not a positive int
    (bool excluded) is a ValueError.
    """
    budget = budget or SearchBudget()
    if type(n) is not int or n < 1:
        raise ValueError(f"interval length must be a positive integer, got {n!r}")
    if n % gaps.set_size:
        return None
    # index i is the integer i + 1; a part is its least index plus offsets
    offsets = sorted({(0, *accumulate(perm)) for perm in permutations(gaps.gaps)})
    found = _exact_cover(
        n, lambda i: [tuple(i + o for o in off) for off in offsets if i + off[-1] < n], budget)
    if found is None or found is BUDGET_EXHAUSTED:
        return found
    tiling = Tiling(1, n, tuple(tuple(i + 1 for i in part) for part in found))
    verdict = verify_tiling(tiling, gaps)
    if not verdict:
        raise InternalInconsistency(f"search produced a bad tiling, {verdict.message()}")
    return tiling


def min_interval(gaps: GapSequence, n_max: int, budget: SearchBudget | None = None):
    """Least n <= n_max whose search finds a tiling of [1, n], as (n, Tiling).
    None is a proof that no n <= n_max works.  BUDGET_EXHAUSTED as soon as
    the search of a length runs out of budget: a longer length found after
    it would not be known to be the least.  An n_max that is not an int
    (bool excluded) is a ValueError."""
    if type(n_max) is not int:
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    size = gaps.set_size
    for n in range(size, n_max + 1, size):
        result = solve_interval(gaps, n, budget)
        if isinstance(result, Tiling):
            return n, result
        if result is BUDGET_EXHAUSTED:
            return result
    return None


def solve_covering(cells, height: int, family: Family,
                   budget: SearchBudget | None = None):
    """Search for a covering of cells x {1..height} by family blocks.

    Returns a verified Covering, or None when the exhaustive search proves
    there is none, or BUDGET_EXHAUSTED.  cells, height and family are read
    as Covering reads them, so what it rejects is a ValueError here.
    """
    budget = budget or SearchBudget()
    empty = Covering(cells, height, (), family)
    columns = sorted(empty.cells)
    size = len(columns) * height
    if size % 4:
        return None
    column_index = {cell: k for k, cell in enumerate(columns)}

    # the block shapes in walk order, translated so that their least point
    # is the origin; a walk that revisits a point is no block
    shapes: dict[frozenset, tuple] = {}
    for member in empty.family:
        for perm in sorted(set(permutations(member))):
            walk = [(0, 0, 0)]
            for step in perm:
                walk.append(tuple(a + b for a, b in zip(walk[-1], step)))
            base = min(walk)
            shape = tuple(tuple(a - b for a, b in zip(pt, base)) for pt in walk)
            if len(set(shape)) == 4:
                shapes.setdefault(frozenset(shape), shape)

    def point(i):
        # index i is the i-th point of the slab in sorted order
        return (*columns[i // height], i % height + 1)

    def index(x, y, z):
        # the inverse of point, None off the slab
        k = column_index.get((x, y))
        return None if k is None or not 1 <= z <= height else k * height + z - 1

    def anchored(i):
        x, y, z = point(i)
        fits = (tuple(index(x + dx, y + dy, z + dz) for dx, dy, dz in shape)
                for shape in shapes.values())
        return [placement for placement in fits if None not in placement]

    found = _exact_cover(size, anchored, budget)
    if found is None or found is BUDGET_EXHAUSTED:
        return found
    blocks = tuple(tuple(map(point, placement)) for placement in found)
    covering = Covering(empty.cells, height, blocks, empty.family)
    verdict = verify_covering(covering)
    if not verdict:
        raise InternalInconsistency(f"search produced a bad covering, {verdict.message()}")
    return covering
