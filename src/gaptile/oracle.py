"""Brute-force exact-cover searches, independent of the constructive path.

solve_interval tiles [1, n] by sets with a given gap multiset, solve_covering
fills a slab with family blocks.  Both searches always extend the least
uncovered element, which any solution must cover by a part (or block) whose
minimum sits exactly there, so branching over the few placements anchored at
that minimum is exhaustive.  With a fixed branching order the searches are
deterministic; a node budget caps runtime and is reported as a distinct
outcome instead of being confused with a proven "no solution".  The depth
first search keeps its open nodes on an explicit stack, so the depth of a
solution is bounded by memory, not by the interpreter's recursion limit.

Each search finds its least uncovered element by scanning forward, in
sorted order, from the least element of its latest placement: everything
before that is covered.  solve_covering keeps one row per anchor, the
placements anchored there that fit inside the slab, in branching order,
built the first time the search reaches that anchor, as the precomputed
rows of Knuth's Algorithm X ("Dancing Links", arXiv cs/0011047); a node
then only keeps the row's placements that are still uncovered.  Rows are
filled lazily and the slab is indexed, not stored, so memory follows the
nodes visited, not the slab.

Nothing here shares logic with the builders or verifiers it cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations

from .blocks3d import Covering, Family, verify_covering
from .core import GapSequence, InternalInconsistency, Tiling


@dataclass(frozen=True)
class SearchBudget:
    """Node limit for a search; a node is one expansion of an anchor."""

    max_nodes: int = 1_000_000

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("budget must allow at least one node")


class _BudgetExhausted:
    __slots__ = ()

    def __repr__(self):
        return "BUDGET_EXHAUSTED"


#: Returned when the node budget ran out before the search space did.
#: Compare with `is`; distinct from None, which proves no solution exists.
BUDGET_EXHAUSTED = _BudgetExhausted()


def _depth_first(branches, place, undo, budget: SearchBudget):
    """Depth first search over placements, on an explicit stack.

    branches() returns None when nothing is left to cover, else the list of
    placements that fit at the least uncovered element, in branching order.
    place(choice) applies a placement, undo() reverts the latest one, so
    every sibling is tried from the state its list was made in.  Each
    branches() call that returns a list is one node.  Returns True when
    solved, None when the search space is exhausted, or BUDGET_EXHAUSTED.
    """
    stack = []
    nodes = 0
    while True:
        options = branches()
        if options is None:
            return True
        nodes += 1
        if nodes > budget.max_nodes:
            return BUDGET_EXHAUSTED
        stack.append(iter(options))
        while (choice := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return None
            undo()
        place(choice)


def solve_interval(gaps: GapSequence, n: int, budget: SearchBudget | None = None):
    """Search for a tiling of [1, n] by parts with the given gap multiset.

    Returns a Tiling, or None when the exhaustive search proves there is
    none, or BUDGET_EXHAUSTED.
    """
    budget = budget or SearchBudget()
    if n < 1:
        raise ValueError(f"interval length must be positive, got {n}")
    size = gaps.set_size
    if n % size:
        return None
    offsets = sorted({tuple(accumulate(perm)) for perm in permutations(gaps.gaps)})
    free = [False] + [True] * n  # 1-based
    chosen: list[tuple[int, ...]] = []

    def branches():
        low = chosen[-1][0] + 1 if chosen else 1
        while low <= n and not free[low]:
            low += 1
        if low > n:
            return None
        shifted = ((low, *(low + o for o in off)) for off in offsets)
        return [pts for pts in shifted if pts[-1] <= n and all(free[x] for x in pts[1:])]

    def place(pts):
        for x in pts:
            free[x] = False
        chosen.append(pts)

    def undo():
        for x in chosen.pop():
            free[x] = True

    found = _depth_first(branches, place, undo, budget)
    if found is not True:
        return found
    return Tiling(1, n, tuple(chosen))


def min_interval(gaps: GapSequence, n_max: int, budget: SearchBudget | None = None):
    """Least n <= n_max whose search finds a tiling of [1, n], as (n, Tiling).
    None is a proof that no n <= n_max works.  BUDGET_EXHAUSTED as soon as
    the search of a length runs out of budget: a longer length found after
    it would not be known to be the least."""
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
    there is none, or BUDGET_EXHAUSTED.
    """
    budget = budget or SearchBudget()
    if height < 1:
        raise ValueError(f"height must be positive, got {height}")
    cells = frozenset(tuple(c) for c in cells)
    # point i of the slab in sorted order is (*columns[i // height], i % height + 1)
    columns = sorted(cells)
    size = len(columns) * height
    if size % 4:
        return None

    # all block shapes that contain their least point at the origin
    placements: dict[frozenset, tuple] = {}
    for member in family:
        for perm in sorted(set(permutations(member))):
            walk = [(0, 0, 0)]
            for step in perm:
                walk.append(tuple(a + b for a, b in zip(walk[-1], step)))
            base = min(walk)
            shape = tuple(tuple(a - b for a, b in zip(pt, base)) for pt in walk)
            placements.setdefault(frozenset(shape), shape)

    # rows[i]: the placements anchored at point i inside the slab, in
    # branching order, each as (i, points); built when a node first gets there
    rows: dict[int, list] = {}
    covered: set[tuple[int, int, int]] = set()
    chosen: list[tuple[int, tuple]] = []

    def branches():
        i = chosen[-1][0] + 1 if chosen else 0
        while i < size and (*columns[i // height], i % height + 1) in covered:
            i += 1
        if i == size:
            return None
        if (options := rows.get(i)) is None:
            (x, y), z = columns[i // height], i % height + 1
            shifted = (tuple((x + dx, y + dy, z + dz) for dx, dy, dz in shape)
                       for shape in placements.values())
            options = rows[i] = [(i, pts) for pts in shifted
                                 if all(pt[:2] in cells and 1 <= pt[2] <= height for pt in pts)]
        return [option for option in options if covered.isdisjoint(option[1])]

    def place(option):
        covered.update(option[1])
        chosen.append(option)

    def undo():
        covered.difference_update(chosen.pop()[1])

    found = _depth_first(branches, place, undo, budget)
    if found is not True:
        return found
    covering = Covering(cells, height, tuple(pts for _, pts in chosen), tuple(family))
    verdict = verify_covering(covering)
    if not verdict:
        raise InternalInconsistency(f"search produced a bad covering, {verdict.message()}")
    return covering
