"""Brute-force exact-cover searches, independent of the constructive path.

solve_interval tiles [1, n] by sets with a given gap multiset, solve_covering
fills a slab with family blocks.  Both searches always extend the least
uncovered element, which any solution must cover by a part (or block) whose
minimum sits exactly there, so branching over the few placements anchored at
that minimum is exhaustive.  With a fixed branching order the searches are
deterministic; a node budget caps runtime and is reported as a distinct
outcome instead of being confused with a proven "no solution".

Nothing here shares logic with the builders or verifiers it cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations

from .blocks3d import Block, Covering, Family, verify_covering
from .core import GapSequence, InternalInconsistency, Part, Tiling


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


class _OutOfNodes(Exception):
    pass


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
    nodes = 0

    def extend(low: int) -> bool:
        nonlocal nodes
        while low <= n and not free[low]:
            low += 1
        if low > n:
            return True
        nodes += 1
        if nodes > budget.max_nodes:
            raise _OutOfNodes
        for off in offsets:
            pts = (low, *(low + o for o in off))
            if pts[-1] > n or not all(free[x] for x in pts[1:]):
                continue
            for x in pts:
                free[x] = False
            chosen.append(pts)
            if extend(low + 1):
                return True
            chosen.pop()
            for x in pts:
                free[x] = True
        return False

    try:
        found = extend(1)
    except _OutOfNodes:
        return BUDGET_EXHAUSTED
    if not found:
        return None
    return Tiling(1, n, tuple(Part(pts) for pts in chosen))


def min_interval(gaps: GapSequence, n_max: int, budget: SearchBudget | None = None):
    """Smallest n <= n_max with a tiling of [1, n], as (n, Tiling); None when
    every candidate length fails within the budget."""
    size = gaps.set_size
    for n in range(size, n_max + 1, size):
        result = solve_interval(gaps, n, budget)
        if isinstance(result, Tiling):
            return n, result
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
    universe = frozenset((x, y, z) for x, y in cells for z in range(1, height + 1))
    if len(universe) % 4:
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

    uncovered = set(universe)
    chosen: list[Block] = []
    nodes = 0

    def fill() -> bool:
        nonlocal nodes
        if not uncovered:
            return True
        nodes += 1
        if nodes > budget.max_nodes:
            raise _OutOfNodes
        anchor = min(uncovered)
        for shape in placements.values():
            pts = tuple(tuple(a + b for a, b in zip(anchor, off)) for off in shape)
            if not all(pt in uncovered for pt in pts):
                continue
            uncovered.difference_update(pts)
            chosen.append(Block(pts))
            if fill():
                return True
            chosen.pop()
            uncovered.update(pts)
        return False

    try:
        found = fill()
    except _OutOfNodes:
        return BUDGET_EXHAUSTED
    if not found:
        return None
    covering = Covering(cells, height, tuple(chosen), tuple(family))
    verdict = verify_covering(covering)
    if not verdict:
        raise InternalInconsistency(f"search produced a bad covering, {verdict.message()}")
    return covering
