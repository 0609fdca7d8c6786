"""End-to-end construction of interval tilings with gaps (p, q, r).

For gaps normalized to p <= q the builder picks one of two layer regimes:

  big   (q >= 2p): the width-q rectangle layer and its notched variant,
        sizes n1 = 4q and n2 = 4q + 1, multiplier d = 1, valid once
        r >= 4q * (4q - 1).

  small (q <= 2p): layers built at the reduced strides (p/d, q/d) with
        d = gcd(p, q), sizes n1 = (5p + 4q)/d and n2 = (4p + 3q)/d, valid
        once r >= (5p + 4q - d) * (4p + 3q - d) / d.

Both bounds are d * (n1 - 1)(n2 - 1); threshold() and plan() take the
applicable regime with the least one from a single table.

In both regimes gcd(n1, n2) = 1, so by the two-coin bound every s with
(n1 - 1)(n2 - 1) <= s <= (r - 1 + d)/d is a nonnegative combination
s = count1 * n1 + count2 * n2; the upper end of that window is exactly the
injectivity bound of the flattening map.  The split with the least count2
is closed form: count2 = s * n2^-1 mod n1, and count1 = (s - count2 * n2)
/ n1 is nonnegative throughout the window.  build_T stacks it as the two
runs (layer1, count1), (layer2, count2) (both layers of a regime share one
height l, which plan() checks) and flattening them tiles

    T(s) = union_j (d * {1..s} + (j - 1) * r),    j = 1..l

by parts with gaps {p, q, r}.  Write s = floor(r/d) and r' = r mod d; the
d translates T(s + [i <= r']) + i for i = 1..d are pairwise disjoint and
their union is exactly the interval [d + 1, l*r + d], which is what tile()
returns after running the verifier over it.

build_T and flatten_blocks are tile()'s internal stack step and check
nothing: plan() hands them certified layers of one height, and every s
tile() passes lies in the good window.  verify_tiling, run by tile() over
every part, is the one check of the stack step's output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .blocks3d import Covering
from .core import GapSequence, InternalInconsistency, Part, Tiling, \
    UnsupportedParameters, verify_tiling
from .flatten import flatten_blocks
from .layers import NiceLayer, layer_x1, layer_x2, layer_y1, layer_y2


@dataclass(frozen=True)
class PlanParameters:
    """Everything tile() needs once the regime is chosen: its row of the
    regime table, its two (NiceLayer, Covering) layers, built at the reduced
    gaps (p/d, q/d), and their common height.
    """

    p: int
    q: int
    r: int
    branch: str
    d: int
    n1: int
    n2: int
    height: int
    layer1: tuple[NiceLayer, Covering]
    layer2: tuple[NiceLayer, Covering]


def _regime(p: int, q: int) -> tuple:
    """Of the regimes (branch, d, n1, n2, builder1, builder2) that apply to
    1 <= p <= q, the one with the least bound; big wins a tie at q = 2p.
    Builders are looked up here at call time."""
    regimes = []
    if q >= 2 * p:
        regimes.append(("big", 1, 4 * q, 4 * q + 1, layer_x1, layer_x2))
    if q <= 2 * p:
        d = math.gcd(p, q)
        regimes.append(("small", d, (5 * p + 4 * q) // d, (4 * p + 3 * q) // d,
                        layer_y1, layer_y2))
    return min(regimes, key=_bound)


def _bound(regime: tuple) -> int:
    _, d, n1, n2, *_ = regime
    return d * (n1 - 1) * (n2 - 1)


def threshold(p: int, q: int) -> int:
    """Least r0 such that tile(p, q, r) succeeds for every r >= r0.

    p and q must be positive integers, bool excluded, as GapSequence
    requires; anything else is a ValueError."""
    GapSequence((p, q))
    p, q = sorted((p, q))
    return _bound(_regime(p, q))


def plan(p: int, q: int, r: int) -> PlanParameters:
    """Choose the regime for gaps (p, q, r) and prebuild its two layers.

    Raises UnsupportedParameters when r is below threshold(p, q), the
    chosen regime's bound, and ValueError, before any layer is built, when
    a gap is not a positive integer (bool excluded), as GapSequence does.
    """
    GapSequence((p, q, r))
    p, q = sorted((p, q))
    regime = _regime(p, q)
    r0 = _bound(regime)
    if r < r0:
        raise UnsupportedParameters(
            f"r={r} is below the guaranteed threshold {r0} for gaps ({p}, {q})",
            threshold=r0)
    branch, d, n1, n2, build1, build2 = regime
    layer1, layer2 = build1(p // d, q // d), build2(p // d, q // d)
    if math.gcd(n1, n2) != 1 or n1 != layer1[0].size or n2 != layer2[0].size:
        raise InternalInconsistency(f"layer sizes {n1}, {n2} violate the plan's assumptions")
    height = layer1[1].height
    if layer2[1].height != height:
        raise InternalInconsistency(
            f"layer heights {height}, {layer2[1].height} differ; a stack needs one height")
    return PlanParameters(
        p=p, q=q, r=r, branch=branch, d=d, n1=n1, n2=n2, height=height,
        layer1=layer1, layer2=layer2)


def build_T(params: PlanParameters, s: int, shift: int) -> list[Part]:
    """Parts tiling T(s) + shift = union_j (d * {1..s} + (j-1) * r + shift),
    unchecked: tile()'s verify_tiling is the one check of its parts.

    s must lie in the good window [(n1 - 1)(n2 - 1), (r - 1 + d)/d], as
    every s tile() passes does; the upper end is the flattener's injectivity
    bound.  The stack is two runs, count1 copies of layer1 then count2 of
    layer2, the split of s with the least count2 (which may be 0):
    count2 = s * n2^-1 mod n1 and count1 = (s - count2 * n2) / n1.
    """
    n1, n2 = params.n1, params.n2
    count2 = s * pow(n2, -1, n1) % n1
    count1 = (s - count2 * n2) // n1
    return flatten_blocks(((params.layer1, count1), (params.layer2, count2)),
                          params.d, params.r, shift)


def tile(p: int, q: int, r: int) -> Tiling:
    """A verified tiling of [d + 1, l*r + d] by parts with gaps {p, q, r}.

    p and q are sorted ascending; r always plays the third gap.  Requires
    r >= threshold(p, q), else UnsupportedParameters, which is also raised
    when the interval's l*r integers are more than sys.maxsize, the most any
    list can index.  The result has passed verify_tiling; a failure there is
    an InternalInconsistency.

    Its parts are sorted by least element.  Each of the d translates comes
    out of flatten_blocks already increasing, so the sort only checks one
    sorted run when d = 1 and merges d runs otherwise.
    """
    params = plan(p, q, r)
    if params.height * r > sys.maxsize:
        raise UnsupportedParameters(
            f"the interval of {params.height} * {r} integers is longer than "
            f"sys.maxsize = {sys.maxsize}, the most a list can index")
    s, r_rem = divmod(r, params.d)
    parts: list[Part] = []
    for i in range(1, params.d + 1):
        parts += build_T(params, s + 1 if i <= r_rem else s, i)
    parts.sort()
    tiling = Tiling(params.d + 1, params.height * r + params.d, parts)
    verdict = verify_tiling(tiling, GapSequence((p, q, r)))
    if not verdict:
        raise InternalInconsistency(f"constructed tiling failed, {verdict.message()}")
    return tiling
