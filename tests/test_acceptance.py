"""Acceptance gate: one check per shipped guarantee, one pass/fail line each.

Run under pytest (use -s to see the lines) or directly:

    python3 tests/test_acceptance.py
"""

import time
from itertools import combinations

from gaptile.assemble import build_T, plan, threshold, tile
from gaptile.blocks3d import BASE_IDS, base_covering, covering_S3, verify_covering
from gaptile.core import GapSequence, verify_tiling
from gaptile.layers import layer_x1, layer_x2, layer_y1, layer_y2
from gaptile.oracle import min_interval, solve_covering

BASE_HEIGHTS = {"S1": 4, "S2": 4, "S4_2x4": 5, "S5": 4, "S6": 4,
                "T1": 4, "T2": 4, "T3": 2, "T4": 2, "T5": 2}

TILE_GRID = [(p, q) for p in range(1, 5) for q in range(p, 5)]


def _tile_cases():
    for p, q in TILE_GRID:
        r0 = threshold(p, q)
        for r in (r0, r0 + 1, r0 + 5):
            yield p, q, r


class _Criterion:
    """Prints 'criterion N (name): PASS|FAIL' and enforces the time budget."""

    def __init__(self, number, name, seconds):
        self.number, self.name, self.seconds = number, name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.seconds
        print(f"criterion {self.number} ({self.name}): {'PASS' if ok else 'FAIL'} "
              f"[{elapsed:.2f}s]")
        if ok or exc_type is not None:
            return False
        raise AssertionError(
            f"criterion {self.number} exceeded {self.seconds}s ({elapsed:.2f}s)")


def test_criterion_1_base_coverings_verify():
    with _Criterion(1, "ten base coverings verify", 1.0):
        for name in BASE_IDS:
            cov = base_covering(name)
            assert cov.height == BASE_HEIGHTS[name]
            assert verify_covering(cov)


def test_criterion_2_oracle_finds_base_coverings():
    with _Criterion(2, "oracle refinds all base coverings", 30.0):
        for name in BASE_IDS:
            base = base_covering(name)
            found = solve_covering(base.cells, base.height, base.family)
            assert hasattr(found, "blocks"), f"oracle failed on {name}"
            assert verify_covering(found)


def test_criterion_3_composed_rectangles_verify():
    # the k-wide rectangles are the p = 1 layers of criterion 4
    with _Criterion(3, "the composed rectangle S3 verifies", 5.0):
        s3 = covering_S3()
        assert s3.height == 4
        assert verify_covering(s3)


def test_criterion_4_layer_grids_verify():
    with _Criterion(4, "layer coverings verify across the grids", 10.0):
        for p in range(1, 5):
            for q in range(2 * p, 13):
                for build in (layer_x1, layer_x2):
                    layer, cov = build(p, q)
                    assert cov.cells == layer.cells()
                    assert verify_covering(cov)
        for p in range(1, 7):
            for q in range(p, 2 * p + 1):
                for build in (layer_y1, layer_y2):
                    layer, cov = build(p, q)
                    assert cov.cells == layer.cells()
                    assert verify_covering(cov)


def test_criterion_5_tilings_verify():
    with _Criterion(5, "tile() verified on the (p, q) grid", 60.0):
        for p, q, r in _tile_cases():
            tiling = tile(p, q, r)
            assert verify_tiling(tiling, GapSequence((p, q, r)))
            assert tiling.length == plan(p, q, r).height * r


def test_criterion_6_threshold_bound():
    with _Criterion(6, "threshold <= 63 * max(p, q)^2", 1.0):
        for p in range(1, 101):
            for q in range(1, 101):
                assert threshold(p, q) <= 63 * max(p, q) ** 2


def test_criterion_7_flattening_is_bijective():
    with _Criterion(7, "T(s) parts partition their image for every s tile() uses", 60.0):
        for p, q, r in _tile_cases():
            params = plan(p, q, r)
            d, height = params.d, params.height
            s, r_rem = divmod(r, d)
            for size in {s + 1, s} if r_rem else {s}:
                values = [x for part in build_T(params, size, 0) for x in part]
                assert len(values) == len(set(values))
                assert set(values) == {d * k + (j - 1) * r for j in range(1, height + 1)
                                       for k in range(1, size + 1)}


def test_criterion_8_shifted_copies_partition():
    with _Criterion(8, "d > 1 shifted copies partition the interval", 60.0):
        cases = [(p, q, r) for p, q, r in _tile_cases() if plan(p, q, r).d > 1]
        assert {(p, q) for p, q, _ in cases} == {(2, 2), (3, 3), (4, 4), (2, 4)}
        for p, q, r in cases:
            params = plan(p, q, r)
            s, r_rem = divmod(r, params.d)
            copies = [
                {x for part in build_T(params, s + 1 if i <= r_rem else s, i)
                 for x in part}
                for i in range(1, params.d + 1)]
            for left, right in combinations(copies, 2):
                assert not left & right
            union = set().union(*copies)
            assert union == set(range(params.d + 1, params.height * r + params.d + 1))


def test_criterion_9_oracle_minima_verify():
    with _Criterion(9, "oracle minima are 4 and 3 and verify", 5.0):
        g3 = GapSequence.of(1, 1, 1)
        n, tiling = min_interval(g3, 12)
        assert n == 4
        assert verify_tiling(tiling, g3)
        g2 = GapSequence.of(1, 1)
        n, tiling = min_interval(g2, 12)
        assert n == 3
        assert verify_tiling(tiling, g2)


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - standalone runner reports all
                failures += 1
                print(f"  {exc}")
    sys.exit(1 if failures else 0)
