"""Workloads of the gaptile benchmark: their inputs, timed operations and output gates.

run.py calls prepare() to turn a workload name and a seed into a list of
operation specs (plain JSON), writing any input documents to disk first.
Each pass over those specs runs in a fresh interpreter through child_main(),
so nothing a pass computes can be reused by the next one: every (p, q) is
new to the process that builds it, as it is to a `gaptile` command.  The
child times each stage of each operation and then checks the operation's
output outside the timed region.

An operation kind is a pipeline of stages; each stage takes the spec and
the previous stage's value.  The stage names are the buckets the report
sums: tile, emit, plan, verify, verify_covering and oracle.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

from gaptile import assemble, cli, core, oracle
from gaptile.blocks3d import BASE_IDS, Covering, base_covering, covering_S3, \
    covering_to_json
from gaptile.core import GapSequence, Tiling
from gaptile.layers import layer_x1, layer_x2, layer_y1

# The gates hold these references, taken before a traced pass rebinds the
# module attributes, so checking an output never adds to the trace.
from gaptile.blocks3d import verify_covering
from gaptile.core import verify_tiling

#: Serialiser of the emit stage; a module attribute so a traced pass can time it.
json_dumps = json.dumps

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

# Each list starts with the workload's largest input: run.py measures the
# peak memory of the first operation.  (p, q, r); r None means threshold(p, q).
TILE_GRID = [(3, 60, None), (1, 2, None), (5, 7, None), (12, 18, None), (10, 30, None),
             (40, 41, None), (12, 18, 60000)]
TILE_GRID_QUICK = [(12, 18, None), (1, 2, None), (5, 7, None)]
SWEEP = [(1, 300), (2, 200), (7, 150), (150, 151), (60, 90), (100, 150)]
SWEEP_QUICK = [(150, 151), (60, 90), (100, 150)]
CROSS_TILINGS = [(3, 60, None), (40, 41, None), (12, 18, 60000)]
CROSS_TILINGS_QUICK = [(5, 7, None), (12, 18, None)]
CROSS_LAYERS = [("X1", 1, 300), ("X2", 2, 200), ("Y1", 150, 151)]
CROSS_LAYERS_QUICK = [("X1", 1, 2), ("Y1", 2, 3)]
MIN_INTERVAL = [(3, 4, 12), (2, 5, 13), (3, 5, 11), (4, 5, 9), (3, 7, 10)]
MIN_INTERVAL_N_MAX = 120
LAYERS = {"X1": layer_x1, "X2": layer_x2, "Y1": layer_y1}


def key(*parts) -> str:
    return ",".join(str(x) for x in parts)


def _with_r(p, q, r):
    return p, q, assemble.threshold(p, q) if r is None else r


# ---------- inputs ----------

def prepare(workload: str, seed: int, quick: bool, workdir: Path, cache: Path):
    """Operation specs for one run; they depend only on the seed."""
    rng = random.Random(seed)
    if workload == "tile_grid":
        grid = [_with_r(*g) for g in (TILE_GRID_QUICK if quick else TILE_GRID)]
        return [{"kind": "tile", "name": f"tile {key(*g)}", "p": g[0], "q": g[1], "r": g[2],
                 "sha256": PINS["tiling_sha256"][key(*g)]} for g in grid]
    if workload == "layers_sweep":
        pairs = SWEEP_QUICK if quick else SWEEP
        return [{"kind": "plan", "name": f"plan {key(p, q)}", "p": p, "q": q,
                 "r": assemble.threshold(p, q), "expect": PINS["plan"][key(p, q)]}
                for p, q in pairs]
    if workload == "crosscheck":
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for g in (CROSS_TILINGS_QUICK if quick else CROSS_TILINGS):
            ops += _tiling_docs(_with_r(*g), rng, workdir, cache)
        for name, p, q in (CROSS_LAYERS_QUICK if quick else CROSS_LAYERS):
            ops += _covering_docs((name, p, q), rng, workdir, cache)
        return ops + _oracle_ops(quick)
    raise ValueError(f"unknown workload {workload!r}")


def _cached(cache: Path, name: str, pin: str, make) -> tuple[str, str | None]:
    """The input document `name`, from the cache when its bytes match the pin,
    else made afresh; the second value is an error when they do not match."""
    path = cache / f"{name}.json"
    if path.is_file():
        text = path.read_text()
        if _sha256(text) == pin:
            return text, None
    text = make()
    if _sha256(text) != pin:
        return text, f"input {name} differs from its pinned SHA-256"
    cache.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return text, None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def emit(tiling: Tiling, gaps: GapSequence) -> str:
    """What `gaptile tile` writes for a tiling."""
    return json_dumps(core.tiling_to_json(tiling, gaps))


def _tiling_docs(g, rng, workdir, cache):
    p, q, r = g
    text, input_error = _cached(
        cache, f"tiling-{key(*g).replace(',', '-')}", PINS["tiling_sha256"][key(*g)],
        lambda: emit(assemble.tile(p, q, r), GapSequence((p, q, r))))
    doc = json.loads(text)
    parts = doc["parts"]
    variants = {"accept": None}

    # a whole part repeated at another position: its elements are duplicated
    dup = list(parts)
    dup.insert(rng.randrange(len(parts) + 1), list(parts[rng.randrange(len(parts))]))
    variants["disjointness"] = dict(doc, parts=dup)

    lo, hi = doc["interval"]
    variants["coverage"] = dict(doc, interval=[lo, hi + rng.randint(1, 8)])

    # one element traded between two parts: same integers, wrong gaps
    want = sorted(doc["gaps"])
    while True:
        j, k = rng.sample(range(len(parts)), 2)
        a, b = rng.randrange(len(parts[j])), rng.randrange(len(parts[k]))
        pj, pk = list(parts[j]), list(parts[k])
        pj[a], pk[b] = pk[b], pj[a]
        if _gap_list(pj) != want or _gap_list(pk) != want:
            break
    swapped = list(parts)
    swapped[j], swapped[k] = sorted(pj), sorted(pk)
    variants["gaps"] = dict(doc, parts=swapped)

    ops = []
    for expect, variant in variants.items():
        path = workdir / f"tiling-{key(*g).replace(',', '-')}-{expect}.json"
        path.write_text(text if variant is None else json.dumps(variant))
        ints = sum(len(part) for part in (variant or doc)["parts"])
        ops.append({"kind": "verify", "name": f"verify {key(*g)} {expect}", "file": str(path),
                    "expect": expect, "ints": ints, "input_error": input_error})
    return ops


def _gap_list(values) -> list[int]:
    s = sorted(values)
    return sorted(b - a for a, b in zip(s, s[1:]))


def canonical_covering_json(covering) -> str:
    """Covering JSON with blocks and their points sorted, so the document
    depends on the covering and not on the order it was assembled in."""
    doc = covering_to_json(covering)
    doc["blocks"] = sorted(sorted(block) for block in doc["blocks"])
    return json.dumps(doc)


def _covering_docs(layer, rng, workdir, cache):
    name, p, q = layer
    text, input_error = _cached(
        cache, f"layer-{name}-{p}-{q}", PINS["covering_sha256"][key(*layer)],
        lambda: canonical_covering_json(LAYERS[name](p, q)[1]))
    doc = json.loads(text)
    blocks = doc["blocks"]

    # one point pushed far along x: four distinct points no family member can chain
    broken = list(blocks)
    j, i = rng.randrange(len(blocks)), rng.randrange(4)
    block = [list(pt) for pt in blocks[j]]
    block[i][0] += 10 ** 6
    broken[j] = block

    overlap = list(blocks)
    overlap.insert(rng.randrange(len(blocks) + 1), blocks[rng.randrange(len(blocks))])

    points = len(doc["cells"]) * doc["height"]
    ops = []
    for expect, variant in (("accept", None), ("block", dict(doc, blocks=broken)),
                            ("overlap", dict(doc, blocks=overlap))):
        path = workdir / f"layer-{name}-{p}-{q}-{expect}.json"
        path.write_text(text if variant is None else json.dumps(variant))
        ops.append({"kind": "verify_covering", "name": f"verify-covering {key(*layer)} {expect}",
                    "file": str(path), "expect": expect, "ints": points,
                    "input_error": input_error})
    return ops


def _oracle_ops(quick: bool):
    def cover(name, cov, height=None):
        height = height or cov.height
        return {"kind": "solve_covering", "name": f"solve_covering {name}@{height}",
                "cells": sorted(cov.cells), "height": height, "family": cov.family}

    ops = [cover(name, base_covering(name)) for name in BASE_IDS]
    ops.append(cover("S3", covering_S3(), 8))
    if not quick:
        ops.append(cover("S3", covering_S3(), 12))
        ops.append(cover("S4_2x4", base_covering("S4_2x4"), 5))
        ops.append(cover("Y1(1,2)", layer_y1(1, 2)[1], 4))
    for gaps in MIN_INTERVAL:
        ops.append({"kind": "min_interval", "name": f"min_interval {key(*gaps)}",
                    "gaps": gaps, "n_max": MIN_INTERVAL_N_MAX,
                    "expect_n": PINS["min_interval"][key(*gaps)]})
    return ops


# ---------- operations: stages and gates ----------

def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_tile(spec, value):
    tiling, text = value
    gaps = GapSequence((spec["p"], spec["q"], spec["r"]))
    if _sha256(text) != spec["sha256"]:
        return "emitted JSON differs from the pinned SHA-256"
    verdict = verify_tiling(tiling, gaps)
    return None if verdict else f"tiling {verdict.message()}"


def _check_plan(spec, params):
    got = {name: getattr(params, name) for name in spec["expect"]}
    if got != spec["expect"]:
        return f"plan fields {got} != {spec['expect']}"
    for layer, cov in (params.layer1, params.layer2):
        if cov.cells != layer.cells():
            return f"covering cells differ from layer {layer}"
        verdict = verify_covering(cov)
        if not verdict:
            return f"layer covering {verdict.message()}"
    return None


def _check_verdict(spec, value):
    code, text = value
    want = (0, "accept") if spec["expect"] == "accept" else (2, f"reject: {spec['expect']} (")
    if code != want[0] or not text.startswith(want[1]):
        return f"exit {code} {text.strip()[:80]!r}, expected exit {want[0]} {want[1]!r}"
    return None


def _check_cover(spec, cov):
    if not isinstance(cov, Covering):
        return f"search returned {cov!r} on a solvable instance"
    if cov.cells != frozenset(tuple(c) for c in spec["cells"]) or cov.height != spec["height"]:
        return "search covered another slab"
    verdict = verify_covering(cov)
    return None if verdict else f"covering {verdict.message()}"


def _check_min_interval(spec, found):
    if not isinstance(found, tuple):
        return f"search returned {found!r} on a solvable instance"
    n, tiling = found
    if n != spec["expect_n"] or (tiling.lo, tiling.hi) != (1, n):
        return f"least n {n} on [{tiling.lo}, {tiling.hi}], expected {spec['expect_n']}"
    verdict = verify_tiling(tiling, GapSequence(tuple(spec["gaps"])))
    return None if verdict else f"tiling {verdict.message()}"


def _family(spec):
    return tuple(tuple(tuple(v) for v in member) for member in spec["family"])


KINDS = {
    "tile": ([("tile", lambda s, _: assemble.tile(s["p"], s["q"], s["r"])),
              ("emit", lambda s, t: (t, emit(t, GapSequence((s["p"], s["q"], s["r"])))))],
             _check_tile),
    "plan": ([("plan", lambda s, _: assemble.plan(s["p"], s["q"], s["r"]))], _check_plan),
    "verify": ([("verify", lambda s, _: _run_cli(["verify", s["file"]]))], _check_verdict),
    "verify_covering": ([("verify_covering",
                          lambda s, _: _run_cli(["verify-covering", s["file"]]))],
                        _check_verdict),
    "solve_covering": ([("oracle", lambda s, _: oracle.solve_covering(
                            [tuple(c) for c in s["cells"]], s["height"], _family(s)))],
                       _check_cover),
    "min_interval": ([("oracle", lambda s, _: oracle.min_interval(
                          GapSequence(tuple(s["gaps"])), s["n_max"]))],
                     _check_min_interval),
}


def peak_rss_kb() -> int:
    """High-water mark of this process's resident set, in kB.  VmHWM belongs
    to the address space an exec creates, where getrusage's ru_maxrss can
    carry over the figure of the parent that spawned the process."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _ints(spec, value) -> int:
    """Integers an operation emits or reads, the unit of ns_per_int, from
    the value of its first stage."""
    if spec["kind"] == "tile":
        return value.length
    if spec["kind"] == "plan":
        return sum(len(cov.cells) * cov.height for _, cov in (value.layer1, value.layer2))
    return spec.get("ints", 0)


def run_op(spec, tracer=None):
    """Time each stage of one operation, then check its output untimed.

    Returns {"name", "stages": {stage: ns}, "ints", "rss_kb", "error"};
    error is None when the output passed its gate, rss_kb is the resident-set
    high-water mark after the first stage.
    """
    stages, check = KINDS[spec["kind"]]
    gc.collect()
    times, value, first, out = {}, None, None, {"name": spec["name"]}
    try:
        for stage, fn in stages:
            if tracer:
                tracer.on = True
            start = perf_counter_ns()
            try:
                value = fn(spec, value)
            finally:
                times[stage] = perf_counter_ns() - start
                if tracer:
                    tracer.on = False
            if len(times) == 1:
                first = value
                out["rss_kb"] = peak_rss_kb()
        error = check(spec, value) or spec.get("input_error")
        ints = _ints(spec, first)
    except Exception as exc:  # an operation that raises is a failed operation
        error, ints = f"{type(exc).__name__}: {exc}", 0
    return dict(out, stages=times, ints=ints, error=error)


def run_pass(request) -> dict:
    """One pass: the ops in the given order, with optional tracing, and
    the resident-set high-water mark before the first op and at the end."""
    tracer = None
    if request.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(sys.modules[__name__])
    base_kb = peak_rss_kb()
    results = []
    for index, spec in enumerate(request["ops"]):
        if tracer:
            tracer.op = index
        results.append(run_op(spec, tracer))
    out = {"results": results, "base_kb": base_kb, "maxrss_kb": peak_rss_kb()}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.spans
    return out


def child_main():
    """Entry point of a pass process: request JSON on stdin, result JSON on stdout."""
    print(json.dumps(run_pass(json.loads(sys.stdin.read()))))
