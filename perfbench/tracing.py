"""Spans and counters around the public functions of gaptile's modules.

A traced pass rebinds each function below in the module namespace where its
caller looks it up (gaptile.assemble.flatten_blocks, gaptile.cli.tiling_from_json,
...) to a wrapper.  A span wrapper records [name, op, parent, start_ns, end_ns],
with op the index of the benchmark operation that caused it and parent the
index of the enclosing span (-1 at the top).  A counting wrapper only counts
calls; it guards the hot functions (phi, is_block, Part.translated), where a
span per call would cost more than the call.  Wrappers do nothing while
`on` is false, so the benchmark's own output checks never reach the trace.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter_ns

from gaptile import assemble, blocks3d, cli, core, flatten, layers, oracle


def _observe_parts(counts, args, result):
    counts["flatten.parts"] += len(result)


def _observe_tiling(counts, args, result):
    counts["core.verify_tiling.ints"] += args[0].length


def _observe_found(counts, args, result):
    counts["oracle.solve_interval.found"] += isinstance(result, core.Tiling)


# (namespace, attribute, span name, observer); the benchmark reaches tile,
# plan, main, tiling_to_json and solve_covering through the same module
# attributes, so its own calls are spans too.
SPANS = [
    (assemble, "tile", "assemble.tile", None),
    (assemble, "plan", "assemble.plan", None),
    (assemble, "build_stack", "assemble.build_stack", None),
    (assemble, "build_T", "assemble.build_T", None),
    (assemble, "flatten_blocks", "flatten.flatten_blocks", _observe_parts),
    (assemble, "verify_tiling", "core.verify_tiling", _observe_tiling),
    *((assemble, name, "layers.build", None)
      for name in ("layer_x1", "layer_x2", "layer_y1", "layer_y2")),
    (blocks3d, "verify_covering", "blocks3d.verify_covering", None),
    (oracle, "verify_covering", "blocks3d.verify_covering", None),
    (cli, "verify_covering", "blocks3d.verify_covering", None),
    (cli, "verify_tiling", "core.verify_tiling", _observe_tiling),
    (cli, "tiling_from_json", "core.tiling_from_json", None),
    (cli, "covering_from_json", "blocks3d.covering_from_json", None),
    (cli, "main", "cli.main", None),
    (core, "tiling_to_json", "core.tiling_to_json", None),
    (oracle, "solve_covering", "oracle.solve_covering", None),
    (oracle, "solve_interval", "oracle.solve_interval", _observe_found),
]

# (namespace, attribute, counter name)
COUNTS = [
    (blocks3d, "is_block", "blocks3d.is_block"),
    (flatten, "phi", "flatten.phi"),
    (core.Part, "translated", "core.Part.translated"),
    *((module, name, f"blocks3d.{name}")
      for module in (blocks3d, layers) for name in ("translate", "stretch_e1", "compose")),
    *((module, "replicate_height", "blocks3d.replicate_height")
      for module in (blocks3d, layers, flatten)),
]


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, workloads_module):
        """Rebind every traced function; the emit serialiser of the benchmark's
        workloads module is traced as core.json_dumps.  A function the
        package no longer has is skipped, and its metrics read 0."""
        targets = [(ns, attr, self._span(name, getattr(ns, attr), observe))
                   for ns, attr, name, observe in SPANS if hasattr(ns, attr)]
        targets += [(ns, attr, self._count(name, getattr(ns, attr)))
                    for ns, attr, name in COUNTS if hasattr(ns, attr)]
        targets.append((workloads_module, "json_dumps",
                        self._span("core.json_dumps", workloads_module.json_dumps, None)))
        for ns, attr, wrapper in targets:
            self._saved.append((ns, attr, getattr(ns, attr)))
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()

    def _span(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            record = [name, self.op, self._stack[-1] if self._stack else -1, perf_counter_ns(), 0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter_ns()
                self._stack.pop()
            if observe:
                observe(self.counts, args, result)
            return result
        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.counts)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one pass.  X.s is the summed duration of the
    spans named X, X.self_s the same minus the time their child spans cover,
    X.calls their number or the call count of a counted function."""
    total, calls, self_ns = defaultdict(int), Counter(), defaultdict(int)
    children = defaultdict(int)
    for name, _, parent, start, end in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            children[parent] += end - start
    for index, (name, _, _, start, end) in enumerate(spans):
        self_ns[name] += end - start - children[index]

    def s(name):
        return total[name] / 1e9

    return {
        "assemble.plan.s": s("assemble.plan"),
        "assemble.build_stack.s": s("assemble.build_stack"),
        "assemble.build_T.calls": calls["assemble.build_T"],
        "assemble.build_T.s": s("assemble.build_T"),
        "assemble.tile.self_s": self_ns["assemble.tile"] / 1e9,
        "layers.build.calls": calls["layers.build"],
        "layers.build.s": s("layers.build"),
        "blocks3d.verify_covering.calls": calls["blocks3d.verify_covering"],
        "blocks3d.verify_covering.s": s("blocks3d.verify_covering"),
        "blocks3d.is_block.calls": counts["blocks3d.is_block"],
        "blocks3d.certify_per_layer": _ratio(calls["blocks3d.verify_covering"],
                                             calls["layers.build"]),
        "blocks3d.translate.calls": counts["blocks3d.translate"],
        "blocks3d.stretch_e1.calls": counts["blocks3d.stretch_e1"],
        "blocks3d.replicate_height.calls": counts["blocks3d.replicate_height"],
        "blocks3d.compose.calls": counts["blocks3d.compose"],
        "blocks3d.covering_from_json.s": s("blocks3d.covering_from_json"),
        "flatten.flatten_blocks.s": s("flatten.flatten_blocks"),
        "flatten.phi.calls": counts["flatten.phi"],
        "flatten.parts": counts["flatten.parts"],
        "flatten.ns_per_part": _ratio(total["flatten.flatten_blocks"], counts["flatten.parts"]),
        "core.verify_tiling.s": s("core.verify_tiling"),
        "core.verify_tiling.ns_per_int": _ratio(total["core.verify_tiling"],
                                                counts["core.verify_tiling.ints"]),
        "core.tiling_from_json.s": s("core.tiling_from_json"),
        "core.Part.translated.calls": counts["core.Part.translated"],
        "core.tiling_to_json.s": s("core.tiling_to_json"),
        "core.json_dumps.s": s("core.json_dumps"),
        "oracle.solve_covering.s": s("oracle.solve_covering"),
        "oracle.solve_interval.s": s("oracle.solve_interval"),
        "oracle.solve_interval.calls": calls["oracle.solve_interval"],
        "oracle.solve_interval.found_ratio": _ratio(counts["oracle.solve_interval.found"],
                                                    calls["oracle.solve_interval"]),
        "cli.main.self_s": self_ns["cli.main"] / 1e9,
    }
