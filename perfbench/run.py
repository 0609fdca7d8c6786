#!/usr/bin/env python3
"""Benchmark of gaptile's public API: tile(), plan(), the CLI verifiers and the oracle.

    python3 perfbench/run.py --workload tile_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): tile_grid, layers_sweep and crosscheck.  One
caller runs the workload's operations back to back (a closed loop) in a
seeded order.  Each pass over the operations runs in a fresh interpreter, one
pass at a time, and passes repeat while a further pass fits in --seconds
(there is always at least one).  Every output is checked after it is timed.

With --trace 0 the run also measures set-up (importing gaptile and calling
tile(1, 2, 56) in a fresh interpreter) before the passes and between them, and
runs the workload's largest operation alone in a process of its own for its
peak memory; that run is one more timing sample of the operation.  With
--trace 1 it alternates untraced and traced passes, and reports the
per-layer metrics of the traced ones and their overhead over the untraced.

Lines before the last are a human-readable report (issue-level metric names,
each with per-operation median, the highest percentile with at least ten
samples beyond it, and the sample count) and the run environment.  The last
line is one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json lists for the mode.  A full record, with trace spans, is
written to .perfbench_out/.  --quick runs each workload on its smallest
inputs with every check active.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170
# Set-up is timed inside a fresh interpreter, from before `import gaptile`
# to after a first tile(1, 2, 56): the part of a CLI call's start that the
# package decides.  Process creation and interpreter start are left out;
# they are the host's, and they swing most with its load.
SETUP_CODE = ("from time import perf_counter\nstart = perf_counter()\nimport gaptile\n"
              "gaptile.tile(1, 2, 56)\nprint(perf_counter() - start)\n")
PRELUDE = f"import sys\nsys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
# Each workload's primary stage, whose time per integer is its ns_per_int,
# and the name the report gives that figure.
PRIMARY = {"tile_grid": ("tile", "ns_per_int"), "layers_sweep": ("plan", "plan_ns_per_point"),
           "crosscheck": ("verify", "verify_ns_per_int")}
WORKLOADS = tuple(PRIMARY)


class PassFailed(Exception):
    pass


def python_child(code: str, stdin: str | None, timeout: float) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports gaptile from this checkout."""
    return subprocess.run([sys.executable, "-c", PRELUDE + code], input=stdin, text=True,
                          capture_output=True, timeout=max(1.0, timeout), cwd=ROOT)


def run_pass(ops, order, timeout, trace=False) -> dict:
    request = json.dumps({"ops": [ops[i] for i in order], "trace": trace})
    try:
        proc = python_child("import workloads\nworkloads.child_main()\n", request, timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass process exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile_summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are too few samples), and the sample count."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals) if vals else None, "n": n, "p": None, "p_value": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n - math.ceil(p / 100 * n) >= 10:
            out["p"], out["p_value"] = p, vals[math.ceil(p / 100 * n) - 1]
            break
    return out


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "loadavg_start": os.getloadavg(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "quick": args.quick}


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, ok: bool, what: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 50:
                self.errors.append(what)


def measure_setup(runs: int, tally: Tally, deadline: float) -> list[float]:
    times = []
    for _ in range(runs):
        try:
            proc = python_child(SETUP_CODE, None, deadline - time.monotonic())
            times.append(float(proc.stdout))
            ok = proc.returncode == 0
        except (subprocess.TimeoutExpired, ValueError):
            ok = False
        tally.add(ok, "set-up process failed")
    return times


def measure_peak(ops, tally: Tally, deadline: float):
    """Run ops[0], the workload's largest operation, alone in a process.
    Returns the peak resident bytes of its first stage (tile, plan or
    verify) over the interpreter's own, per integer it handles, and the
    one-operation pass, whose timing is one more sample of that operation."""
    try:
        alone = run_pass(ops, [0], deadline - time.monotonic())
    except PassFailed as exc:
        tally.add(False, f"{ops[0]['name']}: {exc}")
        return 0.0, None
    (result,) = alone["results"]
    tally.add(result["error"] is None, f"{result['name']}: {result['error']}")
    grown_kb = result.get("rss_kb", alone["base_kb"]) - alone["base_kb"]
    return grown_kb * 1024 / max(1, result["ints"]), alone


def run_passes(ops, rng, seconds, deadline, tally, trace: bool, between_rounds):
    """Untraced passes, and with trace also traced ones, alternating; returns
    (untraced pass results, traced pass results).  between_rounds() runs
    after each round, outside the time budget."""
    plain, traced, rounds = [], [], []
    budget_used = 0.0
    while True:
        round_start = time.monotonic()
        for kind in ((False, True) if trace else (False,)):
            order = list(range(len(ops)))
            rng.shuffle(order)
            try:
                result = run_pass(ops, order, deadline - time.monotonic(), trace=kind)
            except PassFailed as exc:
                for op in ops:
                    tally.add(False, f"{op['name']}: {exc}")
                return plain, traced
            for r in result["results"]:
                tally.add(r["error"] is None, f"{r['name']}: {r['error']}")
            (traced if kind else plain).append(result)
        rounds.append(time.monotonic() - round_start)
        budget_used += rounds[-1]
        between_rounds()
        next_round = statistics.median(rounds)
        if budget_used + next_round > seconds or time.monotonic() + next_round > deadline - 10:
            return plain, traced


def stage_figures(passes, primary):
    """Per stage: summed per-operation median seconds, and the per-operation
    samples; plus the workload's per-integer figure with its samples."""
    samples, ints = defaultdict(list), {}
    for result in passes:
        for r in result["results"]:
            ints[r["name"]] = max(ints.get(r["name"], 0), r["ints"])
            for stage, ns in r["stages"].items():
                samples[(stage, r["name"])].append(ns)
    stages = defaultdict(float)
    per_op = defaultdict(list)
    for (stage, name), values in samples.items():
        stages[stage] += statistics.median(values) / 1e9
        per_op[stage] += [v / 1e9 for v in values]
    primary_ops = [name for (stage, name) in samples if stage == primary]
    total_ints = sum(ints[name] for name in primary_ops)
    per_int = stages[primary] * 1e9 / total_ints if total_ints else 0.0
    per_int_samples = [ns / ints[name] for (stage, name), values in samples.items()
                       if stage == primary and ints[name] for ns in values]
    return dict(stages), dict(per_op), per_int, per_int_samples


def layer_medians(traced) -> dict:
    names = traced[0]["layers"] if traced else {}
    return {name: statistics.median(t["layers"][name] for t in traced) for name in names}


def report_line(name, value, unit, samples=None):
    line = f"  {name:<32} {value:>14.6g} {unit:<6}"
    if samples:
        s = percentile_summary(samples)
        pct = f"p{s['p']:g} {s['p_value']:.6g}" if s["p"] else "p- (too few samples)"
        line += f"  samples: median {s['median']:.6g}  {pct}  n={s['n']}"
    print(line)


def run(args) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "gaptile" / "__init__.py").is_file():
        print(f"gaptile sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC)]
    import workloads  # noqa: E402  (needs the checkout's src on sys.path)

    env = environment(args)
    tally = Tally()
    workdir = OUT / f"run-{os.getpid()}"
    try:
        ops = workloads.prepare(args.workload, args.seed, args.quick, workdir, OUT / "inputs")
        rng = random.Random(args.seed)
        # Set-up is sampled before the passes and again after each round, so
        # its median spans the whole run rather than one moment of it.
        setup, peak_bytes, alone = [], 0.0, None

        def sample_setup(runs):
            if not args.trace:
                setup.extend(measure_setup(runs, tally, deadline))

        sample_setup(3)
        if not args.trace:
            peak_bytes, alone = measure_peak(ops, tally, deadline)
        plain, traced = run_passes(ops, rng, args.seconds, deadline, tally, bool(args.trace),
                                   lambda: sample_setup(2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    primary, per_int_name = PRIMARY[args.workload]
    samples = plain + ([alone] if alone else [])
    stages, per_op, per_int, per_int_samples = stage_figures(samples, primary)
    pass_s = sum(stages.values())
    rss_mb = [r["maxrss_kb"] / 1024 for r in plain]
    values = {"pass_s": pass_s, "ns_per_int": per_int, "peak_bytes_per_int": peak_bytes,
              "peak_rss_mb": statistics.median(rss_mb) if rss_mb else 0.0,
              "setup_s": statistics.median(setup) if setup else 0.0}
    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
          f"untraced passes {len(plain)}  traced passes {len(traced)}")
    report_line("pass_s", pass_s, "s")
    for stage in sorted(stages):
        report_line(f"{stage}_s", stages[stage], "s", per_op[stage])
    report_line(per_int_name, per_int, "ns", per_int_samples)
    if not args.trace:
        report_line("peak_bytes_per_int", peak_bytes, "B")
        report_line("setup_s", values["setup_s"], "s", setup)
    report_line("peak_rss_mb", values["peak_rss_mb"], "MB", rss_mb)
    report_line("fail_rate", tally.failed / max(1, tally.attempted), "ratio")

    if args.trace:
        values = layer_medians(traced)
        traced_pass_s = sum(stage_figures(traced, primary)[0].values())
        values["trace.overhead"] = traced_pass_s / pass_s - 1 if pass_s else 0.0
        print("  per layer, median over the traced passes:")
        for name, value in values.items():
            report_line(name, value, "")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    for error in tally.errors[:10]:
        print(f"  FAILED {error}", file=sys.stderr)

    env["loadavg_end"] = os.getloadavg()
    env["elapsed_s"] = time.monotonic() - started
    print("env " + json.dumps(env))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                    f"{'-quick' if args.quick else ''}.json")
    record.write_text(json.dumps({
        "env": env, "result": result, "errors": tally.errors, "stages_s": stages,
        "setup_s_samples": setup, "peak_rss_mb_samples": rss_mb,
        "per_op": [r["results"] for r in samples],
        "traced": [{"layers": t["layers"], "spans": t["spans"]} for t in traced]}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest inputs of each workload, every check active")
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
