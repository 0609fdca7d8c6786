"""Tests of the benchmark itself, on its --quick inputs.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gaptile import assemble  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _ops(workload, tmp_path, seed=5):
    return workloads.prepare(workload, seed, True, tmp_path / "work", tmp_path / "inputs")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_reports_every_metric_with_no_failure(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                  "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in wanted]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tile_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reject_documents_get_their_expected_verdicts(tmp_path):
    ops = [op for op in _ops("crosscheck", tmp_path) if op["kind"].startswith("verify")]
    assert {op["expect"] for op in ops} == {
        "accept", "disjointness", "coverage", "gaps", "block", "overlap"}
    for op in ops:
        assert workloads.run_op(op)["error"] is None, op["name"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    def documents(seed, where):
        ops = workloads.prepare("crosscheck", seed, True, tmp_path / where, tmp_path / "inputs")
        return [Path(op["file"]).read_bytes() for op in ops if "file" in op]

    assert documents(7, "a") == documents(7, "b")
    assert documents(7, "a") != documents(8, "c")


def test_tile_gate_rejects_other_bytes(tmp_path):
    spec = _ops("tile_grid", tmp_path)[1]
    assert workloads.run_op(spec)["error"] is None
    assert "SHA-256" in workloads.run_op(dict(spec, sha256="0" * 64))["error"]


def test_verdict_gate_rejects_a_wrong_verdict(tmp_path):
    spec = next(op for op in _ops("crosscheck", tmp_path) if op.get("expect") == "gaps")
    assert workloads.run_op(dict(spec, expect="coverage"))["error"]
    assert workloads.run_op(dict(spec, expect="accept"))["error"]


def test_plan_gate_rejects_other_fields(tmp_path):
    spec = _ops("layers_sweep", tmp_path)[0]
    assert workloads.run_op(spec)["error"] is None
    assert workloads.run_op(dict(spec, expect=dict(spec["expect"], height=5)))["error"]


def test_oracle_gates_reject_wrong_or_missing_results(tmp_path):
    ops = _ops("crosscheck", tmp_path)
    search = next(op for op in ops if op["kind"] == "min_interval")
    assert workloads.run_op(dict(search, expect_n=search["expect_n"] + 4))["error"]
    cover = next(op for op in ops if op["kind"] == "solve_covering")
    assert workloads.run_op(cover)["error"] is None
    # three cells at height 3 hold 9 points, which no set of 4-point blocks covers
    assert "None" in workloads.run_op(dict(cover, height=3))["error"]


def test_largest_operation_runs_alone_for_its_peak_memory(tmp_path):
    ops = _ops("tile_grid", tmp_path)
    tally = run.Tally()
    peak_bytes, alone = run.measure_peak(ops, tally, deadline=run.time.monotonic() + 60)
    assert peak_bytes > 0 and tally.failed == 0
    assert [r["name"] for r in alone["results"]] == [ops[0]["name"]]


def test_self_time_excludes_child_spans():
    spans = [["cli.main", 0, -1, 0, 100],
             ["core.tiling_from_json", 0, 0, 10, 40],
             ["core.verify_tiling", 0, 0, 50, 70]]
    metrics = tracing.layer_metrics(spans, Counter({"core.verify_tiling.ints": 4}))
    assert metrics["cli.main.self_s"] == pytest.approx(50e-9)
    assert metrics["core.tiling_from_json.s"] == pytest.approx(30e-9)
    assert metrics["core.verify_tiling.ns_per_int"] == pytest.approx(5)


def test_layer_metric_names_match_benchmark_and_map():
    names = set(tracing.layer_metrics([], Counter())) | {"trace.overhead"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    mapping = json.loads((BENCH / "metrics.json").read_text())
    assert set(mapping["per_layer"]) == names


def test_tracer_rebinds_and_restores():
    original = assemble.tile
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        assert assemble.tile is not original
        tracer.on = True
        assemble.tile(1, 2, 56)
        tracer.on = False
        assemble.tile(1, 2, 56)
    finally:
        tracer.uninstall()
    assert assemble.tile is original
    metrics = tracer.layer_metrics()
    assert metrics["assemble.build_T.calls"] == 1
    assert metrics["flatten.phi.calls"] == 1120


def test_percentile_needs_ten_samples_beyond():
    summary = run.percentile_summary(range(1, 101))
    assert (summary["median"], summary["p"], summary["p_value"], summary["n"]) == (50.5, 90, 90, 100)
    assert run.percentile_summary(range(19))["p"] is None
