import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gaptile import blocks3d, cli
from gaptile.assemble import tile
from gaptile.blocks3d import BASE_IDS, base_covering, covering_to_json, verify_covering, \
    covering_from_json
from gaptile.cli import main
from gaptile.core import GapSequence, InternalInconsistency, tiling_from_json, tiling_to_json, \
    verify_tiling
from gaptile.layers import layer_x1, layer_x2, layer_y1, layer_y2
from test_golden import GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold(capsys):
    code, out, _ = run(capsys, "threshold", "1", "2")
    assert code == 0
    assert out.strip() == "56"


def test_tile_emits_verifiable_json(capsys):
    code, out, _ = run(capsys, "tile", "1", "1", "48")
    assert code == 0
    gaps, tiling = tiling_from_json(json.loads(out))
    assert gaps.gaps == (1, 1, 48)
    assert verify_tiling(tiling, gaps)


def test_tile_text_mode(capsys):
    code, out, _ = run(capsys, "tile", "1", "1", "48", "--text")
    assert code == 0
    assert out.startswith("interval [2, 193]")
    assert len(out.strip().splitlines()) == 1 + 48


def test_tile_stdout_bytes_pinned(capsys):
    # the JSON line is tiling_to_json's golden text; --text is pinned whole
    code, out, _ = run(capsys, "tile", "5", "7", "2080")
    assert code == 0 and out.endswith("}\n")
    assert hashlib.sha256(out[:-1].encode()).hexdigest() == GOLDEN[(5, 7, 2080)]
    code, out, _ = run(capsys, "tile", "5", "7", "2080", "--text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "90670468ac70aca5da2a6e559f49d2e04de9f4352de9e439b455f71827abce16"


def test_tile_below_threshold(capsys):
    code, _, err = run(capsys, "tile", "1", "2", "55")
    assert code == 2
    assert "56" in err


def test_tile_interval_longer_than_an_index_exits_2(capsys):
    code, out, err = run(capsys, "tile", "1", "2", "10000000000000000000000")
    assert (code, out) == (2, "")
    assert err.startswith("unsupported: ")
    assert "Traceback" not in err


def test_tile_sort_gaps(capsys):
    # with --sort-gaps the largest value plays r regardless of position
    code, out, _ = run(capsys, "tile", "48", "1", "1", "--sort-gaps")
    assert code == 0
    assert json.loads(out)["gaps"] == [1, 1, 48]


def test_verify_round_trip(tmp_path, capsys):
    _, out, _ = run(capsys, "tile", "1", "2", "56")
    path = tmp_path / "t.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.strip() == "accept"


def test_verify_stdin(capsys, monkeypatch):
    _, out, _ = run(capsys, "tile", "1", "1", "48")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0


def test_verify_rejects_bad_tiling(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"gaps": [1, 1, 1], "interval": [1, 4], "parts": [[1, 2, 3, 5]]}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert out.startswith("reject")


def test_verify_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"gaps": [1, 1, 1]}')
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "malformed" in out


@pytest.mark.parametrize("command,doc", [
    ("verify", {"gaps": [True, 1, 1], "interval": [1, 4], "parts": [[1, 2, 3, 4]]}),
    ("verify", {"gaps": [1, 1, 1], "interval": [1, 4], "parts": 5}),
    ("verify-covering", dict(covering_to_json(base_covering("S1")), height=True)),
    ("verify-covering", dict(covering_to_json(base_covering("S1")), cells=[[1, True]])),
    ("verify-covering", dict(covering_to_json(base_covering("S1")), blocks=[5])),
])
def test_verify_rejects_bool_and_non_lists_as_malformed(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, command, str(path))
    assert code == 2
    assert out.startswith("reject: malformed input")


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command,expected", [
    ("verify", ("reject: malformed input (JSON document nested too deeply)\n", "")),
    ("verify-covering", ("reject: malformed input (JSON document nested too deeply)\n", "")),
    ("render", ("", "cannot render: JSON document nested too deeply\n")),
], ids=["verify", "verify-covering", "render"])
def test_deeply_nested_stdin_exits_2(capsys, monkeypatch, command, expected):
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_JSON))
    code, out, err = run(capsys, command, "-")
    assert (code, out, err) == (2, *expected)


def test_oracle_cover_deeply_nested_shape_exits_2(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text(DEEP_JSON)
    code, out, err = run(
        capsys, "oracle", "cover", "--shape", str(shape), "--height", "4",
        "--family", "axis:1")
    assert (code, out, err) == (2, "", "error: JSON document nested too deeply\n")


def test_read_json_closes_its_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(
        {"gaps": [1, 1, 1], "interval": [1, 4], "parts": [[1, 2, 3, 4]]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(capsys, "verify", str(path))[0] == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _collections_started(command, path):
    """The garbage collections that start while command reads path, with
    the collector enabled; the command is called directly, since argparse
    leaves cyclic objects of its own behind."""
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = command(argparse.Namespace(file=str(path)))
    finally:
        gc.callbacks.remove(record)
        if not enabled:
            gc.disable()
    return code, out.getvalue(), starts


def test_verifiers_run_no_collection(tmp_path):
    # unpaused, verify starts 5 collections here and verify-covering 98
    tiling = tmp_path / "t.json"
    tiling.write_text(json.dumps(tiling_to_json(tile(5, 7, 2080), GapSequence((5, 7, 2080)))))
    covering = tmp_path / "c.json"
    covering.write_text(json.dumps(covering_to_json(layer_x1(1, 300)[1])))
    assert _collections_started(cli._cmd_verify, tiling) == (0, "accept\n", [])
    assert _collections_started(cli._cmd_verify_covering, covering) == (0, "accept\n", [])


_S1 = covering_to_json(base_covering("S1"))
_VERIFIER_INPUTS = {
    "verify": {
        "accept": {"gaps": [1, 1, 1], "interval": [1, 8], "parts": [[1, 2, 3, 4], [5, 6, 7, 8]]},
        "disjointness": {"gaps": [1, 1, 1], "interval": [1, 8],
                         "parts": [[1, 2, 3, 4], [1, 2, 3, 4]]},
        "coverage": {"gaps": [1, 1, 1], "interval": [1, 8], "parts": [[1, 2, 3, 4]]},
        "gaps": {"gaps": [1, 1, 1], "interval": [1, 8], "parts": [[1, 2, 3, 5], [4, 6, 7, 8]]},
    },
    "verify-covering": {
        "accept": _S1,
        "block": dict(_S1, blocks=[[[0, 0, 0], [5, 5, 5], [9, 9, 9], [1, 2, 3]]] + _S1["blocks"]),
        "overlap": dict(_S1, blocks=_S1["blocks"] + _S1["blocks"][:1]),
        "coverage": dict(_S1, blocks=_S1["blocks"][1:]),
    },
}
_COMMANDS = {"verify": cli._cmd_verify, "verify-covering": cli._cmd_verify_covering}
_MALFORMED = {"malformed-json": '{"gaps": [1, 1', "too-deep": DEEP_JSON, "missing-file": None}
_VERIFIER_CASES = [
    pytest.param(name, case, json.dumps(doc), id=f"{name}-{case}")
    for name, docs in _VERIFIER_INPUTS.items() for case, doc in docs.items()] + [
    pytest.param(name, case, text, id=f"{name}-{case}")
    for name in _COMMANDS for case, text in _MALFORMED.items()]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("name,case,text", _VERIFIER_CASES)
def test_verifier_restores_collector_and_leaves_no_cycles(tmp_path, enabled, name, case, text):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    if case == "accept":
        want = "accept\n"
    elif case in _MALFORMED:
        want = "reject: malformed input ("
    else:
        want = f"reject: {case} (witness "
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = _COMMANDS[name](argparse.Namespace(file=str(path)))
        assert gc.isenabled() is enabled
        assert gc.collect() == 0
    finally:
        gc.enable() if was else gc.disable()
    assert code == (0 if case == "accept" else 2)
    assert out.getvalue().startswith(want)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=8)
_INTS = st.lists(st.integers(-10**30, 10**30) | st.integers(-3, 12), max_size=6)


@st.composite
def fuzzed_tiling_docs(draw):
    """A valid tiling document with random values put in place of its gaps,
    interval, parts or elements, or with fields dropped; now and then any
    JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    doc = {"gaps": [1, 1, 1], "interval": [1, 8], "parts": [[1, 2, 3, 4], [5, 6, 7, 8]]}
    if draw(st.booleans()):
        doc["gaps"] = draw(_JSON | _INTS)
    if draw(st.booleans()):
        doc["interval"] = draw(_JSON | st.lists(st.integers(-10**30, 10**30), min_size=2,
                                                max_size=2))
    if draw(st.booleans()):
        doc["parts"] = draw(_JSON | st.lists(_JSON | _INTS, max_size=4))
    elif draw(st.booleans()):
        part = draw(st.integers(0, 1))
        doc["parts"][part] = draw(_JSON | _INTS)
    for name in draw(st.lists(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[name]
    return doc


@settings(max_examples=300, deadline=None)
@given(fuzzed_tiling_docs())
def test_verify_fuzzed_json_gives_a_verdict(doc):
    out, err = io.StringIO(), io.StringIO()
    enabled = gc.isenabled()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "-"])
    assert gc.isenabled() is enabled
    text = out.getvalue()
    assert err.getvalue() == ""
    assert (code, text) == (0, "accept\n") or (code == 2 and text.startswith("reject: "))


_COORD = st.integers(-3, 6) | st.integers(-10**30, 10**30)


def _point_lists(arity):
    return st.lists(_COORD, min_size=arity, max_size=arity)


def _sometimes(draw):
    return draw(st.integers(0, 3)) == 0


@st.composite
def fuzzed_covering_docs(draw):
    """A valid covering document (S1, T2 or a small layer) with random
    values put in place of its cells, height or family, blocks moved,
    repeated or dropped, or a field dropped; now and then any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    base = draw(st.sampled_from([base_covering("S1"), base_covering("T2"),
                                 layer_y1(1, 2)[1]]))
    doc = covering_to_json(base)
    if _sometimes(draw):
        doc["cells"] = draw(st.lists(_point_lists(2), max_size=5) | _JSON
                            | st.lists(_point_lists(2) | _JSON, max_size=5))
    if _sometimes(draw):
        doc["height"] = draw(st.integers(-2, 10**12) | st.sampled_from([base.height, 10**12])
                             | _JSON)
    if _sometimes(draw):
        member = st.lists(_point_lists(3), min_size=3, max_size=3)
        doc["family"] = draw(st.lists(member, max_size=3) | _JSON
                             | st.lists(member | _JSON, max_size=3))
    blocks, original = doc["blocks"], covering_to_json(base)["blocks"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(blocks) - 1))
        action = draw(st.integers(0, 3))
        if action == 0:
            del blocks[i]
        elif action == 1:
            blocks.append(blocks[i])
        elif action == 2:
            dx = draw(st.integers(-1, 1))
            blocks[i] = [[x + dx, y, z] for x, y, z in original[i % len(original)]]
        else:
            blocks[i] = draw(st.lists(_point_lists(3), min_size=4, max_size=4) | _JSON)
        if not blocks:
            break
    if _sometimes(draw):
        doc["blocks"] = draw(_JSON)
    if _sometimes(draw):
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@settings(max_examples=300, deadline=None)
@given(fuzzed_covering_docs())
def test_verify_covering_fuzzed_json_gives_a_verdict(doc):
    out, err = io.StringIO(), io.StringIO()
    enabled = gc.isenabled()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-covering", "-"])
    assert gc.isenabled() is enabled
    text = out.getvalue()
    assert err.getvalue() == ""
    assert (code, text) == (0, "accept\n") or (code == 2 and text.startswith("reject: "))


def test_layer_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "layer", "Y1", "2", "3")
    assert code == 0
    covering = covering_from_json(json.loads(out))
    assert verify_covering(covering)
    path = tmp_path / "y1.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify-covering", str(path))
    assert code == 0
    assert out.strip() == "accept"


def test_verify_covering_checks_blocks_once(tmp_path, capsys, monkeypatch):
    # the document's reader and verify_covering leave the block check to
    # the one Covering they build
    path = tmp_path / "x1.json"
    path.write_text(json.dumps(covering_to_json(layer_x1(1, 300)[1])))
    calls, nested_ints = [], blocks3d._nested_ints

    def counted(values, *lengths):
        calls.append(lengths)
        return nested_ints(values, *lengths)

    monkeypatch.setattr(blocks3d, "_nested_ints", counted)
    assert run(capsys, "verify-covering", str(path)) == (0, "accept\n", "")
    assert calls == [(4, 3), (2,), (3, 3)]


def test_layer_bad_parameters(capsys):
    code, _, err = run(capsys, "layer", "X1", "3", "4")
    assert code == 2


def test_render_line_count(tmp_path, capsys):
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(covering_to_json(base_covering("S1"))))
    code, out, _ = run(capsys, "render", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    # height x (rows + header): 4 slices of a 2-row grid
    assert len(lines) == 4 * (2 + 1)
    assert lines[0] == "z=1"
    assert "." in out  # the empty corner cell
    labels = {ch for ch in out if ch.isdigit()} - {"1", "2", "3", "4"} or True
    body = "\n".join(line for line in lines if not line.startswith("z="))
    assert {c for c in body.split() if c != "."} == {"0", "1", "2"}


def render_bounding_box(covering) -> str:
    """Reference: every slice 1..height and every row and column of the
    cells' bounding box, as render printed them before it skipped empty ones."""
    owner = {pt: i for i, blk in enumerate(covering.blocks) for pt in blk}
    xs = [x for x, _ in covering.cells]
    ys = [y for _, y in covering.cells]
    width = max(1, len(str(max(0, len(covering.blocks) - 1))))
    lines = []
    for z in range(1, covering.height + 1):
        lines.append(f"z={z}")
        for y in range(max(ys), min(ys) - 1, -1):
            row = []
            for x in range(min(xs), max(xs) + 1):
                idx = owner.get((x, y, z))
                row.append("." * width if idx is None else str(idx).rjust(width))
            lines.append(" ".join(row))
    return "".join(line + "\n" for line in lines)


_RENDERED = {name: base_covering(name) for name in BASE_IDS}
_RENDERED.update({f"{name}({p},{q})": build(p, q)[1]
                  for name, build, pqs in [("X1", layer_x1, [(1, 2), (2, 5)]),
                                           ("X2", layer_x2, [(1, 2), (2, 5)]),
                                           ("Y1", layer_y1, [(1, 1), (2, 3)]),
                                           ("Y2", layer_y2, [(1, 1), (2, 3)])]
                  for p, q in pqs})


@pytest.mark.parametrize("covering", _RENDERED.values(), ids=_RENDERED.keys())
def test_render_matches_bounding_box_reference(tmp_path, capsys, covering):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(covering_to_json(covering)))
    code, out, _ = run(capsys, "render", str(path))
    assert code == 0
    assert out == render_bounding_box(covering)


class _Capped(io.StringIO):
    """stdout that fails a test once it has taken more than a megabyte."""

    def write(self, text):
        if self.tell() + len(text) > 10**6:
            raise AssertionError("render output exceeds 1 MB")
        return super().write(text)


def test_render_follows_blocks_not_declared_height(tmp_path, capsys):
    doc = covering_to_json(base_covering("S1"))
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(doc))
    want = run(capsys, "render", str(path))
    path.write_text(json.dumps(dict(doc, height=10**9)))
    out = _Capped()
    with contextlib.redirect_stdout(out):
        code = main(["render", str(path)])
    assert (code, out.getvalue()) == want[:2]


def test_render_without_cells_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(covering_to_json(base_covering("S1")), cells=[], blocks=[])))
    code, out, err = run(capsys, "render", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("cannot render: ")


def test_oracle_gaps(capsys):
    code, out, _ = run(capsys, "oracle", "gaps", "1,1,1", "--max-n", "8")
    assert code == 0
    assert json.loads(out)["interval"] == [1, 4]


def test_oracle_gaps_none(capsys):
    code, _, err = run(capsys, "oracle", "gaps", "1,2,56", "--max-n", "16")
    assert code == 2


def test_oracle_cover(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"cells": [[1, 1], [1, 2], [2, 2]]}))
    code, out, _ = run(
        capsys, "oracle", "cover", "--shape", str(shape), "--height", "4",
        "--family", "axis:1")
    assert code == 0
    assert verify_covering(covering_from_json(json.loads(out)))


def test_oracle_cover_skew_with_one_stride(tmp_path, capsys):
    # skew:P is skew:P,P; T1's shape is covered at height 4
    shape = tmp_path / "t1.json"
    shape.write_text(json.dumps({"cells": [[1, 1], [1, 2], [2, 1]]}))
    code, out, _ = run(
        capsys, "oracle", "cover", "--shape", str(shape), "--height", "4",
        "--family", "skew:1")
    assert code == 0
    assert verify_covering(covering_from_json(json.loads(out)))


@pytest.mark.parametrize("doc", [
    {"shape": [[1, 1], [1, 2], [2, 2]]},   # no "cells" key
    [[1, 1], [1, 2], [2, 2]],              # a list, not an object
    {"cells": [[1, 1], [1, 2, 3]]},        # a cell that is not [x, y]
    {"cells": [[1, 1], [1, True]]},
])
def test_oracle_cover_bad_shape_exits_2(tmp_path, capsys, doc):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "oracle", "cover", "--shape", str(shape), "--height", "4",
        "--family", "axis:1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_oracle_cover_bool_cell_is_named(tmp_path, capsys):
    # the shape's cells are checked by Covering, as any covering's are
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"cells": [[1, 1], [1, 2], [2, True]]}))
    code, out, err = run(
        capsys, "oracle", "cover", "--shape", str(shape), "--height", "4",
        "--family", "axis:1")
    assert (code, out, err) == (2, "", "error: a cell must be two integers, got [2, True]\n")


def test_oracle_cover_deep_search_exits_2(tmp_path, capsys):
    # a covering is 3000 blocks deep; the search passes depth 1000, the
    # default recursion limit, before its 1500-node budget runs out
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"cells": [[1, 1], [1, 2], [2, 2]]}))
    code, out, err = run(
        capsys, "oracle", "cover", "--shape", str(shape), "--height", "4000",
        "--family", "axis:1", "--budget", "1500")
    assert (code, out, err) == (2, "", "budget exhausted\n")


def test_oracle_gaps_budget_exhausted_exits_2(capsys):
    # [1, 36] tiles, so "no tiling" would claim a proof the search lacks
    code, out, err = run(capsys, "oracle", "gaps", "3,4,12", "--max-n", "120", "--budget", "1")
    assert (code, out, err) == (2, "", "budget exhausted\n")


def test_oracle_gaps_exhausted_shorter_length_exits_2(capsys):
    # within 5 nodes the search of [1, 12] runs out and [1, 16] tiles; [1, 12] does tile
    code, out, err = run(capsys, "oracle", "gaps", "1,3,4", "--max-n", "60", "--budget", "5")
    assert (code, out, err) == (2, "", "budget exhausted\n")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_oracle_gaps_nonpositive_budget_exits_2(capsys, budget):
    code, out, err = run(capsys, "oracle", "gaps", "1,1,1", "--max-n", "8", "--budget", budget)
    assert (code, out, err) == (2, "", "error: budget must allow at least one node\n")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_oracle_cover_nonpositive_budget_exits_2(tmp_path, capsys, budget):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"cells": [[1, 1], [1, 2], [2, 2]]}))
    code, out, err = run(
        capsys, "oracle", "cover", "--shape", str(shape), "--height", "4",
        "--family", "axis:1", "--budget", budget)
    assert (code, out, err) == (2, "", "error: budget must allow at least one node\n")


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "tile", "1", "2")[0] == 64
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "oracle", "cover", "--shape", "x", "--height", "2",
               "--family", "spiral:3")[0] == 64
    for family in ("axis:x", "skew:1,x"):
        assert run(capsys, "oracle", "cover", "--shape", "x", "--height", "2",
                   "--family", family) == (
            64, "", f"gaptile: error: cannot parse family {family!r}\n")
    for gaps in ("1,x", "", "1,,2"):
        assert run(capsys, "oracle", "gaps", gaps, "--max-n", "8") == (
            64, "", f"gaptile: error: cannot parse gaps {gaps!r}\n")
    # a well-formed list with a bad value exits 2, as `threshold 0 1` does
    assert run(capsys, "oracle", "gaps", "0,1", "--max-n", "8")[0] == 2


def test_internal_inconsistency_exits_1(capsys, monkeypatch):
    def broken(p, q, r):
        raise InternalInconsistency("constructed tiling failed")

    monkeypatch.setattr(cli, "tile", broken)
    assert run(capsys, "tile", "1", "2", "56") == (
        1, "", "internal error: constructed tiling failed\n")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


class _ClosedPipe(io.StringIO):
    """stdout whose reader has gone: every write, or only the flush, raises
    BrokenPipeError.  Its descriptor is a file the test owns."""

    def __init__(self, fd, writes_fail):
        super().__init__()
        self.fd, self.writes_fail = fd, writes_fail

    def write(self, text):
        if self.writes_fail:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv,writes_fail,code", [
    (["tile", "1", "1", "48", "--text"], True, 0),
    (["tile", "1", "1", "48"], False, 0),
    (["verify-covering", "overlap.json"], True, 0),
    (["verify-covering", "overlap.json"], False, 2),
], ids=["tile-text-cut", "tile-json-flush", "verify-covering-cut", "verify-covering-flush"])
def test_closed_stdout_exits_quietly(tmp_path, capsys, monkeypatch, argv, writes_fail, code):
    # 0 when the pipe closed mid-output, the command's own code when only
    # the final flush failed; nothing on stderr, and stdout's descriptor now
    # leads to devnull, so the interpreter's own flush at exit cannot fail
    s1 = covering_to_json(base_covering("S1"))
    (tmp_path / "overlap.json").write_text(json.dumps(dict(s1, blocks=s1["blocks"] * 2)))
    monkeypatch.chdir(tmp_path)
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(target.fileno(), writes_fail))
        assert main(argv) == code
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


_HUGE = list(range(100_000))


@pytest.mark.parametrize("command,doc,names", [
    ("verify-covering", dict(covering_to_json(base_covering("S1")), blocks=[_HUGE]),
     "got block 0: [0, 1, 2, "),
    ("verify-covering", dict(covering_to_json(base_covering("S1")), cells=[[1, 1], _HUGE]),
     "a cell must be two integers, got [0, 1, 2, "),
    ("verify-covering", dict(covering_to_json(base_covering("S1")), family=[[_HUGE] * 3]),
     "a family member must be 3 lists of 3 integers, got [[0, 1, 2, "),
    ("verify", {"gaps": [*_HUGE, True], "interval": [1, 4], "parts": [[1, 2, 3, 4]]},
     "gaps must be a list of integers, got [0, 1, 2, "),
    ("verify", {"gaps": [1, 1, 1], "interval": [1, 4], "parts": [[1, 2], [0] * 100_000]},
     "part is not strictly increasing: (0, 0, 0, "),
], ids=["block", "cell", "member", "gaps", "part"])
def test_huge_offending_value_gives_a_short_reject(tmp_path, capsys, command, doc, names):
    # the message quotes the value cut down, and still names it
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert (code, err) == (2, "")
    assert out.startswith("reject: malformed input (") and names in out
    assert out.count("\n") == 1 and len(out.encode()) < 300
