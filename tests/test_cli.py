import io
import json

import pytest

from gaptile.blocks3d import base_covering, covering_to_json, verify_covering, \
    covering_from_json
from gaptile.cli import main
from gaptile.core import tiling_from_json, verify_tiling


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


def test_tile_below_threshold(capsys):
    code, _, err = run(capsys, "tile", "1", "2", "55")
    assert code == 2
    assert "56" in err


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


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "tile", "1", "2")[0] == 64
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "oracle", "cover", "--shape", "x", "--height", "2",
               "--family", "spiral:3")[0] == 64


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
