"""Golden output: the exact bytes `gaptile tile` and `gaptile layer` emit for
a few grid points.

A refactor of the construction must keep tiling_to_json and
covering_to_json byte-identical.  The tiling digests are the same pins the
benchmark checks; the covering digests pin the block and family order of
the rectangle and layer builders.
"""

import hashlib
import json

import pytest

from gaptile.assemble import tile
from gaptile.blocks3d import covering_S4, covering_S7, covering_to_json
from gaptile.core import GapSequence, tiling_to_json
from gaptile.layers import layer_x1, layer_x2, layer_y1, layer_y2

GOLDEN = {
    (1, 2, 56): "2197c11975750509f03fd6b3ebc843ae26373981a70cba3356f6b4afe662bb35",
    (5, 7, 2080): "d2e7a4498e709e9e590a517f12785360cb84458b6596463d87fb6cbebc48d9fe",
    (12, 18, 2016): "2c79160dbf321c16a3c824b4f7d06735756ce357809cdd40486e6bf0c6ce7440",
}


@pytest.mark.parametrize("gaps,digest", GOLDEN.items(), ids=str)
def test_tiling_json_bytes_pinned(gaps, digest):
    text = json.dumps(tiling_to_json(tile(*gaps), GapSequence(gaps)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


COVERINGS = {
    "layer_x1(1, 2)": (lambda: layer_x1(1, 2)[1],
                       "f3483ae56f7b0f75549a7d4344bccab80c49c42ffe4b5a03e22c6bb934b58bb2"),
    "layer_x2(1, 2)": (lambda: layer_x2(1, 2)[1],
                       "b2d7c96bd13de5c7dbcd8cfd0a014ecdbe466baf3d4d3fe91a4063facb891de1"),
    "layer_x1(3, 7)": (lambda: layer_x1(3, 7)[1],
                       "8a0b0e9e69e41e46aadbb849bac47504f5770c6930cdc6f4e30c39f36dc360e6"),
    "layer_x2(3, 7)": (lambda: layer_x2(3, 7)[1],
                       "1a74355cb7c838695da5b7d9686c1991bd7480c8fa8169a804051ca2bbd7db04"),
    "layer_y1(2, 3)": (lambda: layer_y1(2, 3)[1],
                       "2e5c74766cf1635b9d124c7f99f6e5e5919e729bf84e90f756644dcd9af584e6"),
    "layer_y2(2, 3)": (lambda: layer_y2(2, 3)[1],
                       "4916820d889af880696b735baf056958d18de391f6dc49e0a4f45b2fc8bc9f53"),
    "covering_S4(5)": (lambda: covering_S4(5),
                       "bce39ce89d91aa1d7ff3e4cbb1ce8cc5b267e8aaa6178ca3edd2650adb68fb50"),
    "covering_S7(5)": (lambda: covering_S7(5),
                       "e0f1e20b2698134af82e02aafeb77c6072c5c16e2024d4c9335c893d23a1c992"),
    # t = 0: a one-member family, no staircase or step pieces
    "layer_y1(3, 3)": (lambda: layer_y1(3, 3)[1],
                       "2324e7e0cd76998458047f7017f300abb4a7f4b0966f1264aaa2857b4c933d29"),
    "layer_y2(3, 3)": (lambda: layer_y2(3, 3)[1],
                       "4f5905a353d57d89f75d7775c45a36f544edcae36a6dd3716e937ba95897e127"),
    # t = p: no corner pieces
    "layer_y1(2, 4)": (lambda: layer_y1(2, 4)[1],
                       "a0c6403295c09022d8f7246bac168bc8deb5c011006414cf0e0325d4b294086a"),
    "layer_y2(2, 4)": (lambda: layer_y2(2, 4)[1],
                       "b5a83205cad9590665865490fe415a2b5d0eff1c9a884461ee8b8dcf376d38df"),
    # even widths: columns only, and the S6 tail
    "covering_S4(4)": (lambda: covering_S4(4),
                       "7f8ca0565134243e433bebdb1e623a129585249e1189f6b8a1987c581bf5dd08"),
    "covering_S7(4)": (lambda: covering_S7(4),
                       "d1d1c56f025956a1f86d0ca3d018b6e344be4e026f992b021d1e48b7e4873788"),
}


@pytest.mark.parametrize("name", COVERINGS)
def test_covering_json_bytes_pinned(name):
    build, digest = COVERINGS[name]
    text = json.dumps(covering_to_json(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
