"""Golden output: the exact bytes `gaptile tile`, `gaptile layer` and
`gaptile oracle` emit for a few inputs.

A refactor of the construction or of the oracle must keep tiling_to_json
and covering_to_json byte-identical.  The tiling digests are the same pins
the benchmark checks; the covering digests pin the block and family order
of the rectangle and layer builders; the oracle digests pin which solution
each search finds first, in the order of its parts, blocks and points.
"""

import hashlib
import json

import pytest

from gaptile.assemble import tile
from gaptile.blocks3d import (
    BASE_IDS, base_covering, covering_S3, covering_to_json,
)
from gaptile.core import GapSequence, tiling_to_json
from gaptile.layers import layer_x1, layer_x2, layer_y1, layer_y2
from gaptile.oracle import min_interval, solve_covering

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
    # p = 1: the [5] x [4] rectangle, odd width, and its notched variant
    "layer_x1(1, 5)": (lambda: layer_x1(1, 5)[1],
                       "bce39ce89d91aa1d7ff3e4cbb1ce8cc5b267e8aaa6178ca3edd2650adb68fb50"),
    "layer_x2(1, 5)": (lambda: layer_x2(1, 5)[1],
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
    "layer_x1(1, 4)": (lambda: layer_x1(1, 4)[1],
                       "7f8ca0565134243e433bebdb1e623a129585249e1189f6b8a1987c581bf5dd08"),
    "layer_x2(1, 4)": (lambda: layer_x2(1, 4)[1],
                       "d1d1c56f025956a1f86d0ca3d018b6e344be4e026f992b021d1e48b7e4873788"),
    # an odd narrow slot after two wide ones
    "layer_x1(3, 11)": (lambda: layer_x1(3, 11)[1],
                        "f3e77f29a6922f3d79266626e1a9d882b8d66f1f48ba7b69220b51f770ff5bf9"),
    # the odd S5 + S1 notched tail at p > 1
    "layer_x2(2, 7)": (lambda: layer_x2(2, 7)[1],
                       "5848b51ce6c04a5f8953a549a6643819fb30107c4da71e82c70d709f8b8ddcfe"),
    "layer_x2(3, 11)": (lambda: layer_x2(3, 11)[1],
                        "d5bd5d2ccb51cfe381b7cf0086745754982b175b32a117a79aeabeebe6c358a1"),
}


@pytest.mark.parametrize("name", COVERINGS)
def test_covering_json_bytes_pinned(name):
    build, digest = COVERINGS[name]
    text = json.dumps(covering_to_json(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# solve_covering on each catalog shape at its own height, and on the shapes
# and heights the benchmark searches
ORACLE_COVERINGS = {
    "S1": "e3eb13c3bef980c69b22381b2cb9e8fd95eed490c40515f921f5bafefb2a7b74",
    "S2": "adcffbe62a6ab0a57fdad3bccf27d14adf16fb001fd1c2179021d9b7728af17e",
    "S4_2x4": "86717e20dd48c492c26ab722d5f3ad901b40bfb3956e77a07d3c3c42e9d9ea94",
    "S5": "32ecba9976287dd75072a6dc83d427bd2cd35436ed213f155bf8e0f45a134f95",
    "S6": "86d89c52a7f8fa619d29e30b97b81c6eaf67e230bd06cd84bbd0dccde2abffcb",
    "T1": "bc727615a62e49bcc63bdce83517c1af33fc28b7de70fffdcd5e2b05a78cd169",
    "T2": "d6820b4c7a7c3890ac63b4e56d14bb617a6b430930de7b1ae6ab5ef12a411bcb",
    "T3": "f4e81252b89871f62001123708a398d5769f69e6469e5a3cc5cdb49cacfd1a06",
    "T4": "976829387c27e7381838afa1db2bfaa9ecd11c0a2058fb34ff82a79f5360e51a",
    "T5": "ec5f369705558514da29cd54a8026b99b10777d8db61329edc8d658735e8d7bd",
    "S3@8": "1fccdaa680af28ae8b15b942c6c1039cb5b030794cb4007fdf1549e12aeb8693",
    "S3@12": "f288bc32bd145f84b84e8becae858693ac5c246bcdece393512e80720465843e",
    "Y1(1, 2)@4": "4de5608bcf9c52855e6044f85172bba2446cf40ea873a218048e437cc19221eb",
}
SHAPES = {"S3": covering_S3, "Y1(1, 2)": lambda: layer_y1(1, 2)[1]}


# S4_2x4's own height is 5, so its pin is also the benchmark's S4_2x4@5; a
# catalog shape without a pin fails with a KeyError
@pytest.mark.parametrize("name", [*BASE_IDS, "S3@8", "S3@12", "Y1(1, 2)@4"])
def test_oracle_covering_json_bytes_pinned(name):
    shape, _, height = name.partition("@")
    base = SHAPES[shape]() if height else base_covering(shape)
    found = solve_covering(base.cells, int(height or base.height), base.family)
    assert digest(covering_to_json(found)) == ORACLE_COVERINGS[name]


ORACLE_TILINGS = {
    (3, 4, 12): (36, "a02e370da4ed5a1634cf40ddb9441cd39fa52e6bec99cca243b77b8696399bcf"),
    (2, 5, 13): (32, "640d515db28bccc4c96b6cbf09f84affd45118f20dd5105827504f5921ac368c"),
    (3, 5, 11): (32, "c7c1fcb7218d25e0cc0dae7eb8be7cfd132415ac039a6012507bb6c447927024"),
    (4, 5, 9): (24, "4edad8fda72599441acee3ded132d1f297a7ed1dc3a1fedf2009c5422d147450"),
    (3, 7, 10): (28, "69bf12bc1f93e54335f9d8c683864abde0d5254d3cdf8ca66e799c9610c8c645"),
}


@pytest.mark.parametrize("gaps", ORACLE_TILINGS, ids=str)
def test_oracle_tiling_json_bytes_pinned(gaps):
    n, tiling = min_interval(GapSequence(gaps), 120)
    assert (n, digest(tiling_to_json(tiling, GapSequence(gaps)))) == ORACLE_TILINGS[gaps]
