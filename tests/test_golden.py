"""Golden output: the exact bytes `gaptile tile` emits for a few grid points.

A refactor of the construction must keep tiling_to_json byte-identical; these
SHA-256 digests are the same pins the benchmark checks.
"""

import hashlib
import json

import pytest

from gaptile.assemble import tile
from gaptile.core import GapSequence, tiling_to_json

GOLDEN = {
    (1, 2, 56): "2197c11975750509f03fd6b3ebc843ae26373981a70cba3356f6b4afe662bb35",
    (5, 7, 2080): "d2e7a4498e709e9e590a517f12785360cb84458b6596463d87fb6cbebc48d9fe",
    (12, 18, 2016): "2c79160dbf321c16a3c824b4f7d06735756ce357809cdd40486e6bf0c6ce7440",
}


@pytest.mark.parametrize("gaps,digest", GOLDEN.items(), ids=str)
def test_tiling_json_bytes_pinned(gaps, digest):
    text = json.dumps(tiling_to_json(tile(*gaps), GapSequence(gaps)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
