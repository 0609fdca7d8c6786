"""Command line interface.

Exit codes: 0 success or accept, 2 unsupported parameters or reject,
1 internal inconsistency, 64 malformed arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .assemble import threshold, tile
from .blocks3d import axis_family, covering_from_json, covering_to_json, \
    shape_from_json, skew_family, verify_covering
from .core import GapSequence, InternalInconsistency, UnsupportedParameters, \
    tiling_from_json, tiling_to_json, verify_tiling
from .layers import layer_x1, layer_x2, layer_y1, layer_y2
from .oracle import SearchBudget, Tiling, min_interval, solve_covering


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_json(path: str):
    text = sys.stdin.read() if path == "-" else open(path).read()
    return json.loads(text)


def _cmd_tile(args) -> int:
    p, q, r = args.p, args.q, args.r
    if args.sort_gaps:
        p, q, r = sorted((p, q, r))
    tiling = tile(p, q, r)
    gaps = GapSequence((p, q, r))
    if args.text:
        print(f"interval [{tiling.lo}, {tiling.hi}]  gaps {tuple(gaps.gaps)}  "
              f"parts {len(tiling.parts)}")
        for part in sorted(tiling.parts, key=lambda part: part.elements):
            print(" ".join(str(x) for x in part.elements))
    else:
        print(json.dumps(tiling_to_json(tiling, gaps)))
    return 0


def _cmd_verify(args) -> int:
    try:
        gaps, tiling = tiling_from_json(_read_json(args.file))
    except (ValueError, OSError) as exc:
        print(f"reject: malformed input ({exc})")
        return 2
    verdict = verify_tiling(tiling, gaps)
    print(verdict.message())
    return 0 if verdict else 2


def _cmd_verify_covering(args) -> int:
    try:
        covering = covering_from_json(_read_json(args.file))
    except (ValueError, OSError) as exc:
        print(f"reject: malformed input ({exc})")
        return 2
    verdict = verify_covering(covering)
    print(verdict.message())
    return 0 if verdict else 2


def _cmd_threshold(args) -> int:
    print(threshold(args.p, args.q))
    return 0


_LAYERS = {"X1": layer_x1, "X2": layer_x2, "Y1": layer_y1, "Y2": layer_y2}


def _cmd_layer(args) -> int:
    _, covering = _LAYERS[args.name](args.p, args.q)
    print(json.dumps(covering_to_json(covering)))
    return 0


def _parse_family(text: str):
    kind, _, rest = text.partition(":")
    try:
        strides = [int(x) for x in rest.split(",")]
    except ValueError:
        raise _UsageError(f"cannot parse family {text!r}") from None
    if kind == "axis" and len(strides) == 1:
        return axis_family(strides[0])
    if kind == "skew" and len(strides) in (1, 2):
        return skew_family(strides[0], strides[-1])
    raise _UsageError(f"family must be axis:M or skew:P[,Q], got {text!r}")


def _cmd_oracle(args) -> int:
    budget = SearchBudget(args.budget) if args.budget else None
    if args.what == "gaps":
        gaps = GapSequence(tuple(int(x) for x in args.gaps.split(",")))
        found = min_interval(gaps, args.max_n, budget)
        if found is None:
            print(f"no tiling of [1, n] for any n <= {args.max_n}", file=sys.stderr)
            return 2
        n, tiling = found
        print(json.dumps(tiling_to_json(tiling, gaps)))
        return 0
    family = _parse_family(args.family)
    cells = shape_from_json(_read_json(args.shape))
    result = solve_covering(cells, args.height, family, budget)
    if not hasattr(result, "blocks"):
        reason = "budget exhausted" if result is not None else "no covering exists"
        print(reason, file=sys.stderr)
        return 2
    print(json.dumps(covering_to_json(result)))
    return 0


def _cmd_render(args) -> int:
    try:
        covering = covering_from_json(_read_json(args.file))
    except (ValueError, OSError) as exc:
        print(f"cannot render: {exc}", file=sys.stderr)
        return 2
    owner = {pt: i for i, blk in enumerate(covering.blocks) for pt in blk.points}
    xs = [x for x, _ in covering.cells]
    ys = [y for _, y in covering.cells]
    width = max(1, len(str(max(0, len(covering.blocks) - 1))))
    for z in range(1, covering.height + 1):
        print(f"z={z}")
        for y in range(max(ys), min(ys) - 1, -1):
            row = []
            for x in range(min(xs), max(xs) + 1):
                idx = owner.get((x, y, z))
                row.append("." * width if idx is None else str(idx).rjust(width))
            print(" ".join(row))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="gaptile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("tile", help="tile an interval with parts of gaps (p, q, r)")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("r", type=int)
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="JSON output (default)")
    mode.add_argument("--text", action="store_true", help="human-oriented output")
    s.add_argument("--sort-gaps", action="store_true",
                   help="treat the largest of the three as r")
    s.set_defaults(func=_cmd_tile)

    s = sub.add_parser("verify", help="verify a tiling JSON file ('-' for stdin)")
    s.add_argument("file")
    s.set_defaults(func=_cmd_verify)

    s = sub.add_parser("verify-covering", help="verify a covering JSON file")
    s.add_argument("file")
    s.set_defaults(func=_cmd_verify_covering)

    s = sub.add_parser("threshold", help="print the guaranteed threshold for (p, q)")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.set_defaults(func=_cmd_threshold)

    s = sub.add_parser("layer", help="emit a layer covering as JSON")
    s.add_argument("name", choices=sorted(_LAYERS))
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.set_defaults(func=_cmd_layer)

    s = sub.add_parser("oracle", help="run the brute-force searches")
    what = s.add_subparsers(dest="what", required=True)
    g = what.add_parser("gaps", help="smallest [1, n] tiled by a gap multiset")
    g.add_argument("gaps", help="comma separated gaps, e.g. 1,1,1")
    g.add_argument("--max-n", type=int, required=True)
    g.add_argument("--budget", type=int)
    g.set_defaults(func=_cmd_oracle, what="gaps")
    c = what.add_parser("cover", help="cover a shape file with family blocks")
    c.add_argument("--shape", required=True, help='JSON file {"cells": [[x, y], ...]}')
    c.add_argument("--height", type=int, required=True)
    c.add_argument("--family", required=True, help="axis:M or skew:P[,Q]")
    c.add_argument("--budget", type=int)
    c.set_defaults(func=_cmd_oracle, what="cover")

    s = sub.add_parser("render", help="ASCII z-slices of a covering JSON file")
    s.add_argument("file")
    s.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"gaptile: error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"gaptile: error: {exc}", file=sys.stderr)
        return 64
    except UnsupportedParameters as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
