"""Command line interface.

Exit codes: 0 success or accept, 2 unsupported parameters or reject,
1 internal inconsistency, 64 malformed arguments.  A reader that closes
stdout early is no failure: the command exits 0 if its output was cut
short, else with its own code, and writes nothing to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .assemble import threshold, tile
from .blocks3d import axis_family, covering_from_json, covering_to_json, \
    shape_from_json, skew_family, verify_covering
from .core import GapSequence, InternalInconsistency, UnsupportedParameters, \
    tiling_from_json, tiling_to_json, verify_tiling
from .layers import layer_x1, layer_x2, layer_y1, layer_y2
from .oracle import BUDGET_EXHAUSTED, SearchBudget, min_interval, solve_covering


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_json(path: str):
    """The JSON document at path, '-' for stdin.  A document nested too
    deeply to decode raises ValueError, as any other malformed one does."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as f:
            return json.load(f)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def _cmd_tile(args) -> int:
    p, q, r = args.p, args.q, args.r
    if args.sort_gaps:
        p, q, r = sorted((p, q, r))
    tiling = tile(p, q, r)
    gaps = GapSequence((p, q, r))
    if args.text:
        print(f"interval [{tiling.lo}, {tiling.hi}]  gaps {tuple(gaps.gaps)}  "
              f"parts {len(tiling.parts)}")
        for part in tiling.parts:
            print(" ".join(map(str, part)))
    else:
        print(json.dumps(tiling_to_json(tiling, gaps)))
    return 0


def _judged(path: str, read, judge) -> int:
    """Read the document at path, judge what read made of it, print the
    verdict, and exit 0 on accept, else 2; a document read cannot take is
    a malformed-input reject.

    The cyclic garbage collector is paused throughout and left as it was
    found on every way out.  A verifier reads a JSON document into lists
    and dicts, builds tuples and frozensets from them, and marks what it
    has seen in a bytearray or a set.  None of this holds a reference
    cycle, so reference counting frees all of it once the command returns,
    and the collector's passes only walk the live document: about a
    quarter of a `gaptile verify`.  The pause covers the whole command, not
    just the read, so nothing the command built is alive when the
    collector resumes.  Only the two verifiers are paused: their memory is
    bounded by the document they read, whereas `tile` spends about 2 % of
    its time collecting and the oracle's searches are bounded by no
    document.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            value = read(_read_json(path))
        except (ValueError, OSError) as exc:
            print(f"reject: malformed input ({exc})")
            return 2
        verdict = judge(value)
        print(verdict.message())
        return 0 if verdict else 2
    finally:
        if enabled:
            gc.enable()


def _cmd_verify(args) -> int:
    return _judged(args.file, tiling_from_json, lambda pair: verify_tiling(pair[1], pair[0]))


def _cmd_verify_covering(args) -> int:
    return _judged(args.file, covering_from_json, verify_covering)


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
    budget = None if args.budget is None else SearchBudget(args.budget)
    if args.what == "gaps":
        try:
            gaps = tuple(int(x) for x in args.gaps.split(","))
        except ValueError:
            raise _UsageError(f"cannot parse gaps {args.gaps!r}") from None
        gaps = GapSequence(gaps)
        result = min_interval(gaps, args.max_n, budget)
        none = f"no tiling of [1, n] for any n <= {args.max_n}"
    else:
        family = _parse_family(args.family)
        cells = shape_from_json(_read_json(args.shape))
        result = solve_covering(cells, args.height, family, budget)
        none = "no covering exists"
    if result is None or result is BUDGET_EXHAUSTED:
        print(none if result is None else "budget exhausted", file=sys.stderr)
        return 2
    doc = tiling_to_json(result[1], gaps) if args.what == "gaps" else covering_to_json(result)
    print(json.dumps(doc))
    return 0


def _cmd_render(args) -> int:
    try:
        covering = covering_from_json(_read_json(args.file))
    except (ValueError, OSError) as exc:
        print(f"cannot render: {exc}", file=sys.stderr)
        return 2
    if not covering.cells:
        print("cannot render: the covering has no cells", file=sys.stderr)
        return 2
    # only the slices, rows and columns that hold something, so the output
    # follows the document's contents rather than its declared height
    owner = {pt: i for i, blk in enumerate(covering.blocks) for pt in blk}
    zs = sorted({z for _, _, z in owner if 1 <= z <= covering.height})
    ys = sorted({y for _, y in covering.cells}, reverse=True)
    xs = sorted({x for x, _ in covering.cells})
    width = max(1, len(str(max(0, len(covering.blocks) - 1))))
    for z in zs:
        print(f"z={z}")
        for y in ys:
            labels = (owner.get((x, y, z)) for x in xs)
            print(" ".join("." * width if idx is None else str(idx).rjust(width)
                           for idx in labels))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="gaptile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("tile", help="tile an interval with parts of gaps (p, q, r)")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("r", type=int)
    s.add_argument("--text", action="store_true",
                   help="human-oriented output instead of JSON")
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
    code = 0
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except _UsageError as exc:
        print(f"gaptile: error: {exc}", file=sys.stderr)
        return 64
    except UnsupportedParameters as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
