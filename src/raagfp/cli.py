"""Command-line front end: raagfp {fg|fpn|table|coabelian|verify|gog}.

Exit codes: 0 verdict true (or clean run), 1 verdict false (or suite
failure), 2 malformed input or bad arguments (a count flag below 1
exits before any file is read, a --max-n above |V| + 1 once the graph
is read), 3 inapplicable analysis
(zero character, rank-0 matrix, index bounds violated on a graph of
groups whose free rank is below 2), 4 internal defect (a failed
self-check, a violated index bound on input that meets the theorem's
hypotheses, or any other exception, reported with its type).

Each ``cmd_*`` function returns the report's inputs, its results and
the exit code; ``main`` wraps them in the ``{"tool", "command",
"input", "results"}`` envelope and writes the one report, JSON by
default (--format text for plain text).  Reports are byte-identical
across runs for fixed inputs and seed.  Only ``table`` has worker
processes (``--jobs``); every other command runs in-process.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii

# gog, verify, traceback and concurrent.futures are imported by the code
# that needs them, so that fpn and coabelian calls do not pay for them
from . import __version__, coabelian, fpcheck
from .errors import (EpimorphismError, FiniteQuotientError, InternalDefect,
                     SchemaError)
from .fpmatrix import check_prime
from .frozen import Shared
from .graph import parse_graph

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_SCHEMA = 2
EXIT_INAPPLICABLE = 3
EXIT_DEFECT = 4


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _graph(path: str, parse=parse_graph) -> tuple:
    """The graph that ``parse`` builds from the JSON file at path (a
    graph of groups for ``gog``), and the sha256 of the file's document
    in canonical form."""
    document = _load_json(path)
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return parse(document), hashlib.sha256(blob.encode()).hexdigest()


def _render_text(doc, indent=0) -> list:
    """One line per scalar, nested containers indented under their
    ``key:`` or ``-``; an empty list or dict prints as ``[]`` or ``{}``."""
    pad = "  " * indent
    if isinstance(doc, dict):
        entries = ((f"{key}:", val) for key, val in doc.items())
    else:
        entries = (("-", val) for val in doc)
    lines = []
    for label, val in entries:
        if val and isinstance(val, (dict, list)):
            lines.append(pad + label)
            lines.extend(_render_text(val, indent + 1))
        else:
            lines.append(f"{pad}{label} {_text_scalar(val)}")
    return lines


def _text_scalar(val) -> str:
    # scalars keep their Python spelling (True, None); an empty
    # container is spelled as in JSON
    return json.dumps(val) if isinstance(val, (dict, list)) else str(val)


def render_json(doc, pad: str = "", memo: dict | None = None) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, nested one level
    deeper than ``pad``, for a report: str, int, bool and None inside
    lists and dicts with string keys.

    ``indent`` makes json.dumps fall back to its pure-Python encoder.
    Here strings go through the C ``encode_basestring_ascii``, and
    integers, booleans and None are spelled as json.dumps spells them.
    A container spells its scalars itself and puts them, its brackets,
    separators and rendered members into one list that it joins once,
    so a report is held about twice while it is rendered: in pieces
    and joined.  A read-only ``Shared`` block, which a report may hold
    in many places, is rendered once per indentation: ``memo`` maps
    ``(id(block), pad)`` to its text for one top-level call, and the
    report keeps every block, so its id, alive until that call ends.
    Any other type, or a key that is not a string, raises TypeError.
    """
    if memo is None:
        memo = {}
    kind = type(doc)
    if kind is Shared:
        slot = (id(doc), pad)
        text = memo.get(slot)
        if text is not None:
            return text
    if kind is list:
        if not doc:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        parts = ["[\n", inner]
        append = parts.append
        for value in doc:
            t = type(value)
            if t is str:
                append(encode_basestring_ascii(value))
            elif t is int:
                append(int.__repr__(value))
            elif t is bool:
                append("true" if value else "false")
            elif value is None:
                append("null")
            else:
                append(render_json(value, inner, memo))
            append(sep)
        parts[-1] = "\n" + pad + "]"
        return "".join(parts)
    if kind is dict or kind is Shared:
        if not doc:
            return "{}"
        inner = pad + "  "
        sep = ",\n" + inner
        parts = ["{\n", inner]
        append = parts.append
        for key, value in doc.items():
            append(encode_basestring_ascii(key))
            t = type(value)
            if t is str:
                append(": " + encode_basestring_ascii(value))
            elif t is int:
                append(": " + int.__repr__(value))
            elif t is bool:
                append(": true" if value else ": false")
            elif value is None:
                append(": null")
            else:
                append(": ")
                append(render_json(value, inner, memo))
            append(sep)
        parts[-1] = "\n" + pad + "}"
        text = "".join(parts)
        if kind is Shared:
            memo[slot] = text
        return text
    if kind is str:
        return encode_basestring_ascii(doc)
    if kind is int:
        return int.__repr__(doc)
    if kind is bool:
        return "true" if doc else "false"
    if doc is None:
        return "null"
    raise TypeError(f"a report holds no {kind.__name__}")


def _graph_and_character(args):
    g, sha256 = _graph(args.graph)
    chi = fpcheck.parse_character(_load_json(args.character))
    chi.require_defined_on(g)
    for v in chi.values:
        if v not in g:
            raise SchemaError(f"character defined on a non-vertex: {v!r}")
    inputs = {"graph_sha256": sha256, "p": chi.p,
              "character": dict(chi.values)}
    return g, chi, inputs


def _check_max_n(g, max_n):
    # every degree row above the largest clique size repeats that row
    if max_n is not None and max_n > len(g) + 1:
        raise ValueError(f"--max-n must be at most |V| + 1 = {len(g) + 1} "
                         f"on this graph, got {max_n}")


def cmd_fg(args) -> tuple:
    g, chi, inputs = _graph_and_character(args)
    supp, t = fpcheck.require_epimorphism(g, chi)
    connected, dominant = fpcheck.connected_and_dominant(g, g.mask(supp))
    fg = connected and dominant
    results = {"support": list(supp),
               "connected": connected,
               "dominant": dominant,
               "rescaled_by_power": t,
               "fg": fg}
    return inputs, results, EXIT_TRUE if fg else EXIT_FALSE


def cmd_fpn(args) -> tuple:
    g, chi, inputs = _graph_and_character(args)
    _check_max_n(g, args.max_n)
    results = fpcheck.analyze(g, chi, max_n=args.max_n)
    wanted = args.max_n if args.max_n is not None else 1
    ok = all(r["fp_complex"] for r in results["degrees"][:wanted])
    return inputs, results, EXIT_TRUE if ok else EXIT_FALSE


def _table_row(g, p: int, support) -> dict:
    chi = fpcheck.Character(p, {v: (1 if v in support else 0)
                                for v in g.vertices})
    level = fpcheck.max_fp(g, chi)
    return {"support": list(support),
            "fg": level >= 1,         # fg is FP_1
            "max_fp": "inf" if level == fpcheck.INFINITE else level}


def cmd_table(args) -> tuple:
    check_prime(args.p)
    g, sha256 = _graph(args.graph)
    n = len(g.vertices)
    if n > args.cap:
        raise ValueError(f"graph has {n} vertices, above the cap {args.cap}")
    supports = [g.members(mask) for mask in range(1, 1 << n)]
    row = functools.partial(_table_row, g, args.p)
    # a pool starts all its workers at once, so never more than the rows
    workers = min(args.jobs, len(supports), os.cpu_count() or 1)
    rows = None
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(row, supports,
                                     chunksize=-(-len(supports) // workers)))
        except OSError:
            pass
    if rows is None:
        rows = list(map(row, supports))
    return {"graph_sha256": sha256, "p": args.p}, {"rows": rows}, EXIT_TRUE


def cmd_coabelian(args) -> tuple:
    g, sha256 = _graph(args.graph)
    _check_max_n(g, args.max_n)
    m = coabelian.parse_matrix(_load_json(args.matrix), g)
    results = coabelian.fg_coabelian(g, m)
    verdict = results["fg"]
    if args.max_n is not None:
        results.update(coabelian.fpn_coabelian(g, m, args.max_n))
        verdict = verdict and results["fp"]
        # fg read two ways: connected and dominant support, and h_1 = 0
        for row, fpn_row in zip(results["patterns"], results["per_pattern"]):
            if row["fg"] != fpn_row["report"]["fg"]:
                raise InternalDefect(
                    f"zero set {row['zero_set']!r}: fg is {row['fg']} by "
                    f"connectivity and dominance, {not row['fg']} by h_1")
    results["fullness"] = coabelian.is_full(g, m)
    inputs = {"graph_sha256": sha256, "p": m.p,
              "matrix": [list(r) for r in m.rows]}
    return inputs, results, EXIT_TRUE if verdict else EXIT_FALSE


def cmd_verify(args) -> tuple:
    from . import verify
    suites = verify.run_all(seed=args.seed, trials=args.trials,
                            max_vertices=args.max_vertices)
    passed = all(r["passed"] for r in suites)
    return ({"seed": args.seed, "trials": args.trials,
             "max_vertices": args.max_vertices},
            {"suites": suites, "passed": passed},
            EXIT_TRUE if passed else EXIT_FALSE)


def cmd_gog(args) -> tuple:
    from . import gog
    x, sha256 = _graph(args.gog, gog.parse_gog)
    m = args.index if args.index is not None else gog.lcm_vertex_orders(x)
    bounds = gog.check_bounds(x, m)
    inputs = {"gog_sha256": sha256, "index": m}
    results = {**gog.euler_report(x),
               "reduced": gog.is_reduced(x),
               "dihedral_type": gog.is_dihedral_type(x),
               "bounds": bounds}
    if not bounds["defect"]:
        return inputs, results, EXIT_TRUE
    if bounds["rank"] < 2:
        # the bounds are theorems only for groups that are not virtually
        # cyclic, i.e. whose free subgroups of finite index have rank >= 2
        print(f"error: bounds not applicable: free rank {bounds['rank']} at "
              f"index {m} is below 2, so the group is virtually cyclic",
              file=sys.stderr)
        return inputs, results, EXIT_INAPPLICABLE
    return inputs, results, EXIT_DEFECT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    top = argparse.ArgumentParser(
        prog="raagfp",
        description="Finite generation and FP_n for kernels of characters "
                    "on graph groups, plus graph-of-groups Euler bounds.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("fg", help="finite generation of a character kernel")
    p.add_argument("graph")
    p.add_argument("character")
    common(p)
    p.set_defaults(run=cmd_fg)

    p = sub.add_parser("fpn", help="FP_n table for a character kernel")
    p.add_argument("graph")
    p.add_argument("character")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    common(p)
    p.set_defaults(run=cmd_fpn)

    p = sub.add_parser("table", help="fg and max FP level per support subset")
    p.add_argument("graph")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--cap", type=int, default=16,
                   help="refuse graphs with more vertices than this")
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("coabelian",
                       help="aggregate analysis of a matrix-defined kernel")
    p.add_argument("graph")
    p.add_argument("matrix")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    common(p)
    p.set_defaults(run=cmd_coabelian)

    p = sub.add_parser("verify", help="randomized self-verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-vertices", type=int, default=7, dest="max_vertices")
    common(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("gog", help="graph-of-groups Euler report and bounds")
    p.add_argument("gog")
    p.add_argument("--index", type=int, default=None,
                   help="index of the free subgroup (default: vertex-order lcm)")
    common(p)
    p.set_defaults(run=cmd_gog)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for name in ("max_n", "trials", "max_vertices", "jobs", "index"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} must be >= 1, got {value}")
        inputs, results, code = args.run(args)
        doc = {"tool": {"name": "raagfp", "version": __version__},
               "command": args.command, "input": inputs, "results": results}
        if args.format == "text":
            sys.stdout.write("\n".join(_render_text(doc)) + "\n")
        else:
            sys.stdout.write(render_json(doc) + "\n")
        return code
    except (EpimorphismError, FiniteQuotientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except InternalDefect as exc:
        print(f"error: internal defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception as exc:    # a crash must not read as "verdict false"
        print(f"error: internal defect: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        import traceback
        traceback.print_exc()
        return EXIT_DEFECT


if __name__ == "__main__":
    sys.exit(main())
