"""Command-line front end: raagfp {fg|fpn|table|coabelian|verify|gog}.

Exit codes: 0 verdict true (or clean run), 1 verdict false (or suite
failure), 2 malformed input or bad arguments (a count flag below 1
exits before any file is read), 3 inapplicable analysis
(zero character, rank-0 matrix, index bounds violated on a graph of
groups whose free rank is below 2), 4 internal defect (a failed
self-check, a violated index bound on input that meets the theorem's
hypotheses, or any other exception, reported with its type).

Reports are JSON by default (--format text for plain text) and are
byte-identical across runs for fixed inputs and seed.  Only ``table``
has worker processes (``--jobs``); every other command runs in-process.
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


def _digest(document) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _report(command: str, inputs: dict, results: dict) -> dict:
    return {"tool": {"name": "raagfp", "version": __version__},
            "command": command,
            "input": inputs,
            "results": results}


def _render_text(doc, indent=0) -> list:
    """One line per scalar, nested containers indented under their key
    or ``-``; an empty list or dict prints as ``[]`` or ``{}``."""
    lines = []
    pad = "  " * indent
    if isinstance(doc, dict):
        for key, val in doc.items():
            if val and isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_text_scalar(val)}")
    elif isinstance(doc, list):
        for val in doc:
            if val and isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}- {_text_scalar(val)}")
    else:
        lines.append(f"{pad}{doc}")
    return lines


def _text_scalar(val) -> str:
    # scalars keep their Python spelling (True, None); an empty
    # container is spelled as in JSON
    return json.dumps(val) if isinstance(val, (dict, list)) else str(val)


def render_json(doc, pad: str = "") -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, nested one level
    deeper than ``pad``.

    ``indent`` makes json.dumps fall back to its pure-Python encoder.
    Here strings go through the C ``encode_basestring_ascii``, integers,
    booleans and None are spelled as json.dumps spells them, and
    anything else that is not a list or a dict with string keys is
    handed to json.dumps itself.
    """
    kind = type(doc)
    if kind is str:
        return encode_basestring_ascii(doc)
    if kind is int:
        return int.__repr__(doc)
    if kind is bool:
        return "true" if doc else "false"
    if doc is None:
        return "null"
    inner = pad + "  "
    if kind is list:
        if not doc:
            return "[]"
        return ("[\n" + ",\n".join([inner + render_json(v, inner) for v in doc])
                + "\n" + pad + "]")
    if kind is dict and all(type(k) is str for k in doc):
        if not doc:
            return "{}"
        return ("{\n" + ",\n".join([inner + encode_basestring_ascii(k) + ": "
                                    + render_json(v, inner)
                                    for k, v in doc.items()])
                + "\n" + pad + "}")
    # JSON escapes every newline inside a string, so these are line breaks
    return json.dumps(doc, indent=2).replace("\n", "\n" + pad)


def _emit(doc: dict, fmt: str):
    if fmt == "text":
        sys.stdout.write("\n".join(_render_text(doc)) + "\n")
    else:
        sys.stdout.write(render_json(doc) + "\n")


def _graph_and_character(args):
    gdoc = _load_json(args.graph)
    cdoc = _load_json(args.character)
    g = parse_graph(gdoc)
    chi = fpcheck.parse_character(cdoc)
    chi.require_defined_on(g)
    for v in chi.values:
        if v not in g:
            raise SchemaError(f"character defined on a non-vertex: {v!r}")
    inputs = {"graph_sha256": _digest(gdoc), "p": chi.p,
              "character": dict(chi.values)}
    return g, chi, inputs


def cmd_fg(args) -> int:
    g, chi, inputs = _graph_and_character(args)
    supp, t = fpcheck.require_epimorphism(g, chi)
    connected, dominant = fpcheck.connected_and_dominant(g, supp)
    fg = connected and dominant
    doc = _report("fg", inputs, {
        "support": list(g.sorted(supp)),
        "connected": connected,
        "dominant": dominant,
        "rescaled_by_power": t,
        "fg": fg})
    _emit(doc, args.format)
    return EXIT_TRUE if fg else EXIT_FALSE


def cmd_fpn(args) -> int:
    g, chi, inputs = _graph_and_character(args)
    results = fpcheck.analyze(g, chi, max_n=args.max_n)
    _emit(_report("fpn", inputs, results), args.format)
    wanted = args.max_n if args.max_n is not None else 1
    ok = all(r["fp_complex"] for r in results["degrees"][:wanted])
    return EXIT_TRUE if ok else EXIT_FALSE


def _table_row(g, p: int, support) -> dict:
    chi = fpcheck.Character(p, {v: (1 if v in support else 0)
                                for v in g.vertices})
    level = fpcheck.max_fp(g, chi)
    return {"support": list(support),
            "fg": level >= 1,         # fg is FP_1
            "max_fp": "inf" if level == fpcheck.INFINITE else level}


def cmd_table(args) -> int:
    check_prime(args.p)
    gdoc = _load_json(args.graph)
    g = parse_graph(gdoc)
    n = len(g.vertices)
    if n > args.cap:
        raise ValueError(f"graph has {n} vertices, above the cap {args.cap}")
    supports = []
    for mask in range(1, 1 << n):
        supports.append(tuple(v for i, v in enumerate(g.vertices)
                              if mask >> i & 1))
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
    doc = _report("table", {"graph_sha256": _digest(gdoc), "p": args.p},
                  {"rows": rows})
    _emit(doc, args.format)
    return EXIT_TRUE


def cmd_coabelian(args) -> int:
    gdoc = _load_json(args.graph)
    mdoc = _load_json(args.matrix)
    g = parse_graph(gdoc)
    m = coabelian.parse_matrix(mdoc, g)
    results = coabelian.fg_coabelian(g, m)
    verdict = results["fg"]
    if args.max_n is not None:
        results.update(coabelian.fpn_coabelian(g, m, args.max_n))
        verdict = verdict and results["fp"]
    results["fullness"] = coabelian.is_full(g, m)
    doc = _report("coabelian",
                  {"graph_sha256": _digest(gdoc), "p": m.p,
                   "matrix": [list(r) for r in m.rows]},
                  results)
    _emit(doc, args.format)
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_verify(args) -> int:
    from . import verify
    suites = verify.run_all(seed=args.seed, trials=args.trials,
                            max_vertices=args.max_vertices)
    passed = all(r["passed"] for r in suites)
    doc = _report("verify",
                  {"seed": args.seed, "trials": args.trials,
                   "max_vertices": args.max_vertices},
                  {"suites": suites, "passed": passed})
    _emit(doc, args.format)
    return EXIT_TRUE if passed else EXIT_FALSE


def cmd_gog(args) -> int:
    from . import gog
    xdoc = _load_json(args.gog)
    x = gog.parse_gog(xdoc)
    m = args.index if args.index is not None else gog.lcm_vertex_orders(x)
    bounds = gog.check_bounds(x, m)
    doc = _report("gog", {"gog_sha256": _digest(xdoc), "index": m}, {
        **gog.euler_report(x),
        "reduced": gog.is_reduced(x),
        "dihedral_type": gog.is_dihedral_type(x),
        "bounds": bounds})
    _emit(doc, args.format)
    if not bounds["defect"]:
        return EXIT_TRUE
    if bounds["rank"] < 2:
        # the bounds are theorems only for groups that are not virtually
        # cyclic, i.e. whose free subgroups of finite index have rank >= 2
        print(f"error: bounds not applicable: free rank {bounds['rank']} at "
              f"index {m} is below 2, so the group is virtually cyclic",
              file=sys.stderr)
        return EXIT_INAPPLICABLE
    return EXIT_DEFECT


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
        for name in ("max_n", "trials", "max_vertices", "jobs"):  # counts
            value = getattr(args, name, None)
            if value is not None and value < 1:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} must be >= 1, got {value}")
        return args.run(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
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
