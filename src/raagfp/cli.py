"""Command-line front end: raagfp {fg|fpn|table|coabelian|verify|gog}.

Exit codes: 0 verdict true (or clean run), 1 verdict false (or suite
failure), 2 malformed input or bad arguments (a RAAGFP_JOBS that is not
an integer included), 3 inapplicable analysis
(zero character, rank-0 matrix, index bounds violated on a graph of
groups whose free rank is below 2), 4 internal defect (a failed
self-check, a violated index bound on input that meets the theorem's
hypotheses, or any other exception, reported with its type).

Reports are JSON by default (--format text for plain text) and are
byte-identical across runs for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import traceback
from json.encoder import encode_basestring_ascii

from . import __version__, coabelian, fpcheck, gog, verify
from .errors import (EpimorphismError, FiniteQuotientError, InternalDefect,
                     SchemaError)
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
    lines = []
    pad = "  " * indent
    if isinstance(doc, dict):
        for key, val in doc.items():
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{doc}")
    return lines


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
    check = fpcheck.require_epimorphism(g, chi)
    supp = check.normalized.support(g)
    connected, dominant = fpcheck.connected_and_dominant(g, supp)
    fg = connected and dominant
    doc = _report("fg", inputs, {
        "support": list(g.sorted(supp)),
        "connected": connected,
        "dominant": dominant,
        "rescaled_by_power": check.rescaled_by_power,
        "fg": fg})
    _emit(doc, args.format)
    return EXIT_TRUE if fg else EXIT_FALSE


def cmd_fpn(args) -> int:
    g, chi, inputs = _graph_and_character(args)
    report = fpcheck.analyze(g, chi, max_n=args.max_n)
    doc = _report("fpn", inputs, report.document())
    _emit(doc, args.format)
    wanted = args.max_n if args.max_n is not None else 1
    ok = all(r.fp_complex for r in report.degrees[:wanted])
    return EXIT_TRUE if ok else EXIT_FALSE


def _table_chunk(payload) -> list:
    gdoc, p, supports = payload
    g = parse_graph(gdoc)
    rows = []
    for support in supports:
        chi = fpcheck.Character(p, {v: (1 if v in support else 0)
                                    for v in g.vertices})
        level = fpcheck.max_fp(g, chi)
        rows.append({"support": list(support),
                     "fg": level >= 1,         # fg is FP_1
                     "max_fp": "inf" if level == fpcheck.INFINITE else level})
    return rows


def cmd_table(args) -> int:
    gdoc = _load_json(args.graph)
    g = parse_graph(gdoc)
    n = len(g.vertices)
    if n > args.cap:
        raise ValueError(f"graph has {n} vertices, above the cap {args.cap}")
    supports = []
    for mask in range(1, 1 << n):
        supports.append(tuple(v for i, v in enumerate(g.vertices)
                              if mask >> i & 1))
    chunks = _split(supports, verify.pool_size(args.jobs, len(supports)))
    payloads = [(gdoc, args.p, chunk) for chunk in chunks]
    rows = []
    for part in verify.pmap(_table_chunk, payloads, args.jobs):
        rows.extend(part)
    doc = _report("table", {"graph_sha256": _digest(gdoc), "p": args.p},
                  {"rows": rows})
    _emit(doc, args.format)
    return EXIT_TRUE


def _split(items, parts):
    size = (len(items) + parts - 1) // parts if items else 1
    return [items[i:i + size] for i in range(0, len(items), size)]


def cmd_coabelian(args) -> int:
    gdoc = _load_json(args.graph)
    mdoc = _load_json(args.matrix)
    g = parse_graph(gdoc)
    m = coabelian.parse_matrix(mdoc, g)
    fg_report = coabelian.fg_coabelian(g, m)
    results = {
        "patterns": [{"zero_set": list(p.pattern.zero_set),
                      "certificate": list(p.pattern.certificate),
                      "connected": p.connected,
                      "dominant": p.dominant,
                      "fg": p.fg}
                     for p in fg_report.per_pattern],
        "fg": fg_report.fg,
        "fg_witness": list(fg_report.witness.zero_set)
                      if fg_report.witness else None,
    }
    verdict = fg_report.fg
    if args.max_n is not None:
        fpn_report = coabelian.fpn_coabelian(g, m, args.max_n)
        results["fp_n"] = args.max_n
        results["fp"] = fpn_report.fp
        results["fp_witness"] = list(fpn_report.witness.zero_set) \
            if fpn_report.witness else None
        results["per_pattern"] = [
            {"zero_set": list(p.zero_set), "report": rep.document()}
            for p, rep in fpn_report.per_pattern]
        verdict = verdict and fpn_report.fp
    fullness = coabelian.is_full(g, m)
    results["fullness"] = {
        "full": fullness.full,
        "factors": [{"factor": list(f.factor), "is_clique": f.is_clique,
                     "intersects": f.intersects, "reason": f.reason}
                    for f in fullness.factors],
        "note": fullness.note}
    doc = _report("coabelian",
                  {"graph_sha256": _digest(gdoc), "p": m.p,
                   "matrix": [list(r) for r in m.rows]},
                  results)
    _emit(doc, args.format)
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.max_vertices < 1:
        raise ValueError(f"--max-vertices must be >= 1, got {args.max_vertices}")
    results = verify.run_all(seed=args.seed, trials=args.trials,
                             max_vertices=args.max_vertices, jobs=args.jobs)
    doc = _report("verify",
                  {"seed": args.seed, "trials": args.trials,
                   "max_vertices": args.max_vertices},
                  {"suites": [r.document() for r in results],
                   "passed": all(r.passed for r in results)})
    _emit(doc, args.format)
    return EXIT_TRUE if all(r.passed for r in results) else EXIT_FALSE


def cmd_gog(args) -> int:
    xdoc = _load_json(args.gog)
    x = gog.parse_gog(xdoc)
    m = args.index if args.index is not None else gog.lcm_vertex_orders(x)
    report = gog.euler_report(x)
    bounds = gog.check_bounds(x, m)
    doc = _report("gog", {"gog_sha256": _digest(xdoc), "index": m}, {
        "chi": str(gog.euler_characteristic(x)),
        "lcm_orders": report.lcm_orders,
        "ranks": report.document()["ranks"],
        "reduced": gog.is_reduced(x),
        "dihedral_type": gog.is_dihedral_type(x),
        "bounds": bounds.document()})
    _emit(doc, args.format)
    if not bounds.defect:
        return EXIT_TRUE
    if bounds.rank < 2:
        # the bounds are theorems only for groups that are not virtually
        # cyclic, i.e. whose free subgroups of finite index have rank >= 2
        print(f"error: bounds not applicable: free rank {bounds.rank} at "
              f"index {m} is below 2, so the group is virtually cyclic",
              file=sys.stderr)
        return EXIT_INAPPLICABLE
    return EXIT_DEFECT


def _default_jobs() -> int:
    raw = os.environ.get("RAAGFP_JOBS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"RAAGFP_JOBS must be an integer, got {raw!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after.

    ``--jobs`` defaults to None; ``main`` fills it in from RAAGFP_JOBS,
    which it reads on every call."""
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
    p.add_argument("--jobs", type=int, default=None)
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
    p.add_argument("--jobs", type=int, default=None)
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
        default_jobs = _default_jobs()
        args = _build_parser().parse_args(argv)
        if hasattr(args, "jobs") and args.jobs is None:
            args.jobs = default_jobs
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
        traceback.print_exc()
        return EXIT_DEFECT


if __name__ == "__main__":
    sys.exit(main())
