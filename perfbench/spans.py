"""Timing spans wrapped around raagfp's public functions from outside.

A function imported by name (``from .graph import enumerate_cliques``)
is a separate binding in every importing module, so patching only the
defining module misses most calls.  ``install`` replaces every binding
of each target in every loaded ``raagfp`` module, and the class
attribute for a method, and reports the sites it patched.

A span's self time is its duration minus the time covered by its child
spans.  The wrapper's own bookkeeping after a call is counted as child
time of the caller, so it lands in no span's self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Per-name call counts, self times and layer counters, in memory."""

    def __init__(self):
        self.stack = []                 # one [child seconds] cell per open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.inputs = defaultdict(Counter)   # span name -> input key -> calls

    def wrap(self, name: str, fn, observe=None):
        stack, calls, self_s = self.stack, self.calls, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_s[name] += end - start - cell[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += end - start
            if observe is not None:
                observe(self, args, result)
                if stack:
                    stack[-1][0] += perf_counter() - end
            return result

        return span


def _observe_cliques(t, args, groups):
    t.inputs["graph.enumerate_cliques"][args[0]] += 1
    t.counts["graph.cliques"] += sum(map(len, groups))


def _observe_complex(t, args, cx):
    t.counts["fpcheck.chain_dim"] += sum(cx.dims.values())


def _observe_rank(t, args, rank):
    m = args[0]
    t.inputs["fpmatrix.rank_fp"][hash(m)] += 1
    t.counts["fpmatrix.rank_fp.nnz"] += m.nnz()
    t.counts["fpmatrix.rank_fp.rows"] += m.rows
    t.counts["fpmatrix.rank_fp.cols"] += m.cols
    t.counts["fpmatrix.rank_fp.rank"] += rank
    short = min(m.rows, m.cols)
    if short > t.maxima["fpmatrix.rank_fp.max_dim"]:
        t.maxima["fpmatrix.rank_fp.max_dim"] = short


def _observe_patterns(t, args, patterns):
    t.inputs["coabelian.enumerate_patterns"][args[0]] += 1
    t.counts["coabelian.patterns"] += len(patterns)


# (span name, defining module, attribute, observer)
TARGETS = (
    ("cli.main", "raagfp.cli", "main", None),
    ("graph.enumerate_cliques", "raagfp.graph", "enumerate_cliques",
     _observe_cliques),
    ("fpcheck.character_complex", "raagfp.fpcheck", "character_complex",
     _observe_complex),
    ("fpcheck.analyze", "raagfp.fpcheck", "analyze", None),
    ("fpcheck.max_fp", "raagfp.fpcheck", "max_fp", None),
    ("fpcheck.is_fg", "raagfp.fpcheck", "is_fg", None),
    ("flag_homology.link_complex", "raagfp.flag_homology", "link_complex", None),
    ("flag_homology.reduced_homology", "raagfp.flag_homology",
     "reduced_homology", None),
    ("flag_homology.homology", "raagfp.flag_homology",
     "ChainComplexFp.homology", None),
    ("flag_homology.simplicial_chain_complex", "raagfp.flag_homology",
     "simplicial_chain_complex", None),
    ("fpmatrix.rank_fp", "raagfp.fpmatrix", "rank_fp", _observe_rank),
    ("coabelian.enumerate_patterns", "raagfp.coabelian", "enumerate_patterns",
     _observe_patterns),
    ("coabelian.fg_coabelian", "raagfp.coabelian", "fg_coabelian", None),
    ("coabelian.fpn_coabelian", "raagfp.coabelian", "fpn_coabelian", None),
    ("coabelian.is_full", "raagfp.coabelian", "is_full", None),
)

# Bindings the spans must cover: each name imported into another module.
REQUIRED_SITES = frozenset({
    "raagfp.graph.enumerate_cliques", "raagfp.flag_homology.enumerate_cliques",
    "raagfp.fpcheck.enumerate_cliques",
    "raagfp.fpmatrix.rank_fp", "raagfp.flag_homology.rank_fp",
    "raagfp.flag_homology.link_complex", "raagfp.fpcheck.link_complex",
    "raagfp.flag_homology.reduced_homology", "raagfp.fpcheck.reduced_homology",
    "raagfp.flag_homology.ChainComplexFp.homology",
})


def install(tracer: Tracer):
    """Wrap every binding of every target; returns (sites, restore)."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "raagfp" or name.startswith("raagfp."))]
    sites, undo = [], []
    for name, modname, attr, observe in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:                 # a method: patch the class attribute
            cls_name, leaf = attr.split(".")
            cls = getattr(owner, cls_name)
            original = getattr(cls, leaf)
            setattr(cls, leaf, tracer.wrap(name, original, observe))
            sites.append(f"{modname}.{attr}")
            undo.append((cls, leaf, original))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    sites.append(f"{mod.__name__}.{key}")
                    undo.append((mod, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return sites, restore
