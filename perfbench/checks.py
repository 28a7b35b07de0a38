"""Correctness gate for every benchmark instance.

Two layers of checks:

* seed-independent oracles that follow from the mathematics, not from
  earlier output (route agreement, certificate arithmetic
  recomputed from the generated matrix, the sphere's FP level);
* for the seed the references were recorded with, the exit code and the
  stdout digest of each instance, so any byte difference in a report is
  a failure.
"""

from __future__ import annotations

import hashlib
import json
import os

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
DIGEST_CHARS = 16               # stored prefix of the stdout sha256
REF_SEED = 0                    # the one seed with recorded references
BAD_EXIT_CODES = (2, 4)         # malformed input, internal defect


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:DIGEST_CHARS]


def load_refs(workload: str, seed: int):
    """Recorded [exit code, digest] pairs for REF_SEED; None for any
    other seed, which is checked by the oracles only."""
    if seed != REF_SEED:
        return None
    with open(os.path.join(REFS_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["seed"] != REF_SEED:
        raise ValueError(f"{workload} references are for seed {doc['seed']}, "
                         f"not {REF_SEED}")
    return doc["instances"]


def oracle(inst, code, stdout: str) -> list:
    """Problems found in one finished instance; empty when it passes."""
    if code in BAD_EXIT_CODES:
        return [f"exit code {code}"]
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    return CHECKS[inst.command](inst, results)


def _check_fpn(inst, r) -> list:
    problems = []
    if r["routes_agree"] is not True:
        problems.append("routes disagree")
    if r["decomposition"]["ok"] is not True:
        problems.append("decomposition identity fails")
    dim = inst.meta.get("sphere_dim")
    if dim is not None and r["max_fp"] != dim:
        problems.append(f"max_fp {r['max_fp']!r} on a nowhere-zero character "
                        f"of the {dim}-sphere, expected {dim}")
    return problems


def _check_coabelian(inst, r) -> list:
    rows = inst.meta["rows"]
    vertices = inst.meta["vertices"]
    n = inst.meta["max_n"]
    problems = []
    for pat in r["patterns"]:
        lam = pat["certificate"]
        zeros = {v for j, v in enumerate(vertices)
                 if sum(l * row[j] for l, row in zip(lam, rows)) == 0}
        if zeros != set(pat["zero_set"]) or len(lam) != len(rows) or not any(lam):
            problems.append(f"certificate {lam} does not vanish exactly on "
                            f"{pat['zero_set']}")
            break
    if r["fg"] != all(pat["fg"] for pat in r["patterns"]):
        problems.append("fg is not the conjunction of the per-pattern fg")
    per = r["per_pattern"]
    if [p["zero_set"] for p in per] != [p["zero_set"] for p in r["patterns"]]:
        problems.append("per_pattern zero sets differ from patterns")
    for p in per:
        rep = p["report"]
        if rep["routes_agree"] is not True or rep["decomposition"]["ok"] is not True:
            problems.append(f"pattern {p['zero_set']}: routes or decomposition fail")
            break
    if r["fp"] != all(p["report"]["degrees"][n - 1]["fp_complex"] for p in per):
        problems.append("fp is not the conjunction of the per-pattern FP_n")
    return problems


CHECKS = {"fpn": _check_fpn, "coabelian": _check_coabelian}
