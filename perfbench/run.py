"""raagfp benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload fpn_large --seed 0 --seconds 58 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Each instance is one ``raagfp.cli.main(argv)`` call with stdout
captured, checked by the oracles in checks.py and, for the seed the
references were recorded with, against the recorded report digests.

--trace 0 times calls with no wrappers installed until --seconds have
passed (or, for the reference seed, until the references run out) and
reports the end-to-end metrics, with times scaled to the calibration
host's speed (calibrate.py).  --trace 1 runs each instance of the
workload's fixed traced prefix twice, plain and then with spans at
every binding site (spans.py), and reports the per-layer metrics,
including the tracing overhead, after a self-test of the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from itertools import islice
from math import comb
from time import perf_counter

import calibrate
import checks
import spans
import workloads

ROOT = os.getcwd()
SETUP_SAMPLES = 9               # fresh interpreters per setup_s median
MAX_REPORTED_PROBLEMS = 5


def load_cli():
    """Import raagfp.cli from ./src and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "raagfp", "cli.py")):
        sys.exit("perfbench: no src/raagfp/cli.py here; "
                 "run from the root of a raagfp checkout")
    sys.path.insert(0, src)
    from raagfp import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's source")
    return cli


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(kind: str) -> dict:
    """Name -> unit of the ``kind`` metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in benchmark_json()[kind]}


def time_setup() -> float:
    """Wall time of one fresh interpreter importing raagfp.cli."""
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-c",
                    "import sys; sys.path.insert(0, 'src'); import raagfp.cli"],
                   cwd=ROOT, check=True)
    return perf_counter() - start


def write_docs(inst, workdir) -> dict:
    paths = {}
    for stem, doc in inst.docs.items():
        paths[stem] = os.path.join(workdir, f"{stem}.json")
        with open(paths[stem], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def call(cli, argv):
    """One timed cli.main call: (exit code, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:    # counted as a failed instance
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds, error


def problems_of(inst, code, stdout, error, refs) -> list:
    if error is not None:
        return [f"raised {error}"]
    problems = checks.oracle(inst, code, stdout)
    if refs is not None:
        want_code, want_digest = refs[inst.index]
        if code != want_code or checks.digest(stdout) != want_digest:
            problems.append(f"exit {code} / digest {checks.digest(stdout)} "
                            f"differs from the reference {want_code} / {want_digest}")
    return problems


class Runner:
    """Runs instances of one workload, counting and reporting failures."""

    def __init__(self, cli, workload, workdir, refs):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.refs = refs
        self.failed_indices = set()
        self.reported = 0

    def run(self, inst):
        code, stdout, seconds, error = call(
            self.cli, inst.argv(write_docs(inst, self.workdir)))
        problems = problems_of(inst, code, stdout, error, self.refs)
        if problems:
            self.fail(inst.index, "; ".join(problems))
        return code, stdout, seconds

    def fail(self, index, why):
        self.failed_indices.add(index)
        if self.reported < MAX_REPORTED_PROBLEMS:
            self.reported += 1
            print(f"perfbench: {self.workload} instance {index}: {why}",
                  file=sys.stderr)


def p90(times) -> float:
    return statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]


def run_timed(runner, seed, seconds):
    """Call instances until the deadline, or until the recorded
    references run out, so that every instance of a seed with
    references is checked against them.  The setup samples are spread
    over the run so that they see the same machine as the calls, and a
    calibration sample before each call measures the host's speed,
    which all times are divided by."""
    insts = workloads.stream(runner.workload, seed)
    if runner.refs is not None:
        insts = islice(insts, len(runner.refs))
    time_setup()                    # may still write bytecode
    setups, times, speeds = [], [], []
    start = perf_counter()
    for inst in insts:
        elapsed = perf_counter() - start
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(time_setup())
        if times and elapsed >= seconds:
            break
        speeds.append(calibrate.sample())
        times.append(runner.run(inst)[2])
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup())
    speed = calibrate.speed(speeds)
    print(f"perfbench: host ran {speed:.3f}x slower than the calibration host "
          f"({len(speeds)} samples)", file=sys.stderr)
    return len(times), {
        "setup_s": statistics.median(setups) / speed,
        "instances_per_s": len(times) / sum(times) * speed,
        "instance_s.p50": statistics.median(times) / speed,
        "instance_s.p90": p90(times) / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(t: spans.Tracer) -> dict:
    from raagfp.coabelian import matrix_rank

    c, s, n = t.calls, t.self_s, t.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def distinct(name):             # distinct inputs per call
        return ratio(len(t.inputs[name]), c[name])

    subsets = sum(count * sum(comb(len(m.vertices), k)
                              for k in range(matrix_rank(m) + 1))
                  for m, count in t.inputs["coabelian.enumerate_patterns"].items())
    out = {}
    for name in ("graph.enumerate_cliques", "fpcheck.character_complex",
                 "fpcheck.analyze", "fpcheck.max_fp", "fpcheck.is_fg",
                 "flag_homology.link_complex", "flag_homology.reduced_homology",
                 "flag_homology.homology", "fpmatrix.rank_fp",
                 "coabelian.enumerate_patterns"):
        out[f"{name}.calls"] = c[name]
        out[f"{name}.self_s"] = s[name]
    for name in ("flag_homology.simplicial_chain_complex",
                 "coabelian.fg_coabelian", "coabelian.fpn_coabelian",
                 "coabelian.is_full", "cli.main"):
        out[f"{name}.self_s"] = s[name]
    rank = "fpmatrix.rank_fp"
    out.update({
        "graph.cliques": n["graph.cliques"],
        "graph.enumerate_cliques.distinct_ratio": distinct("graph.enumerate_cliques"),
        "fpcheck.chain_dim": n["fpcheck.chain_dim"],
        f"{rank}.nnz": n[f"{rank}.nnz"],
        f"{rank}.rows": n[f"{rank}.rows"],
        f"{rank}.cols": n[f"{rank}.cols"],
        f"{rank}.max_dim": t.maxima[f"{rank}.max_dim"],
        f"{rank}.rank": n[f"{rank}.rank"],
        f"{rank}.s_per_nnz": ratio(s[rank], n[f"{rank}.nnz"]),
        f"{rank}.distinct_ratio": distinct(rank),
        "coabelian.enumerate_patterns.distinct_ratio": distinct(
            "coabelian.enumerate_patterns"),
        "coabelian.patterns": n["coabelian.patterns"],
        "coabelian.subsets": subsets,
        "coabelian.patterns_per_subset": ratio(n["coabelian.patterns"], subsets),
    })
    return out


def run_traced(runner, seed):
    """Each instance of the workload's fixed prefix runs plain and then
    traced, back to back, so both see the same machine."""
    count = workloads.WORKLOADS[runner.workload].traced_instances
    insts = list(islice(workloads.stream(runner.workload, seed), count))
    tracer = spans.Tracer()
    selftest, sites = [], set()
    plain_wall = traced_wall = stdout_bytes = full = 0
    for inst in insts:
        code0, out0, seconds0 = runner.run(inst)
        installed, restore = spans.install(tracer)
        try:
            code1, out1, seconds1 = runner.run(inst)
        finally:
            restore()
        sites.update(installed)
        plain_wall += seconds0
        traced_wall += seconds1
        stdout_bytes += len(out1.encode())
        if (code0, checks.digest(out0)) != (code1, checks.digest(out1)):
            selftest.append(f"instance {inst.index}: traced report differs")
        if inst.command == "coabelian" and out1:
            full += json.loads(out1)["results"]["fullness"]["full"]

    missing = spans.REQUIRED_SITES - sites
    if missing:
        selftest.append(f"bindings not wrapped: {sorted(missing)}")
    patterns = tracer.calls["coabelian.enumerate_patterns"]
    expected = 2 * count + full if insts[0].command == "coabelian" else 0
    if patterns != expected:
        selftest.append(f"coabelian.enumerate_patterns.calls {patterns}, "
                        f"expected {expected}")
    if tracer.calls["graph.enumerate_cliques"] == 0:
        selftest.append("graph.enumerate_cliques was never called")
    for why in selftest:
        print(f"perfbench: span self-test: {why}", file=sys.stderr)

    metrics = layer_metrics(tracer)
    metrics.update({
        "cli.stdout_bytes": stdout_bytes,
        "trace.instances": count,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / plain_wall - 1,
    })
    return count, metrics, not selftest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(cli, args.workload, workdir,
                        checks.load_refs(args.workload, args.seed))
        if args.trace:
            attempted, metrics, selftest_ok = run_traced(runner, args.seed)
        else:
            seconds = args.seconds or benchmark_json()["run_seconds"]
            attempted, metrics = run_timed(runner, args.seed, seconds)
            selftest_ok = True
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    if set(metrics) != set(declared):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
                 "do not match BENCHMARK.json")
    failed = len(runner.failed_indices)
    print(json.dumps({
        "correct": failed == 0 and selftest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
