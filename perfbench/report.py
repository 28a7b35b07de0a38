"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed 0]

Each run is a fresh ``perfbench/run.py`` process, one workload at a
time, timed for run_seconds from BENCHMARK.json.  Prints each
end-to-end metric with its unit and sample count, the fail ratio, and
each per-layer metric with its share of the traced wall time where it
is a self time.  Exits 1 when any run fails, reports
an incorrect result, has a fail ratio above 0 or fails its span
self-test.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import workloads


def run(workload, seed, trace) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: run.py --trace {trace} exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def show(workload, result, trace) -> bool:
    attempted, failed = result["attempted"], result["failed"]
    kind = "per-layer, traced" if trace else "end-to-end"
    print(f"\n{workload} ({kind}): correct={result['correct']}")
    metrics = dict(result["metrics"])
    metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    wall = metrics.get("trace.wall_s", {}).get("value")
    for name, m in metrics.items():
        note = ""
        if name.startswith("instance_s.") or name == "fail_ratio":
            note = f"  (n={attempted})"
        elif wall and name.endswith(".self_s"):
            note = f"  ({100 * m['value'] / wall:.1f}% of traced wall)"
        value = m["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:45s} {shown} {m['unit']:<6s}{note}")
    return result["correct"] and failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run(workload, args.seed, trace)
            ok = result is not None and show(workload, result, trace) and ok
    print("\nall correct" if ok else "\nFAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
