"""Record the reference exit codes and stdout digests of the reference seed.

    python3 perfbench/record_refs.py

Writes perfbench/refs/<workload>.json for every workload: the exit
code and the first 16 hex digits of the stdout sha256 of the first
REF_COUNT instances of seed checks.REF_SEED, plus the provenance of the
recording.  A timed run of that seed stops when the references run
out.  Refuses to record when any instance fails its oracle checks.
Re-record only when a change to the reports is intended.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
from itertools import islice

import checks
import run
import workloads

REF_COUNT = 1200                # instances recorded per workload


def main() -> int:
    cli = run.load_cli()
    workdir = os.path.join(run.ROOT, ".bench_work", f"refs-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in sorted(workloads.WORKLOADS):
            runner = run.Runner(cli, name, workdir, refs=None)
            rows = []
            for inst in islice(workloads.stream(name, checks.REF_SEED), REF_COUNT):
                code, stdout, _ = runner.run(inst)
                rows.append([code, checks.digest(stdout)])
            if runner.failed_indices:
                print(f"{name}: {len(runner.failed_indices)} instances fail; "
                      "nothing recorded", file=sys.stderr)
                return 1
            doc = {"workload": name, "seed": checks.REF_SEED, "count": len(rows),
                   "digest": f"sha256 of stdout, first {checks.DIGEST_CHARS} hex digits",
                   "nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "instances": rows}
            path = os.path.join(checks.REFS_DIR, f"{name}.json")
            os.makedirs(checks.REFS_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))
                fh.write("\n")
            print(f"{name}: recorded {len(rows)} instances of seed {checks.REF_SEED}")
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
