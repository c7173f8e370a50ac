"""Write reference.json: every table of every workload at the reference seed.

    python3 bench/make_reference.py

Regenerate only in a change that means to move the physics, and say so in
that change; a speed-up must leave the stored tables matching to 1e-9.
The seed-independent checks must pass before anything is written.
"""

import json
import math
import shutil
import sys
import tempfile

import run  # noqa: F401  (pins BLAS and puts src on the path before numpy loads)

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out_root = run.BENCH / ".out"
    out_root.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=out_root)
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build_jobs(workload, workloads.DEFAULT_SEED, out_dir)
            problems, tables = checks.read_pass(jobs, workloads.run_pass(jobs))
            if problems:
                print(f"{workload}: checks failed", *problems, sep="\n  ", file=sys.stderr)
                return 1
            reference[workload] = {
                name: {col: [None if math.isnan(v) else v for v in values]
                       for col, values in table.items()}
                for name, table in tables.items()
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    payload = {"seed": workloads.DEFAULT_SEED, "tolerance": checks.TOLERANCE,
               "workloads": reference}
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
