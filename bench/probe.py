"""Child process of the benchmark; ``run.py`` starts it.

``probe.py setup WORKLOAD SEED OUT_DIR`` prints the seconds from before
``import antizeno`` until the workload's configs are built and validated.
``probe.py pass WORKLOAD SEED OUT_DIR`` runs one pass of the workload and
prints the peak RSS of this process in MiB: ``VmHWM``, the high-water mark
of the memory this program mapped. The parent cannot use the child's
``ru_maxrss`` instead: a child spawned by vfork starts on the parent's
memory, so its ``ru_maxrss`` is at least the parent's RSS.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
start = time.perf_counter()

import workloads  # noqa: E402  (imports antizeno)


def main(mode: str, workload: str, seed: str, out_dir: str) -> int:
    jobs = workloads.build_jobs(workload, int(seed), out_dir)
    if mode == "setup":
        for job in jobs:
            job.config.validate()
        print(time.perf_counter() - start)
    elif mode == "pass":
        workloads.run_pass(jobs)
        with open("/proc/self/status", encoding="utf-8") as status:
            kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        print(kib / 1024.0)
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
