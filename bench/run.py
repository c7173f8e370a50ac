"""antizeno benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop (the next pass starts when the previous one
has finished) from one process, with BLAS pinned to one thread. Each pass
drives the package from outside, through ``antizeno.cli.main`` or
``antizeno.runner.run``, and its output files are checked (see checks.py);
a pass that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: median pass time,
set-up time in fresh interpreters, the peak RSS of a child that runs only
this workload, and the share of passes that succeeded. Pass and set-up
times are rescaled by a calibration kernel timed during and around them
(calibration.py), so that the host's speed drift cancels; the raw times
are on the detail line. ``--trace 1``
alternates untraced and traced passes, checks that both write the same
bytes, and reports the per-layer span metrics of tracer.py plus the
tracing overhead.

Every line but the last goes to stdout as ``detail`` JSON (environment,
sample counts); the last line is the result object.
"""

import os
import sys

# Set before numpy is first imported, in this process and its children. At
# the 82x82 size of most eigenproblems here, two BLAS threads make eigh
# about four times slower than one.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
# Calibration kernel (see calibration.py): it runs every SAMPLE_INTERVAL_S
# during a pass, and KERNEL_UNITS times between two set-up probes.
SAMPLE_INTERVAL_S = 0.4
KERNEL_UNITS = 2
# A run keeps going past --seconds until it has this many passes.
MIN_PASSES = 5
MIN_TRACE_PAIRS = 3

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Per-layer metrics: "<span>.calls" (count), "<span>.busy_s" (inclusive
# time), "<span>.self_s" (time minus child spans); a span name without a dot
# is a whole layer.
PER_LAYER = (
    "cli.main.calls", "cli.main.self_s", "config.busy_s",
    "runner.build_tables.busy_s", "runner.run.self_s", "runner.bytes_written",
    "model.hamiltonian.calls", "model.hamiltonian.busy_s",
    "model.ground_state.calls", "model.ground_state.self_s",
    "model.cutoff_check.busy_s",
    "numkit.hermitian_eig.calls", "numkit.hermitian_eig.busy_s",
    "numkit.hermitian_eig.unique_ratio",
    "dynamics.evolve.pure.calls", "dynamics.evolve.pure.busy_s",
    "dynamics.evolve.density.calls", "dynamics.evolve.density.busy_s",
    "dynamics.state_check.pure.calls", "dynamics.state_check.pure.busy_s",
    "dynamics.state_check.density.calls", "dynamics.state_check.density.busy_s",
    "dynamics.excitation_trace.busy_s",
    "measurement.no_click.pure.calls", "measurement.no_click.pure.self_s",
    "measurement.no_click.density.calls", "measurement.no_click.density.self_s",
    "protocol.prepare_model.calls", "protocol.prepare_model.busy_s",
    "protocol.jitter_schedule.calls", "protocol.jitter_schedule.busy_s",
    "protocol.run_survival.calls", "protocol.run_survival.self_s",
    "protocol.ensemble_survival.self_s", "protocol.sweep_T1.self_s",
    "analysis.fit.calls", "analysis.fit.busy_s",
    "trace.overhead_frac",
)


def per_layer_unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    if metric == "runner.bytes_written":
        return "bytes"
    return "ratio"


# ---------------------------------------------------------------------------
# environment


def _openblas_runtime() -> tuple:
    """(threads, config string) of the OpenBLAS loaded in this process, or
    (None, None) when no OpenBLAS is mapped or it cannot be queried."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None, None
    for lib in sorted(p for p in libs if ".so" in p):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """Environment block; ``valid`` is false when the BLAS pin did not take."""
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads, config = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": config,
        "blas_threads": threads,
        "pinned": {var: os.environ.get(var) for var in BLAS_PIN},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "valid": threads in (1, None),
    }


# ---------------------------------------------------------------------------
# passes


class Bench:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        import checks
        import workloads

        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.jobs = workloads.build_jobs(workload, seed, str(out_dir / "main"))
        (out_dir / "main").mkdir(parents=True)
        self.reference = (
            checks.load_reference(workload) if seed == workloads.DEFAULT_SEED else None
        )
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None, sampler=None) -> tuple[float | None, dict[str, bytes]]:
        """Run and check one pass, traced when a tracer is given; return its
        time (None if it failed) and the bytes of every file it wrote.

        With a calibration ``Sampler``, the kernel samples the host's speed
        during the pass; its run times stay in ``sampler.times`` and the
        time they took is left out of the pass time."""
        import checks
        import workloads

        self.attempted += 1
        sampling = sampler if sampler is not None else contextlib.nullcontext()
        try:
            if tracer is not None:
                tracer.reset()
                tracer.install()
            try:
                with sampling:
                    start = time.perf_counter()
                    paths = workloads.run_pass(self.jobs)
                    elapsed = time.perf_counter() - start
                    if sampler is not None:
                        elapsed -= sampler.spent
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = checks.check_pass(self.jobs, paths, self.reference)
            written = {path: Path(path).read_bytes() for path in paths}
        except Exception:  # a failed pass is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None, {}
        if problems:
            print(f"pass {self.attempted} failed its checks:", *problems[:10],
                  sep="\n  ", file=sys.stderr)
            self.failed += 1
            return None, written
        return elapsed, written

    def probe_command(self, mode: str, tag: str) -> list[str]:
        out = self.out_dir / tag
        out.mkdir()
        return [sys.executable, str(BENCH / "probe.py"), mode, self.workload,
                str(self.seed), str(out)]

    def setup_seconds(self, kernel) -> tuple[list[float], list[float]]:
        """Set-up times of SETUP_PROBES fresh interpreters, and the times of
        the kernel runs before, between and after them."""
        def kernel_s():
            return statistics.fmean(kernel.run() for _ in range(KERNEL_UNITS))

        setup, kernel_times = [], [kernel_s()]
        for i in range(SETUP_PROBES):
            setup.append(float(subprocess.run(
                self.probe_command("setup", f"setup{i}"), check=True,
                capture_output=True, text=True, timeout=120).stdout))
            kernel_times.append(kernel_s())
        return setup, kernel_times

    def peak_rss_mb(self) -> float:
        """Peak RSS of a child that runs one pass and nothing else, as the
        child reports it; the child counts as an attempted pass."""
        proc = subprocess.run(self.probe_command("pass", "rss"), capture_output=True,
                              text=True, timeout=170)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            return 0.0
        return float(proc.stdout)


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from calibration import REFERENCE_S, Calibration, Sampler

    kernel = Calibration()
    kernel.run()  # warm-up
    # Every set-up probe and every pass is divided by the kernel's time
    # around it, so host speed drift cancels (see calibration.py).
    setup, setup_kernel = bench.setup_seconds(kernel)
    setup_rescaled = [
        t * REFERENCE_S / statistics.fmean(setup_kernel[i:i + 2]) for i, t in enumerate(setup)
    ]
    rss = bench.peak_rss_mb()
    sampler = Sampler(kernel, SAMPLE_INTERVAL_S)
    bench.one_pass(sampler=sampler)  # warm-up: lazy imports and first-touch allocations
    # A pass is divided by the mean kernel time over the kernel runs during
    # it and the last one before it.
    before = sampler.times[-1:]
    walls, rescaled, kernel_times = [], [], []
    started = time.perf_counter()
    timed = 0
    while time.perf_counter() - started < seconds or timed < MIN_PASSES:
        elapsed, _ = bench.one_pass(sampler=sampler)
        timed += 1
        window = before + sampler.times
        before = sampler.times[-1:] or before
        if elapsed is not None:
            walls.append(elapsed)
            kernel_times.append(statistics.fmean(window))
            rescaled.append(elapsed * REFERENCE_S / kernel_times[-1])
    if len(walls) < MIN_PASSES:
        raise RuntimeError(f"only {len(walls)} of {timed} timed passes succeeded")
    values = {
        "wall_ref_s": statistics.median(rescaled),
        "setup_s": statistics.median(setup_rescaled),
        "peak_rss_mb": rss,
        "success_rate": 1.0 - bench.failed / bench.attempted,
    }
    detail = {
        "wall_samples": len(walls),
        "wall_s": statistics.median(walls),
        "kernel_s": statistics.median(kernel_times),
        "wall_s_samples": walls,
        "kernel_s_samples": kernel_times,
        "setup_samples": setup,
        "setup_kernel_s_samples": setup_kernel,
        "error_rate": bench.failed / bench.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, detail


def _snapshot(tracer) -> dict:
    values = {"runner.bytes_written": float(tracer.bytes_written)}
    eig = tracer.spans.get("numkit.hermitian_eig")
    values["numkit.hermitian_eig.unique_ratio"] = (
        len(tracer.eig_digests) / eig.calls if eig else 0.0
    )
    for metric in PER_LAYER:
        if metric in values or metric == "trace.overhead_frac":
            continue
        span, field = metric.rsplit(".", 1)
        stat = tracer.layers.get(span) if "." not in span else tracer.spans.get(span)
        field = {"calls": "calls", "busy_s": "busy", "self_s": "self"}[field]
        values[metric] = float(getattr(stat, field)) if stat is not None else 0.0
    return values


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    bench.one_pass()  # warm-up
    plain, traced, snapshots = [], [], []
    started = time.perf_counter()
    pairs = 0
    while time.perf_counter() - started < seconds or pairs < MIN_TRACE_PAIRS:
        times, written = {}, {}
        # alternate which side goes first, so drift hits both sides alike
        for with_trace in ((False, True) if pairs % 2 == 0 else (True, False)):
            times[with_trace], written[with_trace] = bench.one_pass(tracer if with_trace else None)
            if with_trace and times[True] is not None:
                snapshots.append(_snapshot(tracer))
                layer_busy_s = {name: stat.busy for name, stat in sorted(tracer.layers.items())}
        if None not in times.values():
            plain.append(times[False])
            traced.append(times[True])
            if written[True] != written[False]:
                print("traced and untraced passes wrote different bytes", file=sys.stderr)
                bench.failed += 1
        pairs += 1
    if not snapshots or not plain:
        raise RuntimeError("no traced or untraced pass succeeded")
    values = {
        metric: statistics.median(s[metric] for s in snapshots)
        for metric in PER_LAYER if metric != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = {m: {"value": values[m], "unit": per_layer_unit(m)} for m in PER_LAYER}
    detail = {
        "pairs": pairs,
        "traced_pass_s": statistics.median(traced),
        "untraced_pass_s": statistics.median(plain),
        "layer_busy_s": layer_busy_s,
    }
    return metrics, detail


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "spectrum", "noisy_detector"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "antizeno" / "__init__.py").is_file():
        print(f"antizeno sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print(json.dumps({"detail": {"environment": env}}))
    out_dir = BENCH / ".out" / str(os.getpid())
    out_dir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, out_dir)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(bench, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed, **detail}}))
    print(json.dumps({
        "correct": bench.failed == 0 and env["valid"],
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
