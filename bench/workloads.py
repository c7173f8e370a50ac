"""The benchmark's workloads: inputs made from a seed, and one pass of each.

A workload is a list of jobs. A job is one call into the package from
outside: ``antizeno.cli.main(argv)`` when it has ``argv``, otherwise
``antizeno.runner.run(config)``. ``config`` is the configuration the
program must end up with either way; the output checks compare it with the
header of every written file.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

from antizeno import cli, runner
from antizeno.config import PRESET_NAMES, ExperimentConfig, preset

WORKLOADS = ("figures", "spectrum", "noisy_detector")

# Seed of the stored reference tables (the package's default seed).
DEFAULT_SEED = 1234

SPECTRUM_POINTS = 101
SPECTRUM_G_MAX = 2.0
SPECTRUM_N_MAX = 80


@dataclass(frozen=True)
class Job:
    name: str
    config: ExperimentConfig
    argv: tuple[str, ...] | None = None


class PassError(RuntimeError):
    """A CLI job exited with a non-zero code."""


def spectrum_grid(seed: int) -> tuple[float, ...]:
    """101 couplings over [0, 2]: a uniform grid with fixed end points and
    each interior point moved by a seeded draw within +-0.4 of a step."""
    rng = random.Random(seed)
    step = SPECTRUM_G_MAX / (SPECTRUM_POINTS - 1)
    interior = [step * (i + rng.uniform(-0.4, 0.4)) for i in range(1, SPECTRUM_POINTS - 1)]
    return (0.0, *interior, SPECTRUM_G_MAX)


def build_jobs(workload: str, seed: int, out_dir: str) -> list[Job]:
    if workload == "figures":
        jobs = []
        for name in PRESET_NAMES:
            fmt = "json" if name == "fig6" else "csv"
            out = os.path.join(out_dir, f"{name}.{fmt}")
            argv = ("--preset", name, "--seed", str(seed), "--out", out, "--format", fmt)
            config = preset(name).with_overrides(seed=seed, out=out, format=fmt)
            jobs.append(Job(name, config, argv))
        return jobs
    if workload == "spectrum":
        config = ExperimentConfig(
            experiment="fig1",
            g_values=spectrum_grid(seed),
            n_max=SPECTRUM_N_MAX,
            seed=seed,
            out=os.path.join(out_dir, "spectrum.csv"),
        )
        return [Job("spectrum", config)]
    if workload == "noisy_detector":
        config = ExperimentConfig(
            experiment="survival",
            g_values=(0.5, 1.0),
            epsilon_values=(0.1, 0.2),
            omega_t1_values=(2 * math.pi,),
            n_measurements=16,
            runs=20,
            seed=seed,
            out=os.path.join(out_dir, "noisy_detector.csv"),
        )
        return [Job("noisy_detector", config)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def run_pass(jobs: list[Job]) -> list[str]:
    """Run every job once; return the written paths in job order."""
    paths: list[str] = []
    for job in jobs:
        if job.argv is None:
            paths.extend(runner.run(job.config).paths)
            continue
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(list(job.argv))
        if code != 0:
            raise PassError(f"{job.name}: antizeno exited with code {code}")
        paths.extend(printed.getvalue().splitlines())
    return paths
