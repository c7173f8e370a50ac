"""Inputs the test modules share: the resonant model, the sqrt(2) period
ratio of every preset, random states as plain arrays, the configs the
session builds once, and a run with the suite's spies on."""

import math
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from antizeno import protocol, runner
from antizeno.config import PRESET_NAMES, ExperimentConfig, preset
from antizeno.model import ModelParams

SQRT2 = math.sqrt(2.0)

# The configs the session builds once (the ``built`` fixture): every preset,
# and a small survival run (two couplings, a detector that misses, a few
# short jittered runs).
SHARED_CONFIGS = {
    **{name: preset(name) for name in PRESET_NAMES},
    "survival": ExperimentConfig(g_values=(0.5, 1.0), epsilon_values=(0.1,), n_max=20,
                                 n_measurements=4, runs=3),
}


def resonant(g, n_max=40, kind="rabi"):
    """The model at omega = omega0 = 1 with coupling g/omega."""
    return ModelParams(1.0, g, n_max, kind)


def random_state(dim, seed):
    """A random normalized complex amplitude vector."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim, seed):
    """A random full-rank density matrix of unit trace."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def record_eigh(patch) -> list:
    """Every ``np.linalg.eigh`` call while ``patch`` holds, as (dimension,
    bytes of the matrix)."""
    calls = []
    real = np.linalg.eigh

    def recording(a, *args, **kwargs):
        calls.append((np.shape(a)[-1], np.asarray(a).tobytes()))
        return real(a, *args, **kwargs)

    patch.setattr(np.linalg, "eigh", recording)
    return calls


@dataclass
class SpiedRun:
    """One ``runner.run`` of a config to CSV, then its tables written again
    as JSON, and what the spies saw meanwhile:

    - ``eigh_dims``: the dimension of every eigensolve, in order;
    - ``fits``: the fit functions read from runner's namespace, in order;
    - ``touched``: any process-wide state set (the umask, the warnings
      filters), which a run must leave alone;
    - ``draws``: every ``jitter_times`` call as ("jitter", base, half_window,
      runs) and every ``sweep_T1`` call as ("sweep", T1_values, N, ratio);
    - ``seedings``: how many per-row seeds ``protocol.jitter_schedule`` took;
    - ``prepared``: the coupling g of every ``prepare_model`` call, and
      ``solved`` the models in the first call's memo once the build ends.
    """

    metadata: dict
    tables: dict
    paths: list
    json_path: str
    eigh_dims: list
    fits: list
    touched: list
    draws: list
    seedings: int
    prepared: list
    solved: frozenset


def spied_run(config, directory) -> SpiedRun:
    """Run ``config`` to ``directory`` with every spy of ``SpiedRun`` on."""
    fits, touched, draws, seedings, prepared, memos = [], [], [], [], [], []
    with pytest.MonkeyPatch.context() as patch:
        eigh = record_eigh(patch)
        for law in ("fit_quadratic_origin", "fit_exponential"):
            def fit(x, y, law=law, real=getattr(runner, law)):
                fits.append(law)
                return real(x, y)
            patch.setattr(runner, law, fit)
        for module, attr in ((os, "umask"), (warnings, "catch_warnings"), (warnings, "simplefilter")):
            def spy(*args, attr=attr, real=getattr(module, attr), **kwargs):
                touched.append(attr)
                return real(*args, **kwargs)
            patch.setattr(module, attr, spy)

        def jitter(base, half_window, runs, seed, real=runner.jitter_times):
            draws.append(("jitter", np.array(base), half_window, runs))
            return real(base, half_window, runs, seed)

        def sweep(prep, N, T1_values, ratio, epsilon, real=runner.sweep_T1):
            draws.append(("sweep", tuple(T1_values), N, ratio))
            return real(prep, N, T1_values, ratio, epsilon)

        def schedule(times, half_window, seeds, real=protocol.jitter_schedule):
            seedings.extend(seeds)
            return real(times, half_window, seeds)

        def prepare(params, solved, real=runner.prepare_model):
            prepared.append(params.g)
            memos.append(solved)
            return real(params, solved)

        patch.setattr(runner, "jitter_times", jitter)
        patch.setattr(runner, "sweep_T1", sweep)
        patch.setattr(protocol, "jitter_schedule", schedule)
        patch.setattr(runner, "prepare_model", prepare)
        csv = runner.run(replace(config, out=str(Path(directory) / f"{config.experiment}.csv"),
                                 format="csv"))
        # the JSON writer runs on the same tables, with no second build
        patch.setattr(runner, "build_tables", lambda c: (csv.metadata, csv.tables))
        json_path = str(Path(directory) / f"{config.experiment}.json")
        runner.run(replace(config, out=json_path, format="json"))
    return SpiedRun(csv.metadata, csv.tables, csv.paths, json_path, [dim for dim, _ in eigh], fits,
                    touched, draws, len(seedings), prepared, frozenset(memos[0]))
