import copy
import json
from pathlib import Path

import numpy as np
import pytest

from antizeno import protocol
from antizeno.config import PRESET_NAMES, ExperimentConfig, preset
from helpers import record_eigh, spied_run


@pytest.fixture(scope="session")
def golden():
    """Frozen oracle values (dense-diagonalization and full-simulation runs,
    cross-checked at two Fock cutoffs before the protocol build)."""
    path = Path(__file__).parent / "data" / "golden.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Every ``np.linalg.eigh`` call while the test runs, as (dimension,
    bytes of the matrix): the suite's one eigensolve counter."""
    return record_eigh(monkeypatch)


# The configs the session builds once: every preset, and a small survival
# run (two couplings, a detector that misses, a few short jittered runs).
SHARED_CONFIGS = {
    **{name: preset(name) for name in PRESET_NAMES},
    "survival": ExperimentConfig(g_values=(0.5, 1.0), epsilon_values=(0.1,), n_max=20,
                                 n_measurements=4, runs=3),
}


@pytest.fixture(scope="session")
def built(tmp_path_factory):
    """``built(name)``: the ``SpiedRun`` of ``SHARED_CONFIGS[name]``, made
    once per session (before any test patches the package) and handed out
    as a deep copy, so no test can change what another reads. A test that
    patches the kernel or the presets makes its own build instead."""
    runs = {name: spied_run(config, tmp_path_factory.mktemp(name))
            for name, config in SHARED_CONFIGS.items()}
    return lambda name: copy.deepcopy(runs[name])


@pytest.fixture
def break_state(monkeypatch):
    """The suite's one corruption hook. ``break_state(event, change, rows)``
    makes each run of the stack rows ``rows`` (all rows if None; rows count
    on across the runs made after install) carry ``change(data)`` of its
    state after its ``event``-th measurement on to the next step unchecked,
    as a numerical breakdown would leave it. Returns the list of (event,
    state kind) of every measurement made, in order."""
    made = []
    real_block, real_measure = protocol._survival_block, protocol.measure_no_click

    def install(event, change, rows=None):
        block = {"rows": range(0), "event": 0}

        def survival_block(prep, times, epsilon):
            first = block["rows"].stop
            block.update(rows=range(first, first + len(times)), event=0)
            return real_block(prep, times, epsilon)

        def measure(state, epsilon):
            prob, post = real_measure(state, epsilon)
            block["event"] += 1
            made.append((block["event"], post.kind))
            hit = [k for k, row in enumerate(block["rows"]) if rows is None or row in rows]
            if block["event"] == event and hit:
                data = np.array(post.data)
                data[hit] = change(data[hit])
                broken = object.__new__(type(post))  # skips the checks that build a state
                object.__setattr__(broken, "kind", post.kind)
                object.__setattr__(broken, "data", data)
                post = broken
            return prob, post

        monkeypatch.setattr(protocol, "_survival_block", survival_block)
        monkeypatch.setattr(protocol, "measure_no_click", measure)
        return made

    return install
