import copy
import json
from pathlib import Path

import numpy as np
import pytest

from antizeno import protocol
from helpers import SHARED_CONFIGS, record_eigh, spied_run


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
    as a numerical breakdown would leave it. The data is the density
    matrices of a run at epsilon > 0 and its amplitudes in the chain
    eigenbasis at epsilon = 0 (``protocol._no_click_step``). Returns the
    list of (event, state kind) of every measurement made, in order."""
    made = []
    real_block = protocol._survival_block
    real_measure, real_step = protocol.measure_no_click, protocol._no_click_step

    def install(event, change, rows=None):
        block = {"rows": range(0), "event": 0}

        def survival_block(prep, times, epsilon):
            first = block["rows"].stop
            block.update(rows=range(first, first + len(times)), event=0)
            return real_block(prep, times, epsilon)

        def corrupted(kind, data):
            """Count one measurement; return its post-state data, broken if
            this is the event and the block holds a broken row."""
            block["event"] += 1
            made.append((block["event"], kind))
            hit = [k for k, row in enumerate(block["rows"]) if rows is None or row in rows]
            if block["event"] != event or not hit:
                return None
            data = np.array(data)
            data[hit] = change(data[hit])
            return data

        def measure(state, epsilon):
            prob, post = real_measure(state, epsilon)
            data = corrupted(post.kind, post.data)
            if data is not None:
                broken = object.__new__(type(post))  # skips the checks that build a state
                object.__setattr__(broken, "kind", post.kind)
                object.__setattr__(broken, "data", data)
                post = broken
            return prob, post

        def step(amplitudes, projector):
            prob, post = real_step(amplitudes, projector)
            data = corrupted("pure", post)
            return prob, (post if data is None else data)

        monkeypatch.setattr(protocol, "_survival_block", survival_block)
        monkeypatch.setattr(protocol, "measure_no_click", measure)
        monkeypatch.setattr(protocol, "_no_click_step", step)
        return made

    return install
