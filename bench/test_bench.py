"""Tests of the benchmark itself: its failure count, its output checks and
its tracer. Run with ``python -m pytest bench``."""

import dataclasses
from pathlib import Path

import pytest

import run  # noqa: F401  (pins BLAS before numpy loads)
import checks
import workloads
from tracer import Tracer

import antizeno.runner

# Spans each workload must record (it exercises them) and spans it must not
# (it bypasses them); these are the per-layer sides of the predicted links.
EXERCISED = {
    "figures": (
        "cli.main", "runner.build_tables", "runner.run", "model.hamiltonian",
        "model.ground_state", "model.cutoff_check", "numkit.hermitian_eig",
        "dynamics.evolve.pure", "dynamics.evolve.density",
        "dynamics.state_check.pure", "dynamics.state_check.density",
        "dynamics.excitation_trace", "measurement.no_click.pure",
        "measurement.no_click.density", "protocol.prepare_model",
        "protocol.jitter_schedule", "protocol.run_survival",
        "protocol.ensemble_survival", "protocol.sweep_T1", "analysis.fit",
    ),
    "spectrum": (
        "runner.build_tables", "runner.run", "model.hamiltonian", "model.ground_state",
        "model.cutoff_check", "numkit.hermitian_eig", "protocol.prepare_model",
        "analysis.fit",
    ),
    "noisy_detector": (
        "runner.build_tables", "runner.run", "model.hamiltonian", "model.ground_state",
        "model.cutoff_check", "numkit.hermitian_eig", "dynamics.evolve.density",
        "dynamics.state_check.density", "measurement.no_click.density",
        "protocol.prepare_model", "protocol.jitter_schedule", "protocol.run_survival",
        "protocol.ensemble_survival",
    ),
}
BYPASSED = {
    "figures": (),
    "spectrum": (
        "cli.main", "dynamics.evolve.pure", "dynamics.evolve.density",
        "dynamics.state_check.pure", "dynamics.state_check.density",
        "measurement.no_click.pure", "measurement.no_click.density",
        "protocol.jitter_schedule", "protocol.run_survival",
    ),
    "noisy_detector": (
        "cli.main", "dynamics.evolve.pure", "measurement.no_click.pure",
        "dynamics.excitation_trace", "protocol.sweep_T1", "analysis.fit",
    ),
}


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 99])
def test_corrupted_table_counts_as_failure(tmp_path, monkeypatch, seed):
    bench = run.Bench("noisy_detector", seed, tmp_path)
    elapsed, _ = bench.one_pass()
    assert elapsed is not None and (bench.attempted, bench.failed) == (1, 0)

    clean = antizeno.runner.ensemble_survival

    def corrupted(*args, **kwargs):
        trace = clean(*args, **kwargs)
        return dataclasses.replace(trace, single_mean=trace.single_mean + 1e-6)

    monkeypatch.setattr(antizeno.runner, "ensemble_survival", corrupted)
    elapsed, _ = bench.one_pass()
    assert elapsed is None and (bench.attempted, bench.failed) == (2, 1)


def test_edited_file_fails_reference_comparison(tmp_path):
    jobs = workloads.build_jobs("spectrum", workloads.DEFAULT_SEED, str(tmp_path))
    paths = workloads.run_pass(jobs)
    reference = checks.load_reference("spectrum")
    assert checks.check_pass(jobs, paths, reference) == []

    output = Path(paths[0])
    lines = output.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[header + 1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-8)  # r_squared: no invariant covers it
    lines[header + 1] = ",".join(cells)
    output.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_pass(jobs, paths, None) == []
    assert checks.check_pass(jobs, paths, reference)


def test_tracer_wraps_every_binding():
    tracer = Tracer()
    originals = tracer.public_functions()
    import antizeno.cli as cli
    import antizeno.dynamics as dynamics
    import antizeno.model as model
    import antizeno.protocol as protocol
    import antizeno.runner as runner

    bindings = [
        (protocol, "evolve"), (protocol, "measure_no_click"),
        (runner, "ensemble_survival"), (runner, "sweep_T1"), (runner, "excitation_trace"),
        (model, "hermitian_eig"), (protocol, "hermitian_eig"), (dynamics, "hermitian_eig"),
        (cli, "run"),
    ]
    with tracer:
        assert tracer.unwrapped_bindings() == []
        for module, name in bindings:
            assert getattr(module, name) not in originals, f"{module.__name__}.{name}"
    for module, name in bindings:
        assert getattr(module, name) in originals


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_records_layers_and_writes_same_bytes(tmp_path, workload):
    jobs = workloads.build_jobs(workload, 7, str(tmp_path))
    plain = {p: Path(p).read_bytes() for p in workloads.run_pass(jobs)}
    with Tracer() as tracer:
        paths = workloads.run_pass(jobs)
    traced = {p: Path(p).read_bytes() for p in paths}
    assert traced == plain

    calls = {name: stat.calls for name, stat in tracer.spans.items()}
    assert [s for s in EXERCISED[workload] if not calls.get(s)] == []
    assert [s for s in BYPASSED[workload] if calls.get(s)] == []
    assert tracer.layers["config"].busy > 0
    assert tracer.bytes_written == sum(len(b) for b in traced.values())
