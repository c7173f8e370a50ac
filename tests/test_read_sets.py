"""Each experiment accepts only the fields it reads.

``config.READ_SETS`` declares the fields each experiment reads on top of
``config.ALWAYS_READ``. The invariant is tested on the outputs, not on the
list: on small configs, perturbing a field an experiment declares changes
what a run writes, and perturbing one it does not declare changes nothing
(with the read-sets widened so that validation lets it through). The CLI
refuses every undeclared field that is set, except ``seed``.
"""

import dataclasses
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from antizeno import config as config_module
from antizeno import protocol
from antizeno.cli import main
from antizeno.config import (
    ALWAYS_READ, EXPERIMENTS, INPUT_RULES, PRESET_NAMES, READ_SETS, ExperimentConfig, preset,
)
from antizeno.runner import build_tables, run
from helpers import spied_run

FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))

# Small configs, one per experiment: n_max 12 holds the couplings below to
# the cutoff check, and every ensemble has a few runs and events.
SMALL = {
    "fig1": ExperimentConfig(experiment="fig1", g_values=(0.1, 0.2, 0.3), n_max=12),
    "fig2": ExperimentConfig(experiment="fig2", g_values=(0.2, 0.3), n_max=12,
                             time_max=1.0, time_step=0.5),
    "fig3": ExperimentConfig(experiment="fig3", g_values=(0.1, 0.3), n_max=12,
                             omega_t1_values=(1.0, 2.0), n_measurements=2, jitter_width=0.0),
    "fig4": ExperimentConfig(experiment="fig4", g_values=(0.2, 0.3), n_max=12),
    "fig5": ExperimentConfig(experiment="fig5", g_values=(0.3,), n_max=12,
                             omega_t1_values=(math.pi, 2 * math.pi), n_measurements=3, runs=2),
    "fig6": ExperimentConfig(experiment="fig6", g_values=(0.3,), n_max=12,
                             epsilon_values=(0.0, 0.1), n_measurements=3, runs=2),
    "survival": ExperimentConfig(experiment="survival", g_values=(0.2, 0.3), n_max=12,
                                 n_measurements=3, runs=2),
}

TINY_FIG4_PANELS = {
    "a": {"omega_t1": 2 * math.pi, "n": 3, "jitter": 0.2 * math.pi, "runs": 2},
    "b": {"omega_t1": 0.75 * math.pi, "n": 3, "jitter": 0.2 * math.pi, "runs": 2},
    "c": {"omega_t1": 0.75 * math.pi, "n": 2, "jitter": 0.3 * math.pi, "runs": 3},
}


# How to move each field (but experiment) to another value that passes
# every check but the read-sets and INPUT_RULES.
MOVES = {
    "omega": lambda v: 1.25,
    "omega0": lambda v: 0.8,
    "g_values": lambda v: tuple(g + 0.05 for g in v),
    "n_max": lambda v: v - 1,
    "omega_t1_values": lambda v: tuple(1.1 * w for w in v),
    "ratio": lambda v: 1.5,
    "n_measurements": lambda v: v + 1,
    "jitter_width": lambda v: v + 0.1,
    "runs": lambda v: v + 1,
    "epsilon_values": lambda v: tuple(e + 0.05 for e in v),
    "time_max": lambda v: v + 0.5,
    "time_step": lambda v: v / 2,
    "seed": lambda v: v + 1,
    "out": lambda v: str(Path(v).with_name("moved.csv")),
    "format": lambda v: "json",
}


def perturbed(cfg, name):
    return replace(cfg, **{name: MOVES[name](getattr(cfg, name))})


def written(cfg):
    """What a run of ``cfg`` leaves: each written file's name and its data
    below the metadata (CSV rows, or the JSON ``series``)."""
    files = {}
    for path in run(cfg).paths:
        text = Path(path).read_text(encoding="utf-8")
        files[Path(path).name] = (
            json.loads(text)["series"] if cfg.format == "json"
            else [line for line in text.splitlines() if not line.startswith("#")]
        )
    return files


def breaks_an_input_rule(cfg, name):
    return any(field == name and not holds(getattr(cfg, field), cfg)
               for field, _, holds in INPUT_RULES[cfg.experiment])


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(config_module, "FIG4_PANELS", TINY_FIG4_PANELS)
    monkeypatch.setattr(config_module, "FIG4_PANEL_C_GRID", (0.0, 0.5, 1.0))
    return {e: replace(cfg, out=str(tmp_path / "run.csv")) for e, cfg in SMALL.items()}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_declared_field_changes_the_output(small, experiment):
    # experiment itself is left out: it selects the read-set
    base = small[experiment]
    before = written(base)
    for name in (*ALWAYS_READ[1:], *READ_SETS[experiment]):
        cfg = perturbed(base, name)
        if breaks_an_input_rule(cfg, name):
            # fig3's jitter_width: its only valid value is the one it reads
            with pytest.raises(ValueError, match=f"^{name}: {experiment} needs"):
                cfg.validate()
            continue
        assert written(cfg) != before, name


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_an_undeclared_field_changes_no_table(small, monkeypatch, experiment):
    base = small[experiment]
    undeclared = set(FIELDS) - set(ALWAYS_READ) - set(READ_SETS[experiment])
    monkeypatch.setattr(config_module, "READ_SETS", {e: FIELDS for e in EXPERIMENTS})
    before = written(base)
    for name in sorted(undeclared):
        assert written(perturbed(base, name)) == before, name


def stack_key(times, half_window):
    times = np.atleast_2d(np.asarray(times, dtype=float))
    return times.shape, times.tobytes(), float(half_window)


def judged_stacks(cfg, monkeypatch):
    """The stacks validate judges, each as (event times, half-window), in
    the order it builds them."""
    judged, real_judge = [], config_module.jitter_keeps_order

    def judge(times, half_window):
        judged.append(stack_key(times, half_window))
        return real_judge(times, half_window)

    monkeypatch.setattr(config_module, "jitter_keeps_order", judge)
    cfg.validate()
    return judged


def drawn_stacks(draws):
    """The distinct stacks of a build's ``draws`` (see ``helpers.SpiedRun``):
    every jitter_times stack before its draw, and every sweep_T1 stack (one
    per coupling, all the same) unjittered."""
    keys = {}
    for kind, *args in draws:
        if kind == "jitter":
            base, half_window, _ = args
            keys[stack_key(base, half_window)] = None
        else:
            periods, n, ratio = args
            keys[stack_key(protocol._two_period_times(np.asarray(periods, float), ratio, n), 0.0)] = None
    return list(keys)


STACK_CASES = [("preset", e) for e in PRESET_NAMES] + [("small", e) for e in EXPERIMENTS]


@pytest.mark.parametrize("kind,experiment", STACK_CASES, ids=[f"{k}-{e}" for k, e in STACK_CASES])
def test_validate_judges_exactly_the_stacks_the_run_draws(request, monkeypatch, tmp_path, built,
                                                          kind, experiment):
    # the order rule judges each stack of config.plan once, the phase rules
    # build none, and the run draws those stacks and no others: fig3 one
    # (periods, N) sweep, fig4 its three panels, fig5 one (1, N) stack per
    # period, fig6 and survival one; fig1 and fig2 none. The small fig4
    # judges and draws the patched panels.
    if kind == "preset":
        cfg, draws = preset(experiment), built(experiment).draws
    else:
        cfg = request.getfixturevalue("small")[experiment]
        draws = spied_run(cfg, tmp_path).draws
    judged = judged_stacks(cfg, monkeypatch)
    assert judged == drawn_stacks(draws)
    shapes = [shape for shape, _, _ in judged]
    if kind == "preset":
        assert shapes == {"fig1": [], "fig2": [], "fig3": [(100, 8)], "fig4": [(1, 16), (1, 20), (1, 3)],
                          "fig5": [(1, 16)] * 3, "fig6": [(1, 16)]}[experiment]
    elif experiment == "fig4":
        assert shapes == [(1, TINY_FIG4_PANELS[name]["n"]) for name in "abc"]


REFUSED = [
    (e, name) for e in EXPERIMENTS for name in FIELDS
    if name not in (*ALWAYS_READ, *READ_SETS[e], "seed")
]


def test_29_pairs_are_refused():
    # of the 32 (experiment, field) pairs that were accepted and changed no
    # table, only seed on fig1, fig2 and fig3 stays accepted
    assert len(REFUSED) == 29


@pytest.mark.parametrize("experiment,name", REFUSED)
def test_an_unread_field_exits_2_naming_it(tmp_path, capsys, experiment, name):
    start = preset(experiment) if experiment in PRESET_NAMES else ExperimentConfig()
    value = getattr(perturbed(start, name), name)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, name: value,
                                    "out": str(tmp_path / "x.csv")}))
    start_flags = ["--preset", experiment] if experiment in PRESET_NAMES else []
    assert main(start_flags + ["--config", str(cfg_path)]) == 2
    assert f"{name}: {experiment} does not read it" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_fig4_refuses_a_runs_flag(tmp_path, capsys):
    assert main(["--preset", "fig4", "--runs", "5", "--out", str(tmp_path / "x.csv")]) == 2
    assert "runs: fig4 does not read it" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_seed_is_accepted_everywhere(experiment):
    start = preset(experiment) if experiment in PRESET_NAMES else ExperimentConfig()
    replace(start, seed=7).validate()


class TestCommensurateFlag:
    """Only builds that run a two-period schedule carry the flag, set from
    the schedules that ran."""

    @pytest.mark.parametrize("experiment", ["fig1", "fig2"])
    def test_absent_without_a_schedule(self, small, experiment):
        metadata, _ = build_tables(small[experiment])
        assert "commensurate_no_jitter" not in metadata

    def test_fig4_panels_always_jitter(self, small):
        metadata, _ = build_tables(replace(small["fig4"], ratio=1.0))
        assert metadata["commensurate_no_jitter"] is False

    def test_fig3_sweep_runs_unjittered(self, small):
        assert build_tables(small["fig3"])[0]["commensurate_no_jitter"] is False
        metadata, _ = build_tables(replace(small["fig3"], ratio=2.0))
        assert metadata["commensurate_no_jitter"] is True
