import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from antizeno.analysis import fit_exponential, fit_quadratic_origin
from antizeno.config import (
    EXPERIMENTS, FIG4_PANELS, FORMATS, PRESET_NAMES, ExperimentConfig, couplings, largest_model,
    model_params, preset,
)
from antizeno.model import ModelParams, ground_state
from antizeno import config as config_module
from antizeno import protocol
from antizeno import runner as runner_module
from antizeno.runner import build_tables
from helpers import SHARED_CONFIGS, spied_run
from oracle import jitter_mean_survival, oracle_tables


def columns_of(tables, name="data"):
    return tuple(tables[name])


def n_rows(table):
    """Row count of a column table, whose columns must all be that long."""
    lengths = {len(cells) for cells in table.values()}
    assert len(lengths) == 1, lengths
    return lengths.pop()


def row_groups(table, key):
    """(value, rows) for each value of column ``key`` in order of first
    appearance; rows is the table restricted to the rows holding it."""
    return [(value, {name: [c for c, k in zip(cells, table[key]) if k == value]
                     for name, cells in table.items()})
            for value in dict.fromkeys(table[key])]


def read_csv_output(path):
    """(metadata, table) of one CSV output file, read back from disk: the
    ``# key = json`` header lines and every cell as a float."""
    metadata, rows = {}, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if sep:
                metadata[key] = json.loads(value)
        else:
            rows.append(line.split(","))
    header, *cells = rows
    return metadata, {name: [float(c) for c in column] for name, column in zip(header, zip(*cells))}


class TestFig2Builder:
    def test_schema_and_values(self):
        cfg = ExperimentConfig(
            experiment="fig2", g_values=(0.0, 1.0), n_max=20,
            time_max=2.0, time_step=0.5,
        )
        _, tables = build_tables(cfg)
        table = tables["data"]
        assert tuple(table) == ("omega_t", "p1e_g_over_omega_0", "p1e_g_over_omega_1")
        omega_t = table["omega_t"]
        assert omega_t == [0.0, 0.5, 1.0, 1.5, 2.0]
        # g = 0: projected vacuum stays unexcited
        assert all(v == 0.0 for v in table["p1e_g_over_omega_0"])
        # g = 1: excitation starts at zero and oscillates upward
        assert table["p1e_g_over_omega_1"][0] == pytest.approx(0.0, abs=1e-12)
        assert max(table["p1e_g_over_omega_1"]) > 0.05


    def test_preset_column_names(self):
        cfg = replace(preset("fig2"), time_max=0.1, time_step=0.05)
        _, tables = build_tables(cfg)
        assert tuple(tables["data"]) == (
            "omega_t", "p1e_g_over_omega_0.333333", "p1e_g_over_omega_0.666667",
            "p1e_g_over_omega_1",
        )

    def test_couplings_that_share_a_column_name_rejected(self):
        # both would be named p1e_g_over_omega_0.123456, and one column lost
        cfg = ExperimentConfig(experiment="fig2", g_values=(0.1234561, 0.1234562), n_max=20)
        with pytest.raises(ValueError, match="^g_values: fig2 needs couplings distinct to 6"):
            build_tables(cfg)


class TestFig3Builder:
    def test_schema_and_fit_columns(self):
        cfg = ExperimentConfig(
            experiment="fig3", g_values=(0.0, 0.5, 1.0), n_max=20,
            n_measurements=4, omega_t1_values=(1.0, 2.0, 3.0, 4.0, 5.0), jitter_width=0.0,
        )
        metadata, tables = build_tables(cfg)
        table = tables["data"]
        assert tuple(table) == (
            "g_over_omega", "mean_final_survival", "gaussian_rate", "gaussian_r_squared"
        )
        survival = table["mean_final_survival"]
        assert survival[0] == pytest.approx(1.0, abs=1e-12)
        assert survival[0] > survival[1] > survival[2]
        [health] = metadata["exponential_fits"]["data"]
        assert health["n_dropped"] == 0 and health["residual_max"] > 0

    def test_one_period_sweeps_that_period(self):
        # the first period of the preset grid alone; the values were pinned
        # when this sweep was still set as a one-point period window
        cfg = replace(preset("fig3"), omega_t1_values=(2 * math.pi * 0.1,), g_values=(0.0, 0.5, 1.0))
        survival = build_tables(cfg)[1]["data"]["mean_final_survival"]
        expected = [0.9999999999999997, 0.36255587651402577, 0.014453759506127118]
        assert survival == pytest.approx(expected, rel=0, abs=1e-12)

    def test_sweeps_the_periods_it_is_given(self, monkeypatch):
        # the builder hands omega_t1_values to sweep_T1 as they are, in
        # order, with each model in units of omega (omega0/omega = 0.5)
        swept = []
        real = runner_module.sweep_T1

        def recording(prep, N, T1_values, ratio, epsilon):
            swept.append((prep.params.omega0, prep.params.g, list(T1_values)))
            return real(prep, N, T1_values, ratio, epsilon)

        monkeypatch.setattr(runner_module, "sweep_T1", recording)
        cfg = replace(preset("fig3"), omega=2.0, omega_t1_values=(3.0, 1.0), g_values=(0.0, 0.5))
        build_tables(cfg)
        assert swept == [(0.5, 0.0, [3.0, 1.0]), (0.5, 0.5, [3.0, 1.0])]

    def test_single_coupling_rejected(self):
        cfg = ExperimentConfig(experiment="fig3", g_values=(0.5,), n_max=16)
        with pytest.raises(ValueError, match="at least 2 couplings"):
            build_tables(cfg)


def test_scalar_slots_reject_multiple_values():
    cfg = ExperimentConfig(
        experiment="fig6", g_values=(0.5, 1.0), n_max=16, n_measurements=2, runs=1
    )
    with pytest.raises(ValueError, match="exactly one coupling"):
        build_tables(cfg)
    cfg = ExperimentConfig(
        experiment="survival", g_values=(0.5,), omega_t1_values=(1.0, 2.0),
        n_max=16, n_measurements=2, runs=1,
    )
    with pytest.raises(ValueError, match="exactly one omega_t1"):
        build_tables(cfg)


TINY_FIG4_PANELS = {
    "a": {"omega_t1": 2 * math.pi, "n": 3, "jitter": 0.2 * math.pi, "runs": 2},
    "b": {"omega_t1": 0.75 * math.pi, "n": 4, "jitter": 0.2 * math.pi, "runs": 2},
    "c": {"omega_t1": 0.75 * math.pi, "n": 2, "jitter": 0.3 * math.pi, "runs": 3},
}


class TestFig4Builder:
    @pytest.fixture
    def tiny_panels(self, monkeypatch):
        # config holds the one copy of the panels: validate judges them and
        # the run draws them
        monkeypatch.setattr(config_module, "FIG4_PANELS", TINY_FIG4_PANELS)
        monkeypatch.setattr(config_module, "FIG4_PANEL_C_GRID", (0.0, 0.5, 1.0))

    def test_three_panels(self, tiny_panels):
        cfg = ExperimentConfig(experiment="fig4", g_values=(0.5, 1.0), n_max=20)
        metadata, tables = build_tables(cfg)
        assert set(tables) == {"a", "b", "c"}
        assert metadata["fig4_panels"]["a"]["runs"] == 2
        assert tuple(tables["a"]) == (
            "event", "omega_t", "single_mean", "single_std", "cumulative_mean", "cumulative_std"
        )
        assert n_rows(tables["a"]) == 3
        # panel b: one block of rows per coupling with a shared fit
        assert tuple(tables["b"])[:3] == ("g_over_omega", "event", "omega_t")
        assert n_rows(tables["b"]) == 2 * 4
        # each panel-b fit reports its dropped events and residual
        assert [f["g_over_omega"] for f in metadata["exponential_fits"]["b"]] == [0.5, 1.0]
        assert all(f["n_dropped"] == 0 for f in metadata["exponential_fits"]["b"])
        # panel c: one row per grid point
        assert tuple(tables["c"]) == (
            "g_over_omega", "mean_single_survival", "chi_bar_fit", "r_squared"
        )
        assert n_rows(tables["c"]) == 3
        pbar = tables["c"]["mean_single_survival"]
        assert pbar[0] == pytest.approx(1.0, abs=1e-12)
        assert pbar[2] < pbar[1] < pbar[0]

    def test_draws_the_panels_config_holds(self, tiny_panels, monkeypatch):
        # every panel table has the patched panel's event count, and each
        # panel draws its own (runs, n) stack with its own window, once
        drawn = []
        real = runner_module.jitter_times

        def recording(base, half_window, runs, seed):
            drawn.append((len(base), half_window, runs))
            return real(base, half_window, runs, seed)

        monkeypatch.setattr(runner_module, "jitter_times", recording)
        cfg = ExperimentConfig(experiment="fig4", g_values=(0.5, 1.0), n_max=20)
        metadata, tables = build_tables(cfg)
        a, b, c = (TINY_FIG4_PANELS[name] for name in "abc")
        assert drawn == [(p["n"], p["jitter"], p["runs"]) for p in (a, b, c)]
        assert tables["a"]["event"] == list(range(1, a["n"] + 1))
        assert [value for value, _ in row_groups(tables["b"], "g_over_omega")] == [0.5, 1.0]
        assert all(rows["event"] == list(range(1, b["n"] + 1))
                   for _, rows in row_groups(tables["b"], "g_over_omega"))
        assert tables["c"]["g_over_omega"] == [0.0, 0.5, 1.0]
        assert metadata["fig4_panels"] == TINY_FIG4_PANELS

    def test_panel_b_rates_follow_the_exact_jitter_mean(self, built):
        # each coupling's fit_rate is the decay rate of the cumulative mean:
        # within 10% (a 20-run mean) of the rate of the exact jitter mean,
        # fitted here with plain polyfit over events 1..n
        tables = built("fig4").tables
        b = FIG4_PANELS["b"]
        base = protocol.two_period_schedule(b["omega_t1"], math.sqrt(2.0), b["n"])
        for g, rows in row_groups(tables["b"], "g_over_omega"):
            exact = jitter_mean_survival(ModelParams(1.0, g, 40), base, b["jitter"], 0.0)
            slope, _ = np.polyfit(np.arange(1.0, b["n"] + 1), np.log(exact), 1)
            assert rows["fit_rate"][0] == pytest.approx(-slope, rel=0.1), g

    def test_panel_c_averages_every_event(self):
        # mean_single_survival is the mean over all events of each panel-c
        # ensemble, rebuilt here from the panel's own schedule and draws
        cfg = ExperimentConfig(experiment="fig4", g_values=(0.5, 1.0), n_max=20)
        _, tables = build_tables(cfg)
        c = FIG4_PANELS["c"]
        base = protocol.two_period_schedule(c["omega_t1"], cfg.ratio, c["n"])
        times = protocol.jitter_times(base, c["jitter"], c["runs"], cfg.seed)
        expected = [
            np.mean(protocol.ensemble_survival(
                protocol.prepare_model(ModelParams(cfg.omega0 / cfg.omega, g, cfg.n_max)),
                times, cfg.epsilon_values[0]).single_mean)
            for g in config_module.FIG4_PANEL_C_GRID
        ]
        assert c["n"] == 3
        assert tables["c"]["mean_single_survival"] == pytest.approx(expected, rel=0, abs=1e-12)

    def test_panel_c_of_one_event_is_the_ground_state_loss(self, monkeypatch):
        # with one event per run every run's survival is the first-event
        # identity 1 - p_e (epsilon = 0), whatever its jitter: panel c's
        # mean loss is the ground state's p_e at each grid coupling
        panels = {**FIG4_PANELS, "c": {**FIG4_PANELS["c"], "n": 1, "runs": 5}}
        monkeypatch.setattr(config_module, "FIG4_PANELS", panels)
        cfg = ExperimentConfig(experiment="fig4", g_values=(0.5, 1.0), n_max=20)
        metadata, tables = build_tables(cfg)
        table = tables["c"]
        assert table["g_over_omega"] == list(config_module.FIG4_PANEL_C_GRID)
        for g, survival in zip(table["g_over_omega"], table["mean_single_survival"]):
            p_e = ground_state(model_params(cfg, g, metadata["cutoff_used"])).p_e
            assert abs((1.0 - survival) - p_e) <= 1e-14, g


class TestFig5Builder:
    def test_schema_and_collapse_columns(self):
        cfg = ExperimentConfig(
            experiment="fig5", g_values=(1.0,), n_max=20,
            omega_t1_values=(math.pi, 2 * math.pi), n_measurements=6,
            jitter_width=0.2 * math.pi, runs=2,
        )
        metadata, tables = build_tables(cfg)
        table = tables["data"]
        assert tuple(table) == (
            "omega_t1", "event", "omega_t", "t_over_t1", "cumulative_mean",
            "cumulative_std", "rate_per_t_over_t1", "rate_ratio_max_min",
        )
        assert n_rows(table) == 2 * 6
        health = metadata["exponential_fits"]["data"]
        assert [f["omega_t1"] for f in health] == [math.pi, 2 * math.pi]
        assert all(f["n_dropped"] == 0 and f["residual_max"] >= 0 for f in health)
        t_over_t1 = table["t_over_t1"][:6]
        assert all(b > a for a, b in zip(t_over_t1, t_over_t1[1:]))
        # bit for bit, per period: t_over_t1 is omega_t / omega_t1 and the
        # rate is the exponential fit of the rows' own t_over_t1 and
        # cumulative_mean cells; every row holds the one max/min rate ratio
        rates = []
        for w, rows in row_groups(table, "omega_t1"):
            assert rows["t_over_t1"] == [t / w for t in rows["omega_t"]]
            fit = fit_exponential(rows["t_over_t1"], rows["cumulative_mean"])
            assert set(rows["rate_per_t_over_t1"]) == {fit.coefficients["rate"]}
            rates.append(fit.coefficients["rate"])
        assert min(rates) < max(rates)
        assert set(table["rate_ratio_max_min"]) == {max(rates) / min(rates)}

    def test_single_period_rejected(self):
        # the rate collapse compares the decay rates of at least two periods
        cfg = ExperimentConfig(
            experiment="fig5", g_values=(1.0,), n_max=16, omega_t1_values=(math.pi,),
            n_measurements=3, runs=1,
        )
        with pytest.raises(ValueError, match="at least two periods"):
            build_tables(cfg)


class TestFitsRefitFromTheirFiles:
    """Every fitted coefficient, r^2 and fit-health entry a preset writes is
    the fit of the cells written beside it: each CSV table is read back from
    disk and refitted, and must match bit for bit."""

    @pytest.fixture
    def written(self, built):
        """``written(name)``: the preset's CSV files, read back and keyed by
        file stem."""
        return lambda name: {Path(path).stem: read_csv_output(path) for path in built(name).paths}

    @staticmethod
    def assert_refit(rows, fit, columns, health):
        """Each of ``columns`` (table column -> coefficient name, or
        "r_squared") holds the refit's value on every row, and ``health`` is
        the refit's n_dropped and residual_max."""
        for column, coefficient in columns.items():
            value = fit.r_squared if coefficient == "r_squared" else fit.coefficients[coefficient]
            assert set(rows[column]) == {value}, column
        assert (health["n_dropped"], health["residual_max"]) == (fit.n_dropped, fit.residual_max)

    def test_fig1(self, written):
        metadata, table = written("fig1")["fig1"]
        fit = fit_quadratic_origin(table["g_over_omega"], table["p_e"])
        self.assert_refit(table, fit, {"lambda_fit": "lam", "r_squared": "r_squared"},
                          *metadata["quadratic_fits"]["data"])

    def test_fig3(self, written):
        metadata, table = written("fig3")["fig3"]
        fit = fit_exponential(np.array(table["g_over_omega"]) ** 2, table["mean_final_survival"])
        self.assert_refit(table, fit, {"gaussian_rate": "rate", "gaussian_r_squared": "r_squared"},
                          *metadata["exponential_fits"]["data"])

    def test_fig4(self, written):
        files = written("fig4")
        assert set(files) == {"fig4_a", "fig4_b", "fig4_c"}
        metadata, table = files["fig4_b"]
        groups = row_groups(table, "g_over_omega")
        health = metadata["exponential_fits"]["b"]
        couplings = list(preset("fig4").g_values)
        assert [g for g, _ in groups] == [h["g_over_omega"] for h in health] == couplings
        for (_, rows), entry in zip(groups, health):
            fit = fit_exponential(rows["event"], rows["cumulative_mean"])
            self.assert_refit(rows, fit, {"fit_rate": "rate", "fit_r_squared": "r_squared"}, entry)
        metadata, table = files["fig4_c"]
        loss = 1.0 - np.array(table["mean_single_survival"])
        fit = fit_quadratic_origin(table["g_over_omega"], loss)
        self.assert_refit(table, fit, {"chi_bar_fit": "lam", "r_squared": "r_squared"},
                          *metadata["quadratic_fits"]["c"])

    def test_fig5(self, written):
        metadata, table = written("fig5")["fig5"]
        groups = row_groups(table, "omega_t1")
        health = metadata["exponential_fits"]["data"]
        periods = list(preset("fig5").omega_t1_values)
        assert [w for w, _ in groups] == [h["omega_t1"] for h in health] == periods
        rates = []
        for (_, rows), entry in zip(groups, health):
            fit = fit_exponential(rows["t_over_t1"], rows["cumulative_mean"])
            self.assert_refit(rows, fit, {"rate_per_t_over_t1": "rate"}, entry)
            rates.append(fit.coefficients["rate"])
        assert set(table["rate_ratio_max_min"]) == {max(rates) / min(rates)}


# Cells compared with the oracle at 1e-13 absolute (fig2's p1e_* columns
# too); every other column, coordinates, chi_n and fits, at 1e-13 relative.
# The largest gaps measured are 1.5e-14 absolute (fig2) and 1.2e-14 relative
# (fig4 panel b's fit_rate).
PROBABILITY_COLUMNS = {"p_e", "mean_final_survival", "mean_single_survival", "single_mean",
                       "single_std", "cumulative_mean", "cumulative_std"}


@pytest.mark.parametrize("name", SHARED_CONFIGS)
def test_every_emitted_number_is_rebuilt_by_the_oracle(built, name):
    # every column of every table, from the oracle's full-space runs, its
    # own draws and its own fits (oracle_tables), never the package's kernels
    tables = built(name).tables
    expected = oracle_tables(SHARED_CONFIGS[name])
    assert {t: list(columns) for t, columns in tables.items()} == \
        {t: list(columns) for t, columns in expected.items()}
    for table, columns in tables.items():
        for column, cells in columns.items():
            probability = column in PROBABILITY_COLUMNS or column.startswith("p1e_")
            np.testing.assert_allclose(
                np.asarray(cells, dtype=float), expected[table][column], equal_nan=True,
                rtol=0.0 if probability else 1e-13, atol=1e-13 if probability else 0.0,
                err_msg=f"{name} {table}.{column}")


class TestFig6Builder:
    def test_schema_and_epsilon_blocks(self):
        cfg = ExperimentConfig(
            experiment="fig6", g_values=(1.0,), n_max=20,
            omega_t1_values=(2 * math.pi,), n_measurements=5,
            epsilon_values=(0.0, 0.2), jitter_width=0.2 * math.pi, runs=2,
        )
        _, tables = build_tables(cfg)
        table = tables["data"]
        assert tuple(table) == (
            "epsilon", "event", "omega_t", "single_mean", "single_std",
            "cumulative_mean", "cumulative_std",
        )
        assert n_rows(table) == 2 * 5
        final_by_eps = {
            eps: final
            for eps, event, final in zip(table["epsilon"], table["event"], table["cumulative_mean"])
            if event == 5
        }
        # the inert fraction of the detector slows the decay
        assert final_by_eps[0.2] > final_by_eps[0.0]


class TestMetadata:
    def test_auto_cutoff_resolution(self):
        cfg = ExperimentConfig(
            experiment="survival", g_values=(0.3,), n_max=None,
            n_measurements=2, runs=1, jitter_width=0.0,
        )
        metadata, _ = build_tables(cfg)
        assert metadata["cutoff_used"] >= 10
        assert metadata["config"]["n_max"] is None

    def test_commensurate_flag(self):
        cfg = ExperimentConfig(
            experiment="survival", g_values=(0.3,), n_max=16,
            n_measurements=2, runs=1, jitter_width=0.0, ratio=1.0,
        )
        metadata, _ = build_tables(cfg)
        assert metadata["commensurate_no_jitter"] is True

    def test_sqrt2_ratio_not_flagged(self):
        cfg = ExperimentConfig(
            experiment="survival", g_values=(0.3,), n_max=16,
            n_measurements=2, runs=1, jitter_width=0.0,
        )
        metadata, _ = build_tables(cfg)
        assert metadata["commensurate_no_jitter"] is False

    def test_flag_reads_the_window_drawn(self):
        # jitter_width 5e-324 is > 0, but every shift it draws rounds away
        # against event times of order 1, so the runs are drawn jitter-free
        cfg = ExperimentConfig(
            experiment="survival", g_values=(0.3,), n_max=12, n_measurements=3, runs=2,
            jitter_width=5e-324, omega=4.0, ratio=2.0,
        )
        metadata, tables = build_tables(cfg)
        assert tables["data"]["single_std"] == [0.0, 0.0, 0.0]
        assert metadata["commensurate_no_jitter"] is True


class TestSharedJitterDraws:
    """Per-run jitter seedings: one seed per row of each
    ``jitter_schedule`` call."""

    def test_fig4_draws_each_panel_once_per_build(self, built, tmp_path):
        # 20 (panel a) + 20 (panel b, shared by 3 couplings) + 200 (panel c,
        # shared by 11 couplings); a second build draws again, with no cache
        first, second = built("fig4"), spied_run(preset("fig4"), tmp_path)
        assert first.seedings == second.seedings == 240
        assert first.tables == second.tables

    def test_survival_shares_draws_across_couplings_and_epsilons(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="survival", g_values=(0.5, 1.0), epsilon_values=(0.0, 0.1),
            n_max=20, n_measurements=4, runs=5,
        )
        assert spied_run(cfg, tmp_path).seedings == 5


# Per preset, what its plan says a build draws: (jittered stacks, rows x
# events over every stack). fig3 sweeps 100 periods x 8 events unjittered;
# fig4 draws 20 x 16, 20 x 20 and 200 x 3, fig5 three 20 x 16 and fig6 one,
# so a figures pass draws 7 jitter stacks.
PLANNED_WORK = {"fig1": (0, 0), "fig2": (0, 0), "fig3": (0, 800), "fig4": (3, 1320),
                "fig5": (3, 960), "fig6": (1, 320)}

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_plan_explains_the_run(built, name):
    # one jitter_times call per jittered stack of the plan, and the event
    # times drawn (jitter stacks, and each distinct sweep stack once) are
    # the plan's rows x events
    stacks = config_module.plan(preset(name)).values()
    jittered = sum(s.jitter > 0 for s in stacks)
    events = sum(len(s.periods) * s.runs * s.n for s in stacks)
    assert (jittered, events) == PLANNED_WORK[name]
    draws = built(name).draws
    drawn = [runs * base.size for kind, base, _, runs in draws if kind == "jitter"]
    swept = {(periods, n) for kind, periods, n, _ in draws if kind == "sweep"}
    assert len(drawn) == jittered
    assert sum(drawn) + sum(len(periods) * n for periods, n in swept) == events


# The fits a build runs, (quadratic, exponential): fig1's p_e law, fig3's
# Gaussian decay, fig4's three panel-b decays and panel c's loss law, and
# fig5's decay per period.
FITS = {"fig1": (1, 0), "fig2": (0, 0), "fig3": (0, 1), "fig4": (1, 3), "fig5": (0, 3),
        "fig6": (0, 0), "survival": (0, 0)}


@pytest.mark.parametrize("name", FITS)
def test_every_fit_runs_through_the_runner_names(built, name):
    # a build reads both fit functions from runner's namespace when it fits,
    # so a wrapper bound there (as bench/tracer.py binds its fit span) sees
    # every fit
    calls = built(name).fits
    assert (calls.count("fit_quadratic_origin"), calls.count("fit_exponential")) == FITS[name]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_a_run_changes_no_process_wide_state(built, name):
    # the umask and the warnings filters belong to the whole process: a run
    # that set either, even briefly, would race with a caller's other threads.
    # The spies watched the build and the writer of both formats
    spied = built(name)
    assert {Path(path).suffix for path in (*spied.paths, spied.json_path)} == {f".{f}" for f in FORMATS}
    assert spied.touched == []


PREPARE_CASES = {**SHARED_CONFIGS,
                 "fig4-integer-one": replace(preset("fig4"), g_values=(1 / 3, 2 / 3, 1))}


@pytest.mark.parametrize("name", PREPARE_CASES)
def test_a_build_prepares_each_coupling_once(built, tmp_path, name):
    # the model phase prepares exactly the couplings the build solves, one
    # model each: fig4's panels a, b and c share g/omega = 1, panel b's
    # couplings are not all on the panel-c grid, and an integer 1 in
    # g_values is panel c's 1.0
    config = PREPARE_CASES[name]
    spied = built(name) if name in SHARED_CONFIGS else spied_run(config, tmp_path)
    distinct = sorted(set(couplings(config)))
    assert len(distinct) == (13 if config.experiment == "fig4" else len(config.g_values))
    assert sorted(spied.prepared) == distinct


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_every_model_is_prepared_before_the_first_survival_run(monkeypatch, name):
    # the model phase ends before any survival run, so a coupling the build
    # refuses is refused before a run spends its time: fig3 sweeps one
    # coupling at a time, and fig4 runs panel a before panel b's couplings
    calls = []
    for module, attr in ((runner_module, "prepare_model"), (protocol, "run_survival")):
        def spy(*args, attr=attr, real=getattr(module, attr)):
            calls.append(attr)
            return real(*args)
        monkeypatch.setattr(module, attr, spy)
    build_tables(preset(name))
    prepares = len(set(couplings(preset(name))))
    assert calls.count("prepare_model") == prepares
    assert calls.index("run_survival") == prepares


@pytest.mark.parametrize("name,solves", [("fig1", 102), ("fig4", 27)])
def test_cutoff_check_reuses_the_prepared_ground_state(built, name, solves):
    # one ground-state solve per coupling (plus one chain solve per coupling
    # that runs a survival protocol) and one more for the cutoff check, at
    # n_max + 10 only
    dims = built(name).eigh_dims
    assert len(dims) == solves
    assert dims.count(2 * (40 + 10 + 1)) == 1


@pytest.mark.parametrize("name,solves", [("fig1", 210), ("fig3", 34), ("fig4", 40)])
def test_auto_cutoff_solves_each_model_once(eigh_calls, name, solves):
    # the cutoff search, the cutoff check and prepare share one memo of solved
    # models per build: every eigensolve is of a distinct matrix, and a
    # second build solves them all again. fig4's search covers panel c's
    # grid too
    cfg = replace(preset(name), n_max=None)
    build_tables(cfg)
    assert len(eigh_calls) == len({matrix for _, matrix in eigh_calls}) == solves
    build_tables(cfg)
    assert len(eigh_calls) == 2 * solves


N_MAX_RULE_CASES = {**{name: preset(name) for name in PRESET_NAMES},
                    "fig4-g-below-1": replace(preset("fig4"), g_values=(0.1, 0.2, 0.3))}


@pytest.mark.parametrize("name", N_MAX_RULE_CASES)
def test_the_n_max_rule_judges_a_model_the_build_solves(built, tmp_path, name):
    # the model config's n_max rule builds is one the build solves, fig4's
    # panel-c coupling 1.0 included when every coupling of g_values is
    # below it
    config = N_MAX_RULE_CASES[name]
    spied = built(name) if name in PRESET_NAMES else spied_run(config, tmp_path)
    assert largest_model(config) in spied.solved
