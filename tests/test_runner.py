import math

import pytest

from antizeno.config import ExperimentConfig, preset
from antizeno import protocol
from antizeno import runner as runner_module
from antizeno.runner import build_tables


def columns_of(tables, name="data"):
    return tables[name].columns


class TestFig2Builder:
    def test_schema_and_values(self):
        cfg = ExperimentConfig(
            experiment="fig2", g_values=(0.0, 1.0), n_max=20,
            time_max=2.0, time_step=0.5,
        )
        _, tables = build_tables(cfg)
        table = tables["data"]
        assert table.columns == ("omega_t", "p1e_g_over_omega_0", "p1e_g_over_omega_1")
        omega_t = [row[0] for row in table.rows]
        assert omega_t == [0.0, 0.5, 1.0, 1.5, 2.0]
        # g = 0: projected vacuum stays unexcited
        assert all(row[1] == 0.0 for row in table.rows)
        # g = 1: excitation starts at zero and oscillates upward
        assert table.rows[0][2] == pytest.approx(0.0, abs=1e-12)
        assert max(row[2] for row in table.rows) > 0.05


class TestFig3Builder:
    def test_schema_and_fit_columns(self):
        cfg = ExperimentConfig(
            experiment="fig3", g_values=(0.0, 0.5, 1.0), n_max=20,
            n_measurements=4, t1_count=5, jitter_width=0.0,
        )
        _, tables = build_tables(cfg)
        table = tables["data"]
        assert table.columns == (
            "g_over_omega", "mean_final_survival", "gaussian_rate", "gaussian_r_squared"
        )
        survival = [row[1] for row in table.rows]
        assert survival[0] == pytest.approx(1.0, abs=1e-12)
        assert survival[0] > survival[1] > survival[2]

    def test_random_t1_sampling_is_seeded(self):
        cfg = ExperimentConfig(
            experiment="fig3", g_values=(0.5, 1.0), n_max=16,
            n_measurements=3, t1_count=4, t1_sampling="random", seed=5,
        )
        _, first = build_tables(cfg)
        _, second = build_tables(cfg)
        assert first["data"].rows == second["data"].rows

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


class TestFig4Builder:
    @pytest.fixture
    def tiny_panels(self, monkeypatch):
        monkeypatch.setattr(
            runner_module,
            "FIG4_PANELS",
            {
                "a": {"omega_t1": 2 * math.pi, "n": 3, "jitter": 0.2 * math.pi, "runs": 2},
                "b": {"omega_t1": 0.75 * math.pi, "n": 4, "jitter": 0.2 * math.pi, "runs": 2},
                "c": {"omega_t1": 0.75 * math.pi, "n": 2, "jitter": 0.3 * math.pi, "runs": 3},
            },
        )
        monkeypatch.setattr(runner_module, "FIG4_PANEL_C_GRID", (0.0, 0.5, 1.0))

    def test_three_panels(self, tiny_panels):
        cfg = ExperimentConfig(experiment="fig4", g_values=(0.5, 1.0), n_max=20)
        metadata, tables = build_tables(cfg)
        assert set(tables) == {"a", "b", "c"}
        assert metadata["fig4_panels"]["a"]["runs"] == 2
        assert tables["a"].columns == (
            "event", "omega_t", "single_mean", "single_std", "cumulative_mean", "cumulative_std"
        )
        assert len(tables["a"].rows) == 3
        # panel b: one block of rows per coupling with a shared fit
        assert tables["b"].columns[:3] == ("g_over_omega", "event", "omega_t")
        assert len(tables["b"].rows) == 2 * 4
        # panel c: one row per grid point
        assert tables["c"].columns == (
            "g_over_omega", "mean_single_survival", "chi_bar_fit", "r_squared"
        )
        assert len(tables["c"].rows) == 3
        pbar = [row[1] for row in tables["c"].rows]
        assert pbar[0] == pytest.approx(1.0, abs=1e-12)
        assert pbar[2] < pbar[1] < pbar[0]


class TestFig5Builder:
    def test_schema_and_collapse_columns(self):
        cfg = ExperimentConfig(
            experiment="fig5", g_values=(1.0,), n_max=20,
            omega_t1_values=(math.pi, 2 * math.pi), n_measurements=6,
            jitter_width=0.2 * math.pi, runs=2,
        )
        _, tables = build_tables(cfg)
        table = tables["data"]
        assert table.columns == (
            "omega_t1", "event", "omega_t", "t_over_t1", "cumulative_mean",
            "cumulative_std", "rate_per_t_over_t1", "rate_ratio_max_min",
        )
        assert len(table.rows) == 2 * 6
        ratios = {row[7] for row in table.rows}
        assert len(ratios) == 1  # global ratio repeated on every row
        t_over_t1 = [row[3] for row in table.rows[:6]]
        assert all(b > a for a, b in zip(t_over_t1, t_over_t1[1:]))


class TestFig6Builder:
    def test_schema_and_epsilon_blocks(self):
        cfg = ExperimentConfig(
            experiment="fig6", g_values=(1.0,), n_max=20,
            omega_t1_values=(2 * math.pi,), n_measurements=5,
            epsilon_values=(0.0, 0.2), jitter_width=0.2 * math.pi, runs=2,
        )
        _, tables = build_tables(cfg)
        table = tables["data"]
        assert table.columns == (
            "epsilon", "event", "omega_t", "single_mean", "single_std",
            "cumulative_mean", "cumulative_std",
        )
        assert len(table.rows) == 2 * 5
        final_by_eps = {row[0]: row[5] for row in table.rows if row[1] == 5}
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


class TestSharedJitterDraws:
    @pytest.fixture
    def seedings(self, monkeypatch):
        """Counts per-run jitter seedings (one ``jitter_schedule`` call each)."""
        calls = []
        real = protocol.jitter_schedule

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol, "jitter_schedule", counting)
        return calls

    def test_fig4_draws_each_panel_once_per_build(self, seedings):
        # 20 (panel a) + 20 (panel b, shared by 3 couplings) + 200 (panel c,
        # shared by 11 couplings); a second build draws again, with no cache
        cfg = preset("fig4")
        _, first = build_tables(cfg)
        assert len(seedings) == 240
        _, second = build_tables(cfg)
        assert len(seedings) == 480
        assert first == second

    def test_survival_shares_draws_across_couplings_and_epsilons(self, seedings):
        cfg = ExperimentConfig(
            experiment="survival", g_values=(0.5, 1.0), epsilon_values=(0.0, 0.1),
            n_max=20, n_measurements=4, runs=5,
        )
        build_tables(cfg)
        assert len(seedings) == 5
