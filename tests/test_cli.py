import json
import math
import os

import numpy as np
import pytest

from antizeno.cli import main
from antizeno.config import ExperimentConfig, preset
from antizeno.runner import Table, read_config_header, run
from antizeno import runner as runner_module


class TestPresets:
    def test_fig6_epsilons(self):
        assert preset("fig6").epsilon_values == (0.0, 0.1, 0.2)

    def test_fig3_period_count(self):
        cfg = preset("fig3")
        assert cfg.t1_count == 100
        assert cfg.t1_window == (0.1, 5.0)
        assert cfg.n_measurements == 8

    def test_fig1_grid_spans_unit_interval(self):
        grid = preset("fig1").g_values
        assert len(grid) == 101
        assert grid[0] == 0.0
        assert grid[-1] == 1.0

    def test_fig5_periods(self):
        assert preset("fig5").omega_t1_values == (math.pi, 2 * math.pi, 3 * math.pi)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("fig7")


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = preset("fig6")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = preset("fig3").with_overrides(seed=99, out="x.csv")
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"omega": -1.0},
            {"g_values": (-0.5,)},
            {"n_max": 0},
            {"epsilon_values": (1.5,)},
            {"format": "xml"},
            {"experiment": "fig9"},
            {"runs": 0},
            {"jitter_width": -0.1},
        ],
    )
    def test_validation_failures(self, overrides):
        cfg = ExperimentConfig(**overrides)
        with pytest.raises(ValueError):
            cfg.validate()


class TestNonFiniteFields:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("omega", math.inf),
            ("omega0", math.nan),
            ("ratio", math.inf),
            ("jitter_width", math.inf),
            ("time_max", math.inf),
            ("time_step", math.nan),
            ("g_values", (0.5, math.inf)),
            ("omega_t1_values", (math.nan,)),
            ("epsilon_values", (0.1, -math.inf)),
            ("t1_window", (0.1, math.inf)),
            ("n_max", math.inf),
        ],
    )
    def test_rejected_by_name(self, field, value):
        cfg = ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cfg.validate()

    def test_cli_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["--jitter", "inf", "--out", str(out)]) == 2
        assert "jitter_width must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"time_max": 1e400}')
        out = tmp_path / "x.csv"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert "time_max must be finite" in capsys.readouterr().err
        assert not out.exists()


def small_survival_args(tmp_path, name="run.csv", fmt=None):
    args = [
        "--g", "0.5",
        "--omega-t1", "6.283185307179586",
        "--n-measurements", "4",
        "--runs", "3",
        "--jitter", "0.3",
        "--seed", "77",
        "--n-max", "20",
        "--out", str(tmp_path / name),
    ]
    if fmt:
        args += ["--format", fmt]
    return args


class TestCliRuns:
    def test_fig1_output(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = main(["--preset", "fig1", "--seed", "42", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == str(out)
        lines = out.read_text().splitlines()
        header_index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_index] == "g_over_omega,p_e,lambda_fit,r_squared"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[3]) >= 0.999

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        base = small_survival_args(tmp_path)[:-2]
        assert main(base + ["--out", str(first)]) == 0
        assert main(base + ["--out", str(second)]) == 0
        # bodies are byte-identical; only the embedded output path differs
        strip = lambda p: [l for l in p.read_bytes().split(b"\n") if not l.startswith(b"# config")]
        assert strip(first) == strip(second)

    def test_identical_config_identical_file(self, tmp_path):
        out = tmp_path / "same.csv"
        args = small_survival_args(tmp_path, "same.csv")
        assert main(args) == 0
        blob = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == blob

    def test_invalid_n_max_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = main(["--preset", "fig1", "--n-max", "0", "--out", str(out)])
        assert code == 2
        assert "validation error" in capsys.readouterr().err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []  # no temp leftovers either

    def test_missing_out_exits_2(self, capsys):
        assert main(["--preset", "fig1"]) == 2
        assert "out" in capsys.readouterr().err

    def test_unconverged_cutoff_exits_3(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        args = small_survival_args(tmp_path, "bad.csv")
        args[args.index("--n-max") + 1] = "1"  # far below convergence at g=0.5
        assert main(args) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_path_exits_4(self, tmp_path, capsys):
        args = small_survival_args(tmp_path)
        args[args.index("--out") + 1] = str(tmp_path / "missing_dir" / "x.csv")
        assert main(args) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_config_file_and_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "survival", "g_values": [0.4],
                                        "n_measurements": 3, "runs": 2, "n_max": 16,
                                        "jitter_width": 0.2}))
        out = tmp_path / "out.csv"
        code = main(["--config", str(cfg_path), "--seed", "5", "--out", str(out)])
        assert code == 0
        parsed = read_config_header(str(out))
        assert parsed.g_values == (0.4,)
        assert parsed.seed == 5  # flag wins over the file default
        assert parsed.n_measurements == 3

    def test_round_trip_metadata(self, tmp_path):
        out = tmp_path / "rt.csv"
        assert main(small_survival_args(tmp_path, "rt.csv")) == 0
        parsed = read_config_header(str(out))
        assert parsed == ExperimentConfig.from_dict(parsed.to_dict())
        assert parsed.out == str(out)
        assert parsed.seed == 77

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(small_survival_args(tmp_path, "run.json", fmt="json")) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"metadata", "series"}
        series = payload["series"]["data"]
        assert "cumulative_mean" in series
        assert len(series["omega_t"]) == 4
        assert read_config_header(str(out)).format == "json"

    def test_survival_chi_diagnostic_column(self, tmp_path):
        out = tmp_path / "chi.json"
        args = small_survival_args(tmp_path, "chi.json", fmt="json")
        assert main(args) == 0
        series = json.loads(out.read_text())["series"]["data"]
        chi = np.asarray(series["chi_n"], dtype=float)
        single = np.asarray(series["single_mean"], dtype=float)
        assert np.allclose(chi, (1 - single) / 0.5**2, atol=1e-12)


class TestMultiTableOutput:
    @pytest.fixture
    def fake_two_panel(self, monkeypatch):
        def builder(config, n_max):
            return {
                "a": Table(("x", "y"), [(1, 2.0)]),
                "b": Table(("x", "y"), [(3, 4.0)]),
            }

        monkeypatch.setitem(runner_module._BUILDERS, "survival", builder)

    def test_csv_suffixing(self, tmp_path, fake_two_panel):
        cfg = ExperimentConfig(
            experiment="survival", g_values=(0.1,), n_max=12, out=str(tmp_path / "multi.csv")
        )
        result = run(cfg)
        assert sorted(os.path.basename(p) for p in result.paths) == ["multi_a.csv", "multi_b.csv"]
        for path in result.paths:
            assert read_config_header(path) == cfg

    def test_json_stays_single_file(self, tmp_path, fake_two_panel):
        cfg = ExperimentConfig(
            experiment="survival", g_values=(0.1,), n_max=12,
            out=str(tmp_path / "multi.json"), format="json",
        )
        result = run(cfg)
        assert result.paths == [str(tmp_path / "multi.json")]
        payload = json.loads((tmp_path / "multi.json").read_text())
        assert set(payload["series"]) == {"a", "b"}
