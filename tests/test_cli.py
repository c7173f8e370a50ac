import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import antizeno
from antizeno import cli
from antizeno.cli import build_parser, main
from antizeno.config import (
    EXPERIMENTS, FIELD_RULES, INPUT_RULES, PRESET_NAMES, READ_SETS, ExperimentConfig, preset,
)
from antizeno.protocol import two_period_schedule
from antizeno.runner import read_config_header, run
from antizeno import runner as runner_module


class TestPresets:
    def test_fig6_epsilons(self):
        assert preset("fig6").epsilon_values == (0.0, 0.1, 0.2)

    def test_fig3_period_count(self):
        # 2*pi*linspace(0.1, 5, 100), bit for bit, built without numpy
        cfg = preset("fig3")
        assert cfg.omega_t1_values == tuple((2 * math.pi * np.linspace(0.1, 5.0, 100)).tolist())
        assert cfg.n_measurements == 8
        assert cfg.jitter_width == 0.0

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
        cfg = dataclasses.replace(preset("fig3"), seed=99, out="x.csv")
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

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
            ("omega_t1_values", (6.0, math.inf)),
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


class TestFieldTypes:
    @pytest.mark.parametrize("values,field", [
        ({"runs": 2.5}, "runs"),
        ({"n_measurements": 3.5}, "n_measurements"),
        ({"omega_t1_values": 6.0, "experiment": "fig3"}, "omega_t1_values"),
        ({"runs": True}, "runs"),
        ({"n_max": False}, "n_max"),
        ({"g_values": "abc"}, "g_values"),
        ({"g_values": 5}, "g_values"),
        ({"epsilon_values": [0.0, True]}, "epsilon_values"),
        ({"omega": "1"}, "omega"),
        ({"omega_t1_values": [0.1, "5"]}, "omega_t1_values"),
        ({"jitter_width": None}, "jitter_width"),
        ({"seed": -1}, "seed"),
        ({"out": 5}, "out"),
        ({"out": ""}, "out"),
        ({"experiment": ["fig1"]}, "experiment"),
        ({"format": ["csv"]}, "format"),
    ])
    def test_config_file_exits_2_naming_the_field(self, tmp_path, capsys, values, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out": str(tmp_path / "x.csv"), **values}))
        assert main(["--config", str(cfg_path)]) == 2
        assert f"validation error [antizeno.config]: {field} must" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert main(["--seed", "-1", "--out", str(tmp_path / "x.csv")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_removed_period_window_key_is_unknown(self, tmp_path, capsys):
        # fig3 takes its periods from omega_t1_values; the old window keys are gone
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "fig3", "t1_count": 5,
                                        "out": str(tmp_path / "x.csv")}))
        assert main(["--config", str(cfg_path)]) == 2
        assert "unknown config keys: ['t1_count']" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('[{"time_max": 1.0}]')
        out = tmp_path / "x.csv"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config file must contain a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_list_flag_of_non_numbers_exits_2(self, tmp_path, capsys):
        # argparse refuses the flag before any config is assembled
        assert main(["--g", "1,x", "--out", str(tmp_path / "x.csv")]) == 2
        assert "expected comma-separated numbers, got '1,x'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,message", [
        (["--n-max", "abc"], "argument --n-max: invalid _n_max value: 'abc'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--format", "xml"], "argument --format: invalid choice: 'xml'"),
    ], ids=["n-max", "unknown-flag", "format"])
    def test_argparse_refusals_return_2(self, tmp_path, capsys, flags, message):
        # returned like every other refusal, with the usage on stderr
        assert main([*flags, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: antizeno") and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,stream", [("--help", "usage: antizeno"), ("--version", "antizeno ")])
    def test_help_and_version_return_0(self, capsys, flag, stream):
        assert main([flag]) == 0
        assert capsys.readouterr().out.startswith(stream)

    def test_numpy_scalars_are_accepted(self):
        ExperimentConfig(runs=np.int64(3), omega=np.float64(1.0), g_values=(np.float64(0.5),)).validate()

    @pytest.mark.parametrize("config,field", [
        # the phase rule refuses the first two
        (ExperimentConfig(omega=np.float64(1e-10), omega_t1_values=(1e300,)), "omega_t1_values"),
        (ExperimentConfig(omega=np.float64(1e300), g_values=(1e10,)), "omega_t1_values"),
        (ExperimentConfig(omega=np.float64(1e-10), omega0=np.float64(1e300)), "omega0"),
        (dataclasses.replace(preset("fig2"), time_max=np.float64(1e300),
                             time_step=np.float64(1e-300)), "time_max"),
        (ExperimentConfig(runs=np.int64(2**62), g_values=(0.3,), n_max=12), "runs"),
    ])
    def test_numpy_scalars_past_a_bound_are_refused_without_a_warning(self, config, field):
        # the rules multiply and divide Python numbers: a quotient or product
        # past the float range is inf, and an int product does not wrap (the
        # model's Gershgorin spread and omega0/omega included)
        with pytest.raises(ValueError, match=f"^{field}"):
            config.validate()


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

    def test_cutoff_check_bounds_n_max(self, tmp_path, capsys):
        # with a coupling > 0 the cutoff check also solves n_max + 10, and the
        # full space allows n <= 511
        out = tmp_path / "bad.csv"
        assert main(["--preset", "fig1", "--n-max", "502", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n_max must be a cutoff at which the largest model the run solves has n <= 511" in err
        assert "n = n_max + 10 when a coupling is > 0 (the cutoff check)" in err
        assert list(tmp_path.iterdir()) == []
        dataclasses.replace(preset("fig1"), n_max=501).validate()
        # without a coupling there is no cutoff check
        ExperimentConfig(g_values=(0.0,), n_max=511).validate()

    def test_auto_cutoff_at_deep_strong_coupling(self, tmp_path):
        # n_max = 10 and 20 leave the g/omega = 2.5 ground state in the odd
        # sector; the auto search steps past them
        out = tmp_path / "x.csv"
        assert main(["--preset", "fig1", "--g", "0.5,1,2.5", "--n-max", "auto",
                     "--out", str(out)]) == 0
        header = out.read_text(encoding="utf-8").splitlines()
        assert "# cutoff_used = 30" in header

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

    def test_broken_state_invariant_exits_3(self, tmp_path, capsys, break_state):
        # the input is valid; the state after event 2 reaches the next step
        # of the run unchecked and off its norm, as a numerical breakdown
        # would leave it, and the next step's check stops the run
        made = break_state(2, lambda data: 1.01 * data)
        out = tmp_path / "x.csv"
        assert main(small_survival_args(tmp_path, "x.csv")) == 3
        assert made == [(1, "pure"), (2, "pure")]
        err = capsys.readouterr().err
        assert "numerical failure [antizeno.dynamics]: pure state norm deviates from 1" in err
        assert not out.exists()

    def test_nan_density_state_exits_3(self, tmp_path, capsys, break_state):
        # at epsilon 0.1 the runs are density matrices; run 2's state after
        # event 2 turns NaN, and the next step's Hermiticity check names it
        made = break_state(2, lambda data: np.nan * data, [2])
        out = tmp_path / "x.csv"
        assert main(small_survival_args(tmp_path, "x.csv") + ["--epsilon", "0.1"]) == 3
        assert made == [(1, "density"), (2, "density")]
        err = capsys.readouterr().err
        assert ("numerical failure [antizeno.dynamics]: density matrix not Hermitian: "
                "max dev nan (run 2)") in err
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

    def test_header_without_a_config_line_is_refused(self, tmp_path):
        out = tmp_path / "rt.csv"
        assert main(small_survival_args(tmp_path, "rt.csv")) == 0
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        out.write_text("".join(line for line in lines if not line.startswith("# config = ")))
        with pytest.raises(ValueError, match="no config metadata found in"):
            read_config_header(str(out))

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(small_survival_args(tmp_path, "run.json", fmt="json")) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"metadata", "series"}
        series = payload["series"]["data"]
        assert "cumulative_mean" in series
        assert len(series["omega_t"]) == 4
        assert read_config_header(str(out)).format == "json"

    def test_extinct_survival_still_fits(self, tmp_path):
        # at g/omega = 2.5 the cumulative survival of 1500 events underflows
        # to exactly 0; the per-period fits drop those events as extinct
        out = tmp_path / "fig5.json"
        assert main(["--preset", "fig5", "--g", "2.5", "--n-max", "80", "--n-measurements", "1500",
                     "--runs", "2", "--format", "json", "--out", str(out)]) == 0
        series = json.loads(out.read_text())["series"]["data"]
        assert 0.0 in series["cumulative_mean"]
        assert all(math.isfinite(rate) and rate > 0 for rate in series["rate_per_t_over_t1"])

    def test_fit_diagnostics_name_the_extinct_events(self, tmp_path):
        # the same case: every period's fit reports the events it dropped and
        # its largest log-space residual, in CSV and JSON alike
        args = ["--preset", "fig5", "--g", "2.5", "--n-max", "80", "--n-measurements", "1500",
                "--runs", "2"]
        out = tmp_path / "fig5.json"
        assert main(args + ["--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        fits = payload["metadata"]["exponential_fits"]
        assert list(fits) == ["data"]
        assert [f["omega_t1"] for f in fits["data"]] == [math.pi, 2 * math.pi, 3 * math.pi]
        cumulative = np.reshape(payload["series"]["data"]["cumulative_mean"], (3, 1500))
        for fit, survival in zip(fits["data"], cumulative):
            assert fit["n_dropped"] > 0
            assert fit["n_dropped"] == np.sum(survival < 1e-12)
            assert math.isfinite(fit["residual_max"]) and fit["residual_max"] > 0

        csv_out = tmp_path / "fig5.csv"
        assert main(args + ["--out", str(csv_out)]) == 0
        line = next(l for l in csv_out.read_text().splitlines()
                    if l.startswith("# exponential_fits = "))
        assert json.loads(line[len("# exponential_fits = "):]) == fits

    @pytest.mark.parametrize("args,table,x,y,lam", [
        (["--preset", "fig1", "--g", "0,0.2,0.4,0.6", "--n-max", "20"], "data",
         "g_over_omega", lambda t: np.array(t["p_e"]), "lambda_fit"),
        (["--preset", "fig4"], "c",
         "g_over_omega", lambda t: 1.0 - np.array(t["mean_single_survival"]), "chi_bar_fit"),
    ])
    def test_quadratic_fits_report_their_residual(self, tmp_path, args, table, x, y, lam):
        # residual_max is max |y - lam x^2| over the emitted table, in CSV
        # and JSON alike
        out = tmp_path / "run.json"
        assert main(args + ["--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        fits = payload["metadata"]["quadratic_fits"]
        cells = payload["series"][table]
        [fit] = fits[table]
        residual = np.max(np.abs(y(cells) - cells[lam][0] * np.array(cells[x]) ** 2))
        assert fit == {"n_dropped": 0, "residual_max": pytest.approx(residual, rel=1e-12)}

        csv_out = tmp_path / "run.csv"
        assert main(args + ["--out", str(csv_out)]) == 0
        csv_file = csv_out if table == "data" else tmp_path / f"run_{table}.csv"
        line = next(l for l in csv_file.read_text().splitlines()
                    if l.startswith("# quadratic_fits = "))
        assert json.loads(line[len("# quadratic_fits = "):]) == fits

    def test_fig3_sweeps_the_given_periods(self, tmp_path):
        # fig3 reads omega_t1_values like every other survival experiment,
        # and its header records the sweep that ran
        tables = {}
        for name, extra in (("preset", []), ("given", ["--omega-t1", "2,4"])):
            out = tmp_path / f"{name}.json"
            assert main(["--preset", "fig3", "--format", "json", "--out", str(out), *extra]) == 0
            payload = json.loads(out.read_text())
            tables[name] = payload["series"]["data"]["mean_final_survival"]
            assert read_config_header(str(out)).omega_t1_values == (
                (2.0, 4.0) if extra else preset("fig3").omega_t1_values
            )
        assert tables["preset"][0] == tables["given"][0] == pytest.approx(1.0, abs=1e-12)
        assert all(a != b for a, b in zip(tables["preset"][1:], tables["given"][1:]))

    def test_detector_that_never_acts_keeps_survival_at_one(self, tmp_path):
        out = tmp_path / "fig6.json"
        assert main(["--preset", "fig6", "--epsilon", "1", "--format", "json", "--out", str(out)]) == 0
        series = json.loads(out.read_text())["series"]["data"]
        assert series["single_mean"] == [1.0] * 16
        assert series["cumulative_mean"] == [1.0] * 16

    def test_output_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the thread count is read when numpy loads, so each run is its own
        # process; both run at once, each in its own directory with the same
        # relative --out, so the headers match too
        src = str(Path(antizeno.__file__).resolve().parent.parent)
        runs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            (tmp_path / threads).mkdir()
            runs[threads] = subprocess.Popen(
                [sys.executable, "-m", "antizeno.cli", "--preset", "fig6", "--out", "fig6.csv"],
                cwd=tmp_path / threads, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            for process in runs.values():
                _, err = process.communicate(timeout=120)
                assert process.returncode == 0, err
        finally:
            for process in runs.values():
                process.kill()  # a no-op once it has exited
        blobs = [(tmp_path / threads / "fig6.csv").read_bytes() for threads in runs]
        assert blobs[0] == blobs[1]

    def test_survival_chi_diagnostic_column(self, tmp_path):
        # chi_n is undefined at g = 0: nan in CSV, null in JSON
        out = tmp_path / "chi.json"
        args = small_survival_args(tmp_path, "chi.json", fmt="json")
        args[args.index("--g") + 1] = "0,0.5"
        assert main(args) == 0
        series = json.loads(out.read_text())["series"]["data"]
        at_zero = [g == 0.0 for g in series["g_over_omega"]]
        assert sum(at_zero) == 4
        assert all(c is None for c, zero in zip(series["chi_n"], at_zero) if zero)
        chi = np.asarray([c for c, zero in zip(series["chi_n"], at_zero) if not zero])
        single = np.asarray([s for s, zero in zip(series["single_mean"], at_zero) if not zero])
        assert np.allclose(chi, (1 - single) / 0.5**2, atol=1e-12)

        csv_out = tmp_path / "chi.csv"
        args[args.index("--out") + 1] = str(csv_out)
        args[args.index("--format") + 1] = "csv"
        assert main(args) == 0
        lines = [line for line in csv_out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0].split(",")[-1] == "chi_n"
        chi_cells = [line.split(",")[-1] for line in lines[1:]]
        assert chi_cells[:4] == ["nan"] * 4
        assert "nan" not in chi_cells[4:]


# One CLI input per row of config.INPUT_RULES that breaks only that row,
# keyed by (experiment, field), and a tag where the field has more rows.
DATA = Path(__file__).parent / "data"
BROKEN_RULES = {
    ("fig1", "g_values"): ["--preset", "fig1", "--g", "0.5,1"],
    ("fig1", "omega0"): ["--preset", "fig1", "--omega0", "1e9"],
    ("fig1", "g_values", "spectrum"): ["--preset", "fig1", "--g", "0.5,1,1e8"],
    ("fig2", "g_values"): ["--preset", "fig2", "--g", "0.1234561,0.1234562"],
    # time_max has no flag: a config file sets it
    ("fig2", "time_max"): ["--config", str(DATA / "fig2_grid_too_large.json")],
    ("fig2", "time_max", "phases"): ["--config", str(DATA / "fig2_phases_unresolved.json")],
    ("fig3", "g_values"): ["--preset", "fig3", "--g", "0.5"],
    ("fig3", "epsilon_values"): ["--preset", "fig3", "--epsilon", "0,0.1"],
    ("fig3", "jitter_width"): ["--preset", "fig3", "--jitter", "0.5"],
    ("fig3", "omega_t1_values"): ["--preset", "fig3", "--omega", "1e-10", "--omega-t1", "1e300"],
    ("fig3", "omega_t1_values", "size"): ["--preset", "fig3", "--n-measurements", "20000"],
    ("fig3", "omega_t1_values", "order"): ["--preset", "fig3", "--ratio", "1e-272"],
    ("fig4", "g_values"): ["--preset", "fig4", "--g", "0,0.5,1"],
    ("fig4", "epsilon_values"): ["--preset", "fig4", "--epsilon", "0,0.1"],
    ("fig4", "ratio"): ["--preset", "fig4", "--ratio", "0.5"],
    ("fig4", "ratio", "phases"): ["--preset", "fig4", "--omega", "1e-19"],
    ("fig5", "g_values"): ["--preset", "fig5", "--g", "0.5,1"],
    ("fig5", "epsilon_values"): ["--preset", "fig5", "--epsilon", "0,0.1"],
    ("fig5", "omega_t1_values"): ["--preset", "fig5", "--omega-t1", "3.14"],
    ("fig5", "omega_t1_values", "phases"): ["--preset", "fig5", "--n-measurements", "2",
                                            "--ratio", "1.5e226"],
    ("fig5", "n_measurements"): ["--preset", "fig5", "--n-measurements", "1"],
    ("fig5", "runs"): ["--preset", "fig5", "--runs", "500001"],
    ("fig5", "jitter_width"): ["--preset", "fig5", "--jitter", "2"],
    ("fig5", "jitter_width", "phases"): ["--preset", "fig5", "--jitter", "1e300"],
    ("fig6", "g_values"): ["--preset", "fig6", "--g", "0.5,1"],
    ("fig6", "omega_t1_values"): ["--preset", "fig6", "--omega-t1", "3,6"],
    ("fig6", "omega_t1_values", "phases"): ["--preset", "fig6", "--omega-t1", "1e300"],
    ("fig6", "runs"): ["--preset", "fig6", "--runs", "62501"],
    ("fig6", "jitter_width"): ["--preset", "fig6", "--omega-t1", "1", "--jitter", "0.6"],
    ("fig6", "jitter_width", "phases"): ["--preset", "fig6", "--jitter", "1e300"],
    ("survival", "omega_t1_values"): ["--omega-t1", "3,6"],
    ("survival", "omega_t1_values", "phases"): ["--omega-t1", "1e300"],
    ("survival", "runs"): ["--n-measurements", "1000", "--runs", "1001"],
    ("survival", "jitter_width"): ["--omega-t1", "1", "--jitter", "0.6"],
    ("survival", "jitter_width", "phases"): ["--jitter", "1e300"],
}


def refused_row(args):
    """The (experiment, field, what) row of INPUT_RULES that validation
    refuses the config of ``args`` at."""
    cfg = cli._assemble_config(build_parser().parse_args(args))
    with pytest.raises(ValueError) as refused:
        cfg.validate()
    return next((cfg.experiment, field, what) for field, what, _ in INPUT_RULES[cfg.experiment]
                if str(refused.value).startswith(f"{field}: {cfg.experiment} needs {what}, got "))


def test_every_input_rule_has_a_broken_case():
    # each input is refused at a row of its own key's field, and every row
    # is refused by exactly one input
    refused = {key: refused_row(args) for key, args in BROKEN_RULES.items()}
    assert all(row[:2] == key[:2] for key, row in refused.items())
    rows = [(e, field, what) for e, rs in INPUT_RULES.items() for field, what, _ in rs]
    assert sorted(refused.values()) == sorted(rows)


@pytest.mark.parametrize("rule", sorted(BROKEN_RULES), ids="-".join)
def test_broken_input_rule_exits_2_before_any_solve(tmp_path, capsys, eigh_calls, rule):
    experiment, field = rule[:2]
    assert main(BROKEN_RULES[rule] + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert f"validation error [antizeno.config]: {field}: {experiment} needs" in err
    # the message is the row's own
    assert f"{field}: {experiment} needs {refused_row(BROKEN_RULES[rule])[2]}, got " in err
    assert eigh_calls == []
    assert list(tmp_path.iterdir()) == []


# One input per row of config.FIELD_RULES, keyed by (field, what), that
# breaks only that row: CLI arguments, and the keys of a config file for
# fields that have no flag.
BROKEN_FIELD_RULES = {
    ("omega", "> 0"): (["--omega", "0"], {}),
    ("omega0", ">= 0 and finite over omega"): (["--omega0", "-1"], {}),
    ("g_values", "non-empty and >= 0"): (["--g", "-0.5"], {}),
    ("n_max", ">= 1 (or null for automatic)"): (["--preset", "fig1", "--n-max", "0"], {}),
    ("n_max", FIELD_RULES[4][1]): (["--preset", "fig1", "--n-max", "512"], {}),
    ("omega_t1_values", "non-empty and > 0"): (["--omega-t1", "-1"], {}),
    ("g_values", "free of repeated values"): (["--preset", "fig2", "--g", "0.5,0.5"], {}),
    ("omega_t1_values", "free of repeated values"):
        (["--preset", "fig5", "--omega-t1", "3.14,3.14"], {}),
    ("epsilon_values", "free of repeated values"):
        (["--g", "0.5", "--epsilon", "0.1,0.1", "--n-measurements", "3", "--runs", "2"], {}),
    ("ratio", "> 0"): (["--ratio", "0"], {}),
    ("n_measurements", ">= 1"): (["--n-measurements", "0"], {}),
    ("jitter_width", ">= 0"): (["--jitter", "-0.1"], {}),
    ("runs", ">= 1"): (["--runs", "0"], {}),
    ("epsilon_values", "non-empty and in [0, 1]"): (["--epsilon", "1.5"], {}),
    ("time_step", "> 0"): (["--preset", "fig2"], {"time_step": -0.02}),
    ("time_max", ">= time_step"): (["--preset", "fig2"], {"time_max": 0.01}),
    ("seed", ">= 0"): (["--seed", "-1"], {}),
    ("n_measurements", "at most 10^6"): (["--n-measurements", "1000001"], {}),
}


def test_every_field_rule_has_a_broken_case():
    assert [(field, what) for field, what, _ in FIELD_RULES] == list(BROKEN_FIELD_RULES)


@pytest.mark.parametrize("rule", list(BROKEN_FIELD_RULES),
                         ids=[f"{field}-{i}" for i, (field, _) in enumerate(BROKEN_FIELD_RULES)])
def test_broken_field_rule_exits_2_before_any_solve(tmp_path, capsys, eigh_calls, rule):
    field, what = rule
    flags, file_values = BROKEN_FIELD_RULES[rule]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_values))
    args = flags + ["--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]
    config = cli._assemble_config(build_parser().parse_args(args))
    broken = [(f, w) for f, w, holds in FIELD_RULES if not holds(getattr(config, f), config)]
    # no row raises, the case breaks no row before its own, and after it
    # only the rows that build a model (omega0's and the n_max cutoff's)
    # from the field it breaks
    assert broken[0] == rule
    assert set(broken[1:]) <= {FIELD_RULES[1][:2], FIELD_RULES[4][:2]}
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"validation error [antizeno.config]: {field} must be {what}, got " in err
    assert eigh_calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_every_table_lists_the_same_experiments():
    # a key missing from one table would surface as a KeyError from validate
    # or build_tables
    assert set(EXPERIMENTS) == set(READ_SETS) == set(INPUT_RULES) == set(runner_module._BUILDERS)
    assert PRESET_NAMES == tuple(e for e in EXPERIMENTS if e != "survival")


@pytest.mark.parametrize("start", [["--preset", "fig5"], ["--preset", "fig6"], []],
                         ids=["fig5", "fig6", "survival"])
def test_a_window_that_can_reorder_events_exits_2_before_any_solve(
    tmp_path, capsys, eigh_calls, start
):
    # events 1 and 1 + sqrt(2) apart: a +-0.6 window can swap the first two
    periods = "1,2" if start == ["--preset", "fig5"] else "1"
    args = start + ["--omega-t1", periods, "--jitter", "0.6", "--out", str(tmp_path / "x.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "validation error [antizeno.config]: jitter_width:" in err
    assert "cannot reorder events" in err and "got 0.6" in err
    assert eigh_calls == []
    assert list(tmp_path.iterdir()) == []
    # the edge is half the shortest interval of the T1 = 1 schedule as drawn
    # (about 0.5); one ulp below it passes
    cfg = cli._assemble_config(build_parser().parse_args(start + ["--omega-t1", periods]))
    edge = np.min(np.diff(two_period_schedule(1.0, cfg.ratio, cfg.n_measurements))) / 2
    dataclasses.replace(cfg, jitter_width=float(np.nextafter(edge, 0.0))).validate()
    with pytest.raises(ValueError, match=f"^jitter_width: .* got {float(edge)!r}$"):
        dataclasses.replace(cfg, jitter_width=float(edge)).validate()


def test_fig5_refuses_a_zero_coupling(tmp_path, capsys):
    # at g/omega = 0 the survival never leaves 1, and the rate ratio is one
    # of roundoff
    assert main(["--preset", "fig5", "--g", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert "g_values: fig5 needs exactly one coupling, above 0, got (0.0,)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eig_calls_sees_a_valid_run(tmp_path, eigh_calls):
    assert main(small_survival_args(tmp_path)) == 0
    assert eigh_calls


class TestFlags:
    """Every flag but --preset, --config and --version sets one config field,
    over the config file's value, and an absent flag leaves the file alone."""

    FILE = {
        "experiment": "survival", "omega": 1.5, "omega0": 0.8, "g_values": [0.4],
        "epsilon_values": [0.1], "n_max": 30, "omega_t1_values": [6.0], "ratio": 1.3,
        "n_measurements": 3, "jitter_width": 0.2, "runs": 2, "seed": 5, "out": "file.csv",
        "format": "csv",
    }
    # (flag, text given, field value expected)
    CASES = [
        ("--omega", "2.5", 2.5),
        ("--omega0", "0.5", 0.5),
        ("--g", "0.2,0.3", (0.2, 0.3)),
        ("--epsilon", "0.3", (0.3,)),
        ("--n-max", "auto", None),
        ("--n-max", "33", 33),
        ("--omega-t1", "4,5", (4.0, 5.0)),
        ("--ratio", "1.7", 1.7),
        ("--n-measurements", "7", 7),
        ("--jitter", "0.4", 0.4),
        ("--runs", "9", 9),
        ("--seed", "11", 11),
        ("--out", "flag.csv", "flag.csv"),
        ("--format", "json", "json"),
    ]

    @pytest.fixture
    def assembled(self, tmp_path, monkeypatch):
        """Runs main on ``args`` after --config FILE; returns the config it would run."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.FILE))
        configs = []

        def fake_run(config):
            configs.append(config)
            return runner_module.RunResult(config, {}, {}, [])

        monkeypatch.setattr(cli, "run", fake_run)

        def assemble(*args):
            assert main(["--config", str(path), *args]) == 0
            return configs.pop()

        return assemble

    def test_every_option_is_a_config_field(self):
        actions = [
            action for action in build_parser()._actions
            if action.dest not in ("help", "version", "preset", "config")
        ]
        assert {a.dest for a in actions} <= {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {a.option_strings[-1] for a in actions} == {flag for flag, _, _ in self.CASES}

    def test_absent_flags_leave_the_file_alone(self, assembled):
        assert assembled() == ExperimentConfig.from_dict(self.FILE)

    @pytest.mark.parametrize("flag,text,expected", CASES)
    def test_given_flag_overrides_the_file(self, assembled, flag, text, expected):
        file_config = ExperimentConfig.from_dict(self.FILE)
        config = assembled(flag, text)
        changed = {
            f.name: getattr(config, f.name) for f in dataclasses.fields(config)
            if getattr(config, f.name) != getattr(file_config, f.name)
        }
        assert list(changed.values()) == [expected]


class TestMultiTableOutput:
    @pytest.fixture
    def fake_two_panel(self, monkeypatch):
        def builder(config, prepared, metadata):
            return {"a": {"x": [1], "y": [2.0]}, "b": {"x": [3], "y": [4.0]}}

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


class TestOutputSet:
    """A multi-file output set is written whole or not at all."""

    @pytest.fixture
    def three_panel(self, monkeypatch, tmp_path):
        def builder(config, prepared, metadata):
            return {name: {"x": [1], "y": [2.0]} for name in "abc"}

        monkeypatch.setitem(runner_module._BUILDERS, "survival", builder)
        return ExperimentConfig(
            experiment="survival", g_values=(0.1,), n_max=12, out=str(tmp_path / "multi.csv")
        )

    def test_directory_target_exits_4_writing_nothing(self, tmp_path, capsys):
        (tmp_path / "fig4_c.csv").mkdir()
        assert main(["--preset", "fig4", "--out", str(tmp_path / "fig4.csv")]) == 4
        assert "is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["fig4_c.csv"]
        assert list((tmp_path / "fig4_c.csv").iterdir()) == []

    def test_write_failure_on_third_file_writes_nothing(self, tmp_path, monkeypatch, three_panel):
        temps = []

        def third_unwritable(path, mode="r", **kwargs):
            handle = open(path, mode, **kwargs)
            if mode == "x":
                temps.append(path)
                if len(temps) == 3:
                    handle.close()
                    handle = open(path, "r", **kwargs)
            return handle

        monkeypatch.setattr(runner_module, "open", third_unwritable, raising=False)
        with pytest.raises(OSError):
            run(three_panel)
        assert len(temps) == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_files_follow_the_umask(self, three_panel, umask, mode):
        previous = os.umask(umask)
        try:
            paths = run(three_panel).paths
        finally:
            os.umask(previous)
        assert [stat.S_IMODE(os.stat(p).st_mode) for p in paths] == [mode] * 3
