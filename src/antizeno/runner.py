"""Execute an ExperimentConfig and emit plot-ready CSV or JSON.

Every output file embeds a metadata header with the exact configuration
(JSON, round-trippable), the random generator name, the seed-mixing rule and
the Fock cutoff actually used. Outputs contain no timestamps or environment
state, so a fixed (config, seed) reproduces files byte for byte. Files are
written atomically (temp file + rename) and only after the whole experiment
has completed, so no partial file survives a failure.

Column schemas are fixed per experiment kind and documented in the README.
The fig4 preset produces three panel tables: in CSV mode they are written to
separate files suffixed ``_a``, ``_b``, ``_c``; in JSON mode they are keys of
the single ``series`` object.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import fit_exponential, fit_quadratic_origin
from .config import ExperimentConfig
from .dynamics import excitation_trace
from .measurement import MeasurementModel, measure_no_click
from .model import ModelParams, assert_cutoff_converged, converge_cutoff
from .protocol import (
    PreparedModel,
    ensemble_survival,
    jitter_times,
    prepare_model,
    sweep_T1,
    two_period_schedule,
)

__all__ = ["Table", "RunResult", "run", "build_tables", "read_config_header", "FIG4_PANELS"]

# fig4 panel schedules (dimensionless omega*T1, events, jitter half-window,
# ensemble size). Panels (b) and (c) share the period; the short panel-(c)
# schedule with a wider jitter window and a large ensemble is what keeps the
# mean single-event survival on its quadratic law (longer schedules pick up
# excited-state contributions that steepen the law; calibration is frozen
# here and recorded in the output metadata).
FIG4_PANELS = {
    "a": {"omega_t1": 2 * math.pi, "n": 16, "jitter": 0.2 * math.pi, "runs": 20},
    "b": {"omega_t1": 0.75 * math.pi, "n": 20, "jitter": 0.2 * math.pi, "runs": 20},
    "c": {"omega_t1": 0.75 * math.pi, "n": 3, "jitter": 0.3 * math.pi, "runs": 200},
}
FIG4_PANEL_C_GRID = tuple(i / 10 for i in range(11))

GENERATOR_NOTE = "numpy PCG64; per-run seeds = SeedSequence(seed).generate_state(runs, uint64)"


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: list[tuple]


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    metadata: dict
    tables: dict[str, Table]
    paths: list[str]


def _model_params(config: ExperimentConfig, g_over_omega: float, n_max: int) -> ModelParams:
    return ModelParams(
        omega=config.omega,
        omega0=config.omega0,
        g=g_over_omega * config.omega,
        n_max=n_max,
    )


def _resolve_cutoff(config: ExperimentConfig) -> int:
    """Fixed cutoff from the config, or the converged cutoff over the g grid."""
    if config.n_max is not None:
        return config.n_max
    candidates = [
        converge_cutoff(_model_params(config, g, 10), 1e-8)
        for g in config.g_values
    ]
    return max(candidates)


def _prepare(config: ExperimentConfig, g_over_omega: float, n_max: int) -> PreparedModel:
    return prepare_model(_model_params(config, g_over_omega, n_max))


def _paired_ensembles(
    config: ExperimentConfig, omega_t1: float, n: int, width: float, runs: int
):
    """Draw the jitter ensemble of a two-period schedule once per build and
    return ``ensemble(prep, eps)``, which runs those draws for one coupling
    and epsilon. Every call reuses the same draws, which is what pairs run k
    across a table."""
    base = two_period_schedule(omega_t1 / config.omega, config.ratio, n)
    times = jitter_times(base, width, config.omega, runs, config.seed)

    def ensemble(prep: PreparedModel, eps: float):
        return ensemble_survival(
            prep, base, MeasurementModel(eps), width, runs, config.seed, jittered=times
        )

    return ensemble


def _t1_grid(config: ExperimentConfig) -> np.ndarray:
    """omega*T1 values spanning 2*pi*[t1_window] (uniform or seeded random)."""
    lo, hi = config.t1_window
    if config.t1_sampling == "uniform":
        if config.t1_count == 1:
            return np.array([2 * math.pi * lo])
        return 2 * math.pi * np.linspace(lo, hi, config.t1_count)
    rng = np.random.default_rng(config.seed)
    return 2 * math.pi * np.sort(rng.uniform(lo, hi, config.t1_count))


def _commensurate_no_jitter(config: ExperimentConfig) -> bool:
    # flagged: a jitter-free schedule whose periods are commensurate can lock
    # onto resonances of the post-measurement dynamics
    return config.jitter_width == 0.0 and abs(config.ratio - round(config.ratio)) < 1e-12


def _only(values, what: str, experiment: str):
    if len(values) != 1:
        raise ValueError(f"{experiment} uses exactly one {what}, got {len(values)}")
    return values[0]


def build_tables(config: ExperimentConfig) -> tuple[dict, dict[str, Table]]:
    """Run the experiment; return (metadata, tables keyed by name).

    Single-table experiments use the key "data"; fig4 uses "a", "b", "c".
    """
    config.validate()
    n_max = _resolve_cutoff(config)
    largest_g = max(config.g_values)
    if largest_g > 0:
        assert_cutoff_converged(_model_params(config, largest_g, n_max))

    metadata = {
        "tool": f"antizeno {__version__}",
        "config": config.to_dict(),
        "generator": GENERATOR_NOTE,
        "cutoff_used": n_max,
        "cutoff_stable_to": 1e-8,
        "commensurate_no_jitter": _commensurate_no_jitter(config),
    }
    if config.experiment == "fig4":
        metadata["fig4_panels"] = FIG4_PANELS

    builder = _BUILDERS[config.experiment]
    return metadata, builder(config, n_max)


def _build_fig1(config: ExperimentConfig, n_max: int) -> dict[str, Table]:
    g = np.asarray(config.g_values, dtype=float)
    if g.size < 3:
        raise ValueError("fig1 needs at least 3 couplings for the quadratic fit")
    p_e = np.array([_prepare(config, gi, n_max).ground.p_e for gi in g])
    fit = fit_quadratic_origin(g, p_e)
    rows = [
        (float(gi), float(pi), fit.coefficients["lam"], fit.r_squared)
        for gi, pi in zip(g, p_e)
    ]
    return {"data": Table(("g_over_omega", "p_e", "lambda_fit", "r_squared"), rows)}


def _build_fig2(config: ExperimentConfig, n_max: int) -> dict[str, Table]:
    omega_t = np.arange(0.0, config.time_max + config.time_step / 2, config.time_step)
    t_grid = omega_t / config.omega
    columns = ["omega_t"]
    series = []
    for g in config.g_values:
        prep = _prepare(config, g, n_max)
        initial = measure_no_click(prep.chain_ground(), MeasurementModel(0.0)).post_state
        trace = excitation_trace(prep.params, initial, t_grid)
        columns.append(f"p1e_g_over_omega_{g:.6g}")
        series.append(trace.values)
    rows = [
        tuple([float(omega_t[i])] + [float(s[i]) for s in series])
        for i in range(omega_t.size)
    ]
    return {"data": Table(tuple(columns), rows)}


def _build_fig3(config: ExperimentConfig, n_max: int) -> dict[str, Table]:
    t1_values = _t1_grid(config) / config.omega
    m = MeasurementModel(_only(config.epsilon_values, "epsilon", "fig3"))
    g = np.asarray(config.g_values, dtype=float)
    if g.size < 2:
        raise ValueError("fig3 needs at least 2 couplings for the exponential fit")
    mean_final = np.array(
        [
            sweep_T1(_prepare(config, gi, n_max), config.n_measurements,
                     t1_values, config.ratio, m)
            for gi in g
        ]
    )
    fit = fit_exponential(g**2, mean_final)
    rows = [
        (float(gi), float(pi), fit.coefficients["rate"], fit.r_squared)
        for gi, pi in zip(g, mean_final)
    ]
    return {
        "data": Table(
            ("g_over_omega", "mean_final_survival", "gaussian_rate", "gaussian_r_squared"),
            rows,
        )
    }


def _build_fig4(config: ExperimentConfig, n_max: int) -> dict[str, Table]:
    eps = _only(config.epsilon_values, "epsilon", "fig4")
    panels = {
        panel: _paired_ensembles(config, s["omega_t1"], s["n"], s["jitter"], s["runs"])
        for panel, s in FIG4_PANELS.items()
    }

    def ensemble(g: float, panel: str):
        return panels[panel](_prepare(config, g, n_max), eps)

    # panel a shows the strongest coupling of the panel-b set
    ens_a = ensemble(max(config.g_values), "a")
    rows_a = [
        (
            i + 1,
            float(config.omega * ens_a.times[i]),
            float(ens_a.single_mean[i]),
            float(ens_a.single_std[i]),
            float(ens_a.cumulative_mean[i]),
            float(ens_a.cumulative_std[i]),
        )
        for i in range(ens_a.times.size)
    ]
    table_a = Table(
        ("event", "omega_t", "single_mean", "single_std", "cumulative_mean", "cumulative_std"),
        rows_a,
    )

    # panel b: survival vs event count per coupling, with exponential fits
    rows_b = []
    for g in config.g_values:
        ens = ensemble(g, "b")
        events = np.arange(1, ens.times.size + 1, dtype=float)
        fit = fit_exponential(events, ens.cumulative_mean)
        for i in range(ens.times.size):
            rows_b.append(
                (
                    float(g),
                    i + 1,
                    float(config.omega * ens.times[i]),
                    float(ens.cumulative_mean[i]),
                    float(ens.cumulative_std[i]),
                    fit.coefficients["rate"],
                    fit.r_squared,
                )
            )
    table_b = Table(
        ("g_over_omega", "event", "omega_t", "cumulative_mean", "cumulative_std",
         "fit_rate", "fit_r_squared"),
        rows_b,
    )

    # panel c: mean single-event survival vs coupling, quadratic law
    grid = np.asarray(FIG4_PANEL_C_GRID, dtype=float)
    pbar = np.array([ensemble(g, "c").mean_single for g in grid])
    fit = fit_quadratic_origin(grid, 1.0 - pbar)
    rows_c = [
        (float(g), float(pb), fit.coefficients["lam"], fit.r_squared)
        for g, pb in zip(grid, pbar)
    ]
    table_c = Table(
        ("g_over_omega", "mean_single_survival", "chi_bar_fit", "r_squared"), rows_c
    )
    return {"a": table_a, "b": table_b, "c": table_c}


def _build_fig5(config: ExperimentConfig, n_max: int) -> dict[str, Table]:
    g = _only(config.g_values, "coupling", "fig5")
    prep = _prepare(config, g, n_max)
    m = MeasurementModel(_only(config.epsilon_values, "epsilon", "fig5"))
    ensembles = {}
    for omega_t1 in config.omega_t1_values:
        base = two_period_schedule(
            omega_t1 / config.omega, config.ratio, config.n_measurements
        )
        ensembles[omega_t1] = ensemble_survival(
            prep, base, m, config.jitter_width, config.runs, config.seed
        )
    rates = {}
    for omega_t1, ens in ensembles.items():
        t_over_t1 = config.omega * ens.times / omega_t1
        rates[omega_t1] = fit_exponential(t_over_t1, ens.cumulative_mean)
    rate_values = [f.coefficients["rate"] for f in rates.values()]
    ratio = max(rate_values) / min(rate_values)
    rows = []
    for omega_t1, ens in ensembles.items():
        fit = rates[omega_t1]
        for i in range(ens.times.size):
            omega_t = float(config.omega * ens.times[i])
            rows.append(
                (
                    float(omega_t1),
                    i + 1,
                    omega_t,
                    omega_t / float(omega_t1),
                    float(ens.cumulative_mean[i]),
                    float(ens.cumulative_std[i]),
                    fit.coefficients["rate"],
                    float(ratio),
                )
            )
    return {
        "data": Table(
            ("omega_t1", "event", "omega_t", "t_over_t1", "cumulative_mean",
             "cumulative_std", "rate_per_t_over_t1", "rate_ratio_max_min"),
            rows,
        )
    }


def _build_fig6(config: ExperimentConfig, n_max: int) -> dict[str, Table]:
    g = _only(config.g_values, "coupling", "fig6")
    prep = _prepare(config, g, n_max)
    ensemble = _paired_ensembles(
        config, _only(config.omega_t1_values, "omega_t1", "fig6"),
        config.n_measurements, config.jitter_width, config.runs,
    )
    rows = []
    for eps in config.epsilon_values:
        ens = ensemble(prep, eps)
        for i in range(ens.times.size):
            rows.append(
                (
                    float(eps),
                    i + 1,
                    float(config.omega * ens.times[i]),
                    float(ens.single_mean[i]),
                    float(ens.single_std[i]),
                    float(ens.cumulative_mean[i]),
                    float(ens.cumulative_std[i]),
                )
            )
    return {
        "data": Table(
            ("epsilon", "event", "omega_t", "single_mean", "single_std",
             "cumulative_mean", "cumulative_std"),
            rows,
        )
    }


def _build_survival(config: ExperimentConfig, n_max: int) -> dict[str, Table]:
    ensemble = _paired_ensembles(
        config, _only(config.omega_t1_values, "omega_t1", "survival"),
        config.n_measurements, config.jitter_width, config.runs,
    )
    rows = []
    for g in config.g_values:
        prep = _prepare(config, g, n_max)
        for eps in config.epsilon_values:
            ens = ensemble(prep, eps)
            for i in range(ens.times.size):
                # chi_n = (1 - p_ng) * (omega/g)^2, the per-event quadratic-law
                # residual; undefined at g = 0
                chi_n = (
                    (1.0 - float(ens.single_mean[i])) / g**2 if g > 0 else float("nan")
                )
                rows.append(
                    (
                        float(g),
                        float(eps),
                        i + 1,
                        float(config.omega * ens.times[i]),
                        float(ens.single_mean[i]),
                        float(ens.single_std[i]),
                        float(ens.cumulative_mean[i]),
                        float(ens.cumulative_std[i]),
                        chi_n,
                    )
                )
    return {
        "data": Table(
            ("g_over_omega", "epsilon", "event", "omega_t", "single_mean",
             "single_std", "cumulative_mean", "cumulative_std", "chi_n"),
            rows,
        )
    }


_BUILDERS = {
    "fig1": _build_fig1,
    "fig2": _build_fig2,
    "fig3": _build_fig3,
    "fig4": _build_fig4,
    "fig5": _build_fig5,
    "fig6": _build_fig6,
    "survival": _build_survival,
}


# ---------------------------------------------------------------------------
# output emission


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _metadata_lines(metadata: dict) -> list[str]:
    lines = [f"# {metadata['tool']}"]
    lines.append(f"# config = {json.dumps(metadata['config'], sort_keys=True)}")
    for key in sorted(metadata):
        if key in ("tool", "config"):
            continue
        lines.append(f"# {key} = {json.dumps(metadata[key], sort_keys=True)}")
    return lines


def _csv_text(metadata: dict, table: Table) -> str:
    lines = _metadata_lines(metadata)
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _json_text(metadata: dict, tables: dict[str, Table]) -> str:
    series = {}
    for name, table in tables.items():
        cols = {
            col: [_json_cell(row[i]) for row in table.rows]
            for i, col in enumerate(table.columns)
        }
        series[name] = cols
    payload = {"metadata": metadata, "series": series}
    return json.dumps(payload, sort_keys=True) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".antizeno-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _suffixed(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext or '.csv'}"


def run(config: ExperimentConfig) -> RunResult:
    """Execute the experiment and write its output file(s).

    CSV output yields one file per table (figure presets other than fig4
    produce exactly one); JSON output is always a single file. Returns the
    in-memory tables and the written paths.
    """
    config.validate()
    if config.out is None:
        raise ValueError("no output path configured (set out/--out)")
    metadata, tables = build_tables(config)
    paths: list[str] = []
    if config.format == "json":
        _atomic_write(config.out, _json_text(metadata, tables))
        paths.append(config.out)
    else:
        if set(tables) == {"data"}:
            _atomic_write(config.out, _csv_text(metadata, tables["data"]))
            paths.append(config.out)
        else:
            for name in sorted(tables):
                path = _suffixed(config.out, name)
                _atomic_write(path, _csv_text(metadata, tables[name]))
                paths.append(path)
    return RunResult(config, metadata, tables, paths)


def read_config_header(path: str) -> ExperimentConfig:
    """Recover the exact ExperimentConfig from an output file's metadata."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return ExperimentConfig.from_dict(payload["metadata"]["config"])
    for line in text.splitlines():
        if line.startswith("# config = "):
            return ExperimentConfig.from_json(line[len("# config = "):])
    raise ValueError(f"no config metadata found in {path}")
