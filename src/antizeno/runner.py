"""Execute an ExperimentConfig and emit plot-ready CSV or JSON.

A build works in units of omega: it solves ``config.model_params`` at
``config.couplings`` and draws the schedule stacks ``config.plan`` lists, every
time in omega*t, and no others. Every output file
embeds a metadata header with the exact configuration (JSON,
round-trippable), the random generator name, the seed-mixing rule, the Fock
cutoff actually used and, where a table has fits, what each fit dropped and
its largest residual. Outputs contain no timestamps or environment state, so
a fixed (config, seed) reproduces files byte for byte. Files are written
atomically (temp file + rename) and only after the whole experiment has
completed; a multi-file set is renamed into place only once every file of it
is written, so no partial file or set survives a failure.

Column schemas are fixed per experiment kind and documented in the README.
The fig4 preset produces three panel tables: in CSV mode they are written to
separate files suffixed ``_a``, ``_b``, ``_c``; in JSON mode they are keys of
the single ``series`` object.
"""

from __future__ import annotations

import errno
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__, config as config_module
from .analysis import fit_exponential, fit_quadratic_origin
from .config import FIG2_COLUMN, ExperimentConfig, Stack, couplings, model_params, plan
from .dynamics import excitation_trace
from .errors import NumericalError
from .measurement import measure_no_click
from .model import CUTOFF_STEP, CUTOFF_TOL, assert_cutoff_converged, converge_cutoff
from .protocol import (
    PreparedModel, ensemble_survival, jitter_times, prepare_model, sweep_T1, two_period_schedule,
)

__all__ = ["RunResult", "run", "build_tables", "read_config_header"]

GENERATOR_NOTE = "numpy PCG64; per-run seeds = SeedSequence(seed).generate_state(runs, uint64)"


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    metadata: dict
    tables: dict[str, dict[str, list]]
    paths: list[str]


def build_tables(config: ExperimentConfig) -> tuple[dict, dict[str, dict[str, list]]]:
    """Run the experiment; return (metadata, tables keyed by name).

    With the cutoff fixed, each distinct coupling of ``couplings(config)`` is
    prepared once, largest first, before any survival run: all but fig1 refuse
    a degenerate ground state, and the largest above 0 gets the cutoff check.
    A table maps each column name, in schema order, to its list of cells.
    Single-table experiments use the key "data"; fig4 uses "a", "b", "c".
    A builder may add its own metadata keys (``commensurate_no_jitter``,
    ``fig4_panels``, ``exponential_fits``, ``quadratic_fits``).
    """
    config.validate()
    solved: dict = {}  # the ground states of this build: no model is solved twice
    n_max = config.n_max if config.n_max is not None else max(  # auto: converged at every coupling
        converge_cutoff(model_params(config, g, CUTOFF_STEP), solved) for g in couplings(config))

    prepared: dict[float, PreparedModel] = {}
    for g in sorted(set(couplings(config)), reverse=True):
        prep = prepared[g] = prepare_model(model_params(config, g, n_max), solved)
        if prep.ground.even_chain is None and config.experiment != "fig1":
            raise ValueError(f"g_values: {config.experiment} needs a unique ground state at every "
                             f"coupling it runs; g/omega = {prep.params.g!r} has a gap of "
                             f"{prep.ground.gap:.3e}, below DEGENERACY_GAP")
        if len(prepared) == 1 and g > 0:  # the largest coupling, once it passed the refusal
            assert_cutoff_converged(prep.params, solved)

    metadata = {
        "tool": f"antizeno {__version__}",
        "config": config.to_dict(),
        "generator": GENERATOR_NOTE,
        "cutoff_used": n_max,
        "cutoff_stable_to": CUTOFF_TOL,
    }
    return metadata, _BUILDERS[config.experiment](config, prepared, metadata)


# ---------------------------------------------------------------------------
# table builders: (config, prepared, metadata) -> {table name: {column: cells}}


def _fit(metadata: dict, law: str, x, y, table: str, **at) -> tuple[float, float]:
    """Fit y = lam * x**2 ("quadratic") or y = exp(intercept - rate * x) ("exponential")
    to cells of table ``table``; return (lam or rate, r^2). What the fit dropped and its
    largest residual go under ``metadata["<law>_fits"][table]``, at table coordinates ``at``."""
    fit = fit_quadratic_origin(x, y) if law == "quadratic" else fit_exponential(x, y)
    metadata.setdefault(f"{law}_fits", {}).setdefault(table, []).append(
        {**at, "n_dropped": fit.n_dropped, "residual_max": fit.residual_max})
    return fit.coefficients["lam" if law == "quadratic" else "rate"], fit.r_squared


def _table(schema: str, *blocks: dict) -> dict[str, list]:
    """Stack column blocks into one table with the columns of ``schema``
    (space separated, in order). A scalar cell is repeated down its block."""
    table = {name: [] for name in schema.split()}
    for block in blocks:
        rows = max(len(v) for v in block.values() if isinstance(v, list))
        for name, cells in table.items():
            value = block[name]
            cells.extend(value if isinstance(value, list) else [value] * rows)
    return table


def _commensurate(ratio: float) -> bool:
    """Whether periods T1 and ratio*T1 are commensurate (an integer ratio): a jitter-free
    schedule of them can lock onto resonances of the post-measurement dynamics."""
    return abs(ratio - round(ratio)) < 1e-12


def _ensemble_blocks(config: ExperimentConfig, prepared, metadata: dict, stack: Stack) -> list[dict]:
    """Draw one jitter stack of the plan once (its one period's schedule in
    ``stack.runs`` runs) and run every (g/omega, epsilon) of ``stack.pairs``
    on it. Every pair reuses the same draws, which pairs run k across a table.

    Returns one survival-table block per pair: ``g_over_omega``,
    ``epsilon``, the per-event columns of its ensemble and ``chi_n``.
    Records under ``commensurate_no_jitter`` whether any schedule of the
    build runs jitter-free with commensurate periods (``_commensurate``).
    """
    (omega_t1,) = stack.periods
    base = two_period_schedule(float(omega_t1), config.ratio, stack.n)
    times = jitter_times(base, float(stack.jitter), stack.runs, config.seed)
    flagged = _commensurate(config.ratio) and bool(np.all(times == base))  # no draw moved an event
    metadata["commensurate_no_jitter"] = metadata.get("commensurate_no_jitter", False) or flagged
    blocks = []
    for g, eps in stack.pairs:
        ens = ensemble_survival(prepared[g], times, eps)
        blocks.append({
            "g_over_omega": float(g),
            "epsilon": float(eps),
            "event": list(range(1, stack.n + 1)),
            "omega_t": base.tolist(),
            "single_mean": ens.single_mean.tolist(),
            "single_std": ens.single_std.tolist(),
            "cumulative_mean": ens.cumulative_mean.tolist(),
            "cumulative_std": ens.cumulative_std.tolist(),
            # chi_n = (1 - p_ng) * (omega/g)^2, the per-event quadratic-law
            # residual; undefined where g**2 is 0 (g = 0, or it underflows)
            "chi_n": ((1.0 - ens.single_mean) / g**2).tolist() if g**2 > 0 else math.nan,
        })
    return blocks


def _build_fig1(config: ExperimentConfig, prepared, metadata: dict) -> dict:
    g = np.asarray(config.g_values, dtype=float)
    p_e = np.array([prepared[gi].ground.p_e for gi in config.g_values])
    data = {"g_over_omega": g.tolist(), "p_e": p_e.tolist()}
    data["lambda_fit"], data["r_squared"] = _fit(metadata, "quadratic", g, p_e, "data")
    return {"data": _table("g_over_omega p_e lambda_fit r_squared", data)}


def _build_fig2(config: ExperimentConfig, prepared, metadata: dict) -> dict:
    omega_t = np.arange(0.0, config.time_max + config.time_step / 2, config.time_step)
    table = {"omega_t": omega_t.tolist()}
    for g in config.g_values:
        prep = prepared[g]
        _, initial = measure_no_click(prep.chain_ground(1), 0.0)
        values = excitation_trace(prep.params, initial, omega_t)
        table[FIG2_COLUMN.format(g)] = values.tolist()
    return {"data": table}


def _build_fig3(config: ExperimentConfig, prepared, metadata: dict) -> dict:
    metadata["commensurate_no_jitter"] = _commensurate(config.ratio)  # the sweep runs jitter-free
    (sweep,) = plan(config).values()
    g = np.array([gi for gi, _ in sweep.pairs], dtype=float)
    mean_final = np.array([sweep_T1(prepared[gi], sweep.n, sweep.periods, config.ratio, eps)
                           for gi, eps in sweep.pairs])
    data = {"g_over_omega": g.tolist(), "mean_final_survival": mean_final.tolist()}
    data["gaussian_rate"], data["gaussian_r_squared"] = _fit(
        metadata, "exponential", g**2, mean_final, "data")
    return {"data": _table("g_over_omega mean_final_survival gaussian_rate gaussian_r_squared", data)}


def _build_fig4(config: ExperimentConfig, prepared, metadata: dict) -> dict:
    panel = {name: _ensemble_blocks(config, prepared, metadata, stack)
             for name, stack in plan(config).items()}
    # panel b: survival vs event count per coupling, with exponential fits
    for block in panel["b"]:
        block["fit_rate"], block["fit_r_squared"] = _fit(
            metadata, "exponential", block["event"], block["cumulative_mean"], "b",
            g_over_omega=block["g_over_omega"])
    # panel c: mean single-event survival vs coupling, quadratic law
    grid = [block["g_over_omega"] for block in panel["c"]]
    pbar = np.array([np.mean(block["single_mean"]) for block in panel["c"]])
    c = {"g_over_omega": grid, "mean_single_survival": pbar.tolist()}
    c["chi_bar_fit"], c["r_squared"] = _fit(metadata, "quadratic", grid, 1.0 - pbar, "c")
    metadata["fig4_panels"] = config_module.FIG4_PANELS
    return {
        # panel a shows the strongest coupling of the panel-b set
        "a": _table("event omega_t single_mean single_std cumulative_mean cumulative_std", *panel["a"]),
        "b": _table("g_over_omega event omega_t cumulative_mean cumulative_std fit_rate fit_r_squared",
                    *panel["b"]),
        "c": _table("g_over_omega mean_single_survival chi_bar_fit r_squared", c),
    }


def _build_fig5(config: ExperimentConfig, prepared, metadata: dict) -> dict:
    blocks = []
    for w, stack in plan(config).items():
        (block,) = _ensemble_blocks(config, prepared, metadata, stack)
        # in omega*t units, t/T1 = omega*t / (omega*T1)
        t_over_t1 = (np.asarray(block["omega_t"]) / w).tolist()
        rate, _ = _fit(metadata, "exponential", t_over_t1, block["cumulative_mean"], "data",
                       omega_t1=float(w))
        blocks.append({**block, "omega_t1": float(w), "t_over_t1": t_over_t1,
                       "rate_per_t_over_t1": rate})
    # similar rates across periods mean the decay per measurement is period-independent
    rates = [block["rate_per_t_over_t1"] for block in blocks]
    if min(rates) <= 0:
        raise NumericalError(f"no rate ratio: a period's fitted decay rate is {min(rates)!r}")
    return {"data": _table(
        "omega_t1 event omega_t t_over_t1 cumulative_mean cumulative_std "
        "rate_per_t_over_t1 rate_ratio_max_min",
        *({**block, "rate_ratio_max_min": max(rates) / min(rates)} for block in blocks),
    )}


def _build_survival(config: ExperimentConfig, prepared, metadata: dict,
                    schema: str = "g_over_omega epsilon event omega_t single_mean single_std "
                                  "cumulative_mean cumulative_std chi_n") -> dict:
    """Every (g, epsilon) of the config on one jitter stack, as the columns
    of ``schema``."""
    (stack,) = plan(config).values()
    return {"data": _table(schema, *_ensemble_blocks(config, prepared, metadata, stack))}


_BUILDERS = {
    "fig1": _build_fig1, "fig2": _build_fig2, "fig3": _build_fig3, "fig4": _build_fig4,
    "fig5": _build_fig5, "survival": _build_survival,
    # the survival table at one coupling, without its g and chi_n columns
    "fig6": partial(_build_survival, schema="epsilon event omega_t single_mean single_std "
                                            "cumulative_mean cumulative_std"),
}


# ---------------------------------------------------------------------------
# output emission


def _csv_text(metadata: dict, table: dict[str, list]) -> str:
    keys = ["config", *(key for key in sorted(metadata) if key not in ("tool", "config"))]
    lines = [f"# {metadata['tool']}"]
    lines.extend(f"# {key} = {json.dumps(metadata[key], sort_keys=True)}" for key in keys)
    lines.append(",".join(table))
    lines.extend(",".join(map(repr, row)) for row in zip(*table.values()))
    return "\n".join(lines) + "\n"


def _json_text(metadata: dict, tables: dict[str, dict[str, list]]) -> str:
    series = {
        name: {col: [None if math.isnan(v) else v for v in cells] for col, cells in table.items()}
        for name, table in tables.items()
    }
    return json.dumps({"metadata": metadata, "series": series}, sort_keys=True) + "\n"


def _write_all(texts: dict[str, str]) -> None:
    """Write a whole output set or none of it: every file goes to a new temp
    file beside its target (mode 0o666 & ~umask, as ``open`` gives), and the
    temps are renamed over their targets only once all of them are written."""
    temps: list[tuple[str, str]] = []
    try:
        for path, text in texts.items():
            directory = os.path.dirname(os.path.abspath(path))
            tmp = os.path.join(directory, f".antizeno-{os.urandom(8).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8") as handle:
                temps.append((tmp, path))
                handle.write(text)
        for _, path in temps:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
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
    if config.out is None:
        raise ValueError("out must be a path to write to (set out/--out), got None")
    metadata, tables = build_tables(config)
    if config.format == "json":
        texts = {config.out: _json_text(metadata, tables)}
    elif set(tables) == {"data"}:
        texts = {config.out: _csv_text(metadata, tables["data"])}
    else:
        texts = {
            _suffixed(config.out, name): _csv_text(metadata, tables[name])
            for name in sorted(tables)
        }
    _write_all(texts)
    return RunResult(config, metadata, tables, list(texts))


def read_config_header(path: str) -> ExperimentConfig:
    """Recover the exact ExperimentConfig from an output file's metadata."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return ExperimentConfig.from_dict(payload["metadata"]["config"])
    for line in text.splitlines():
        if line.startswith("# config = "):
            return ExperimentConfig.from_dict(json.loads(line[len("# config = "):]))
    raise ValueError(f"no config metadata found in {path}")
