"""Output checks behind the benchmark's failure count.

A pass fails when any check below fails. The checks read the files the
program wrote, as a user would, and never a continuous deviation score:

- the expected file set was written, and ``read_config_header`` recovers
  each file's configuration exactly;
- every probability lies in [0, 1];
- ``cumulative_mean`` never increases along the events of one series;
- the first-event survival equals ``epsilon + (1 - epsilon)(1 - p_e)`` of
  the ground state at the same coupling, and every emitted ground-state
  ``p_e`` matches, both to 1e-9, with ``p_e`` from an independent solve of
  the even parity chain (the real tridiagonal block that holds the ground
  state);
- at the reference seed, every table matches ``reference.json`` to an
  absolute 1e-9: loose enough for a change in floating-point summation
  order, tight enough to catch a change in the physics.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from antizeno.runner import read_config_header

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TOLERANCE = 1e-9

PROBABILITY_COLUMNS = ("p_e", "mean_final_survival", "single_mean",
                       "cumulative_mean", "mean_single_survival")

Tables = dict[str, dict[str, list[float]]]


def expected_paths(jobs) -> list[str]:
    """Files each job must write: one per table for CSV, one for JSON."""
    paths = []
    for job in jobs:
        config = job.config
        if config.experiment == "fig4" and config.format == "csv":
            root, ext = os.path.splitext(config.out)
            paths.extend(f"{root}_{panel}{ext}" for panel in ("a", "b", "c"))
        else:
            paths.append(config.out)
    return paths


def read_output(path: str) -> tuple[dict, Tables]:
    """Metadata and tables of one output file; tables are named after the
    file stem (plus the JSON series key when it is not ``data``)."""
    stem = os.path.splitext(os.path.basename(path))[0]
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".json"):
        payload = json.loads(text)
        tables = {
            stem if key == "data" else f"{stem}_{key}": {
                col: [math.nan if v is None else float(v) for v in values]
                for col, values in series.items()
            }
            for key, series in payload["series"].items()
        }
        return payload["metadata"], tables
    metadata = {}
    lines = text.splitlines()
    while lines and lines[0].startswith("#"):
        key, sep, value = lines.pop(0)[2:].partition(" = ")
        if sep:
            metadata[key] = json.loads(value)
    columns = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{path}: ragged CSV rows")
    return metadata, {stem: {col: [row[i] for row in rows] for i, col in enumerate(columns)}}


def ground_p_e(omega: float, omega0: float, g: float, n_max: int) -> float:
    """Qubit excitation of the ground state, from the even parity chain
    |g,0>, |e,1>, |g,2>, ... of the truncated Rabi model (g in GHz)."""
    k = np.arange(n_max + 1)
    diagonal = omega * k - 0.5 * omega0 * (-1.0) ** k
    bonds = g * np.sqrt(k[1:])
    h = np.diag(diagonal) + np.diag(bonds, 1) + np.diag(bonds, -1)
    _, vectors = np.linalg.eigh(h)
    return float(np.sum(vectors[1::2, 0] ** 2))


def _series(table: dict[str, list[float]]):
    """Row ranges of the event series in a table (events restart at 1)."""
    events = table["event"]
    starts = [i for i, e in enumerate(events) if e == 1.0] + [len(events)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def check_tables(config, metadata: dict, tables: Tables) -> list[str]:
    """Seed-independent invariants of the tables of one output file."""
    problems = []
    n_max = metadata["cutoff_used"]
    p_e_cache: dict[float, float] = {}

    def p_e(g_over_omega: float) -> float:
        if g_over_omega not in p_e_cache:
            p_e_cache[g_over_omega] = ground_p_e(
                config.omega, config.omega0, g_over_omega * config.omega, n_max
            )
        return p_e_cache[g_over_omega]

    for name, table in tables.items():
        for col, values in table.items():
            if col in PROBABILITY_COLUMNS or col.startswith("p1e_"):
                if not all(0.0 <= v <= 1.0 for v in values):
                    problems.append(f"{name}.{col}: value outside [0, 1]")
        if "p_e" in table:
            for g, value in zip(table["g_over_omega"], table["p_e"]):
                if abs(value - p_e(g)) > TOLERANCE:
                    problems.append(f"{name}: p_e at g/omega={g!r} differs from the chain solve")
                    break
        if "event" not in table:
            continue
        for rows in _series(table):
            if [table["event"][i] for i in rows] != [float(i - rows[0] + 1) for i in rows]:
                problems.append(f"{name}: event numbers are not 1..N")
                break
            cumulative = [table["cumulative_mean"][i] for i in rows]
            if any(b > a for a, b in zip(cumulative, cumulative[1:])):
                problems.append(f"{name}: cumulative_mean increases along the events")
            first = rows[0]
            g = table["g_over_omega"][first] if "g_over_omega" in table else max(config.g_values)
            eps = table["epsilon"][first] if "epsilon" in table else config.epsilon_values[0]
            survival = table.get("single_mean", table["cumulative_mean"])[first]
            expected = eps + (1.0 - eps) * (1.0 - p_e(g))
            if abs(survival - expected) > TOLERANCE:
                problems.append(
                    f"{name}: first-event survival {survival!r} != {expected!r} "
                    f"at g/omega={g!r}, epsilon={eps!r}"
                )
    return problems


def compare_reference(reference: Tables, tables: Tables) -> list[str]:
    problems = []
    if set(reference) != set(tables):
        return [f"tables {sorted(tables)} != reference {sorted(reference)}"]
    for name, expected in reference.items():
        got = tables[name]
        if list(got) != list(expected):
            problems.append(f"{name}: columns {list(got)} != reference {list(expected)}")
            continue
        for col, values in expected.items():
            actual = got[col]
            if len(actual) != len(values):
                problems.append(f"{name}.{col}: {len(actual)} rows, reference has {len(values)}")
                continue
            for i, (a, b) in enumerate(zip(actual, values)):
                b = math.nan if b is None else b
                if not (abs(a - b) <= TOLERANCE or (math.isnan(a) and math.isnan(b))):
                    problems.append(f"{name}.{col}[{i}] = {a!r}, reference {b!r}")
                    break
    return problems


def load_reference(workload: str) -> Tables:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def read_pass(jobs, paths: list[str]) -> tuple[list[str], Tables]:
    """Check the file set and headers of one pass; return the problems and
    every table written."""
    expected = expected_paths(jobs)
    if paths != expected:
        return [f"written paths {paths} != expected {expected}"], {}
    problems: list[str] = []
    tables: Tables = {}
    configs = {path: job.config for job in jobs for path in expected_paths([job])}
    for path in paths:
        if not os.path.isfile(path):
            problems.append(f"missing output {path}")
            continue
        config = configs[path]
        if read_config_header(path) != config:
            problems.append(f"{path}: config header does not round-trip")
        metadata, file_tables = read_output(path)
        problems.extend(check_tables(config, metadata, file_tables))
        tables.update(file_tables)
    return problems, tables


def check_pass(jobs, paths: list[str], reference: Tables | None = None) -> list[str]:
    """All checks of one pass; ``reference`` is given at the reference seed."""
    problems, tables = read_pass(jobs, paths)
    if reference is not None and not problems:
        problems.extend(compare_reference(reference, tables))
    return problems
