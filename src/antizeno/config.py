"""Experiment configuration: figure presets, free-form runs, validation and
round-trip (de)serialization.

All couplings are given as dimensionless g/omega, periods as dimensionless
omega*T1 and jitter as dimensionless omega*dt, matching how every output
table reports times as omega*t (hbar = 1). A run builds each model in units of
omega with ``model_params``, at the couplings ``couplings`` lists, and draws
the schedule stacks ``plan`` lists; the rules judge those same objects.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .model import CUTOFF_CAP, CUTOFF_STEP, CUTOFF_TOL, N_MAX_CAP, ModelParams, _is_finite, _is_number
from .protocol import _two_period_times, jitter_keeps_order

__all__ = ["ExperimentConfig", "EXPERIMENTS", "FORMATS", "preset", "PRESET_NAMES"]

EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "survival")
FORMATS = ("csv", "json")

_SQRT2 = math.sqrt(2.0)


# The kind of value each field holds: (kind, test(value)). validate checks
# every field against its row before any other rule reads the field.
_REAL = ("a real number", _is_number)
_INTEGER = ("an integer", lambda v: _is_number(v, numbers.Integral))
_REALS = ("a list of real numbers", lambda v: isinstance(v, tuple) and all(map(_is_number, v)))
FIELD_TYPES = {
    "experiment": (f"one of {EXPERIMENTS}", lambda v: v in EXPERIMENTS),
    "omega": _REAL, "omega0": _REAL, "g_values": _REALS,
    "n_max": ("an integer or null", lambda v: v is None or _is_number(v, numbers.Integral)),
    "omega_t1_values": _REALS, "ratio": _REAL, "n_measurements": _INTEGER,
    "jitter_width": _REAL, "runs": _INTEGER, "epsilon_values": _REALS,
    "time_max": _REAL, "time_step": _REAL, "seed": _INTEGER,
    "out": ("a non-empty path string or null",
            lambda v: v is None or (isinstance(v, str) and v != "")),
    "format": (f"one of {FORMATS}", lambda v: v in FORMATS),
}


def _grid(n: int, stop: float = 1.0) -> tuple[float, ...]:
    return tuple(stop * i / (n - 1) for i in range(n))


# What each figure preset sets on top of the ExperimentConfig() defaults
# (see preset for what each figure shows).
PRESETS = {
    "fig1": {"g_values": _grid(101)},
    "fig2": {"g_values": (1 / 3, 2 / 3, 1.0)},
    "fig3": {"g_values": _grid(11),
             "omega_t1_values": tuple((2 * np.pi * np.linspace(0.1, 5.0, 100)).tolist()),
             "n_measurements": 8, "jitter_width": 0.0},
    "fig4": {"g_values": (1 / 3, 2 / 3, 1.0)},
    "fig5": {"omega_t1_values": (math.pi, 2 * math.pi, 3 * math.pi)},
    "fig6": {"epsilon_values": (0.0, 0.1, 0.2)},
}
PRESET_NAMES = tuple(PRESETS)


# fig2 names one column per coupling with this format.
FIG2_COLUMN = "p1e_g_over_omega_{:.6g}"

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
FIG4_PANEL_C_GRID = tuple(i / 10 for i in range(11))  # panel (c) couplings g/omega


def couplings(c) -> tuple[float, ...]:
    """The couplings g/omega a build of c solves (fig4's panel-c grid too)."""
    return (*c.g_values, *FIG4_PANEL_C_GRID) if c.experiment == "fig4" else c.g_values


def model_params(c, g: float, n_max: int) -> ModelParams:
    """The model a build of c solves at g/omega and n_max, in units of omega."""
    return ModelParams(float(c.omega0) / float(c.omega), float(g), n_max)


def largest_model(c) -> ModelParams:
    """The largest model a build of c solves: its largest coupling at n_max + CUTOFF_STEP
    (the cutoff check) when above 0, else at n_max; at CUTOFF_CAP under auto."""
    g = max(couplings(c))
    return model_params(c, g, CUTOFF_CAP if c.n_max is None else int(c.n_max) + CUTOFF_STEP * (g > 0))


def _exists(build, c) -> bool:
    """Whether the model accepts build(c); omega 0 (an earlier row) divides by 0."""
    try:
        return bool(build(c))
    except (ValueError, ArithmeticError):
        return False


# One schedule stack a build draws: its periods omega*T1, events per schedule,
# half-window omega*dt, runs per period and the (g/omega, epsilon) pairs it runs.
Stack = namedtuple("Stack", "periods n jitter runs pairs")


def plan(c) -> dict:
    """Every schedule stack a build of c draws, keyed by table block: fig4's panels, fig5's
    periods, or the one stack of fig3 (an unjittered sweep), fig6 and survival."""
    n, pairs = int(c.n_measurements), [(g, e) for g in c.g_values for e in c.epsilon_values]
    w, runs = (0.0, 1) if c.experiment == "fig3" else (float(c.jitter_width), int(c.runs))
    if c.experiment == "fig4":
        g = {"a": [max(c.g_values)], "b": c.g_values, "c": FIG4_PANEL_C_GRID}
        return {k: Stack((p["omega_t1"],), p["n"], p["jitter"], p["runs"],
                         [(x, c.epsilon_values[0]) for x in g[k]]) for k, p in FIG4_PANELS.items()}
    if c.experiment == "fig5":
        return {t1: Stack((t1,), n, w, runs, pairs) for t1 in c.omega_t1_values}
    return {} if c.experiment in ("fig1", "fig2") else {"data": Stack(c.omega_t1_values, n, w, runs, pairs)}


# The most grid steps or event times one input may ask for: larger grids and
# schedule stacks are refused before any array is built.
MAX_POINTS = 10**6

# What each experiment needs of its fields: (field, what, test), where
# test(value, config) may read the rest of the config. validate enforces
# every rule, so a bad shape is rejected before any eigensolve. Rules do
# Python float and int arithmetic, so numpy scalars neither warn nor wrap.
# The schedule rules judge the stacks of plan, in omega*t. The phase rules
# (_resolved(t, c): the phases up to omega*t = t, times eps_mach, under
# CUTOFF_TOL) run first, so the order rule builds only finite schedules.
_resolved = lambda t, c: t * largest_model(c).spread < CUTOFF_TOL / np.finfo(float).eps  # noqa: E731
_last = lambda s, c: float(max(s.periods)) * (s.n - s.n // 2 + s.n // 2 * float(c.ratio))  # noqa: E731
_IN_ORDER = lambda v, c: all(jitter_keeps_order(  # noqa: E731
    _two_period_times(np.array(s.periods, float), c.ratio, s.n), s.jitter) for s in plan(c).values())
_SIZED = lambda v, c: all(len(s.periods) * s.runs * s.n <= MAX_POINTS for s in plan(c).values())  # noqa: E731
_KEEPS_ORDER = ("jitter_width", "a window that cannot reorder events (jitter_width below the first "
                "event time and half of every interval)", _IN_ORDER)
_BOUND = ("times the largest model's Gershgorin spread, which grows with omega0/omega and g/omega, "
          "below CUTOFF_TOL/eps_mach (about 4.5e7)")
_PHASES = (f"schedules whose phases the run resolves: (last event time + half-window, in omega*t) {_BOUND}",
           lambda v, c: all(_resolved(_last(s, c) + s.jitter, c) for s in plan(c).values()))
_RESOLVED = (("jitter_width", f"a half-window whose phases the run resolves: the half-window (in omega*t) "
              f"{_BOUND}, on every schedule whose last event time is within that bound", lambda v, c: all(
                  _resolved(s.jitter, c) or not _resolved(_last(s, c), c) for s in plan(c).values())),
             ("omega_t1_values", *_PHASES))
_STACK_SIZE = ("runs", "a jitter stack of at most 10^6 event times (runs times n_measurements)", _SIZED)
INPUT_RULES = {
    "fig1": [("g_values", "at least 3 couplings for the quadratic fit", lambda v, c: len(v) >= 3),
             ("omega0", f"a splitting the solve resolves: omega*t = 1 {_BOUND}, at couplings 0",
              lambda v, c: _resolved(1.0, replace(c, g_values=(0.0,)))),
             ("g_values", f"couplings the solve resolves: omega*t = 1 {_BOUND}",
              lambda v, c: _resolved(1.0, c))],
    "fig2": [("g_values", "couplings distinct to 6 significant digits (they name the columns)",
              lambda v, c: len({FIG2_COLUMN.format(g) for g in v}) == len(v)),
             ("time_max", "a grid of at most 10^6 steps (time_max / time_step)",
              lambda v, c: float(v) / float(c.time_step) <= MAX_POINTS),
             ("time_max", f"a grid whose phases the run resolves: time_max (in omega*t) {_BOUND}",
              lambda v, c: _resolved(float(v), c))],
    "fig3": [("g_values", "at least 2 couplings for the exponential fit", lambda v, c: len(v) >= 2),
             ("epsilon_values", "exactly one epsilon", lambda v, c: len(v) == 1),
             ("jitter_width", "no jitter (its period sweep runs unjittered)", lambda v, c: v == 0),
             ("omega_t1_values", "a sweep of at most 10^6 event times (omega_t1_values times "
              "n_measurements)", _SIZED),
             ("omega_t1_values", *_PHASES),
             ("omega_t1_values", "periods whose schedules stay increasing", _IN_ORDER)],
    "fig4": [("g_values", "couplings above 0 (panel b fits a decay at each)", lambda v, c: min(v) > 0),
             ("epsilon_values", "exactly one epsilon", lambda v, c: len(v) == 1),
             ("ratio", *_PHASES),
             ("ratio", "a ratio at which no panel's jitter window can reorder events", _IN_ORDER)],
    "fig5": [("g_values", "exactly one coupling, above 0", lambda v, c: len(v) == 1 and v[0] > 0),
             ("epsilon_values", "exactly one epsilon", lambda v, c: len(v) == 1),
             ("omega_t1_values", "at least two periods for the rate collapse", lambda v, c: len(v) >= 2),
             ("n_measurements", "at least 2 events for the per-period fits", lambda v, c: v >= 2),
             _STACK_SIZE, *_RESOLVED, _KEEPS_ORDER],
    "fig6": [("g_values", "exactly one coupling", lambda v, c: len(v) == 1),
             ("omega_t1_values", "exactly one omega_t1", lambda v, c: len(v) == 1),
             _STACK_SIZE, *_RESOLVED, _KEEPS_ORDER],
    "survival": [("omega_t1_values", "exactly one omega_t1", lambda v, c: len(v) == 1),
                 _STACK_SIZE, *_RESOLVED, _KEEPS_ORDER],
}

# What every experiment needs of its fields, as rows of the INPUT_RULES
# shape. validate checks them in order before INPUT_RULES, so a test may
# read the field of an earlier row (the omega0 and n_max rows build models
# with model_params), and no test raises on a config an earlier row refuses.
FIELD_RULES = [
    ("omega", "> 0", lambda v, c: v > 0),
    ("omega0", ">= 0 and finite over omega", lambda v, c: _exists(lambda c: model_params(c, 0.0, 1), c)),
    ("g_values", "non-empty and >= 0", lambda v, c: bool(v) and min(v) >= 0),
    ("n_max", ">= 1 (or null for automatic)", lambda v, c: v is None or v >= 1),
    ("n_max", f"a cutoff at which the largest model the run solves has n <= {N_MAX_CAP} and a "
              f"finite Gershgorin bound on its spectrum, 2*(n + omega0/2 + 2*g*sqrt(n)), "
              f"at g = the largest coupling the run solves, in units of omega, and n = n_max + "
              f"{CUTOFF_STEP} when a coupling is > 0 (the cutoff check), n_max when none is, or "
              f"{CUTOFF_CAP} when automatic", lambda v, c: _exists(largest_model, c)),
    ("omega_t1_values", "non-empty and > 0", lambda v, c: bool(v) and min(v) > 0),
    *((name, "free of repeated values", lambda v, c: len(set(v)) == len(v))
      for name in ("g_values", "omega_t1_values", "epsilon_values")),
    ("ratio", "> 0", lambda v, c: v > 0),
    ("n_measurements", ">= 1", lambda v, c: v >= 1),
    ("jitter_width", ">= 0", lambda v, c: v >= 0),
    ("runs", ">= 1", lambda v, c: v >= 1),
    ("epsilon_values", "non-empty and in [0, 1]",
     lambda v, c: bool(v) and all(0 <= e <= 1 for e in v)),
    ("time_step", "> 0", lambda v, c: v > 0),
    ("time_max", ">= time_step", lambda v, c: v >= c.time_step),
    ("seed", ">= 0", lambda v, c: v >= 0),
    ("n_measurements", "at most 10^6", lambda v, c: v <= MAX_POINTS),
]

# The fields every experiment reads, and those each one reads on top.
# validate rejects any other field that differs from its ExperimentConfig()
# default, so a header never records an input that did not act. seed is
# accepted everywhere: a seed that draws nothing cannot mislead.
ALWAYS_READ = ("experiment", "omega", "omega0", "g_values", "n_max", "out", "format")
READ_SETS = {
    "fig1": (),
    "fig2": ("time_max", "time_step"),
    "fig3": ("omega_t1_values", "ratio", "n_measurements", "epsilon_values", "jitter_width"),
    "fig4": ("ratio", "epsilon_values", "seed"),
    **dict.fromkeys(("fig5", "fig6", "survival"), (
        "omega_t1_values", "ratio", "n_measurements", "jitter_width", "runs", "epsilon_values", "seed",
    )),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model parameters, schedule, detector and output.

    ``FIELD_TYPES`` and ``FIELD_RULES`` say what every field must be,
    ``READ_SETS`` which fields each experiment reads and ``INPUT_RULES``
    what it needs of them; ``plan`` lists the schedule stacks a build draws.
    """

    experiment: str = "survival"
    # model
    omega: float = 1.0          # resonator frequency (GHz; a run reads omega0/omega)
    omega0: float = 1.0         # qubit splitting (GHz)
    g_values: tuple[float, ...] = (1.0,)   # couplings as g/omega
    n_max: int | None = 40      # Fock cutoff; None = converge automatically
    # schedule
    omega_t1_values: tuple[float, ...] = (2 * math.pi,)  # dimensionless omega*T1
    ratio: float = _SQRT2
    n_measurements: int = 16
    jitter_width: float = 0.2 * math.pi    # dimensionless omega*dt half-window
    runs: int = 20
    # detector
    epsilon_values: tuple[float, ...] = (0.0,)
    # fig2 time grid (dimensionless omega*t)
    time_max: float = 40.0
    time_step: float = 0.02
    # reproducibility and output
    seed: int = 1234
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(_is_number(v) and not _is_finite(v) for v in entries):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            kind, is_kind = FIELD_TYPES[f.name]
            if not is_kind(value):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        accepted = (*ALWAYS_READ, *READ_SETS[self.experiment], "seed")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in accepted and value != f.default:
                raise ValueError(f"{f.name}: {self.experiment} does not read it; leave it at "
                                 f"its default {f.default!r}, got {value!r}")
        for name, what, holds in FIELD_RULES:
            if not holds(value := getattr(self, name), self):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        for name, what, holds in INPUT_RULES[self.experiment]:
            if not holds(value := getattr(self, name), self):
                raise ValueError(f"{name}: {self.experiment} needs {what}, got {value!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        for key, value in d.items():
            if isinstance(value, tuple):
                d[key] = list(value)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in d.items()})

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        cleaned = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **cleaned)


def preset(name: str) -> ExperimentConfig:
    """Configuration for one of the six built-in figure presets.

    fig1  ground-state excitation probability vs g/omega (101-point grid)
          with its quadratic fit.
    fig2  post-measurement excitation dynamics for g/omega in {1/3, 2/3, 1}
          on the grid omega*t in [0, 40] step 0.02.
    fig3  final survival after 8 unjittered measurements averaged over the
          100 periods omega*T1 = 2*pi*linspace(0.1, 5, 100), vs g/omega
          (11-point grid).
    fig4  (a) survival trace at omega*T1 = 2*pi, g/omega = 1, jitter +-0.2*pi,
          20 runs; (b) survival vs event count at omega*T1 = 3*pi/4 for
          g/omega in {1/3, 2/3, 1} with exponential fits; (c) mean
          single-event survival vs g/omega with its quadratic fit
          (``FIG4_PANELS`` fixes the panel schedules).
    fig5  survival vs t/T1 for omega*T1 in {pi, 2*pi, 3*pi} at g/omega = 1,
          jitter-averaged, with per-period decay rates.
    fig6  survival for detector inefficiency epsilon in {0, 0.1, 0.2} at
          omega*T1 = 2*pi, g/omega = 1, 20 jittered runs.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return replace(ExperimentConfig(experiment=name), **PRESETS[name])
