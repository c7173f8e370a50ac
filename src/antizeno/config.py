"""Experiment configuration: figure presets, free-form runs, validation and
round-trip (de)serialization.

All couplings are given as dimensionless g/omega, periods as dimensionless
omega*T1 and jitter as dimensionless omega*dt, matching how every output
table reports times as omega*t. Frequencies are in GHz and internal times in
ns (hbar = 1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

from .model import CHECKED_N_MAX_CAP, CUTOFF_STEP
from .protocol import jitter_keeps_order, two_period_schedule

__all__ = ["ExperimentConfig", "EXPERIMENTS", "FORMATS", "preset", "PRESET_NAMES"]

EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "survival")
PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
FORMATS = ("csv", "json")

_SQRT2 = math.sqrt(2.0)


_INT_FIELDS = ("n_max", "n_measurements", "runs", "seed")
_REAL_FIELDS = ("omega", "omega0", "ratio", "jitter_width", "time_max", "time_step")
_TUPLE_FIELDS = ("g_values", "omega_t1_values", "epsilon_values")


def _is_number(value, kind=numbers.Real) -> bool:
    """A ``kind`` number that is not a bool (JSON true/false)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _grid(n: int, stop: float = 1.0) -> tuple[float, ...]:
    return tuple(stop * i / (n - 1) for i in range(n))


def _periods(n: int, lo: float, hi: float) -> tuple[float, ...]:
    """omega*T1 = 2*pi*linspace(lo, hi, n), bit for bit as numpy computes it."""
    step = (hi - lo) / (n - 1)
    return tuple(2 * math.pi * (i * step + lo) for i in range(n - 1)) + (2 * math.pi * hi,)


# fig2 names one column per coupling with this format.
FIG2_COLUMN = "p1e_g_over_omega_{:.6g}"

# What each experiment needs of its fields: (field, what, test), where
# test(value, config) may read the rest of the config. validate enforces
# every rule, so a bad shape is rejected before any eigensolve. The jitter
# rule judges the schedules and window exactly as the runner draws them.
_KEEPS_ORDER = ("jitter_width", "a window that cannot reorder events (jitter_width/omega below "
                "the first event time and half of every interval)",
                lambda width, c: all(
                    jitter_keeps_order(two_period_schedule(w / c.omega, c.ratio, c.n_measurements),
                                       width / c.omega)
                    for w in c.omega_t1_values))
INPUT_RULES = {
    "fig1": [("g_values", "at least 3 couplings for the quadratic fit", lambda v, c: len(v) >= 3)],
    "fig2": [("g_values", "couplings distinct to 6 significant digits (they name the columns)",
              lambda v, c: len({FIG2_COLUMN.format(g) for g in v}) == len(v))],
    "fig3": [("g_values", "at least 2 couplings for the exponential fit", lambda v, c: len(v) >= 2),
             ("epsilon_values", "exactly one epsilon", lambda v, c: len(v) == 1),
             ("jitter_width", "no jitter (its period sweep runs unjittered)", lambda v, c: v == 0)],
    "fig4": [("epsilon_values", "exactly one epsilon", lambda v, c: len(v) == 1)],
    "fig5": [("g_values", "exactly one coupling, above 0", lambda v, c: len(v) == 1 and v[0] > 0),
             ("epsilon_values", "exactly one epsilon", lambda v, c: len(v) == 1),
             ("omega_t1_values", "at least two periods for the rate collapse",
              lambda v, c: len(v) >= 2),
             ("n_measurements", "at least 2 events for the per-period fits", lambda v, c: v >= 2),
             _KEEPS_ORDER],
    "fig6": [("g_values", "exactly one coupling", lambda v, c: len(v) == 1),
             ("omega_t1_values", "exactly one omega_t1", lambda v, c: len(v) == 1),
             _KEEPS_ORDER],
    "survival": [("omega_t1_values", "exactly one omega_t1", lambda v, c: len(v) == 1),
                 _KEEPS_ORDER],
}

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

    ``READ_SETS`` says which fields each experiment reads and
    ``INPUT_RULES`` what it needs of them (fig4 fixes its three panel
    schedules internally; see the runner module).
    """

    experiment: str = "survival"
    # model
    omega: float = 1.0          # resonator frequency (GHz)
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
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (_is_number(value, numbers.Integral) or (name == "n_max" and value is None)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        for name in _TUPLE_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, tuple) and all(_is_number(v) for v in value)):
                raise ValueError(f"{name} must be a list of real numbers, got {value!r}")
        if not (self.out is None or (isinstance(self.out, str) and self.out)):
            raise ValueError(f"out must be a non-empty path string or null, got {self.out!r}")
        accepted = (*ALWAYS_READ, *READ_SETS[self.experiment], "seed")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in accepted and value != f.default:
                raise ValueError(f"{f.name}: {self.experiment} does not read it; leave it at "
                                 f"its default {f.default!r}, got {value!r}")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega!r}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0!r}")
        if not self.g_values:
            raise ValueError("g_values must be non-empty")
        if any(g < 0 for g in self.g_values):
            raise ValueError("couplings g/omega must be >= 0")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"n_max must be >= 1 (or null for automatic), got {self.n_max!r}")
        if self.n_max is not None and max(self.g_values) > 0 and self.n_max > CHECKED_N_MAX_CAP:
            raise ValueError(
                f"n_max must be <= {CHECKED_N_MAX_CAP} when a coupling is > 0 (the cutoff "
                f"check solves n_max + {CUTOFF_STEP}), got {self.n_max!r}"
            )
        if not self.omega_t1_values or any(v <= 0 for v in self.omega_t1_values):
            raise ValueError("omega_t1_values must be non-empty and > 0")
        for name in ("g_values", "omega_t1_values", "epsilon_values"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values!r}")
        if self.ratio <= 0:
            raise ValueError(f"ratio must be > 0, got {self.ratio!r}")
        if self.n_measurements < 1:
            raise ValueError(f"n_measurements must be >= 1, got {self.n_measurements!r}")
        if self.jitter_width < 0:
            raise ValueError(f"jitter width must be >= 0, got {self.jitter_width!r}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs!r}")
        if not self.epsilon_values or any(not 0 <= e <= 1 for e in self.epsilon_values):
            raise ValueError("epsilon values must lie in [0, 1]")
        if self.time_max <= 0 or self.time_step <= 0 or self.time_step > self.time_max:
            raise ValueError("time grid requires 0 < time_step <= time_max")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        for name, what, holds in INPUT_RULES[self.experiment]:
            values = getattr(self, name)
            if not holds(values, self):
                raise ValueError(f"{name}: {self.experiment} needs {what}, got {values!r}")

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
        kwargs = dict(d)
        for key in _TUPLE_FIELDS:
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

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
          single-event survival vs g/omega with its quadratic fit. Panel
          schedules are fixed by the runner.
    fig5  survival vs t/T1 for omega*T1 in {pi, 2*pi, 3*pi} at g/omega = 1,
          jitter-averaged, with per-period decay rates.
    fig6  survival for detector inefficiency epsilon in {0, 0.1, 0.2} at
          omega*T1 = 2*pi, g/omega = 1, 20 jittered runs.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    base = ExperimentConfig(experiment=name)
    if name == "fig1":
        return replace(base, g_values=_grid(101))
    if name == "fig2":
        return replace(base, g_values=(1 / 3, 2 / 3, 1.0), time_max=40.0, time_step=0.02)
    if name == "fig3":
        return replace(
            base,
            g_values=_grid(11),
            omega_t1_values=_periods(100, 0.1, 5.0),
            n_measurements=8,
            jitter_width=0.0,
        )
    if name == "fig4":
        return replace(base, g_values=(1 / 3, 2 / 3, 1.0))
    if name == "fig5":
        return replace(
            base,
            g_values=(1.0,),
            omega_t1_values=(math.pi, 2 * math.pi, 3 * math.pi),
            n_measurements=16,
            jitter_width=0.2 * math.pi,
            runs=20,
        )
    # fig6
    return replace(
        base,
        g_values=(1.0,),
        omega_t1_values=(2 * math.pi,),
        n_measurements=16,
        epsilon_values=(0.0, 0.1, 0.2),
        jitter_width=0.2 * math.pi,
        runs=20,
    )
