"""Simulator for ground-state self-excitation of an ultrastrongly coupled
qubit-resonator system under slow repeated measurements.

The package builds the coupled model in a truncated Fock space, extracts the
dressed ground state, runs repeated no-click measurement protocols with
imperfect detectors and randomized schedules, and fits the resulting
quadratic and exponential survival laws. The ``antizeno`` CLI exposes six
figure presets plus free-form experiments with deterministic, seeded output.

The top level holds the library API the README documents; everything else
is imported from its own module (``antizeno.numkit``, ``antizeno.protocol``,
...).
"""

__version__ = "0.1.0"

from .analysis import fit_exponential
from .config import ExperimentConfig, preset
from .errors import NumericalError
from .measurement import MeasurementModel
from .model import ModelParams, ground_state
from .protocol import (
    ensemble_survival, jitter_times, prepare_model, run_survival, two_period_schedule,
)
from .runner import run

__all__ = [
    "__version__", "ExperimentConfig", "preset", "run", "NumericalError",
    "ModelParams", "MeasurementModel", "ground_state", "prepare_model",
    "two_period_schedule", "jitter_times", "run_survival", "ensemble_survival",
    "fit_exponential",
]
