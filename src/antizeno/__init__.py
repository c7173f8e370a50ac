"""Simulator for ground-state self-excitation of an ultrastrongly coupled
qubit-resonator system under slow repeated measurements.

The package builds the coupled model in a truncated Fock space, extracts the
dressed ground state, runs repeated no-click measurement protocols with
imperfect detectors and randomized schedules, and fits the resulting
quadratic and exponential survival laws. The ``antizeno`` CLI exposes six
figure presets plus free-form experiments with deterministic, seeded output.
"""

__version__ = "0.1.0"

from .analysis import CollapseResult, FitResult, collapse_slopes, fit_exponential, fit_quadratic_origin
from .config import ExperimentConfig, preset
from .dynamics import ExcitationTrace, QuantumState, evolve, excitation_trace
from .errors import NumericalError
from .measurement import MeasurementModel, MeasurementOutcome, click_probability, measure_no_click
from .model import (
    GroundStateDecomposition,
    ModelParams,
    converge_cutoff,
    eigenstate_overlaps,
    excitation_probability,
    ground_state,
    jaynes_cummings_hamiltonian,
    perturbative_c1,
    rabi_hamiltonian,
)
from .numkit import (
    HermitianOperator,
    SpectralDecomposition,
    hermitian_eig,
    propagator,
    tensor_product,
)
from .operators import FockBasis, annihilation, parity_operator, qubit_operator
from .protocol import (
    EnsembleTrace,
    MeasurementSchedule,
    SurvivalTrace,
    ensemble_survival,
    jitter_schedule,
    jitter_times,
    prepare_model,
    run_survival,
    sweep_T1,
    truncated_survival,
    two_period_schedule,
)
from .runner import run

__all__ = [
    "__version__",
    "CollapseResult", "FitResult", "collapse_slopes", "fit_exponential", "fit_quadratic_origin",
    "ExperimentConfig", "preset",
    "ExcitationTrace", "QuantumState", "evolve", "excitation_trace",
    "NumericalError",
    "MeasurementModel", "MeasurementOutcome", "click_probability", "measure_no_click",
    "GroundStateDecomposition", "ModelParams", "converge_cutoff", "eigenstate_overlaps",
    "excitation_probability", "ground_state", "jaynes_cummings_hamiltonian",
    "perturbative_c1", "rabi_hamiltonian",
    "HermitianOperator", "SpectralDecomposition", "hermitian_eig", "propagator", "tensor_product",
    "FockBasis", "annihilation", "parity_operator", "qubit_operator",
    "EnsembleTrace", "MeasurementSchedule", "SurvivalTrace", "ensemble_survival",
    "jitter_schedule", "jitter_times", "prepare_model", "run_survival", "sweep_T1",
    "truncated_survival", "two_period_schedule",
    "run",
]
