"""No-click / click measurement maps for the qubit detector.

The detector is modeled as a two-outcome completely positive map with an
inefficiency parameter epsilon: with probability epsilon it does nothing,
otherwise it performs an ideal projective measurement of the qubit. The
unnormalized no-click branch is

    sigma = (1 - epsilon) * P_g rho P_g + epsilon * rho,

whose trace is the per-event no-click probability
epsilon + (1 - epsilon) * (1 - <P_e>); a "do nothing" event is
indistinguishable from a genuine no-click in the record. At epsilon = 0 a
pure input stays pure and the map reduces to projecting out the excited
qubit component.

P_g is diagonal in every basis the package uses (the state records which
of its components carry an excited qubit), so the projected branch is
computed by masking rather than explicit projector products. Batched states
are measured run by run in one array operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import QuantumState
from .errors import NumericalError
from .model import excitation_probability

__all__ = ["MeasurementModel", "MeasurementOutcome", "measure_no_click", "click_probability"]

# Below this no-click trace the state is (numerically) fully excited and the
# conditional state is undefined.
_CERTAIN_CLICK_TOL = 1e-15


@dataclass(frozen=True)
class MeasurementModel:
    """epsilon = probability that the detector does nothing."""

    epsilon: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and 0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")


@dataclass(frozen=True)
class MeasurementOutcome:
    """No-click probability (one per run for a batch) and the conditional
    (normalized) post state."""

    no_click_probability: float | np.ndarray
    post_state: QuantumState


def measure_no_click(s: QuantumState, m: MeasurementModel) -> MeasurementOutcome:
    """Apply the no-click branch of the measurement map.

    Raises ``NumericalError`` ("certain click") if the no-click probability
    of any run underflows, i.e. the state is fully excited under an ideal
    measurement.
    """
    if m.epsilon == 0.0 and s.kind == "pure":
        projected = s.data.copy()
        projected[..., s.excited] = 0.0
        prob = np.sum(projected.real**2 + projected.imag**2, axis=-1)
        _check_no_click(prob)
        post = QuantumState.pure(projected / np.sqrt(prob)[..., None], s.excited)
        return MeasurementOutcome(_per_run(np.minimum(prob, 1.0)), post)

    rho = s.promoted().data
    ground = ~s.excited
    sigma = m.epsilon * rho
    # (1 - eps) * P_g rho P_g keeps only the ground-qubit block
    sigma += (1.0 - m.epsilon) * (rho * np.outer(ground, ground))
    prob = np.trace(sigma, axis1=-2, axis2=-1).real
    _check_no_click(prob)
    post = QuantumState.density(sigma / prob[..., None, None], s.excited)
    return MeasurementOutcome(_per_run(np.minimum(prob, 1.0)), post)


def _check_no_click(prob: np.ndarray) -> None:
    if np.min(prob) < _CERTAIN_CLICK_TOL:
        raise NumericalError("certain click: state has no de-excited component")


def _per_run(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def click_probability(s: QuantumState, m: MeasurementModel) -> float | np.ndarray:
    """(1 - epsilon) * <P_e>: complement of the no-click probability."""
    return (1.0 - m.epsilon) * excitation_probability(s)
