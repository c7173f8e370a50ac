"""No-click measurement map for the qubit detector.

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

P_g is diagonal on the even parity chain (it keeps the even sites), so the
projected branch is computed by masking rather than explicit projector
products. Every run of a batch is measured in one array operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import QuantumState
from .errors import NumericalError
from .model import even_chain_excited

__all__ = ["MeasurementModel", "measure_no_click"]

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


def measure_no_click(s: QuantumState, m: MeasurementModel) -> tuple[np.ndarray, QuantumState]:
    """Apply the no-click branch of the measurement map to every run.

    Returns the no-click probability of each run and the conditional
    (normalized) post state. Raises ``NumericalError`` ("certain click") if
    the no-click probability of any run underflows, i.e. the state is fully
    excited under an ideal measurement.
    """
    excited = even_chain_excited(s.dim - 1)
    if m.epsilon == 0.0 and s.kind == "pure":
        projected = s.data.copy()
        projected[..., excited] = 0.0
        prob = np.sum(projected.real**2 + projected.imag**2, axis=-1)
        _check_no_click(prob)
        return np.minimum(prob, 1.0), QuantumState("pure", projected / np.sqrt(prob)[..., None])

    rho = s.promoted().data
    ground = ~excited
    sigma = m.epsilon * rho
    # (1 - eps) * P_g rho P_g keeps only the ground-qubit block
    sigma += (1.0 - m.epsilon) * (rho * np.outer(ground, ground))
    prob = np.trace(sigma, axis1=-2, axis2=-1).real
    _check_no_click(prob)
    return np.minimum(prob, 1.0), QuantumState("density", sigma / prob[..., None, None])


def _check_no_click(prob: np.ndarray) -> None:
    if np.min(prob) < _CERTAIN_CLICK_TOL:
        raise NumericalError("certain click: state has no de-excited component")
