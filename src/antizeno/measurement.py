"""No-click measurement map for the qubit detector.

The detector is modeled as a two-outcome completely positive map with an
inefficiency epsilon, a plain number in [0, 1]: with probability epsilon it
does nothing, otherwise it performs an ideal projective measurement of the
qubit. The unnormalized no-click branch is

    sigma = (1 - epsilon) * P_g rho P_g + epsilon * rho,

whose trace is the per-event no-click probability
epsilon + (1 - epsilon) * (1 - <P_e>); a "do nothing" event is
indistinguishable from a genuine no-click in the record. At epsilon = 0 a
pure input stays pure and the map reduces to projecting out the excited
qubit component.

P_g is diagonal on the even parity chain (it keeps the even sites), so the
no-click branch of a density matrix masks rather than multiplies. Pure
states at epsilon = 0 take the one ideal-measurement rule, ``_no_click_step``,
with the projector diag(ground); the survival kernel (``protocol``) applies
it with that projector in the chain eigenbasis. Every run of a batch is
measured in one array operation.
"""

from __future__ import annotations

import numpy as np

from .dynamics import QuantumState, _check_norm, _require
from .model import _is_finite, even_chain_excited

__all__ = ["measure_no_click"]

# Below this no-click trace the conditional state is undefined (a certain click).
_CERTAIN_CLICK_TOL = 1e-15


def _epsilon(epsilon) -> float:
    """The probability that the detector does nothing, as a float; anything
    but a finite real number in [0, 1] (a bool included) is a ValueError."""
    if not (_is_finite(epsilon) and 0 <= epsilon <= 1):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return float(epsilon)


def measure_no_click(s: QuantumState, epsilon: float) -> tuple[np.ndarray, QuantumState]:
    """Apply the no-click branch of the measurement map, at detector
    inefficiency ``epsilon``, to every run: the no-click probability of each
    run and the conditional (normalized) post state. A run whose no-click
    probability underflows (a certain click) raises ``NumericalError``."""
    epsilon = _epsilon(epsilon)
    ground = ~even_chain_excited(s.dim - 1)
    if epsilon == 0.0 and s.kind == "pure":
        prob, post = _no_click_step(np.ascontiguousarray(s.data), np.diag(ground.astype(float)))
        return prob, QuantumState("pure", post)

    rho = s.promoted().data
    sigma = epsilon * rho
    # (1 - eps) * P_g rho P_g keeps only the ground-qubit block
    sigma += (1.0 - epsilon) * (rho * np.outer(ground, ground))
    prob = np.trace(sigma, axis1=-2, axis2=-1).real
    _check_no_click(prob)
    return np.minimum(prob, 1.0), QuantumState("density", sigma / prob[..., None, None])


def _no_click_step(amplitudes: np.ndarray, projector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One ideal measurement of every run (a row of ``amplitudes``) with the
    real no-click ``projector`` of their basis. The no-click probability is
    the weight kept over the state's own (a run the projector leaves alone
    scores exactly 1); the state first meets the pure-state norm rule."""
    weight = _weight(amplitudes)
    _check_norm(np.sqrt(weight))
    amplitudes = amplitudes @ projector
    kept = _weight(amplitudes)
    prob = kept / weight
    _check_no_click(prob)
    amplitudes /= np.sqrt(kept)[:, None]
    return np.minimum(prob, 1.0), amplitudes


def _weight(amplitudes: np.ndarray) -> np.ndarray:
    """Squared norm of each row of complex amplitudes."""
    parts = amplitudes.view(float)
    return np.einsum("rn,rn->r", parts, parts)


def _check_no_click(prob: np.ndarray) -> None:
    """The certain-click rule: every run's no-click probability at least
    ``_CERTAIN_CLICK_TOL``, naming the worst run by its shortfall."""
    _require(_CERTAIN_CLICK_TOL - prob, 0.0,
             "certain click: state has no de-excited component, short by")
