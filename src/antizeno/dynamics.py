"""Quantum states and their propagation under a fixed Hamiltonian via its
spectral decomposition.

A state is a batch of independent runs on the even parity chain (dimension
n_max + 1, see ``model.even_chain_hamiltonian``), advanced together by one
array operation per step: amplitude vectors of shape (runs, n) or density
matrices of shape (runs, n, n). Chain site k carries an excited qubit for
odd k (``model.even_chain_excited``).

``evolve`` builds each run's exp(-i H t) from the phases exp(-i E t) of one
spectral decomposition per parameter set, reused across all times. Pure
states get V exp(-i E t) V^dagger psi without forming it; density matrices
get U rho U^dagger with U = V exp(-i E t) V^dagger. A step costs O(dim^2)
per pure run and O(dim^3) per density run; each run may have its own time.

Every state rule goes through one NaN-safe comparison, ``_require``, which
names the worst run; the ideal no-click rule lives in ``measurement``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .numkit import SpectralDecomposition, hermitian_eig
from . import model as _model

__all__ = ["QuantumState", "evolve", "excitation_probability", "excitation_trace", "BATCH_RUNS"]

_PURE_NORM_TOL = 1e-10
_DENSITY_HERM_TOL = 1e-12
_DENSITY_TRACE_TOL = 1e-10
_DENSITY_MIN_EIG = -1e-10

# Runs advanced together in one batch: "pure" sizes the blocks of an
# epsilon = 0 survival run (amplitudes in the chain eigenbasis, see
# ``protocol``) and of ``excitation_trace``; "density" the blocks of
# QuantumState density matrices that epsilon > 0 runs take. Density
# batches stay small so that their (runs, dim, dim) temporaries add little
# to peak memory.
BATCH_RUNS = {"pure": 256, "density": 4}


def _worst(deviation: np.ndarray) -> str:
    """Largest entry of a per-run deviation (its first NaN, if any), naming
    its run."""
    run = int(np.argmax(deviation))
    return f"{float(deviation[run]):.3e} (run {run})"


def _require(deviation: np.ndarray, tol: float, what: str) -> None:
    """The one comparison of every state check: a run whose deviation is not
    at most ``tol`` (a NaN one included) stops the batch, naming the worst."""
    if not np.max(deviation) <= tol:
        raise NumericalError(f"{what} {_worst(deviation)}")


def _check_norm(norm: np.ndarray) -> None:
    """The pure-state rule: every run's norm within ``_PURE_NORM_TOL`` of 1."""
    _require(np.abs(norm - 1.0), _PURE_NORM_TOL, "pure state norm deviates from 1 by")


def _check_density(data: np.ndarray) -> None:
    """The density rules, in order, on every run of a (runs, n, n) batch:
    Hermitian, unit trace, positive (min eigenvalue >= ``_DENSITY_MIN_EIG``)."""
    herm = np.max(np.abs(data - data.conj().swapaxes(-1, -2)), axis=(-2, -1))
    _require(herm, _DENSITY_HERM_TOL, "density matrix not Hermitian: max dev")
    trace = np.trace(data, axis1=-2, axis2=-1).real
    _require(np.abs(trace - 1.0), _DENSITY_TRACE_TOL, "density matrix trace deviates from 1 by")
    min_eig = np.linalg.eigvalsh(data)[..., 0]
    _require(-min_eig, -_DENSITY_MIN_EIG, "density matrix not positive: min eigenvalue")


@dataclass(frozen=True)
class QuantumState:
    """A batch of pure states (amplitude vectors, shape (runs, n)) or of
    density matrices (shape (runs, n, n)) on the even parity chain.

    Construction checks every run (``_check_norm``, ``_check_density``): a
    broken invariant means the numerics broke down and raises
    ``NumericalError``; a wrong shape or kind raises ``ValueError``.
    """

    kind: str  # "pure" | "density"
    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=complex, copy=True)
        if self.kind == "pure":
            if data.ndim != 2:
                raise ValueError(f"pure state data must have shape (runs, n), got {data.shape}")
            _check_norm(np.linalg.norm(data, axis=-1))
        elif self.kind == "density":
            if data.ndim != 3 or data.shape[-2] != data.shape[-1]:
                raise ValueError(f"density data must have shape (runs, n, n), got {data.shape}")
            _check_density(data)
        else:
            raise ValueError(f"kind must be 'pure' or 'density', got {self.kind!r}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def runs(self) -> int:
        return self.data.shape[0]

    def promoted(self) -> "QuantumState":
        """This batch as density matrices (pure states become projectors)."""
        if self.kind == "density":
            return self
        psi = self.data
        return QuantumState("density", psi[..., :, None] * psi[..., None, :].conj())


def _phases(t: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """exp(-i E t) of each time t and energy E, as exp(t (x) (-iE)): the one
    phase rule of ``evolve`` and of ``protocol``'s pure survival runs."""
    return np.exp(np.multiply.outer(t, -1j * energies))


def evolve(spec: SpectralDecomposition, s: QuantumState, t) -> QuantumState:
    """Propagate each run of a batch for its own time (1/omega), ``t`` of shape
    (runs,), under exp(-i H t)."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("evolution time must be finite")
    if s.dim != spec.dim:
        raise ValueError(f"state dim {s.dim} does not match spectrum dim {spec.dim}")
    if t.shape != (s.runs,):
        raise ValueError(f"expected one time per run ({s.runs}), got shape {t.shape}")
    v = spec.eigenvectors
    phases = _phases(t, spec.eigenvalues)
    if s.kind == "pure":
        # rows are states: psi -> V (phases * V^dagger psi)
        return QuantumState("pure", ((s.data @ v.conj()) * phases) @ v.T)
    u = (v * phases[..., None, :]) @ v.conj().T  # one exp(-i H t) per run
    return QuantumState("density", u @ s.data @ u.conj().swapaxes(-1, -2))


def excitation_probability(state: QuantumState) -> np.ndarray:
    """Qubit excitation probability <P_e> of each run of a batch of pure
    states."""
    populations = state.data.real**2 + state.data.imag**2
    _check_norm(np.sqrt(np.sum(populations, axis=-1)))
    return np.sum(populations[:, _model.even_chain_excited(state.dim - 1)], axis=-1)


def excitation_trace(p: "_model.ModelParams", initial: QuantumState, t_grid) -> np.ndarray:
    """Excitation probability of ``initial``, a one-run batch of pure
    states, evolved to each time of the ascending grid ``t_grid`` (1/omega).

    The chain Hamiltonian is diagonalized once. Each grid point is evolved
    independently from ``initial``, so the grid need not start at zero; the
    grid times are advanced in batches.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if initial.kind != "pure" or initial.runs != 1:
        got = f"{initial.runs} {initial.kind} runs"
        raise ValueError(f"excitation_trace needs a one-run batch of pure states, got {got}")
    spec = hermitian_eig(_model.even_chain_hamiltonian(p))
    block = BATCH_RUNS["pure"]
    values = np.empty(t.size)
    for start in range(0, t.size, block):
        times = t[start:start + block]
        batch = QuantumState("pure", np.broadcast_to(initial.data, (times.size, initial.dim)))
        values[start:start + times.size] = excitation_probability(evolve(spec, batch, times))
    return values
