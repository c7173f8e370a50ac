"""Quantum states and their propagation under a fixed Hamiltonian via its
spectral decomposition.

A state is a pure amplitude vector or a density matrix, optionally with a
leading run axis: a batch of independent runs advanced together by one
array operation per step. The state records which of its components carry
an excited qubit; every state the package builds lives on the even parity
chain (dimension n_max + 1, see ``model.even_chain_hamiltonian``).

Pure states are evolved as V exp(-i E t) V^dagger psi without forming the
propagator; density matrices get U rho U^dagger with one propagator per run.
One spectral decomposition per parameter set is reused across all times, so
each step costs O(dim^2) per pure run and O(dim^3) per density run, and
each run of a batch may have its own time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import SpectralDecomposition, hermitian_eig, propagator
from . import model as _model

__all__ = ["QuantumState", "ExcitationTrace", "evolve", "excitation_trace", "BATCH_RUNS"]

_PURE_NORM_TOL = 1e-10
_DENSITY_HERM_TOL = 1e-12
_DENSITY_TRACE_TOL = 1e-10
_DENSITY_MIN_EIG = -1e-10

# Runs advanced together in one batch. Density batches stay small so that
# their (runs, dim, dim) temporaries add little to peak memory.
BATCH_RUNS = {"pure": 256, "density": 4}


def _worst(deviation: np.ndarray) -> str:
    """Largest entry of a per-run deviation, naming the run for a batch."""
    run = int(np.argmax(deviation))
    where = f" (run {run})" if deviation.ndim else ""
    return f"{float(deviation.flat[run]):.3e}{where}"


@dataclass(frozen=True)
class QuantumState:
    """Pure-state amplitude vector or density matrix, or a batch of them
    along a leading run axis.

    ``excited`` marks the components that carry an excited qubit; on the
    even parity chain it is ``model.even_chain_excited``.

    Invariants are enforced at construction, for every run of a batch:
    unit norm for pure states; Hermiticity, unit trace and positivity (min
    eigenvalue >= -1e-10) for density matrices.
    """

    kind: str  # "pure" | "density"
    data: np.ndarray
    excited: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=complex, copy=True)
        if self.kind == "pure":
            if data.ndim not in (1, 2):
                raise ValueError("pure state data must be an amplitude vector (or a batch of them)")
            norm = np.linalg.norm(data, axis=-1)
            if np.max(np.abs(norm - 1.0)) > _PURE_NORM_TOL:
                raise ValueError(f"pure state norm deviates from 1 by {_worst(np.abs(norm - 1.0))}")
        elif self.kind == "density":
            if data.ndim not in (2, 3) or data.shape[-2] != data.shape[-1]:
                raise ValueError("density matrix must be square")
            herm = np.max(np.abs(data - data.conj().swapaxes(-1, -2)), axis=(-2, -1))
            if np.max(herm) > _DENSITY_HERM_TOL:
                raise ValueError(f"density matrix not Hermitian: max dev {_worst(herm)}")
            trace = np.trace(data, axis1=-2, axis2=-1).real
            if np.max(np.abs(trace - 1.0)) > _DENSITY_TRACE_TOL:
                raise ValueError(
                    f"density matrix trace deviates from 1 by {_worst(np.abs(trace - 1.0))}"
                )
            min_eig = np.linalg.eigvalsh(data)[..., 0]
            if np.min(min_eig) < _DENSITY_MIN_EIG:
                raise ValueError(f"density matrix not positive: min eigenvalue {_worst(-min_eig)}")
        else:
            raise ValueError(f"kind must be 'pure' or 'density', got {self.kind!r}")
        dim = data.shape[-1]
        excited = np.array(self.excited, dtype=bool, copy=True)
        if excited.shape != (dim,):
            raise ValueError(f"excited mask must have shape ({dim},), got {excited.shape}")
        data.flags.writeable = False
        excited.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "excited", excited)

    @classmethod
    def pure(cls, amplitudes, excited) -> "QuantumState":
        return cls("pure", np.asarray(amplitudes, dtype=complex), excited)

    @classmethod
    def density(cls, matrix, excited) -> "QuantumState":
        return cls("density", np.asarray(matrix, dtype=complex), excited)

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def batched(self) -> bool:
        """True when ``data`` carries a leading run axis."""
        return self.data.ndim == (2 if self.kind == "pure" else 3)

    @property
    def runs(self) -> int:
        """Number of runs in a batch (1 for a single state)."""
        return self.data.shape[0] if self.batched else 1

    def promoted(self) -> "QuantumState":
        """This state as a density matrix (pure states become projectors)."""
        if self.kind == "density":
            return self
        psi = self.data
        return QuantumState.density(psi[..., :, None] * psi[..., None, :].conj(), self.excited)


@dataclass(frozen=True)
class ExcitationTrace:
    """Excitation probability sampled on an ascending time grid (ns)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def evolve(spec: SpectralDecomposition, s: QuantumState, t) -> QuantumState:
    """Propagate a state for time t (ns) under exp(-i H t).

    ``t`` is one time, or for a batch one time per run.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("evolution time must be finite")
    if s.dim != spec.dim:
        raise ValueError(f"state dim {s.dim} does not match spectrum dim {spec.dim}")
    if t.ndim and (t.shape != (s.runs,) or not s.batched):
        raise ValueError(f"expected one time or one per run of a batch, got shape {t.shape}")
    if s.kind == "pure":
        # rows are states: psi -> V (phases * V^dagger psi)
        v = spec.eigenvectors
        phases = np.exp(-1j * np.multiply.outer(t, spec.eigenvalues))
        return QuantumState("pure", ((s.data @ v.conj()) * phases) @ v.T, s.excited)
    u = propagator(spec, t)
    return QuantumState("density", u @ s.data @ u.conj().swapaxes(-1, -2), s.excited)


def excitation_trace(
    p: "_model.ModelParams", initial: QuantumState, t_grid, kind: str = "rabi"
) -> ExcitationTrace:
    """Excitation probability of ``initial``, a state on the even parity
    chain, evolved to each grid time.

    The chain Hamiltonian is diagonalized once. Each grid point is evolved
    independently from ``initial``, so the grid need not start at zero; the
    grid times are advanced in batches.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if initial.batched:
        raise ValueError("excitation_trace needs a single initial state, not a batch")
    spec = hermitian_eig(_model.even_chain_hamiltonian(p, kind))
    block = BATCH_RUNS[initial.kind]
    values = np.empty(t.size)
    for start in range(0, t.size, block):
        times = t[start:start + block]
        copies = np.broadcast_to(initial.data, (times.size, *initial.data.shape))
        batch = QuantumState(initial.kind, copies, initial.excited)
        values[start:start + times.size] = _model.excitation_probability(evolve(spec, batch, times))
    return ExcitationTrace(t, values)
