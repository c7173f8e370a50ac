"""Qubit-resonator Hamiltonians, ground-state structure and the quadratic
self-excitation law.

Two Hamiltonians are provided: the full model with counter-rotating coupling
sigma_x (a + a^dagger), and its rotating-wave (excitation-conserving)
counterpart used as a null reference. ``hamiltonian`` assembles either one
on the full space directly from its diagonal and its g*sqrt(n) coupling
elements in the qubit-major basis of ``operators``; the ground-state solve
is its only caller. The full model conserves the parity
(-1)**(n+s), and its ground state lives in the even sector: it is a chain
|g,0>, |e,1>, |g,2>, ... whose coefficients grow with the coupling. On
that chain both models are real, symmetric and tridiagonal
(``even_chain_hamiltonian``), which is where the survival protocol runs. The
qubit excitation probability in that ground state scales quadratically with
g/omega at resonance; for small coupling the leading chain coefficient has
the closed form -g/(omega+omega0).

Units: frequencies in GHz, times in ns, hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError
from .numkit import MAX_DIM, HermitianOperator, hermitian_eig
from .operators import FockBasis

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import QuantumState
    from .protocol import PreparedModel

__all__ = [
    "DEGENERACY_GAP",
    "CUTOFF_CAP",
    "CUTOFF_STEP",
    "ModelParams",
    "GroundStateDecomposition",
    "hamiltonian",
    "even_chain_hamiltonian",
    "even_chain_excited",
    "ground_state",
    "excitation_probability",
    "converge_cutoff",
    "assert_cutoff_converged",
]

# Ground manifolds with a gap below this are reported as degenerate.
DEGENERACY_GAP = 1e-10

# converge_cutoff gives up at this n_max.
CUTOFF_CAP = 200

# Both cutoff checks compare a cutoff with this many more photons.
CUTOFF_STEP = 10

HAMILTONIAN_KINDS = ("rabi", "jc")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: resonator frequency, qubit splitting, coupling (GHz)
    and the Fock cutoff."""

    omega: float
    omega0: float
    g: float
    n_max: int

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be > 0, got {self.omega!r}")
        if not (np.isfinite(self.omega0) and self.omega0 >= 0):
            raise ValueError(f"omega0 must be >= 0, got {self.omega0!r}")
        if not (np.isfinite(self.g) and self.g >= 0):
            raise ValueError(f"g must be >= 0, got {self.g!r}")
        # checked before any matrix is built: the full space is 2*(n_max+1)
        if FockBasis(self.n_max).dim > MAX_DIM:
            raise ValueError(f"n_max must be <= {MAX_DIM // 2 - 1}, got {self.n_max!r}")


@dataclass(frozen=True)
class GroundStateDecomposition:
    """Ground energy and even-chain coefficients.

    ``even_chain[k]`` is the amplitude on |g,k> for even k and on |e,k> for
    odd k; ``p_e`` is the qubit excitation probability. The global phase is
    fixed so that ``even_chain[0]`` is real and >= 0.

    When the ground manifold is numerically degenerate (gap below
    ``DEGENERACY_GAP``, e.g. at omega0 = 0) the result is flagged:
    ``even_chain`` is then read off one arbitrary member of the manifold (no
    phase fix, no parity guarantee) while ``p_e`` is the basis-independent
    equal-weight average over the degenerate block.
    """

    energy: float
    even_chain: np.ndarray
    p_e: float
    gap: float
    degenerate: bool = False


def _full_space_hamiltonian(p: ModelParams, counter_rotating: bool) -> HermitianOperator:
    """Complex matrix on the qubit-major space, entry by entry.

    The diagonal is omega*n -+ omega0/2 on |g,n> and |e,n>. Every coupling
    element is g*sqrt(n): the exchange bonds |g,n> <-> |e,n-1> and, in the
    full model, the counter-rotating bonds |g,n-1> <-> |e,n>.
    """
    nf = p.n_max + 1
    n = np.arange(nf)
    g_site, e_site = n, nf + n
    h = np.zeros((2 * nf, 2 * nf), dtype=complex)
    h[g_site, g_site] = p.omega * n - 0.5 * p.omega0
    h[e_site, e_site] = p.omega * n + 0.5 * p.omega0
    bonds = p.g * np.sqrt(n[1:])
    h[g_site[1:], e_site[:-1]] = h[e_site[:-1], g_site[1:]] = bonds
    if counter_rotating:
        h[g_site[:-1], e_site[1:]] = h[e_site[1:], g_site[:-1]] = bonds
    return HermitianOperator(h)


def hamiltonian(p: ModelParams, kind: str = "rabi") -> HermitianOperator:
    """The model on the full space.

    "rabi" is omega a^dagger a + (omega0/2) sigma_z + g sigma_x (a + a^dagger).
    "jc" is its rotating-wave counterpart, with g (sigma^+ a + sigma^- a^dagger)
    as the coupling: it conserves the excitation number and has the
    separable ground state |g,0> for g < omega at resonance.
    """
    if kind not in HAMILTONIAN_KINDS:
        raise ValueError(f"unknown Hamiltonian kind {kind!r}; expected one of {HAMILTONIAN_KINDS}")
    return _full_space_hamiltonian(p, counter_rotating=kind == "rabi")


def even_chain_hamiltonian(p: ModelParams, kind: str = "rabi") -> HermitianOperator:
    """The model restricted to the even parity chain |g,0>, |e,1>, |g,2>, ...

    Chain site k is |g,k> for even k and |e,k> for odd k, k = 0..n_max, so
    the chain holds the whole even sector of the truncated space. The
    matrix is real, symmetric and tridiagonal: the diagonal is
    omega*k - omega0/2 on |g,k> and omega*k + omega0/2 on |e,k>, and the
    bond between k and k+1 is g*sqrt(k+1). The rotating-wave model ("jc")
    keeps only the (e,k) <-> (g,k+1) bonds, i.e. those leaving odd k.
    """
    if kind not in HAMILTONIAN_KINDS:
        raise ValueError(f"unknown Hamiltonian kind {kind!r}; expected one of {HAMILTONIAN_KINDS}")
    k = np.arange(p.n_max + 1)
    diagonal = p.omega * k + 0.5 * p.omega0 * np.where(even_chain_excited(p.n_max), 1.0, -1.0)
    bonds = p.g * np.sqrt(k[1:])
    if kind == "jc":
        bonds[0::2] = 0.0
    return HermitianOperator(np.diag(diagonal) + np.diag(bonds, 1) + np.diag(bonds, -1))


def even_chain_excited(n_max: int) -> np.ndarray:
    """Which even-chain sites carry an excited qubit (the odd ones)."""
    return np.arange(n_max + 1) % 2 == 1


def _block_p_e(vec: np.ndarray) -> float:
    half = vec.size // 2
    return float(np.sum(np.abs(vec[half:]) ** 2))


def ground_state(p: ModelParams, kind: str = "rabi") -> GroundStateDecomposition:
    """Lowest eigenstate of the model, decomposed along the even parity chain.

    Raises ``NumericalError`` when a nondegenerate ground state lies in the
    odd parity sector (the rotating-wave model past g = omega at resonance)
    or leaks out of the even one. The caller is responsible for using a
    converged cutoff (see ``converge_cutoff``).
    """
    spec = hermitian_eig(hamiltonian(p, kind))
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    energy = float(vals[0])
    gap = float(vals[1] - vals[0])
    # chain site k is |g,k> for even k and |e,k> for odd k
    k = np.arange(p.n_max + 1)
    sites = np.where(k % 2 == 0, k, p.n_max + 1 + k)

    if gap < DEGENERACY_GAP:
        block = np.flatnonzero(vals - vals[0] < DEGENERACY_GAP)
        p_e = float(np.mean([_block_p_e(vecs[:, i]) for i in block]))
        return GroundStateDecomposition(energy, vecs[sites, 0], p_e, gap, degenerate=True)

    state = vecs[:, 0]
    c0 = state[0]
    if abs(c0) > 0:
        state = state * (c0.conjugate() / abs(c0))
    chain = state[sites]

    odd_weight = 1.0 - float(np.sum(np.abs(chain) ** 2))
    if odd_weight > 0.5:
        raise NumericalError(f"the {kind} ground state lies in the odd parity sector")
    if abs(odd_weight) > 1e-10:
        raise NumericalError(f"ground state leaks out of the even parity sector by {odd_weight:.3e}")
    return GroundStateDecomposition(energy, chain, _block_p_e(state), gap, degenerate=False)


def excitation_probability(state: "QuantumState") -> np.ndarray:
    """Qubit excitation probability <P_e> of each run of a normalized batch."""
    data = state.data
    if state.kind == "pure":
        populations = data.real**2 + data.imag**2
        what = "state norm^2"
    else:
        populations = np.diagonal(data, axis1=-2, axis2=-1).real
        what = "density matrix trace"
    drift = np.max(np.abs(np.sum(populations, axis=-1) - 1.0))
    if drift > 1e-8:
        raise NumericalError(f"{what} deviates from 1 by {drift:.3e}")
    return np.sum(populations[..., even_chain_excited(state.dim - 1)], axis=-1)


def _ground_scalars(p: ModelParams, n_max: int, kind: str) -> tuple[float, float]:
    gs = ground_state(replace(p, n_max=n_max), kind)
    return gs.energy, gs.p_e


def converge_cutoff(p: ModelParams, tol: float, kind: str = "rabi") -> int:
    """Smallest n_max (stepping by CUTOFF_STEP = 10 from 10) whose ground
    energy and p_e both move by less than ``tol`` when the cutoff grows by
    CUTOFF_STEP.

    Raises ``NumericalError`` if the cap (n_max = 200) is reached without
    convergence.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be > 0, got {tol!r}")
    cache: dict[int, tuple[float, float]] = {}

    def scalars(n_max: int) -> tuple[float, float]:
        if n_max not in cache:
            cache[n_max] = _ground_scalars(p, n_max, kind)
        return cache[n_max]

    for candidate in range(CUTOFF_STEP, CUTOFF_CAP, CUTOFF_STEP):
        e1, pe1 = scalars(candidate)
        e2, pe2 = scalars(candidate + CUTOFF_STEP)
        if abs(e2 - e1) < tol and abs(pe2 - pe1) < tol:
            return candidate
    raise NumericalError(
        f"cutoff not converged to tol={tol:g} at the n_max={CUTOFF_CAP} cap"
    )


def assert_cutoff_converged(prepared: "PreparedModel", tol: float = 1e-8) -> None:
    """Check that growing the cutoff of a prepared model by CUTOFF_STEP
    moves its ground energy and p_e by < tol; only the larger cutoff is
    solved."""
    p = prepared.params
    e1, pe1 = prepared.ground.energy, prepared.ground.p_e
    e2, pe2 = _ground_scalars(p, p.n_max + CUTOFF_STEP, prepared.kind)
    if abs(e2 - e1) >= tol or abs(pe2 - pe1) >= tol:
        raise NumericalError(
            f"Fock cutoff n_max={p.n_max} not converged to {tol:g}: "
            f"dE={abs(e2 - e1):.3e}, dp_e={abs(pe2 - pe1):.3e}"
        )
