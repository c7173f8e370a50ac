"""Qubit-resonator Hamiltonians, ground-state structure and the quadratic
self-excitation law.

The full model has the counter-rotating coupling sigma_x (a + a^dagger);
its rotating-wave (excitation-conserving) counterpart is a null reference.
Both conserve the parity (-1)**(n+s), so the truncated space is two real
tridiagonal chains, and ``_chain`` is the one statement of their matrix
elements. The ground state lies on the even chain |g,0>, |e,1>, |g,2>, ...
(``even_chain_hamiltonian``), where the survival protocol runs;
``hamiltonian``, which the ground-state solve diagonalizes, places both
chains in the qubit-major basis of ``operators``. The ground state's qubit
excitation probability grows as g**2 at resonance; for small coupling the
leading chain coefficient is -g/(1 + omega0).

``ModelParams`` is the whole model, its Hamiltonian kind included, and this
module owns every rule on which models can be built (a finite Gershgorin
bound on the spectrum, the n_max caps, the step and tolerance of both
cutoff checks) and the one test of a finite real number.

Units: frequencies in units of the resonator frequency omega (g and omega0
are g/omega and omega0/omega), times in 1/omega, hbar = 1.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .numkit import HermitianOperator, hermitian_eig

__all__ = [
    "DEGENERACY_GAP",
    "N_MAX_CAP",
    "CUTOFF_CAP",
    "CUTOFF_STEP",
    "CUTOFF_TOL",
    "ModelParams",
    "GroundStateDecomposition",
    "hamiltonian",
    "even_chain_hamiltonian",
    "even_chain_excited",
    "ground_state",
    "converge_cutoff",
    "assert_cutoff_converged",
]

# Ground manifolds with a gap below this are reported as degenerate.
DEGENERACY_GAP = 1e-10

HAMILTONIAN_KINDS = ("rabi", "jc")

# Largest Fock cutoff: the full space of 2*(n_max+1) states, which the
# ground-state solve diagonalizes densely, stays at or under 1024.
N_MAX_CAP = 511

# Both cutoff checks compare a cutoff with this many more photons, and
# agree when the ground energy and p_e move by less than CUTOFF_TOL.
CUTOFF_STEP = 10
CUTOFF_TOL = 1e-8

# converge_cutoff gives up at this n_max.
CUTOFF_CAP = 200


def _is_number(value, kind=numbers.Real) -> bool:
    """A ``kind`` number that is not a bool (nor JSON true/false)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite real number: exact for ints of any size, and no numpy call."""
    return _is_number(value) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class ModelParams:
    """The whole model: qubit splitting and coupling (in units of omega),
    Fock cutoff and Hamiltonian kind ("rabi", or its rotating-wave
    counterpart "jc")."""

    omega0: float
    g: float
    n_max: int
    kind: str = "rabi"

    def __post_init__(self):
        for name in ("omega0", "g"):
            value = getattr(self, name)
            if not (_is_finite(value) and value >= 0):
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))  # numpy cannot take ints past int64
        # checked before any matrix is built
        if not (_is_number(self.n_max, numbers.Integral) and self.n_max >= 1):
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        if self.n_max > N_MAX_CAP:
            raise ValueError(f"n_max must be <= {N_MAX_CAP}, got {self.n_max!r}")
        if not math.isfinite(self.spread):
            raise ValueError(f"Hamiltonian spectrum passes the float range: {self!r}")
        if self.kind not in HAMILTONIAN_KINDS:
            raise ValueError(
                f"unknown Hamiltonian kind {self.kind!r}; expected one of {HAMILTONIAN_KINDS}"
            )

    @property
    def spread(self) -> float:
        """Gershgorin bound on the spectrum's spread, in Python floats (an overflow is inf)."""
        n = int(self.n_max)
        return 2 * (n + 0.5 * self.omega0 + 2 * self.g * math.sqrt(n))


@dataclass(frozen=True)
class GroundStateDecomposition:
    """Ground energy and even-chain coefficients.

    ``even_chain[k]`` is the amplitude on |g,k> for even k and on |e,k> for
    odd k; ``p_e`` is the qubit excitation probability. The global phase is
    fixed so that ``even_chain[0]`` is real and >= 0.

    When the ground manifold is numerically degenerate (gap below
    ``DEGENERACY_GAP``, e.g. at omega0 = 0) there is no unique ground state
    and so no chain state: ``even_chain`` is None and ``p_e`` is the
    basis-independent equal-weight average over the degenerate block.
    """

    energy: float
    even_chain: np.ndarray | None
    p_e: float
    gap: float


def _sites(n_max: int, parity: int) -> np.ndarray:
    """Qubit-major index of each site k = 0..n_max of the chain of ``parity``
    (0 even, 1 odd): |e,k> where k + parity is odd, |g,k> elsewhere."""
    k = np.arange(n_max + 1)
    return k + (n_max + 1) * ((k + parity) % 2)


def _chain(p: ModelParams, parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sites (``_sites``), diagonal and bonds of the chain of ``parity``:
    k + omega0/2 on an excited site and k - omega0/2 on a ground one, and
    g*sqrt(k+1) between k and k+1. The rotating-wave model ("jc") keeps only
    the bonds that leave an excited site, the exchange bonds |e,k> <-> |g,k+1>."""
    k, site = np.arange(p.n_max + 1), _sites(p.n_max, parity)
    excited = site > p.n_max
    diagonal = k + 0.5 * p.omega0 * np.where(excited, 1.0, -1.0)
    bonds = p.g * np.sqrt(k[1:])
    if p.kind == "jc":
        bonds[~excited[:-1]] = 0.0
    return site, diagonal, bonds


def hamiltonian(p: ModelParams) -> HermitianOperator:
    """The model on the full space, a complex matrix: both chains of
    ``_chain`` placed at their sites of the qubit-major basis. "rabi" is
    a^dagger a + (omega0/2) sigma_z + g sigma_x (a + a^dagger); "jc", its
    rotating-wave counterpart with the coupling g (sigma^+ a + sigma^- a^dagger),
    conserves the excitation number and has the separable ground state
    |g,0> for g < 1 at resonance."""
    h = np.zeros((2 * p.n_max + 2, 2 * p.n_max + 2), dtype=complex)
    for parity in (0, 1):
        site, diagonal, bonds = _chain(p, parity)
        h[site, site] = diagonal
        h[site[:-1], site[1:]] = h[site[1:], site[:-1]] = bonds
    return HermitianOperator(h)


def even_chain_hamiltonian(p: ModelParams) -> HermitianOperator:
    """The model on the even parity chain |g,0>, |e,1>, |g,2>, ... (the whole
    even sector): ``_chain`` at parity 0, a real symmetric tridiagonal matrix."""
    _, diagonal, bonds = _chain(p, 0)
    return HermitianOperator(np.diag(diagonal) + np.diag(bonds, 1) + np.diag(bonds, -1))


def even_chain_excited(n_max: int) -> np.ndarray:
    """Which even-chain sites carry an excited qubit (the odd ones)."""
    return _sites(n_max, 0) > n_max


def _block_p_e(vec: np.ndarray) -> float:
    half = vec.size // 2
    return float(np.sum(np.abs(vec[half:]) ** 2))


def ground_state(p: ModelParams, solved: dict | None = None) -> GroundStateDecomposition:
    """Lowest eigenstate of the model, decomposed along the even parity chain.

    Raises ``NumericalError`` when a nondegenerate ground state lies in the
    odd parity sector (the rotating-wave model past g = 1 at resonance,
    or a cutoff too small for deep-strong Rabi coupling) or leaks out of the
    even one. The caller is responsible for using a converged cutoff (see
    ``converge_cutoff``).

    ``solved`` is an optional memo of solves keyed by ``ModelParams``. Every
    function here that solves a model takes one, so that callers sharing a
    dict (the runner, within one build) never solve the same model twice.
    """
    gs = _even_ground_state(p, solved)
    if gs is None:
        raise NumericalError(
            f"the {p.kind} ground state lies in the odd parity sector at n_max={p.n_max}"
        )
    return gs


def _even_ground_state(p: ModelParams, solved: dict | None) -> GroundStateDecomposition | None:
    """``ground_state``, or None when it lies in the odd parity sector; read
    from ``solved`` if it holds ``p``, else solved and stored there."""
    solved = {} if solved is None else solved
    if p in solved:
        return solved[p]
    spec = hermitian_eig(hamiltonian(p))
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    energy, gap = float(vals[0]), float(vals[1] - vals[0])
    if gap < DEGENERACY_GAP:
        # no unique ground state, so no chain state; p_e averages the manifold
        block = np.flatnonzero(vals - vals[0] < DEGENERACY_GAP)
        p_e = float(np.mean([_block_p_e(vecs[:, i]) for i in block]))
        solved[p] = GroundStateDecomposition(energy, None, p_e, gap)
        return solved[p]
    state = vecs[:, 0]
    c0 = state[0]
    if abs(c0) > 0:
        state = state * (c0.conjugate() / abs(c0))
    chain = state[_sites(p.n_max, 0)]
    odd_weight = 1.0 - float(np.sum(np.abs(chain) ** 2))
    if odd_weight > 0.5:  # the ground state lies in the odd sector
        solved[p] = None
    elif abs(odd_weight) > 1e-10:
        raise NumericalError(f"ground state leaks out of the even parity sector by {odd_weight:.3e}")
    else:
        solved[p] = GroundStateDecomposition(energy, chain, _block_p_e(state), gap)
    return solved[p]


def _moved(a: GroundStateDecomposition, b: GroundStateDecomposition) -> tuple[float, float]:
    """How far the ground energy and p_e move between two cutoffs."""
    return abs(b.energy - a.energy), abs(b.p_e - a.p_e)


def converge_cutoff(p: ModelParams, solved: dict | None = None) -> int:
    """Smallest n_max (stepping by CUTOFF_STEP = 10 from 10; ``p.n_max`` is
    not read) whose ground energy and p_e both move by less than CUTOFF_TOL
    when the cutoff grows by CUTOFF_STEP.

    The Rabi ground state has even parity at every coupling, so a ground
    state in the odd sector at a trial cutoff is a truncation artifact: that
    cutoff counts as not converged. Raises ``NumericalError`` if the cap
    (n_max = 200) is reached without convergence, naming the odd sector if
    it is still the lowest there (the rotating-wave model past g = 1).
    """
    previous = None
    for n_max in range(CUTOFF_STEP, CUTOFF_CAP + 1, CUTOFF_STEP):
        current = _even_ground_state(replace(p, n_max=n_max), solved)
        if previous is not None and current is not None:
            if max(_moved(previous, current)) < CUTOFF_TOL:
                return n_max - CUTOFF_STEP
        previous = current
    if previous is None:
        raise NumericalError(
            f"the {p.kind} ground state lies in the odd parity sector up to the "
            f"n_max={CUTOFF_CAP} cap"
        )
    raise NumericalError(
        f"cutoff not converged to tol={CUTOFF_TOL:g} at the n_max={CUTOFF_CAP} cap"
    )


def assert_cutoff_converged(p: ModelParams, solved: dict | None = None) -> None:
    """Check that growing the cutoff of a model by CUTOFF_STEP moves its
    ground energy and p_e by < CUTOFF_TOL. Both ground states are read from
    the ``solved`` memo when it holds them, so a prepared model is not
    solved again."""
    base = ground_state(p, solved)
    larger = ground_state(replace(p, n_max=p.n_max + CUTOFF_STEP), solved)
    d_energy, d_p_e = _moved(base, larger)
    if max(d_energy, d_p_e) >= CUTOFF_TOL:
        raise NumericalError(
            f"Fock cutoff n_max={p.n_max} not converged to {CUTOFF_TOL:g}: "
            f"dE={d_energy:.3e}, dp_e={d_p_e:.3e}"
        )
