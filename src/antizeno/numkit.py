"""Minimal dense linear algebra: Hermitian (or real symmetric)
eigendecompositions only; ``dynamics`` builds exp(-iHt) from them.

Everything here is plain dense numpy. Composite dimensions in this package
stay a few hundred at most, so dense LAPACK routines are both the simplest
and the fastest option. All returned objects are immutable (arrays are
marked read-only) and all functions are pure.

Nothing here checks a matrix: ``model`` decides which Hamiltonians can be
built and its builders make them Hermitian, and the tests pin both that and
what ``eigh`` returns for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = ["HermitianOperator", "SpectralDecomposition", "hermitian_eig"]


def _freeze(a) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix (real symmetric for a real one), stored
    read-only. Hermitian by construction: ``eigh`` reads only one triangle."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and orthonormal eigenvectors (columns;
    real for a real symmetric operator, complex otherwise).

    Within a degenerate eigenvalue block the individual eigenvectors carry no
    ordering guarantee; downstream code must only rely on the span.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _freeze(self.eigenvectors))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def hermitian_eig(h: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator (LAPACK ``eigh``)."""
    try:
        vals, vecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Hermitian eigendecomposition failed: dim={h.dim}, "
            f"max|H|={np.max(np.abs(h.matrix)):.3e} ({exc})"
        ) from exc
    return SpectralDecomposition(vals, vecs)
