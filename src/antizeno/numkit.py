"""Minimal dense linear algebra: tensor products, Hermitian (or real
symmetric) eigendecompositions and spectral propagators.

Everything here is plain dense numpy. Composite dimensions in this package
stay a few hundred at most, so dense LAPACK routines are both the simplest
and the fastest option. All returned objects are immutable (arrays are
marked read-only) and all functions are pure, so values can be shared
freely across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "MAX_DIM",
    "HERMITICITY_TOL",
    "UNITARITY_TOL",
    "complex_matrix",
    "HermitianOperator",
    "SpectralDecomposition",
    "tensor_product",
    "hermitian_eig",
    "propagator",
]

# Hard cap on matrix dimension; hitting it signals a misconfigured Fock cutoff.
MAX_DIM = 1024

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def complex_matrix(entries) -> np.ndarray:
    """Validate and return a square, finite complex matrix."""
    return _square_matrix(entries, complex)


def _square_matrix(entries, dtype) -> np.ndarray:
    a = np.ascontiguousarray(entries, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """Dense matrix with verified Hermiticity.

    Real input stays real (a real symmetric matrix, which LAPACK
    diagonalizes faster); anything else is stored as complex. Construction
    fails if any entry of ``A - A^dagger`` exceeds ``HERMITICITY_TOL`` in
    magnitude.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _square_matrix(self.matrix, complex if np.iscomplexobj(self.matrix) else float)
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |A - A^dagger| = {dev:.3e}")
        object.__setattr__(self, "matrix", _freeze(m))

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
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.ascontiguousarray(
            self.eigenvectors, dtype=complex if np.iscomplexobj(self.eigenvectors) else float
        )
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvalue/eigenvector shapes do not match")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        ortho = np.max(np.abs(vecs.conj().T @ vecs - np.eye(vals.size)))
        if ortho > UNITARITY_TOL:
            raise ValueError(f"eigenvectors not orthonormal: max |V^dagger V - I| = {ortho:.3e}")
        object.__setattr__(self, "eigenvalues", _freeze(vals))
        object.__setattr__(self, "eigenvectors", _freeze(vecs))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two square matrices.

    Entry ((i1,i2),(j1,j2)) of the result is ``a[i1,j1] * b[i2,j2]`` with the
    first factor as the outer (slow) index.
    """
    a = complex_matrix(a)
    b = complex_matrix(b)
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(
            f"tensor product dimension {dim} exceeds cap {MAX_DIM}; check the Fock cutoff"
        )
    return np.kron(a, b)


def hermitian_eig(h: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator (LAPACK ``eigh``)."""
    if h.dim > MAX_DIM:
        raise ValueError(f"dimension {h.dim} exceeds cap {MAX_DIM}")
    try:
        vals, vecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Hermitian eigendecomposition failed: dim={h.dim}, "
            f"max|H|={np.max(np.abs(h.matrix)):.3e} ({exc})"
        ) from exc
    return SpectralDecomposition(vals, vecs)


def propagator(spec: SpectralDecomposition, t) -> np.ndarray:
    """Unitary ``exp(-i H t)`` assembled from the spectral decomposition of H.

    Time is in ns, eigenvalues in GHz (hbar = 1), so the phases are
    dimensionless. An array of times gives a stack of propagators, one per
    time along a leading axis.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("propagation time must be finite")
    v = spec.eigenvectors
    phases = np.exp(-1j * np.multiply.outer(t, spec.eigenvalues))
    return (v * phases[..., None, :]) @ v.conj().T
