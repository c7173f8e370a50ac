"""The basis convention of the composite qubit (x) Fock space and its photon
truncation.

Basis convention (qubit-major): index(s, n) = s*(n_max+1) + n with
s=0 -> |g>, s=1 -> |e> and n the photon number. The qubit-ground block
therefore occupies the first n_max+1 components, which keeps the qubit
projectors block-diagonal. The sigma_z sign convention is
sigma_z|e> = +|e>, sigma_z|g> = -|g>, so +omega0/2*sigma_z puts the bare
qubit ground state at -omega0/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FockBasis"]


@dataclass(frozen=True)
class FockBasis:
    """Photon-number truncation of the resonator space."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        """Composite dimension 2*(n_max+1)."""
        return 2 * (self.n_max + 1)
