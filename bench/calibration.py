"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's reference machine is a few cores of a shared host whose
speed flips between phases up to 1.8 times apart, within seconds, in the
same way for wall and CPU time. ``run.py`` runs this kernel at a fixed
interval while a pass runs (``Sampler``) and divides the pass time by it,
so a change of host speed cancels and a change of the program does not:
the kernel never calls the package, and its inputs are fixed.

It does the three kinds of work the package does, at the package's sizes:
Hermitian ``eigh`` at dimensions 82 and 162, a loop of small pure-state
propagate-and-project steps at dimension 82 (interpreter-bound, like the
no-click measurements), and density-matrix conjugations with an
``eigvalsh`` each (BLAS-bound, like the density path).
"""

import signal
import time

import numpy as np

# Nominal time of one ``run()``: on the reference machine it takes about
# 0.05 s in the host's fast phases and up to 0.09 s in its slow ones. Times
# divided by the kernel's time are multiplied by this, so the rescaled
# metrics read as seconds at the fast host speed.
REFERENCE_S = 0.05

_DIM = 82
_BIG_DIM = 162


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20101129)
        self.small = _hermitian(rng, _DIM)
        self.big = _hermitian(rng, _BIG_DIM)
        self.energies, self.vectors = np.linalg.eigh(self.small)
        psi = rng.standard_normal(_DIM) + 0j
        self.psi = psi / np.linalg.norm(psi)
        self.rho = np.outer(self.psi, self.psi.conj())
        self.keep = np.zeros(_DIM)
        self.keep[::2] = 1.0

    def _eigh(self) -> None:
        np.linalg.eigh(self.big)
        np.linalg.eigh(self.big)
        for _ in range(5):
            np.linalg.eigh(self.small)

    def _pure(self) -> None:
        w, v = self.energies, self.vectors
        psi = self.psi
        for k in range(600):
            psi = v @ (np.exp(-1j * w * (0.01 * (k % 7 + 1))) * (v.conj().T @ psi))
            psi = psi * self.keep
            norm = np.linalg.norm(psi)
            psi = psi / norm if norm > 1e-12 else self.psi

    def _density(self) -> None:
        u = (self.vectors * np.exp(-0.03j * self.energies)) @ self.vectors.conj().T
        rho = self.rho
        for _ in range(22):
            rho = u @ rho @ u.conj().T
            np.linalg.eigvalsh(rho)

    def run(self) -> float:
        """Seconds one pass of the kernel takes now."""
        start = time.perf_counter()
        self._eigh()
        self._pure()
        self._density()
        return time.perf_counter() - start


class Sampler:
    """While active, runs ``kernel`` every ``interval`` seconds of wall time
    from a SIGALRM handler, so it samples the host's speed during the work
    in between. ``times`` are the kernel's run times; ``spent`` is the time
    spent in the handler, which the caller subtracts from its own timing.

    The handler runs in the main thread between bytecodes, so it never
    runs inside a numpy call, and interrupted system calls are retried.
    """

    def __init__(self, kernel: Calibration, interval: float):
        self.kernel = kernel
        self.interval = interval
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a slow kernel run outlasted the interval
            return
        self._busy = True
        start = time.perf_counter()
        self.times.append(self.kernel.run())
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.times, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
