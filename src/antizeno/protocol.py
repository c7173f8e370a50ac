"""Repeated-measurement survival protocol: schedules, single runs, jitter
ensembles and period sweeps.

A run starts from the model ground state, measures at each schedule time and
keeps only the no-click branch: record the per-event no-click probability,
evolve the conditional state to the next event, repeat. The ground state is
stationary, so the first factor is exactly the ground-state no-click
probability epsilon + (1-epsilon)(1-p_e). Cumulative survival is accumulated
in log space to avoid underflow on long schedules.

The ground state has even parity and both free evolution and the no-click
map preserve parity, so every state a run visits lives on the even chain
|g,0>, |e,1>, |g,2>, ... of dimension n_max + 1 (a ``PreparedModel``
diagonalizes the real tridiagonal chain Hamiltonian once, the first time a
run needs it). Runs of equal length are advanced together in blocks
(``dynamics.BATCH_RUNS``), so ensembles and period sweeps cost a few array
operations per event instead of a Python loop per run. An ideal detector
(epsilon = 0) keeps each run pure: its amplitudes c = psi V in the chain
eigenbasis take one step per event, the phases exp(-i E dt) and then the
real no-click projector P = V^T diag(ground) V that the prepared model
keeps. A detector with epsilon > 0 mixes the state, so those runs are
density matrices, each event one batched ``evolve`` and one batched
``measure_no_click`` on ``QuantumState`` batches (they move to the
eigenbasis only once the benchmark can time a faster density pass,
ROADMAP item 1a).

A schedule is a 1-d array of event times in 1/omega; a stack of runs is a
``(runs, N)`` array, one schedule per row, validated once. ``jitter_schedule``,
``run_survival`` and ``ensemble_survival`` take only a stack (one schedule
runs as ``times[None]``). ``jitter_times`` draws the stack of a jitter
ensemble; the k-th row depends only on the base schedule, the half-window and
the base seed, so one draw serves every coupling and detector inefficiency
that pairs its runs. ``sweep_T1`` builds its stack of periods by
broadcasting.

Schedules use two alternating periods T1 and T2 = ratio*T1 (ratio = sqrt(2)
in all presets) and optional uniform time jitter. Incommensurate periods and
jitter exist to keep the events from locking onto the post-measurement
dynamics: commensurate, jitter-free schedules can hit resonances where the
survival decay stalls or accelerates, so presets always randomize.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

import numpy as np

from .dynamics import BATCH_RUNS, QuantumState, _check_norm, evolve
from .errors import NumericalError
from .measurement import _check_no_click, _epsilon, measure_no_click
from .model import (
    DEGENERACY_GAP,
    GroundStateDecomposition,
    ModelParams,
    even_chain_excited,
    even_chain_hamiltonian,
    ground_state,
)
from .numkit import SpectralDecomposition, hermitian_eig

__all__ = [
    "SurvivalTrace",
    "EnsembleTrace",
    "PreparedModel",
    "prepare_model",
    "two_period_schedule",
    "jitter_keeps_order",
    "jitter_schedule",
    "jitter_times",
    "child_seeds",
    "run_survival",
    "ensemble_survival",
    "sweep_T1",
]


def _time_stack(times) -> np.ndarray:
    """Validate a stack (runs, N) of schedules of event times in 1/omega, one
    per row: finite, starting after 0, strictly increasing."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 2 or t.size == 0:
        raise ValueError("expected a non-empty (runs, N) schedule stack (run one schedule as "
                         f"times[None]), got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("schedule times must be finite")
    if np.any(t[..., 0] <= 0) or np.any(np.diff(t, axis=-1) <= 0):
        raise ValueError("schedule times must be strictly increasing and start after 0")
    return t


@dataclass(frozen=True)
class SurvivalTrace:
    """Per-event no-click probabilities and their cumulative product, one
    row per run of a (runs, N) schedule stack."""

    single: np.ndarray
    cumulative: np.ndarray


@dataclass(frozen=True)
class EnsembleTrace:
    """Per-event mean/std of single and cumulative survival over a stack of
    jittered schedules."""

    single_mean: np.ndarray
    single_std: np.ndarray
    cumulative_mean: np.ndarray
    cumulative_std: np.ndarray


@dataclass(frozen=True)
class PreparedModel:
    """Ground state plus the even-chain spectrum, reusable across runs.

    ``chain``, the spectrum every survival run evolves with, is diagonalized
    the first time it is read, so a caller that needs only the ground state
    does not pay for it; ``no_click``, the ideal detector's projector in its
    eigenbasis, is built from it on first read."""

    params: ModelParams
    ground: GroundStateDecomposition

    @cached_property
    def chain(self) -> SpectralDecomposition:
        """Spectral decomposition of the even-chain Hamiltonian."""
        return hermitian_eig(even_chain_hamiltonian(self.params))

    @cached_property
    def no_click(self) -> np.ndarray:
        """The ideal detector's no-click projector in the eigenbasis of
        ``chain``: the real P = V^T diag(ground) V, which keeps the sites of a
        de-excited qubit (read-only; no further eigensolve)."""
        kept = self.chain.eigenvectors[~even_chain_excited(self.params.n_max)]
        projector = kept.T @ kept
        projector.flags.writeable = False
        return projector

    def chain_ground(self, runs: int) -> QuantumState:
        """``runs`` copies of the ground state on the even chain, as a batch.
        A degenerate ground manifold has no such state (``ValueError``)."""
        gs = self.ground
        if gs.even_chain is None:
            raise ValueError(
                f"ground manifold is degenerate (gap {gs.gap:.3e} < DEGENERACY_GAP = "
                f"{DEGENERACY_GAP:g}); the survival protocol requires a unique ground state"
            )
        return QuantumState("pure", np.broadcast_to(gs.even_chain, (runs, gs.even_chain.size)))


def prepare_model(p: ModelParams, solved: dict | None = None) -> PreparedModel:
    """Solve the ground state once (or read it from the ``solved`` memo of
    ``model.ground_state``); reuse it and the lazily diagonalized even chain
    across schedule events, sweeps and ensembles."""
    return PreparedModel(p, ground_state(p, solved))


def two_period_schedule(T1: float, ratio: float, N: int) -> np.ndarray:
    """N times built from alternating increments T1, T2 = ratio*T1, starting
    with T1: T1, T1+T2, 2*T1+T2, 2*T1+2*T2, ... (a read-only array)."""
    times = _two_period_times(np.array([T1], dtype=float), ratio, N)[0]
    times.flags.writeable = False
    return times


def _two_period_times(T1: np.ndarray, ratio: float, N: int) -> np.ndarray:
    """(T1.size, N) two-period event times, one row per T1 value."""
    bad = T1[~(np.isfinite(T1) & (T1 > 0))]
    if bad.size:
        raise ValueError(f"T1 must be > 0, got {float(bad[0])!r}")
    if not 0 < ratio < np.inf:
        raise ValueError(f"ratio must be > 0, got {ratio!r}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    increments = np.empty((T1.size, N))
    increments[:, 0::2] = T1[:, None]
    with np.errstate(over="ignore"):  # an overflow is refused below
        increments[:, 1::2] = (ratio * T1)[:, None]
        times = np.cumsum(increments, axis=1)
    if not np.all(np.isfinite(times[:, -1])):
        raise ValueError(f"event times pass the float range (T1 up to {float(T1.max())!r}, "
                         f"ratio {ratio!r}, N {N!r})")
    return times


def jitter_keeps_order(times, half_window: float) -> bool:
    """Whether shifts of up to ``half_window`` either way keep a schedule
    (1-d times), or every row of a stack, valid, so that no draw can reorder
    its events or move the first one to 0: half_window below the first event
    time and twice it below every interval. ``jitter_schedule`` refuses every
    other window."""
    t = np.asarray(times, dtype=float)
    return bool(np.all(half_window < t[..., 0]) and np.all(2 * half_window < np.diff(t, axis=-1)))


def jitter_schedule(times, half_window: float, seeds) -> np.ndarray:
    """Shift each event of a (runs, N) stack of schedules (times in 1/omega)
    by an independent uniform draw in [-half_window, +half_window); returns a
    read-only array.

    Row k's N shifts are one ``uniform(size=N)`` draw from the PCG64 stream
    of ``seeds[k]``, bit for bit as numpy's ``default_rng`` draws it. The
    stack and the window are checked once; a window that could reorder
    events (``jitter_keeps_order``) or a seed count other than the number of
    rows raises ``ValueError``.
    """
    t = _time_stack(times)
    if not (half_window >= 0 and jitter_keeps_order(t, half_window)):
        raise ValueError(f"jitter half-window {half_window!r} must be >= 0 and below the first "
                         f"event time and half of every interval (no reordering)")
    if np.shape(seeds) != (len(t),):
        raise ValueError(f"expected one seed per row ({len(t)}), got shape {np.shape(seeds)}")
    out = t.view()  # a view, so the caller's array keeps its flags
    if half_window > 0.0:
        out = t + np.array([_uniform(int(s), -half_window, half_window, t.shape[1]) for s in seeds])
    out.flags.writeable = False
    return out


def jitter_times(base, half_window: float, runs: int, base_seed: int) -> np.ndarray:
    """Jittered event times of a whole ensemble as a read-only (runs, N)
    array: ``jitter_schedule`` of ``runs`` copies of the schedule ``base``
    with the seeds ``child_seeds(base_seed, runs)``, so every run keeps its
    own PCG64 stream.

    Draw once and hand the stack to every ensemble that pairs its runs
    (``ensemble_survival``): couplings and detector inefficiencies do not
    enter the draws.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    seeds = child_seeds(base_seed, runs)
    return jitter_schedule(np.broadcast_to(base, (runs, *np.shape(base))), half_window, seeds)


def child_seeds(base_seed: int, runs: int) -> np.ndarray:
    """Deterministic per-run seeds: SeedSequence(base_seed) expanded to
    ``runs`` uint64 words, bit for bit as numpy does; the rows draw PCG64."""
    seeds = np.empty(runs, dtype=np.uint64)  # refuses a negative or unallocatable count
    seeds[:] = _seed_state(base_seed, runs)
    return seeds


# numpy's SeedSequence and PCG64 (O'Neill, HMC-CS-2014-0905) in Python ints,
# so that no run loads numpy's random package (5.7 MB of RSS); tests check
# both streams against numpy bit for bit.
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, multiplier: int):
    """SeedSequence's hashmix of one uint32; every call steps the constant."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def _seed_state(seed: int, n: int) -> list[int]:
    """``SeedSequence(seed).generate_state(n, uint64)`` as Python ints."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    entropy = [seed & _M32]  # little-endian uint32 words; 0 is one word
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src, dst in permutations(range(4), 2):  # every ordered pair, src-major
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(entropy[4:], range(4)):
        pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(pool[i % 4]) for i in range(2 * n)]
    return [low | high << 32 for low, high in zip(words[0::2], words[1::2])]


def _uniform(seed: int, low: float, high: float, n: int) -> list[float]:
    """``default_rng(seed).uniform(low, high, n)``: PCG64 seeded as
    ``pcg64_set_seed`` does, XSL-RR output, 53-bit doubles."""
    s0, s1, i0, i1 = _seed_state(seed, 4)
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER + inc) & _M128
    draws = []
    for _ in range(n):
        state = (state * _PCG_MULTIPLIER + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        draws.append(low + (high - low) * ((x >> 11) * 2.0**-53))
    return draws


def run_survival(prep: PreparedModel, times, epsilon: float) -> SurvivalTrace:
    """Survival trace at detector inefficiency ``epsilon`` of each row of a
    (runs, N) stack of event times (as ``jitter_times`` returns), from the
    ground state; one schedule runs as ``times[None]``. Both are validated once.

    The evolution before the first event is a no-op (the ground state is
    stationary), so the first single-event survival equals the ground-state
    no-click probability. With epsilon = 0 the conditional state stays pure
    and runs as amplitudes in the chain eigenbasis, one phase-and-project
    step per event; otherwise the state is promoted to a density matrix and
    each event is one ``evolve`` and one ``measure_no_click``. The stack is
    run in blocks of runs, each event one batched step for the whole block.
    Both paths check the state at every event and stop with
    ``NumericalError``, naming the run's row of the stack.
    """
    times, epsilon = _time_stack(times), _epsilon(epsilon)
    singles = np.empty(times.shape)
    block = BATCH_RUNS["density" if epsilon > 0.0 else "pure"]
    for start in range(0, len(times), block):
        rows = slice(start, start + block)
        try:
            singles[rows] = _survival_block(prep, times[rows], epsilon)
        except NumericalError as exc:
            # a state check names a run of the block: name its row of the stack
            exc.args = (re.sub(r"\(run (\d+)\)$", lambda m: f"(run {start + int(m[1])})", str(exc)),)
            raise
    cumulative = np.exp(np.cumsum(np.log(singles), axis=-1))
    return SurvivalTrace(singles, cumulative)


def _survival_block(prep: PreparedModel, times: np.ndarray, epsilon: float) -> np.ndarray:
    """No-click probabilities of one block of runs (rows of ``times``)."""
    if epsilon == 0.0:
        return _pure_block(prep, times)
    state = prep.chain_ground(len(times)).promoted()
    singles = np.empty(times.shape)
    previous = np.zeros(len(times))
    for i in range(times.shape[1]):
        state = evolve(prep.chain, state, times[:, i] - previous)
        singles[:, i], state = measure_no_click(state, epsilon)
        previous = times[:, i]
    return singles


def _pure_block(prep: PreparedModel, times: np.ndarray) -> np.ndarray:
    """``_survival_block`` at epsilon = 0, on the amplitudes c = psi V of
    each run in the eigenbasis of ``prep.chain``: free evolution multiplies
    c by the phases exp(-i E dt), and each event is one ``_no_click_step``."""
    amplitudes = prep.chain_ground(len(times)).data @ prep.chain.eigenvectors
    exponents = -1j * prep.chain.eigenvalues
    steps = np.diff(times, axis=1, prepend=0.0)
    singles = np.empty(times.shape)
    for i in range(times.shape[1]):
        amplitudes *= np.exp(np.multiply.outer(steps[:, i], exponents))
        singles[:, i], amplitudes = _no_click_step(amplitudes, prep.no_click)
    return singles


def _no_click_step(amplitudes: np.ndarray, projector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One ideal measurement of every run: the no-click probability, as the
    weight the projector keeps over the state's own weight (so a run the
    projector leaves alone scores exactly 1), and the renormalized
    conditional amplitudes. The state first meets the pure-state norm rule;
    a certain click is refused as ``measure_no_click`` refuses it."""
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


def ensemble_survival(prep: PreparedModel, times, epsilon: float) -> EnsembleTrace:
    """Mean/std of survival, per event, over the rows of a (runs, N) stack
    of jittered schedules (as ``jitter_times`` draws it).

    The k-th run uses the same jitter draws regardless of epsilon or
    coupling, so ensembles that share one stack are paired. All runs go
    through one batched ``run_survival``, which validates the stack.
    """
    trace = run_survival(prep, times, epsilon)
    return EnsembleTrace(
        single_mean=trace.single.mean(axis=0),
        single_std=trace.single.std(axis=0),
        cumulative_mean=trace.cumulative.mean(axis=0),
        cumulative_std=trace.cumulative.std(axis=0),
    )


def sweep_T1(prep: PreparedModel, N: int, T1_values, ratio: float, epsilon: float) -> float:
    """Mean over T1 of the final cumulative survival after N measurements;
    all periods run as one (T1, N) stack."""
    values = np.asarray(T1_values, dtype=float)
    if values.size == 0:
        raise ValueError("T1_values must be non-empty")
    times = _two_period_times(values, ratio, N)
    return float(np.mean(run_survival(prep, times, epsilon).cumulative[:, -1]))

