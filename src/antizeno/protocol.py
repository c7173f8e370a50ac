"""Repeated-measurement survival protocol: schedules, single runs, jitter
ensembles, period sweeps and the truncated-chain closed form.

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
run needs it). Runs of equal length are advanced together: each event is one
batched evolve and one batched measurement over all runs of a block
(``dynamics.BATCH_RUNS``), so ensembles and period sweeps cost a few array
operations per event instead of a Python loop per run.

A stack of runs is a ``(runs, N)`` array of event times, one schedule per
row, validated once. ``jitter_times`` draws the stack of a jitter ensemble;
the k-th row depends only on the base schedule, the width, omega and the
base seed, so one draw serves every coupling and detector inefficiency that
pairs its runs. ``sweep_T1`` builds its stack of periods by broadcasting.

Schedules use two alternating periods T1 and T2 = ratio*T1 (ratio = sqrt(2)
in all presets) and optional uniform time jitter. Incommensurate periods and
jitter exist to keep the events from locking onto the post-measurement
dynamics: commensurate, jitter-free schedules can hit resonances where the
survival decay stalls or accelerates, so presets always randomize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .dynamics import BATCH_RUNS, QuantumState, evolve
from .errors import NumericalError
from .measurement import MeasurementModel, measure_no_click
from .model import (
    GroundStateDecomposition,
    ModelParams,
    even_chain_excited,
    even_chain_hamiltonian,
    ground_state,
    hamiltonian,
)
from .numkit import SpectralDecomposition, hermitian_eig

__all__ = [
    "MeasurementSchedule",
    "SurvivalTrace",
    "EnsembleTrace",
    "PreparedModel",
    "prepare_model",
    "two_period_schedule",
    "jitter_schedule",
    "jitter_times",
    "child_seeds",
    "run_survival",
    "ensemble_survival",
    "sweep_T1",
    "truncated_survival",
]

_JITTER_ATTEMPTS = 100


@dataclass(frozen=True)
class MeasurementSchedule:
    """Strictly increasing measurement times (ns) plus generation metadata."""

    times: np.ndarray
    provenance: Mapping = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("schedule must contain at least one time")
        _check_times(t)
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "provenance", dict(self.provenance))

    def __len__(self) -> int:
        return self.times.size


def _check_times(times: np.ndarray) -> None:
    """Every schedule (last axis) must be finite, start after 0 and be
    strictly increasing."""
    if not np.all(np.isfinite(times)):
        raise ValueError("schedule times must be finite")
    if np.any(times[..., 0] <= 0) or np.any(np.diff(times, axis=-1) <= 0):
        raise ValueError("schedule times must be strictly increasing and start after 0")


def _time_stack(times) -> np.ndarray:
    """Validate a (runs, N) stack of event times, one schedule per row."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 2 or t.size == 0:
        raise ValueError(f"a schedule stack must be a non-empty (runs, N) array, got shape {t.shape}")
    _check_times(t)
    return t


@dataclass(frozen=True)
class SurvivalTrace:
    """Per-event no-click probabilities and their cumulative product.

    For a stack of schedules every field gains a leading run axis
    (``mean_single`` becomes one value per run).
    """

    times: np.ndarray
    single: np.ndarray
    cumulative: np.ndarray
    mean_single: float | np.ndarray


@dataclass(frozen=True)
class EnsembleTrace:
    """Per-event mean/std of single and cumulative survival over jittered
    schedules. ``times`` are the nominal (unjittered) event times."""

    times: np.ndarray
    single_mean: np.ndarray
    single_std: np.ndarray
    cumulative_mean: np.ndarray
    cumulative_std: np.ndarray
    runs: int
    base_seed: int

    @property
    def mean_single(self) -> float:
        """Ensemble average of the per-run mean single-event survival."""
        return float(np.mean(self.single_mean))


@dataclass(frozen=True)
class PreparedModel:
    """Ground state plus spectral decompositions, reusable across runs.

    ``chain``, the even-chain spectrum every survival run evolves with, and
    ``spec``, the spectrum of the full space, are each diagonalized the
    first time they are read, so a caller that needs only the ground state
    pays for neither."""

    params: ModelParams
    kind: str
    ground: GroundStateDecomposition

    @cached_property
    def chain(self) -> SpectralDecomposition:
        """Spectral decomposition of the even-chain Hamiltonian."""
        return hermitian_eig(even_chain_hamiltonian(self.params, self.kind))

    @cached_property
    def spec(self) -> SpectralDecomposition:
        """Spectral decomposition of the full-space Hamiltonian."""
        return hermitian_eig(hamiltonian(self.params, self.kind))

    def chain_ground(self, runs: int | None = None) -> QuantumState:
        """The ground state on the even chain; ``runs`` copies of it as a
        batch when given."""
        amplitudes = self.ground.even_chain
        if runs is not None:
            amplitudes = np.broadcast_to(amplitudes, (runs, amplitudes.size))
        return QuantumState.pure(amplitudes, even_chain_excited(self.params.n_max))


def prepare_model(p: ModelParams, kind: str = "rabi") -> PreparedModel:
    """Solve the ground state once; reuse it (and the lazily diagonalized
    even chain) across schedule events, sweeps and ensembles."""
    return PreparedModel(p, kind, ground_state(p, kind))


def two_period_schedule(T1: float, ratio: float, N: int) -> MeasurementSchedule:
    """N times built from alternating increments T1, T2 = ratio*T1, starting
    with T1: T1, T1+T2, 2*T1+T2, 2*T1+2*T2, ..."""
    return MeasurementSchedule(
        _two_period_times(np.array([T1], dtype=float), ratio, N)[0],
        {"T1": float(T1), "ratio": float(ratio), "jitter_width": 0.0, "seed": None},
    )


def _two_period_times(T1: np.ndarray, ratio: float, N: int) -> np.ndarray:
    """(T1.size, N) two-period event times, one row per T1 value."""
    bad = T1[~(np.isfinite(T1) & (T1 > 0))]
    if bad.size:
        raise ValueError(f"T1 must be > 0, got {float(bad[0])!r}")
    if not (np.isfinite(ratio) and ratio > 0):
        raise ValueError(f"ratio must be > 0, got {ratio!r}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    increments = np.empty((T1.size, N))
    increments[:, 0::2] = T1[:, None]
    increments[:, 1::2] = (ratio * T1)[:, None]
    return np.cumsum(increments, axis=1)


def jitter_schedule(
    s: MeasurementSchedule, width: float, omega: float, seed: int
) -> MeasurementSchedule:
    """Shift each event by an independent uniform draw in [-width/omega,
    +width/omega] (width is a dimensionless omega*dt).

    Events are drawn in order; a draw that breaks the strict ordering is
    redrawn up to 100 times before giving up. Deterministic for a given seed.
    All draws are taken at once first: they are the stream the in-order
    rule consumes whenever no redraw is needed, so only a schedule that
    breaks the ordering replays the rule event by event.
    """
    if not (np.isfinite(width) and width >= 0):
        raise ValueError(f"jitter width must be >= 0, got {width!r}")
    if width == 0.0:
        return MeasurementSchedule(
            s.times, {**s.provenance, "jitter_width": 0.0, "seed": int(seed)}
        )
    half_window = width / omega
    out = s.times + np.random.default_rng(int(seed)).uniform(
        -half_window, half_window, size=len(s)
    )
    if out[0] <= 0.0 or np.any(out[1:] <= out[:-1]):
        out = _jitter_in_order(s.times, half_window, int(seed))
    return MeasurementSchedule(
        out, {**s.provenance, "jitter_width": float(width), "seed": int(seed)}
    )


def _jitter_in_order(times: np.ndarray, half_window: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = np.empty_like(times)
    prev = 0.0
    for i, t in enumerate(times):
        for _ in range(_JITTER_ATTEMPTS):
            candidate = t + rng.uniform(-half_window, half_window)
            if candidate > prev:
                out[i] = candidate
                prev = candidate
                break
        else:
            raise NumericalError(
                f"jitter ordering could not be restored at event {i} "
                f"after {_JITTER_ATTEMPTS} redraws (width too large for the schedule)"
            )
    return out


def jitter_times(
    base: MeasurementSchedule, width: float, omega: float, runs: int, base_seed: int
) -> np.ndarray:
    """Jittered event times of a whole ensemble as a read-only (runs, N)
    array: row k is ``jitter_schedule(base, width, omega, seed_k).times``
    with ``seed_k = child_seeds(base_seed, runs)[k]``, so every run keeps
    its own PCG64 stream and redraw rule.

    Draw once and hand the stack to every ensemble that pairs its runs
    (``ensemble_survival(..., jittered=...)``): couplings and detector
    inefficiencies do not enter the draws.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    times = np.empty((runs, len(base)))
    for row, seed in zip(times, child_seeds(base_seed, runs)):
        row[:] = jitter_schedule(base, width, omega, int(seed)).times
    times.flags.writeable = False
    return times


def child_seeds(base_seed: int, runs: int) -> np.ndarray:
    """Deterministic per-run seeds: SeedSequence(base_seed) expanded to
    ``runs`` uint64 words. The generator used downstream is numpy PCG64."""
    return np.random.SeedSequence(int(base_seed)).generate_state(runs, dtype=np.uint64)


def _as_prepared(p, kind: str) -> PreparedModel:
    if isinstance(p, PreparedModel):
        return p
    return prepare_model(p, kind)


def run_survival(
    p: ModelParams | PreparedModel,
    s: MeasurementSchedule | Sequence[MeasurementSchedule] | np.ndarray,
    m: MeasurementModel,
    kind: str = "rabi",
) -> SurvivalTrace:
    """Survival trace of one schedule, or of each schedule of a stack,
    starting from the ground state.

    A stack is either a sequence of schedules of equal length or a
    (runs, N) array of event times with one schedule per row (as
    ``jitter_times`` returns); the array is validated once as a whole.

    The evolution before the first event is a no-op (the ground state is
    stationary), so the first single-event survival equals the ground-state
    no-click probability. With epsilon = 0 the conditional state stays pure
    and the cheap pure-state path is used; otherwise the state is promoted
    to a density matrix. A stack is run in blocks of runs, each event one
    batched step for the whole block; its trace has a leading run axis.
    """
    prep = _as_prepared(p, kind)
    if prep.ground.degenerate:
        raise ValueError(
            "ground manifold is degenerate (omega0 = 0?); the survival protocol "
            "requires a unique ground state"
        )
    one_schedule = isinstance(s, MeasurementSchedule)
    if one_schedule:
        times = s.times[None]
    elif isinstance(s, np.ndarray):
        times = _time_stack(s)
    else:
        schedules = list(s)
        if not schedules:
            raise ValueError("run_survival needs at least one schedule")
        if len({len(schedule) for schedule in schedules}) != 1:
            raise ValueError("stacked schedules must all have the same number of events")
        times = _time_stack(np.stack([schedule.times for schedule in schedules]))

    singles = np.empty(times.shape)
    block = BATCH_RUNS["density" if m.epsilon > 0.0 else "pure"]
    for start in range(0, len(times), block):
        rows = slice(start, start + block)
        singles[rows] = _survival_block(prep, times[rows], m)
    cumulative = np.exp(np.cumsum(np.log(singles), axis=-1))
    if one_schedule:
        return SurvivalTrace(s.times, singles[0], cumulative[0], float(singles[0].mean()))
    return SurvivalTrace(times, singles, cumulative, singles.mean(axis=-1))


def _survival_block(prep: PreparedModel, times: np.ndarray, m: MeasurementModel) -> np.ndarray:
    """No-click probabilities of one block of runs (rows of ``times``)."""
    state = prep.chain_ground(len(times))
    if m.epsilon > 0.0:
        state = state.promoted()
    singles = np.empty(times.shape)
    previous = np.zeros(len(times))
    for i in range(times.shape[1]):
        state = evolve(prep.chain, state, times[:, i] - previous)
        outcome = measure_no_click(state, m)
        state = outcome.post_state
        singles[:, i] = outcome.no_click_probability
        previous = times[:, i]
    return singles


def ensemble_survival(
    p: ModelParams | PreparedModel,
    base: MeasurementSchedule,
    m: MeasurementModel,
    jitter_width: float,
    runs: int,
    base_seed: int,
    kind: str = "rabi",
    jittered: np.ndarray | None = None,
) -> EnsembleTrace:
    """Mean/std of survival over ``runs`` jittered copies of ``base``.

    Per-run seeds derive deterministically from ``base_seed`` via
    ``child_seeds``; the k-th run uses the same jitter draws regardless of
    epsilon or coupling, so ensembles with different detector settings are
    paired. All runs go through one batched ``run_survival``.

    ``jittered`` shares one draw between paired ensembles: pass the stack
    ``jitter_times(base, jitter_width, omega, runs, base_seed)`` and it is
    run as given. ``jitter_width`` is then not read, and ``base_seed`` is
    only recorded in the trace, so the caller vouches that the stack was
    drawn with them. When omitted, the stack is drawn here.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs!r}")
    prep = _as_prepared(p, kind)
    if jittered is None:
        jittered = jitter_times(base, jitter_width, prep.params.omega, runs, base_seed)
    else:
        jittered = np.asarray(jittered, dtype=float)
        if jittered.shape != (runs, len(base)):
            raise ValueError(
                f"jittered times must have shape {(runs, len(base))}, got {jittered.shape}"
            )
    trace = run_survival(prep, jittered, m)
    return EnsembleTrace(
        times=base.times,
        single_mean=trace.single.mean(axis=0),
        single_std=trace.single.std(axis=0),
        cumulative_mean=trace.cumulative.mean(axis=0),
        cumulative_std=trace.cumulative.std(axis=0),
        runs=runs,
        base_seed=int(base_seed),
    )


def sweep_T1(
    p: ModelParams | PreparedModel,
    N: int,
    T1_values,
    ratio: float,
    m: MeasurementModel,
    kind: str = "rabi",
) -> float:
    """Mean over T1 of the final cumulative survival after N measurements;
    all periods run as one (T1, N) stack."""
    values = np.asarray(T1_values, dtype=float)
    if values.size == 0:
        raise ValueError("T1_values must be non-empty")
    prep = _as_prepared(p, kind)
    times = _two_period_times(values, ratio, N)
    return float(np.mean(run_survival(prep, times, m).cumulative[:, -1]))


def truncated_survival(c0: float, N: int) -> float:
    """|c0|**(2N+2): survival after N measurements if every no-click left the
    system exactly in the ground state (two-state truncation of the chain)."""
    magnitude = abs(c0)
    if magnitude > 1.0 + 1e-12:
        raise ValueError(f"|c0| must be <= 1, got {magnitude!r}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N!r}")
    return float(min(magnitude, 1.0) ** (2 * N + 2))
