import math
import random

import numpy as np
import pytest

from antizeno import protocol
from antizeno.errors import NumericalError
from antizeno.model import ModelParams, even_chain_hamiltonian
from antizeno.protocol import (
    child_seeds,
    ensemble_survival,
    jitter_schedule,
    jitter_times,
    prepare_model,
    run_survival,
    sweep_T1,
    two_period_schedule,
)
from antizeno.config import FIG4_PANEL_C_GRID, FIG4_PANELS, ExperimentConfig, preset
from antizeno.runner import build_tables
from helpers import SQRT2, resonant
from oracle import (
    beyond_5_se, embed_even_chain, full_space_run, jitter_mean_survival,
    jitter_weak_coupling_losses, kron_hamiltonian, trajectory_survival, truncated_survival,
    weak_coupling_losses,
)

class TestTwoPeriodSchedule:
    def test_alternating_increments(self):
        sched = two_period_schedule(1.0, SQRT2, 4)
        expected = [1.0, 1.0 + SQRT2, 2.0 + SQRT2, 2.0 + 2 * SQRT2]
        assert np.allclose(sched, expected, atol=1e-15)
        assert sched.shape == (4,) and not sched.flags.writeable

    def test_equal_periods_give_uniform_grid(self):
        sched = two_period_schedule(0.5, 1.0, 5)
        assert np.allclose(sched, [0.5, 1.0, 1.5, 2.0, 2.5], atol=1e-15)

    def test_single_event(self):
        sched = two_period_schedule(2.0, SQRT2, 1)
        assert np.allclose(sched, [2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            two_period_schedule(0.0, SQRT2, 3)
        with pytest.raises(ValueError):
            two_period_schedule(1.0, -1.0, 3)
        with pytest.raises(ValueError):
            two_period_schedule(1.0, SQRT2, 0)

    @pytest.mark.parametrize("T1,ratio", [(1e308, 2.0), (1e200, 1e200)], ids=["sum", "period"])
    def test_times_past_the_float_range_are_refused(self, T1, ratio):
        # refused without numpy's overflow warning (an error under this suite)
        with pytest.raises(ValueError, match="event times pass the float range"):
            two_period_schedule(T1, ratio, 3)
        prep = prepare_model(resonant(0.5, n_max=10))
        with pytest.raises(ValueError, match="event times pass the float range"):
            sweep_T1(prep, 3, [1.0, T1], ratio, 0.0)

    def test_schedule_type_validation(self):
        # a schedule stack is checked where it enters: run_survival and
        # jitter_schedule
        prep = prepare_model(resonant(0.5, n_max=10))
        for times in ([1.0, 1.0], [0.0, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                run_survival(prep, np.array(times)[None], 0.0)
            with pytest.raises(ValueError, match="strictly increasing"):
                jitter_schedule(np.array(times)[None], 0.1, [1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_rejected(self, bad):
        prep = prepare_model(resonant(0.5, n_max=10))
        for times in ([1.0, bad, 3.0], [bad]):
            with pytest.raises(ValueError, match="finite"):
                run_survival(prep, [times], 0.0)
            with pytest.raises(ValueError, match="finite"):
                jitter_schedule([times], 0.1, [1])


def copies(base, runs):
    """A (runs, N) stack of one schedule, as ``jitter_times`` jitters it."""
    return np.broadcast_to(base, (runs, len(base)))


class TestJitterSchedule:
    def test_zero_width_is_identity(self):
        base = two_period_schedule(1.0, SQRT2, 6)
        jittered = jitter_schedule(copies(base, 3), 0.0, [99, 98, 97])
        assert np.array_equal(jittered, copies(base, 3))

    def test_deterministic_for_seed(self):
        base = two_period_schedule(2 * np.pi, SQRT2, 8)
        a, b, c = jitter_schedule(copies(base, 3), 0.2 * np.pi, [7, 7, 8])
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(jitter_schedule(base[None], 0.2 * np.pi, [7])[0], a)

    def test_uniform_distribution_oracle(self):
        # 10^4 draws: shifts stay inside +-width and their empirical mean is
        # within 0.01*width of zero
        width = 0.2 * np.pi
        base = two_period_schedule(2 * np.pi, SQRT2, 4)
        shifts = jitter_schedule(copies(base, 2500), width, range(2500)) - base
        assert shifts.size == 10_000
        assert np.max(np.abs(shifts)) <= width
        assert abs(np.mean(shifts)) <= 0.01 * width

    def test_preserves_ordering(self):
        # at the widest accepted window: one ulp under half an interval
        base = two_period_schedule(0.5, 1.0, 20)
        widest = np.nextafter(0.25, 0.0)
        with pytest.raises(ValueError, match="jitter half-window 0.25 must"):
            jitter_schedule(base[None], 0.25, [0])
        jittered = jitter_schedule(copies(base, 25), widest, range(25))
        assert np.all(np.diff(jittered, axis=1) > 0)
        assert np.all(jittered[:, 0] > 0)
        assert not jittered.flags.writeable

    def test_shifts_stay_inside_the_half_window(self):
        base = two_period_schedule(1.0, SQRT2, 5)
        wide = jitter_schedule(base[None], 0.3, [3])
        narrow = jitter_schedule(base[None], 0.03, [3])
        assert np.max(np.abs(narrow - base)) <= 0.03 + 1e-15
        assert np.max(np.abs(wide - base)) <= 0.3 + 1e-15

    def test_takes_a_stack_and_one_seed_per_row(self):
        # no 1-d fallback: one schedule is jittered as times[None]
        base = two_period_schedule(1.0, SQRT2, 4)
        shape = (r"\(runs, N\) schedule stack \(run one schedule as times\[None\]\), "
                 r"got shape \(4,\)")
        with pytest.raises(ValueError, match=shape):
            jitter_schedule(base, 0.2, [1])
        for seeds in ([1, 2], [1, 2, 3, 4], [], 1, [[1, 2, 3]]):
            with pytest.raises(ValueError, match=r"expected one seed per row \(3\)"):
                jitter_schedule(copies(base, 3), 0.2, seeds)


def sequential_jitter(base, half_window, seed, attempts=100):
    """The in-order jitter rule, one scalar draw per attempt."""
    rng = np.random.default_rng(seed)
    out, prev = [], 0.0
    for t in base:
        for _ in range(attempts):
            candidate = t + rng.uniform(-half_window, half_window)
            if candidate > prev:
                out.append(candidate)
                prev = candidate
                break
        else:
            raise NumericalError("no ordered draw")
    return np.array(out)


class TestJitterMatchesSequentialRule:
    @pytest.mark.parametrize(
        "base,width,omega",
        [
            (two_period_schedule(2 * np.pi, SQRT2, 16), 0.2 * np.pi, 1.0),
            (two_period_schedule(0.75 * np.pi, SQRT2, 3), 0.3 * np.pi, 1.0),
            (two_period_schedule(1.0, SQRT2, 8), 0.3, 10.0),
        ],
    )
    def test_bit_for_bit(self, base, width, omega):
        # half-windows width/omega, down to 0.03 on the third schedule
        half_window = width / omega
        seeds = child_seeds(2024, 500)
        for jittered, seed in zip(jitter_schedule(copies(base, 500), half_window, seeds), seeds):
            assert np.array_equal(jittered, sequential_jitter(base, half_window, int(seed)))

    def test_refuses_windows_that_can_reorder_events(self):
        # events 0.5 apart with a +-0.4 window: without the refusal, many
        # draws would break the ordering
        base = two_period_schedule(0.5, 1.0, 20)
        reordered = sum(
            bool(np.any(np.diff(base + np.random.default_rng(seed).uniform(-0.4, 0.4, 20)) <= 0))
            for seed in range(200)
        )
        assert reordered >= 20
        with pytest.raises(ValueError, match="jitter half-window 0.4 must"):
            jitter_schedule(base[None], 0.4, [0])

    def test_refuses_a_window_wider_than_the_schedule(self):
        base = two_period_schedule(1e-3, 1.0, 50)
        with pytest.raises(ValueError, match="jitter half-window 100.0 must"):
            jitter_schedule(base[None], 100.0, [1])


class TestJitterKeepsOrder:
    """``jitter_keeps_order`` accepts exactly the (schedule, half-window)
    pairs whose exact mean ``oracle.jitter_mean_survival`` computes."""

    P = ModelParams(1.0, 0.5, 3)

    def agree(self, base, half_window):
        try:
            jitter_mean_survival(self.P, base, half_window, 0.0)
            exact = True
        except ValueError:
            exact = False
        accepted = protocol.jitter_keeps_order(base, half_window)
        assert accepted == exact, (base.tolist(), half_window)
        return accepted

    @pytest.mark.parametrize("base", [
        two_period_schedule(1.0, SQRT2, 5),
        two_period_schedule(0.75 * np.pi, SQRT2, 3),
        np.array([0.5, 10.0]),  # the first event time decides
        np.array([2.0]),  # no interval at all
        np.array([1.0, 1.0 + 1e-9, 3.0]),
    ], ids=["sqrt2", "fig4", "first", "single", "tiny"])
    def test_both_sides_of_each_boundary(self, base):
        edges = [edge for edge in (base[0], np.min(np.diff(base), initial=np.inf) / 2)
                 if np.isfinite(edge)]
        for edge in edges:
            self.agree(base, np.nextafter(edge, 0.0))
            assert not self.agree(base, edge)
            assert not self.agree(base, np.nextafter(edge, np.inf))
        # one ulp inside the tighter edge, and no jitter at all, are accepted
        assert self.agree(base, np.nextafter(min(edges), 0.0))
        assert self.agree(base, 0.0)

    def test_random_cases(self):
        rng = np.random.default_rng(17)
        outcomes = []
        for _ in range(300):
            base = np.cumsum(rng.uniform(0.05, 1.0, size=rng.integers(1, 7)))
            outcomes.append(self.agree(base, rng.uniform(0.0, 0.6)))
        assert 50 < sum(outcomes) < 250

    def test_fig4_panels_are_accepted(self):
        # the tightest is panel c: 2*0.3*pi against omega*T1 = 0.75*pi
        for s in FIG4_PANELS.values():
            base = two_period_schedule(s["omega_t1"], SQRT2, s["n"])
            assert protocol.jitter_keeps_order(base, s["jitter"])


class TestJitterTimes:
    @pytest.mark.parametrize(
        "base,width",
        [
            (two_period_schedule(2 * np.pi, SQRT2, 16), 0.2 * np.pi),
            (two_period_schedule(0.5, 1.0, 20), 0.2),  # events 0.5 apart
            (two_period_schedule(1.0, SQRT2, 4), 0.0),
        ],
    )
    def test_rows_are_per_run_schedules(self, base, width):
        times = jitter_times(base, width, 60, 31)
        assert times.shape == (60, len(base))
        assert not times.flags.writeable
        for row, seed in zip(times, child_seeds(31, 60)):
            assert np.array_equal(row, jitter_schedule(base[None], width, [seed])[0])

    def test_checks_the_stack_once(self, monkeypatch):
        checks = []
        real = protocol._time_stack

        def counting(*args):
            checks.append(np.shape(args[0]))
            return real(*args)

        monkeypatch.setattr(protocol, "_time_stack", counting)
        jitter_times(two_period_schedule(2 * np.pi, SQRT2, 16), 0.2 * np.pi, 20, 1234)
        assert checks == [(20, 16)]

    def test_validation(self):
        base = two_period_schedule(1.0, SQRT2, 4)
        with pytest.raises(ValueError, match="runs"):
            jitter_times(base, 0.2, 0, 1)
        for half_window in (np.inf, np.nan, -0.1):
            with pytest.raises(ValueError, match="jitter half-window"):
                jitter_times(base, half_window, 3, 1)
        with pytest.raises(ValueError, match=r"schedule stack .* got shape \(3, 2, 4\)"):
            jitter_times(np.stack([base, base]), 0.2, 3, 1)


def test_child_seeds_deterministic():
    a = child_seeds(1234, 8)
    b = child_seeds(1234, 8)
    c = child_seeds(1235, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _stream_seeds(kind: str) -> list[int]:
    """Seeds for the bit-for-bit stream checks: the word boundaries, seeds
    of 5 to 8 uint32 words (SeedSequence mixes the words beyond its pool of
    4 in a loop of their own) or seeds of random bit lengths."""
    rng = random.Random(f"streams-{kind}")
    if kind == "word_boundaries":
        return [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**128 - 1]
    if kind == "five_words_or_more":
        return [rng.getrandbits(32 * k) | 1 << (32 * k - 1) for k in range(5, 9) for _ in range(50)]
    return [rng.getrandbits(rng.randint(1, 256)) for _ in range(800)]


@pytest.mark.parametrize("kind", ["word_boundaries", "five_words_or_more", "random_bit_lengths"])
def test_draws_match_numpy_bit_for_bit(kind):
    # the package computes SeedSequence and PCG64 itself; numpy.random is the
    # reference for the per-run seeds and for every jittered row
    rng = random.Random(f"lengths-{kind}")
    for seed in _stream_seeds(kind):
        runs, n = rng.randint(1, 200), rng.randint(1, 200)
        expected = np.random.SeedSequence(seed).generate_state(runs, np.uint64)
        assert np.array_equal(child_seeds(seed, runs), expected), seed
        base = two_period_schedule(1.0, SQRT2, n)
        width = rng.uniform(0.01, 0.3)
        expected = base + np.random.default_rng(seed).uniform(-width, width, n)
        assert np.array_equal(jitter_schedule(base[None], width, [seed])[0].view(np.uint64),
                              expected.view(np.uint64)), seed


def test_negative_seeds_are_refused():
    # numpy refuses them; a pure-Python split into 32-bit words never ends on one
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        child_seeds(-1, 3)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        jitter_schedule(two_period_schedule(1.0, SQRT2, 4)[None], 0.2, [-1])


class TestRunSurvival:
    def test_one_schedule_is_a_one_row_stack(self):
        prep = prepare_model(resonant(0.5, n_max=10))
        sched = two_period_schedule(1.0, SQRT2, 3)
        shape = r"\(runs, N\) schedule stack \(run one schedule as times\[None\]\), got shape \(3,\)"
        with pytest.raises(ValueError, match=shape):
            run_survival(prep, sched, 0.0)
        trace = run_survival(prep, sched[None], 0.0)
        assert trace.single.shape == trace.cumulative.shape == (1, 3)

    @pytest.mark.parametrize("omega0", [0.5, 1.0, 1.7])
    def test_weak_coupling_losses_per_run(self, omega0):
        # every 1 - single_n against its second-order closed form, on and off
        # resonance: within 1.5e-3 relative at g/omega = 1e-3 (6.8e-4 at
        # worst), and the error is O(g**2) (about 100 times larger at 1e-2)
        times = two_period_schedule(0.75 * np.pi, SQRT2, 8)
        errors = []
        for g in (1e-3, 1e-2):
            prep = prepare_model(ModelParams(omega0, g, 10))
            loss = 1.0 - run_survival(prep, times[None], 0.0).single[0]
            exact = weak_coupling_losses(times, omega0, g)
            errors.append(np.max(np.abs(loss - exact) / exact))
        assert errors[0] < 1.5e-3
        assert 90 < errors[1] / errors[0] < 112

    @pytest.mark.parametrize("omega0", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("n,width", [(8, 0.2 * np.pi), (3, 0.3 * np.pi)],
                             ids=["8-events", "fig4c"])
    def test_weak_coupling_losses_jitter_averaged(self, omega0, n, width):
        # the ensemble mean of every 1 - single_n after the first, over 2000
        # jittered runs at g/omega = 1e-3, within 5 standard errors of the
        # closed form averaged over the window (2.9 at worst); drawn from a
        # half-width or one-sided window, every case misses it by 49 or more
        runs = 2000
        base = two_period_schedule(0.75 * np.pi, SQRT2, n)
        prep = prepare_model(ModelParams(omega0, 1e-3, 10))
        ens = ensemble_survival(prep, jitter_times(base, width, runs, 11), 0.0)
        exact = jitter_weak_coupling_losses(base, width, omega0, 1e-3)
        se = ens.single_std / math.sqrt(runs)
        assert not beyond_5_se(1.0 - ens.single_mean, se, exact)[1:].any()

    @pytest.mark.parametrize("omega0", [0.5, 1.0, 1.7])
    def test_runner_chi_n_follows_the_weak_coupling_law(self, omega0):
        # the survival table's chi_n = (1 - single_n) / (g/omega)**2 on the
        # same unjittered schedule, within the same 1.5e-3 relative
        cfg = ExperimentConfig(omega0=omega0, g_values=(1e-3,), n_max=10, jitter_width=0.0, runs=1,
                               omega_t1_values=(0.75 * np.pi,), n_measurements=8)
        _, tables = build_tables(cfg)
        exact = weak_coupling_losses(two_period_schedule(0.75 * np.pi, SQRT2, 8), omega0, 1e-3)
        chi_n = np.array(tables["data"]["chi_n"])
        assert np.max(np.abs(chi_n - exact / 1e-3**2) / (exact / 1e-3**2)) < 1.5e-3

    def test_bare_vacuum_never_clicks(self):
        trace = run_survival(
            prepare_model(resonant(0.0)), two_period_schedule(2.0, SQRT2, 6)[None],
            0.0,
        )
        assert np.allclose(trace.single[0], 1.0, atol=1e-12)
        assert np.allclose(trace.cumulative[0], 1.0, atol=1e-12)

    def test_inert_detector(self):
        trace = run_survival(
            prepare_model(resonant(1.0)), two_period_schedule(2.0, SQRT2, 6)[None],
            1.0,
        )
        assert np.allclose(trace.single[0], 1.0, atol=1e-12)
        assert np.allclose(trace.cumulative[0], 1.0, atol=1e-12)

    def test_golden_full_simulation(self, golden):
        trace = run_survival(
            prepare_model(resonant(1.0)),
            two_period_schedule(2 * np.pi, SQRT2, 8)[None],
            0.0,
        )
        ref = golden["survival_g1_wt1_2pi_n8"]
        assert np.allclose(trace.single[0], ref["single"], atol=1e-12)
        assert np.allclose(trace.cumulative[0], ref["cumulative"], atol=1e-12)
        assert trace.cumulative[0, -1] < 0.5

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_first_factor_is_ground_no_click(self, eps):
        prep = prepare_model(resonant(0.8))
        trace = run_survival(prep, two_period_schedule(3.0, SQRT2, 3)[None], eps)
        expected = eps + (1 - eps) * (1 - prep.ground.p_e)
        assert trace.single[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_cumulative_is_product_and_non_increasing(self):
        trace = run_survival(
            prepare_model(resonant(1.0)), two_period_schedule(2.0, SQRT2, 10)[None],
            0.1,
        )
        assert np.all(np.diff(trace.cumulative[0]) <= 0)
        assert np.allclose(trace.cumulative[0], np.cumprod(trace.single[0]), atol=1e-12)

    def test_deterministic(self):
        sched = two_period_schedule(2.0, SQRT2, 5)[None]
        a = run_survival(prepare_model(resonant(0.7)), sched, 0.1)
        b = run_survival(prepare_model(resonant(0.7)), sched, 0.1)
        assert np.array_equal(a.single, b.single)
        assert np.array_equal(a.cumulative, b.cumulative)

    def test_pure_and_density_paths_agree_at_zero_epsilon(self):
        # dual-route check: the pure fast path against an explicit
        # density-matrix pipeline over the same schedule
        prep = prepare_model(resonant(1.0))
        sched = two_period_schedule(2 * np.pi, SQRT2, 8)
        trace = run_survival(prep, sched[None], 0.0)

        _, singles = full_space_run(
            kron_hamiltonian(prep.params), embed_even_chain(prep.ground.even_chain), sched, 0.0,
            density=True,
        )
        assert np.allclose(trace.single[0], singles, atol=1e-12)

    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.2])
    def test_chain_engine_matches_dense_full_space(self, eps, kind):
        # oracle: the same jittered schedule run one event at a time on the
        # full 2(n_max+1) space with the dense full-space spectrum
        prep = prepare_model(resonant(1.0 if kind == "rabi" else 0.6, kind=kind))
        h = kron_hamiltonian(prep.params)
        schedules = jitter_schedule(
            copies(two_period_schedule(2 * np.pi, SQRT2, 10), 5), 0.2 * np.pi, [3, 4, 5, 6, 7]
        )
        trace = run_survival(prep, schedules, eps)
        for row, sched in enumerate(schedules):
            _, singles = full_space_run(h, embed_even_chain(prep.ground.even_chain), sched, eps)
            assert np.allclose(trace.single[row], singles, rtol=0, atol=1e-12)
            assert np.allclose(
                trace.cumulative[row], np.cumprod(singles), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("params", [
        resonant(0.5, n_max=20), resonant(1.0, n_max=20), resonant(0.6, n_max=20, kind="jc"),
    ], ids=["rabi-0.5", "rabi-1", "jc-0.6"])
    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.5])
    @pytest.mark.parametrize("jitter", [0.0, 0.2 * np.pi], ids=["plain", "jittered"])
    def test_density_path_matches_trajectory_sum(self, params, eps, jitter):
        # oracle: the 2^8 pure-state trajectories of an 8-event schedule,
        # weighted by which events the detector acted at; no density code
        _assert_matches_trajectory_sum(params, eps, jitter)

    @pytest.mark.parametrize("params", [
        resonant(0.5, n_max=20), resonant(1.0, n_max=20), resonant(0.6, n_max=20, kind="jc"),
    ], ids=["rabi-0.5", "rabi-1", "jc-0.6"])
    @pytest.mark.parametrize("jitter", [0.0, 0.2 * np.pi], ids=["plain", "jittered"])
    def test_pure_path_matches_trajectory_sum(self, params, jitter):
        # the same oracle pins the eigenbasis kernel on a stack of several
        # rows; at epsilon = 0 only the always-projected trajectory counts
        _assert_matches_trajectory_sum(params, 0.0, jitter)

    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    @pytest.mark.parametrize("jitter", [0.0, 0.2 * np.pi], ids=["plain", "jittered"])
    def test_uncoupled_qubit_never_clicks(self, kind, jitter):
        # at g = 0 the ground state |g,0> is an eigenstate on a ground site:
        # every ideal event keeps all of it, so every single is exactly 1.0,
        # on a stack of periods and across the rows of a jittered one
        prep = prepare_model(resonant(0.0, n_max=12, kind=kind))
        periods = jitter_times(two_period_schedule(2 * np.pi, SQRT2, 8), jitter, 300, 5)
        stack = periods * np.linspace(0.1, 5.0, 300)[:, None]
        trace = run_survival(prep, stack, 0.0)
        assert np.all(trace.single == 1.0)
        assert np.all(trace.cumulative == 1.0)

    def test_no_click_projector_is_read_from_the_chain(self, eigh_calls):
        # P = V^T diag(ground) V in the chain eigenbasis: a real symmetric
        # projector onto the ground sites, made without another eigensolve
        prep = prepare_model(resonant(0.7, n_max=10))
        v = prep.chain.eigenvectors
        solves = len(eigh_calls)
        projector = prep.no_click
        assert len(eigh_calls) == solves and prep.no_click is projector
        assert np.allclose(projector, projector.T, rtol=0, atol=1e-15)
        assert np.allclose(projector @ projector, projector, rtol=0, atol=1e-14)
        ground = np.arange(11) % 2 == 0
        assert np.allclose(v @ projector @ v.T, np.diag(ground.astype(float)), rtol=0, atol=1e-14)
        assert not projector.flags.writeable

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.4])
    def test_batched_rows_equal_single_runs(self, eps):
        # each row is measured on its own: 9 runs cross the blocks in which
        # density runs are advanced together
        prep = prepare_model(resonant(1.0))
        runs = 9
        base = two_period_schedule(2 * np.pi, SQRT2, 12)
        schedules = jitter_schedule(copies(base, runs), 0.2 * np.pi, child_seeds(9, runs))
        batch = run_survival(prep, schedules, eps)
        assert batch.single.shape == batch.cumulative.shape == (runs, 12)
        for row, sched in enumerate(schedules):
            one = run_survival(prep, sched[None], eps)
            assert np.allclose(batch.single[row], one.single[0], rtol=0, atol=1e-14)
            assert np.allclose(batch.cumulative[row], one.cumulative[0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_array_stack_matches_schedule_list(self, eps):
        prep = prepare_model(resonant(1.0))
        base = two_period_schedule(2 * np.pi, SQRT2, 9)
        runs = 7
        schedules = [
            jitter_schedule(base[None], 0.2 * np.pi, [seed])[0] for seed in child_seeds(5, runs)
        ]
        stack = jitter_times(base, 0.2 * np.pi, runs, 5)
        assert np.array_equal(stack, schedules)
        from_list = run_survival(prep, schedules, eps)
        from_array = run_survival(prep, stack, eps)
        for field in ("single", "cumulative"):
            assert np.array_equal(getattr(from_array, field), getattr(from_list, field))

    def test_array_stack_validation(self):
        prep = prepare_model(resonant(0.5))
        for shape in [(0, 3), (3, 0), (0,), (), (2, 2, 2)]:
            with pytest.raises(ValueError, match="schedule stack"):
                run_survival(prep, np.ones(shape), 0.0)
        good = np.array([[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]])
        for row, col, value, match in [
            (1, 1, np.nan, "finite"),
            (0, 2, np.inf, "finite"),
            (1, 0, -np.inf, "finite"),
            (1, 2, 2.5, "strictly increasing"),
            (1, 0, 0.0, "start after 0"),
        ]:
            bad = good.copy()
            bad[row, col] = value
            with pytest.raises(ValueError, match=match):
                run_survival(prep, bad, 0.0)

    def test_stack_validation(self):
        prep = prepare_model(resonant(0.5))
        # a list of schedules is read as the array it spells
        with pytest.raises(ValueError, match="non-empty"):
            run_survival(prep, [], 0.0)
        uneven = [two_period_schedule(1.0, SQRT2, 3), two_period_schedule(1.0, SQRT2, 4)]
        with pytest.raises(ValueError):
            run_survival(prep, uneven, 0.0)

    def test_degenerate_ground_rejected(self):
        # omega0 = 0: the two parity sectors tie
        with pytest.raises(ValueError, match=r"degenerate \(gap .* < DEGENERACY_GAP = 1e-10\)"):
            run_survival(
                prepare_model(ModelParams(0.0, 0.5, 40)),
                two_period_schedule(1.0, SQRT2, 2)[None],
                0.0,
            )

    def test_degeneracy_threshold_from_both_sides(self):
        # at g = 0 the gap is exactly omega0: just above DEGENERACY_GAP the
        # ground state is unique and the protocol runs, just below it is not
        schedule = two_period_schedule(1.0, SQRT2, 2)[None]
        above = prepare_model(ModelParams(2e-10, 0.0, 10))
        assert above.ground.even_chain is not None
        assert run_survival(above, schedule, 0.1).cumulative.tolist() == [[1.0, 1.0]]
        below = prepare_model(ModelParams(5e-11, 0.0, 10))
        with pytest.raises(ValueError, match=r"gap 5\.000e-11 < DEGENERACY_GAP = 1e-10"):
            run_survival(below, schedule, 0.1)

    def test_jc_tie_reports_its_gap(self):
        # the rotating-wave model at resonance ties across sectors at g = omega
        # with omega0 > 0, so the message states the gap rather than a cause
        prep = prepare_model(ModelParams(1.0, 1.0, 20, "jc"))
        assert prep.ground.even_chain is None and prep.ground.gap == 0.0
        with pytest.raises(ValueError, match=r"gap 0\.000e\+00 < DEGENERACY_GAP") as info:
            run_survival(prep, two_period_schedule(1.0, SQRT2, 2)[None], 0.0)
        assert "omega0" not in str(info.value)

    def test_chain_ground_refuses_a_tied_manifold(self):
        # chain_ground is the one place a run's start state is built
        prep = prepare_model(ModelParams(0.0, 0.5, 20))
        assert prep.ground.even_chain is None
        with pytest.raises(ValueError, match=r"degenerate \(gap .* < DEGENERACY_GAP = 1e-10\)"):
            prep.chain_ground(1)


def _assert_matches_trajectory_sum(params, eps, jitter):
    """Each row of a 3-row stack of 8-event schedules against the oracle's
    trajectory sum, to 1e-13."""
    prep = prepare_model(params)
    base = two_period_schedule(2 * np.pi, SQRT2, 8)
    stack = jitter_times(base, jitter, 3, 11)
    trace = run_survival(prep, stack, eps)
    h = even_chain_hamiltonian(params).matrix
    for row, times in enumerate(stack):
        expected = trajectory_survival(h, prep.ground.even_chain, times, eps)
        assert np.max(np.abs(trace.cumulative[row] - expected)) <= 1e-13


def _shift_last_site(data):
    """Move 1e-3 of population from the first to the last chain site: the
    trace and Hermiticity hold, but the nearly empty last site goes negative."""
    out = data.copy()
    out[:, 0, 0] += 1e-3
    out[:, -1, -1] -= 1e-3
    return out


def _non_hermitian(data):
    out = data.copy()
    out[:, 0, 1] += 1e-6
    return out


# (epsilon, corruption of the post-measurement data, the stack rows it
# breaks (None: all), the check's message naming the first broken row)
CORRUPTIONS = {
    "pure norm": (0.0, lambda d: 1.01 * d, None, r"pure state norm deviates from 1 .*\(run 0\)"),
    "pure nan in row 5": (0.0, lambda d: np.nan * d, [5], r"norm deviates from 1 by nan \(run 5\)$"),
    "density trace": (0.1, lambda d: 1.01 * d, None, "density matrix trace deviates from 1"),
    "hermiticity": (0.1, _non_hermitian, None, "density matrix not Hermitian"),
    "positivity": (0.1, _shift_last_site, None, "density matrix not positive"),
    "positivity in row 5": (0.1, _shift_last_site, [5], r"not positive: min eigenvalue .*\(run 5\)$"),
    "trace in row 5": (0.1, lambda d: 1.01 * d, [5], r"trace deviates from 1 by .*\(run 5\)$"),
}


@pytest.mark.parametrize("check", sorted(CORRUPTIONS))
def test_state_corrupted_mid_run_is_caught(break_state, check):
    # corrupt the conditional state of the second event: the run must stop
    # with the broken invariant's message, naming the broken row of the
    # stack, before it measures again; 6 runs cross the blocks in which
    # density runs are advanced together
    epsilon, corrupt, rows, message = CORRUPTIONS[check]
    prep = prepare_model(resonant(0.5, n_max=20))
    times = np.tile(two_period_schedule(2 * np.pi, SQRT2, 4), (6, 1))
    run_survival(prep, times, epsilon)  # the clean run passes every check
    made = break_state(2, corrupt, rows)
    with pytest.raises(NumericalError, match=message):
        run_survival(prep, times, epsilon)
    assert made[-1] == (2, "pure" if epsilon == 0.0 else "density")


def test_prepare_model_solves_the_ground_state_then_the_chain_on_first_read(eigh_calls):
    prep = prepare_model(resonant(0.5, n_max=10))
    assert [dim for dim, _ in eigh_calls] == [22]  # the ground-state solve only
    assert prep.chain is prep.chain
    assert [dim for dim, _ in eigh_calls] == [22, 11]


class TestEnsembleSurvival:
    def test_zero_jitter_has_zero_std(self):
        prep = prepare_model(resonant(0.8))
        base = two_period_schedule(2.0, SQRT2, 5)
        stack = jitter_times(base, 0.0, 4, 42)
        ens = ensemble_survival(prep, stack, 0.0)
        assert np.max(ens.single_std) == 0.0
        assert np.max(ens.cumulative_std) == 0.0

    def test_single_run_equals_trace(self):
        prep = prepare_model(resonant(0.8))
        base = two_period_schedule(2.0, SQRT2, 5)
        stack = jitter_times(base, 0.0, 1, 42)
        ens = ensemble_survival(prep, stack, 0.0)
        trace = run_survival(prep, base[None], 0.0)
        assert np.allclose(ens.cumulative_mean, trace.cumulative[0], atol=1e-15)
        assert np.mean(ens.single_mean) == pytest.approx(np.mean(trace.single[0]), abs=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_moments_are_over_the_runs_of_one_trace(self, eps):
        # each column's mean and std over the runs of run_survival's trace,
        # the cumulative ones from the cumulative survival
        prep = prepare_model(resonant(1.0))
        stack = jitter_times(two_period_schedule(2 * np.pi, SQRT2, 8), 0.2 * np.pi, 6, 3)
        ens = ensemble_survival(prep, stack, eps)
        trace = run_survival(prep, stack, eps)
        for moment, rows in (("single", trace.single), ("cumulative", trace.cumulative)):
            assert np.array_equal(getattr(ens, f"{moment}_mean"), rows.mean(axis=0))
            assert np.array_equal(getattr(ens, f"{moment}_std"), rows.std(axis=0))
        assert not np.allclose(ens.cumulative_std, ens.single_std)

    def test_deterministic(self):
        prep = prepare_model(resonant(1.0))
        base = two_period_schedule(2 * np.pi, SQRT2, 6)
        a, b = (
            ensemble_survival(prep, jitter_times(base, 0.2 * np.pi, 5, 7), 0.1)
            for _ in range(2)
        )
        assert np.array_equal(a.cumulative_mean, b.cumulative_mean)
        assert np.array_equal(a.single_std, b.single_std)

    def test_epsilon_ordering_within_one_std(self):
        prep = prepare_model(resonant(1.0))
        base = two_period_schedule(2 * np.pi, SQRT2, 8)
        stack = jitter_times(base, 0.2 * np.pi, 10, 1234)
        results = {
            eps: ensemble_survival(prep, stack, eps)
            for eps in (0.0, 0.1, 0.2)
        }
        for low, high in ((0.0, 0.1), (0.1, 0.2)):
            lo, hi = results[low], results[high]
            assert np.all(
                hi.cumulative_mean >= lo.cumulative_mean - np.maximum(lo.cumulative_std, hi.cumulative_std)
            )


class TestSharedDraws:
    def test_shared_stack_equals_independent_ensembles(self):
        base = two_period_schedule(2 * np.pi, SQRT2, 10)
        width, runs, seed = 0.2 * np.pi, 9, 17
        shared = jitter_times(base, width, runs, seed)
        for g in (0.4, 1.0):
            prep = prepare_model(resonant(g))
            for eps in (0.0, 0.1):
                alone = ensemble_survival(prep, jitter_times(base, width, runs, seed), eps)
                paired = ensemble_survival(prep, shared, eps)
                for field in ("single_mean", "single_std", "cumulative_mean", "cumulative_std"):
                    assert np.array_equal(getattr(paired, field), getattr(alone, field))

    def test_stack_shape_must_match_ensemble(self):
        base = two_period_schedule(2.0, SQRT2, 5)
        prep = prepare_model(resonant(0.5))
        stack = jitter_times(base, 0.2, 4, 3)
        for bad_stack in (stack[0], stack[None]):  # one row is not a stack
            with pytest.raises(ValueError, match="shape"):
                ensemble_survival(prep, bad_stack, 0.0)
        # a nested list of times is read as the array it spells
        from_list = ensemble_survival(prep, stack.tolist(), 0.0)
        from_array = ensemble_survival(prep, stack, 0.0)
        np.testing.assert_array_equal(from_list.cumulative_mean, from_array.cumulative_mean)


def _panel(name):
    s = FIG4_PANELS[name]
    return s["omega_t1"], s["n"], s["jitter"], s["runs"]


_FIG4, _FIG6 = preset("fig4"), preset("fig6")
# (preset, g/omega, omega*T1, events, jitter width, runs, epsilon): the
# ensembles of fig4 panels a and c and of fig6 at epsilon > 0
EXACT_CASES = {
    "fig4a": (_FIG4, max(_FIG4.g_values), *_panel("a"), _FIG4.epsilon_values[0]),
    **{f"fig4c-g{g}": (_FIG4, g, *_panel("c"), _FIG4.epsilon_values[0]) for g in FIG4_PANEL_C_GRID},
    **{
        f"fig6-eps{eps}": (_FIG6, _FIG6.g_values[0], _FIG6.omega_t1_values[0], _FIG6.n_measurements,
                           _FIG6.jitter_width, _FIG6.runs, eps)
        for eps in _FIG6.epsilon_values if eps > 0
    },
}


def ensemble_and_exact(config, g, omega_t1, n, width, runs, eps, oracle_width=None):
    """Monte Carlo cumulative mean and its standard error at the config's
    seed, and the exact jitter average at ``oracle_width`` (default: the
    width the ensemble was drawn with)."""
    p = ModelParams(config.omega0 / config.omega, g, config.n_max)  # in units of omega
    base = two_period_schedule(omega_t1, config.ratio, n)
    stack = jitter_times(base, width, runs, config.seed)
    ens = ensemble_survival(prepare_model(p), stack, eps)
    half_window = width if oracle_width is None else oracle_width
    exact = jitter_mean_survival(p, base, half_window, eps)
    return ens.cumulative_mean, ens.cumulative_std / math.sqrt(runs), exact


class TestEnsembleMeanMatchesExactAverage:
    # the largest |MC - exact|/SE over these cases at seed 1234 is 1.7
    # (fig4c, g = 1)
    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_within_5_standard_errors(self, case):
        mean, se, exact = ensemble_and_exact(*EXACT_CASES[case])
        assert not beyond_5_se(mean, se, exact).any()

    def test_twice_the_half_window_is_rejected(self):
        # the mutation: an exact mean at the wrong window, against 400 runs
        config, g, omega_t1, n, width, _, eps = EXACT_CASES["fig4a"]
        mean, se, exact = ensemble_and_exact(config, g, omega_t1, n, width, 400, eps,
                                             oracle_width=2 * width)
        assert beyond_5_se(mean, se, exact).any()

    def test_oracle_refuses_schedules_the_redraw_rule_can_touch(self):
        p = resonant(1.0)
        omega_t1, n, width, _ = _panel("c")
        base = two_period_schedule(omega_t1, SQRT2, n)
        with pytest.raises(ValueError, match="redraw"):
            jitter_mean_survival(p, base, 2 * width, 0.0)  # 4*width > T1
        with pytest.raises(ValueError, match="redraw"):
            jitter_mean_survival(p, np.array([0.5, 10.0]), 0.5, 0.0)  # reaches t = 0
        with pytest.raises(ValueError, match="n_max"):
            jitter_mean_survival(resonant(1.0, n_max=41), base, width, 0.0)


class TestSweepT1:
    def test_broadcast_stack_matches_schedules(self):
        prep = prepare_model(resonant(0.7))
        values = 2 * np.pi * np.linspace(0.1, 5.0, 37)
        schedules = [two_period_schedule(t1, SQRT2, 7) for t1 in values]
        expected = float(np.mean(run_survival(prep, schedules, 0.0).cumulative[:, -1]))
        assert sweep_T1(prep, 7, values, SQRT2, 0.0) == expected

    def test_invalid_periods_rejected(self):
        for values in ([1.0, 0.0], [1.0, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="T1"):
                sweep_T1(prepare_model(resonant(0.5)), 3, values, SQRT2, 0.0)
        with pytest.raises(ValueError, match="ratio"):
            sweep_T1(prepare_model(resonant(0.5)), 3, [1.0], -1.0, 0.0)

    def test_uncoupled_sweep_is_unity(self):
        values = 2 * np.pi * np.linspace(0.5, 2.0, 7)
        mean = sweep_T1(prepare_model(resonant(0.0)), 4, values, SQRT2, 0.0)
        assert mean == pytest.approx(1.0, abs=1e-12)

    def test_single_value_equals_final_survival(self):
        prep = prepare_model(resonant(0.9))
        t1 = 2 * np.pi * 0.7
        mean = sweep_T1(prep, 6, [t1], SQRT2, 0.0)
        trace = run_survival(prep, two_period_schedule(t1, SQRT2, 6)[None], 0.0)
        assert mean == pytest.approx(trace.cumulative[0, -1], abs=1e-15)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep_T1(prepare_model(resonant(0.5)), 4, [], SQRT2, 0.0)


class TestTruncatedSurvival:
    def test_unit_amplitude(self):
        assert truncated_survival(1.0, 7) == 1.0

    def test_formula(self):
        assert truncated_survival(0.9, 1) == pytest.approx(0.9**4, abs=1e-15)
        assert truncated_survival(0.9, 1) == pytest.approx(0.6561, abs=1e-12)

    def test_agrees_with_simulation_within_factor_two(self):
        # two-state truncation vs the full schedule-averaged simulation at a
        # moderate coupling: the full dynamics decays somewhat faster because
        # projected states pick up excited-chain contributions
        prep = prepare_model(resonant(1 / 3))
        c0 = abs(prep.ground.even_chain[0])
        truncated = truncated_survival(c0, 8)
        t1_values = 2 * np.pi * np.linspace(0.1, 5.0, 100)
        simulated = sweep_T1(prep, 8, t1_values, SQRT2, 0.0)
        assert 0.5 <= simulated / truncated <= 2.0
