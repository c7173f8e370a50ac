import numpy as np
import pytest

from antizeno.dynamics import BATCH_RUNS, QuantumState, evolve
from antizeno.errors import NumericalError
from antizeno.measurement import MeasurementModel, measure_no_click
from antizeno.model import ModelParams
from antizeno.protocol import (
    MeasurementSchedule,
    child_seeds,
    ensemble_survival,
    jitter_schedule,
    jitter_times,
    prepare_model,
    run_survival,
    sweep_T1,
    truncated_survival,
    two_period_schedule,
)

SQRT2 = np.sqrt(2.0)


def resonant(g, n_max=40):
    return ModelParams(1.0, 1.0, g, n_max)


class TestTwoPeriodSchedule:
    def test_alternating_increments(self):
        sched = two_period_schedule(1.0, SQRT2, 4)
        expected = [1.0, 1.0 + SQRT2, 2.0 + SQRT2, 2.0 + 2 * SQRT2]
        assert np.allclose(sched.times, expected, atol=1e-15)

    def test_equal_periods_give_uniform_grid(self):
        sched = two_period_schedule(0.5, 1.0, 5)
        assert np.allclose(sched.times, [0.5, 1.0, 1.5, 2.0, 2.5], atol=1e-15)

    def test_single_event(self):
        sched = two_period_schedule(2.0, SQRT2, 1)
        assert np.allclose(sched.times, [2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            two_period_schedule(0.0, SQRT2, 3)
        with pytest.raises(ValueError):
            two_period_schedule(1.0, -1.0, 3)
        with pytest.raises(ValueError):
            two_period_schedule(1.0, SQRT2, 0)

    def test_schedule_type_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MeasurementSchedule(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            MeasurementSchedule(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MeasurementSchedule([1.0, bad, 3.0])
        with pytest.raises(ValueError, match="finite"):
            MeasurementSchedule([bad])


class TestJitterSchedule:
    def test_zero_width_is_identity(self):
        base = two_period_schedule(1.0, SQRT2, 6)
        jittered = jitter_schedule(base, 0.0, 1.0, seed=99)
        assert np.array_equal(jittered.times, base.times)

    def test_deterministic_for_seed(self):
        base = two_period_schedule(2 * np.pi, SQRT2, 8)
        a = jitter_schedule(base, 0.2 * np.pi, 1.0, seed=7)
        b = jitter_schedule(base, 0.2 * np.pi, 1.0, seed=7)
        c = jitter_schedule(base, 0.2 * np.pi, 1.0, seed=8)
        assert np.array_equal(a.times, b.times)
        assert not np.array_equal(a.times, c.times)

    def test_uniform_distribution_oracle(self):
        # 10^4 draws: shifts stay inside +-width and their empirical mean is
        # within 0.01*width of zero
        width = 0.2 * np.pi
        base = two_period_schedule(2 * np.pi, SQRT2, 4)
        shifts = []
        for seed in range(2500):
            jittered = jitter_schedule(base, width, 1.0, seed=seed)
            shifts.extend(jittered.times - base.times)
        shifts = np.asarray(shifts)
        assert shifts.size == 10_000
        assert np.max(np.abs(shifts)) <= width
        assert abs(np.mean(shifts)) <= 0.01 * width

    def test_preserves_ordering(self):
        base = two_period_schedule(0.5, 1.0, 20)
        for seed in range(25):
            jittered = jitter_schedule(base, 0.4, 1.0, seed=seed)
            assert np.all(np.diff(jittered.times) > 0)
            assert jittered.times[0] > 0

    def test_jitter_scales_with_omega(self):
        base = two_period_schedule(1.0, SQRT2, 5)
        wide = jitter_schedule(base, 0.3, 1.0, seed=3)
        narrow = jitter_schedule(base, 0.3, 10.0, seed=3)
        assert np.max(np.abs(narrow.times - base.times)) <= 0.03 + 1e-15
        assert np.max(np.abs(wide.times - base.times)) <= 0.3 + 1e-15


def sequential_jitter(base, width, omega, seed, attempts=100):
    """The in-order jitter rule, one scalar draw per attempt."""
    rng = np.random.default_rng(seed)
    out, prev = [], 0.0
    for t in base.times:
        for _ in range(attempts):
            candidate = t + rng.uniform(-width / omega, width / omega)
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
        for seed in child_seeds(2024, 500):
            jittered = jitter_schedule(base, width, omega, int(seed))
            assert np.array_equal(jittered.times, sequential_jitter(base, width, omega, int(seed)))

    def test_bit_for_bit_with_redraws(self):
        # events 0.5 apart with a +-0.4 window: many schedules break the
        # ordering on the first draw and need the in-order redraw rule
        base = two_period_schedule(0.5, 1.0, 20)
        redrawn = 0
        for seed in range(200):
            draws = base.times + np.random.default_rng(seed).uniform(-0.4, 0.4, size=20)
            redrawn += bool(np.any(np.diff(draws) <= 0))
            jittered = jitter_schedule(base, 0.4, 1.0, seed)
            assert np.array_equal(jittered.times, sequential_jitter(base, 0.4, 1.0, seed))
        assert redrawn >= 20

    def test_unrestorable_ordering_raises(self):
        base = two_period_schedule(1e-3, 1.0, 50)
        with pytest.raises(NumericalError, match="ordering"):
            jitter_schedule(base, 100.0, 1.0, seed=1)


class TestJitterTimes:
    @pytest.mark.parametrize(
        "base,width",
        [
            (two_period_schedule(2 * np.pi, SQRT2, 16), 0.2 * np.pi),
            (two_period_schedule(0.5, 1.0, 20), 0.4),  # forces in-order redraws
            (two_period_schedule(1.0, SQRT2, 4), 0.0),
        ],
    )
    def test_rows_are_per_run_schedules(self, base, width):
        times = jitter_times(base, width, 1.0, 60, 31)
        assert times.shape == (60, len(base))
        assert not times.flags.writeable
        for row, seed in zip(times, child_seeds(31, 60)):
            assert np.array_equal(row, jitter_schedule(base, width, 1.0, int(seed)).times)

    def test_validation(self):
        base = two_period_schedule(1.0, SQRT2, 4)
        with pytest.raises(ValueError, match="runs"):
            jitter_times(base, 0.2, 1.0, 0, 1)
        with pytest.raises(ValueError, match="jitter width"):
            jitter_times(base, np.inf, 1.0, 3, 1)


def test_child_seeds_deterministic():
    a = child_seeds(1234, 8)
    b = child_seeds(1234, 8)
    c = child_seeds(1235, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class TestRunSurvival:
    def test_bare_vacuum_never_clicks(self):
        trace = run_survival(
            resonant(0.0), two_period_schedule(2.0, SQRT2, 6), MeasurementModel(0.0)
        )
        assert np.allclose(trace.single, 1.0, atol=1e-12)
        assert np.allclose(trace.cumulative, 1.0, atol=1e-12)

    def test_inert_detector(self):
        trace = run_survival(
            resonant(1.0), two_period_schedule(2.0, SQRT2, 6), MeasurementModel(1.0)
        )
        assert np.allclose(trace.single, 1.0, atol=1e-12)
        assert np.allclose(trace.cumulative, 1.0, atol=1e-12)

    def test_golden_full_simulation(self, golden):
        trace = run_survival(
            resonant(1.0),
            two_period_schedule(2 * np.pi, SQRT2, 8),
            MeasurementModel(0.0),
        )
        ref = golden["survival_g1_wt1_2pi_n8"]
        assert np.allclose(trace.single, ref["single"], atol=1e-12)
        assert np.allclose(trace.cumulative, ref["cumulative"], atol=1e-12)
        assert trace.cumulative[-1] < 0.5

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_first_factor_is_ground_no_click(self, eps):
        prep = prepare_model(resonant(0.8))
        trace = run_survival(prep, two_period_schedule(3.0, SQRT2, 3), MeasurementModel(eps))
        expected = eps + (1 - eps) * (1 - prep.ground.p_e)
        assert trace.single[0] == pytest.approx(expected, abs=1e-12)

    def test_cumulative_is_product_and_non_increasing(self):
        trace = run_survival(
            resonant(1.0), two_period_schedule(2.0, SQRT2, 10), MeasurementModel(0.1)
        )
        assert np.all(np.diff(trace.cumulative) <= 0)
        assert np.allclose(trace.cumulative, np.cumprod(trace.single), atol=1e-12)
        assert trace.mean_single == pytest.approx(np.mean(trace.single), abs=1e-15)

    def test_deterministic(self):
        sched = two_period_schedule(2.0, SQRT2, 5)
        a = run_survival(resonant(0.7), sched, MeasurementModel(0.1))
        b = run_survival(resonant(0.7), sched, MeasurementModel(0.1))
        assert np.array_equal(a.single, b.single)
        assert np.array_equal(a.cumulative, b.cumulative)

    def test_pure_and_density_paths_agree_at_zero_epsilon(self):
        # dual-route check: the pure fast path against an explicit
        # density-matrix pipeline over the same schedule
        prep = prepare_model(resonant(1.0))
        sched = two_period_schedule(2 * np.pi, SQRT2, 8)
        trace = run_survival(prep, sched, MeasurementModel(0.0))

        state = QuantumState.pure(prep.ground.state).promoted()
        m = MeasurementModel(0.0)
        previous = 0.0
        singles = []
        for t in sched.times:
            state = evolve(prep.spec, state, t - previous)
            outcome = measure_no_click(state, m)
            state = outcome.post_state
            singles.append(outcome.no_click_probability)
            previous = t
        assert np.allclose(trace.single, singles, atol=1e-12)

    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.2])
    def test_chain_engine_matches_dense_full_space(self, eps, kind):
        # oracle: the same jittered schedule run one event at a time on the
        # full 2(n_max+1) space with the dense full-space spectrum
        prep = prepare_model(resonant(1.0 if kind == "rabi" else 0.6), kind)
        schedules = [
            jitter_schedule(two_period_schedule(2 * np.pi, SQRT2, 10), 0.2 * np.pi, 1.0, seed)
            for seed in (3, 4, 5, 6, 7)
        ]
        m = MeasurementModel(eps)
        trace = run_survival(prep, schedules, m)
        for row, sched in enumerate(schedules):
            state = QuantumState.pure(prep.ground.state)
            if eps > 0:
                state = state.promoted()
            previous, singles = 0.0, []
            for t in sched.times:
                state = evolve(prep.spec, state, t - previous)
                outcome = measure_no_click(state, m)
                state = outcome.post_state
                singles.append(outcome.no_click_probability)
                previous = t
            assert np.allclose(trace.single[row], singles, rtol=0, atol=1e-12)
            assert np.allclose(
                trace.cumulative[row], np.cumprod(singles), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_batched_rows_equal_single_runs(self, eps):
        # more runs than one density block, so block boundaries are crossed
        prep = prepare_model(resonant(1.0))
        runs = 2 * BATCH_RUNS["density"] + 1
        base = two_period_schedule(2 * np.pi, SQRT2, 12)
        schedules = [
            jitter_schedule(base, 0.2 * np.pi, 1.0, int(seed)) for seed in child_seeds(9, runs)
        ]
        m = MeasurementModel(eps)
        batch = run_survival(prep, schedules, m)
        assert batch.single.shape == batch.cumulative.shape == (runs, 12)
        assert batch.mean_single.shape == (runs,)
        for row, sched in enumerate(schedules):
            one = run_survival(prep, sched, m)
            assert np.allclose(batch.single[row], one.single, rtol=0, atol=1e-14)
            assert np.allclose(batch.cumulative[row], one.cumulative, rtol=0, atol=1e-14)
            assert batch.mean_single[row] == pytest.approx(one.mean_single, abs=1e-14)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_array_stack_matches_schedule_list(self, eps):
        prep = prepare_model(resonant(1.0))
        base = two_period_schedule(2 * np.pi, SQRT2, 9)
        runs = BATCH_RUNS["density"] + 3
        schedules = [
            jitter_schedule(base, 0.2 * np.pi, 1.0, int(seed)) for seed in child_seeds(5, runs)
        ]
        m = MeasurementModel(eps)
        from_list = run_survival(prep, schedules, m)
        from_array = run_survival(prep, jitter_times(base, 0.2 * np.pi, 1.0, runs, 5), m)
        for field in ("times", "single", "cumulative", "mean_single"):
            assert np.array_equal(getattr(from_array, field), getattr(from_list, field))

    def test_array_stack_validation(self):
        prep = prepare_model(resonant(0.5))
        m = MeasurementModel(0.0)
        for shape in [(0, 3), (3, 0), (3,), (2, 2, 2)]:
            with pytest.raises(ValueError, match="schedule stack"):
                run_survival(prep, np.ones(shape), m)
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
                run_survival(prep, bad, m)

    def test_stack_validation(self):
        prep = prepare_model(resonant(0.5))
        with pytest.raises(ValueError, match="at least one"):
            run_survival(prep, [], MeasurementModel(0.0))
        uneven = [two_period_schedule(1.0, SQRT2, 3), two_period_schedule(1.0, SQRT2, 4)]
        with pytest.raises(ValueError, match="same number of events"):
            run_survival(prep, uneven, MeasurementModel(0.0))

    def test_degenerate_ground_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            run_survival(
                ModelParams(1.0, 0.0, 0.5, 40),
                two_period_schedule(1.0, SQRT2, 2),
                MeasurementModel(0.0),
            )


def test_prepare_model_defers_full_space_spectrum(monkeypatch):
    import antizeno.model
    import antizeno.protocol

    dims = []
    real = antizeno.protocol.hermitian_eig

    def counting(h):
        dims.append(h.dim)
        return real(h)

    monkeypatch.setattr(antizeno.protocol, "hermitian_eig", counting)
    monkeypatch.setattr(antizeno.model, "hermitian_eig", counting)
    prep = prepare_model(resonant(0.5, n_max=10))
    assert dims == [22]  # the ground-state solve only
    assert prep.chain.dim == 11 and prep.chain is prep.chain
    assert dims == [22, 11]
    assert prep.spec.dim == 22 and prep.spec is prep.spec
    assert dims == [22, 11, 22]


class TestEnsembleSurvival:
    def test_zero_jitter_has_zero_std(self):
        prep = prepare_model(resonant(0.8))
        base = two_period_schedule(2.0, SQRT2, 5)
        ens = ensemble_survival(prep, base, MeasurementModel(0.0), 0.0, 4, 42)
        assert np.max(ens.single_std) == 0.0
        assert np.max(ens.cumulative_std) == 0.0

    def test_single_run_equals_trace(self):
        prep = prepare_model(resonant(0.8))
        base = two_period_schedule(2.0, SQRT2, 5)
        ens = ensemble_survival(prep, base, MeasurementModel(0.0), 0.0, 1, 42)
        trace = run_survival(prep, base, MeasurementModel(0.0))
        assert np.allclose(ens.cumulative_mean, trace.cumulative, atol=1e-15)
        assert ens.mean_single == pytest.approx(trace.mean_single, abs=1e-15)

    def test_deterministic(self):
        prep = prepare_model(resonant(1.0))
        base = two_period_schedule(2 * np.pi, SQRT2, 6)
        a = ensemble_survival(prep, base, MeasurementModel(0.1), 0.2 * np.pi, 5, 7)
        b = ensemble_survival(prep, base, MeasurementModel(0.1), 0.2 * np.pi, 5, 7)
        assert np.array_equal(a.cumulative_mean, b.cumulative_mean)
        assert np.array_equal(a.single_std, b.single_std)

    def test_epsilon_ordering_within_one_std(self):
        prep = prepare_model(resonant(1.0))
        base = two_period_schedule(2 * np.pi, SQRT2, 8)
        results = {
            eps: ensemble_survival(prep, base, MeasurementModel(eps), 0.2 * np.pi, 10, 1234)
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
        width, runs, seed = 0.2 * np.pi, 2 * BATCH_RUNS["density"] + 1, 17
        shared = jitter_times(base, width, 1.0, runs, seed)
        for g in (0.4, 1.0):
            prep = prepare_model(resonant(g))
            for eps in (0.0, 0.1):
                m = MeasurementModel(eps)
                alone = ensemble_survival(prep, base, m, width, runs, seed)
                paired = ensemble_survival(prep, base, m, width, runs, seed, jittered=shared)
                for field in ("times", "single_mean", "single_std",
                              "cumulative_mean", "cumulative_std"):
                    assert np.array_equal(getattr(paired, field), getattr(alone, field))
                assert (paired.runs, paired.base_seed) == (alone.runs, alone.base_seed)

    def test_stack_shape_must_match_ensemble(self):
        base = two_period_schedule(2.0, SQRT2, 5)
        prep = prepare_model(resonant(0.5))
        stack = jitter_times(base, 0.2, 1.0, 4, 3)
        with pytest.raises(ValueError, match="shape"):
            ensemble_survival(prep, base, MeasurementModel(0.0), 0.2, 5, 3, jittered=stack)
        with pytest.raises(ValueError, match="shape"):
            ensemble_survival(prep, two_period_schedule(2.0, SQRT2, 6), MeasurementModel(0.0),
                              0.2, 4, 3, jittered=stack)
        # a nested list of times is read as the array it spells
        with pytest.raises(ValueError, match="shape"):
            ensemble_survival(prep, base, MeasurementModel(0.0), 0.2, 5, 3,
                              jittered=stack.tolist())
        from_list = ensemble_survival(prep, base, MeasurementModel(0.0), 0.2, 4, 3,
                                      jittered=stack.tolist())
        from_array = ensemble_survival(prep, base, MeasurementModel(0.0), 0.2, 4, 3,
                                       jittered=stack)
        np.testing.assert_array_equal(from_list.cumulative_mean, from_array.cumulative_mean)


class TestSweepT1:
    def test_broadcast_stack_matches_schedules(self):
        prep = prepare_model(resonant(0.7))
        values = 2 * np.pi * np.linspace(0.1, 5.0, 37)
        m = MeasurementModel(0.0)
        schedules = [two_period_schedule(t1, SQRT2, 7) for t1 in values]
        expected = float(np.mean(run_survival(prep, schedules, m).cumulative[:, -1]))
        assert sweep_T1(prep, 7, values, SQRT2, m) == expected

    def test_invalid_periods_rejected(self):
        for values in ([1.0, 0.0], [1.0, np.nan], [np.inf]):
            with pytest.raises(ValueError, match="T1"):
                sweep_T1(resonant(0.5), 3, values, SQRT2, MeasurementModel(0.0))
        with pytest.raises(ValueError, match="ratio"):
            sweep_T1(resonant(0.5), 3, [1.0], -1.0, MeasurementModel(0.0))

    def test_uncoupled_sweep_is_unity(self):
        values = 2 * np.pi * np.linspace(0.5, 2.0, 7)
        assert sweep_T1(resonant(0.0), 4, values, SQRT2, MeasurementModel(0.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_value_equals_final_survival(self):
        prep = prepare_model(resonant(0.9))
        t1 = 2 * np.pi * 0.7
        mean = sweep_T1(prep, 6, [t1], SQRT2, MeasurementModel(0.0))
        trace = run_survival(prep, two_period_schedule(t1, SQRT2, 6), MeasurementModel(0.0))
        assert mean == pytest.approx(trace.cumulative[-1], abs=1e-15)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep_T1(resonant(0.5), 4, [], SQRT2, MeasurementModel(0.0))


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
        simulated = sweep_T1(prep, 8, t1_values, SQRT2, MeasurementModel(0.0))
        assert 0.5 <= simulated / truncated <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            truncated_survival(1.5, 3)
        with pytest.raises(ValueError):
            truncated_survival(0.5, -1)
