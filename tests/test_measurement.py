"""The no-click map, pinned through whole runs: one- and two-event
``run_survival`` runs at epsilon in {0, 0.1, 1} and over jittered
schedules, checked against the oracle's ``no_click`` and
``click_probability`` on the full space (``full_space_run``)."""

from dataclasses import replace

import numpy as np
import pytest

from antizeno.errors import NumericalError
from antizeno.protocol import jitter_times, prepare_model, run_survival, two_period_schedule
from helpers import SQRT2, random_state, resonant
from oracle import (
    click_probability, embed_even_chain, excited, full_space_run, kron_hamiltonian,
    parity_chain_hamiltonian, trajectory_survival,
)

EXCITED = excited(42)  # the qubit-excited half of the n_max = 20 full space
BASE = two_period_schedule(2 * np.pi, SQRT2, 6)


@pytest.fixture(scope="module")
def model():
    """The prepared model at g/omega = 1, its oracle Hamiltonian and embedded ground state."""
    prep = prepare_model(resonant(1.0, n_max=20))
    return prep, kron_hamiltonian(prep.params), embed_even_chain(prep.ground.even_chain)


def run_and_oracle(model, times, epsilon):
    """One schedule's no-click probabilities from ``run_survival``, and the
    oracle's run of it: the state before each event and its probability."""
    prep, h, psi = model
    before, singles = full_space_run(h, psi, times, epsilon)
    return run_survival(prep, times[None], epsilon).single[0], before, singles


def _refuses(epsilon):
    with pytest.raises(ValueError, match="epsilon must lie in"):
        run_survival(prepare_model(resonant(0.5, n_max=6)), [[1.0, 3.0, 4.0]], epsilon)


def test_epsilon_validation():
    # out of [0, 1], not finite, not a number, or an int past the float range
    for epsilon in (-0.1, 1.1, np.nan, np.inf, "0.1", 10**400):
        _refuses(epsilon)


@pytest.mark.parametrize("epsilon", [True, False, np.bool_(True)])
def test_epsilon_rejects_booleans(epsilon):
    # True is not the probability 1, as config refuses JSON true
    _refuses(epsilon)


class TestMeasureNoClick:
    def test_inert_detector(self, model):
        # epsilon = 1: the detector never acts, on every row of a density stack
        trace = run_survival(model[0], jitter_times(BASE, 0.2 * np.pi, 3, 8), 1.0)
        assert np.max(np.abs(trace.single - 1.0)) <= 1e-12

    def test_fully_excited_certain_click(self):
        # a run started from |e,1> at g = 0, where it is stationary
        prep = prepare_model(resonant(0.0, n_max=3))
        excited_start = replace(prep, ground=replace(prep.ground, even_chain=np.eye(4)[1]))
        with pytest.raises(NumericalError, match="certain click"):
            run_survival(excited_start, [[1.0]], 0.0)

    def test_ideal_projection(self, model):
        # epsilon = 0: the first event keeps 1 - p_e, and the second measures
        # the projected state the oracle's P_g leaves
        single, before, expected = run_and_oracle(model, BASE[:2], 0.0)
        assert single[0] == pytest.approx(1.0 - model[0].ground.p_e, abs=1e-14)
        assert single[0] == pytest.approx(expected[0], abs=1e-14)
        assert before[1].ndim == 1 and single[1] == pytest.approx(expected[1], abs=1e-12)

    def test_weak_map_hand_oracle(self, model):
        # eps = 0.1: the first event keeps 0.1 + 0.9 (1 - p_e), and leaves
        # (0.9 P_g rho P_g + 0.1 rho) / prob for the second to measure
        single, before, expected = run_and_oracle(model, BASE[:2], 0.1)
        assert single[0] == pytest.approx(0.1 + 0.9 * (1.0 - model[0].ground.p_e), abs=1e-14)
        assert before[1].ndim == 2 and single[1] == pytest.approx(expected[1], abs=1e-12)


class TestClickProbability:
    # vectors on the even chain: site k is |g,k> for even k, |e,k> for odd k
    ODD = np.arange(8) % 2 == 1

    def test_ideal_on_excited(self):
        assert click_probability(np.eye(8)[3], self.ODD, 0.0) == 1.0  # |e,3>

    def test_inert_detector_never_clicks(self):
        superposition = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]) / np.sqrt(2)  # |g,0> + |e,1>
        assert click_probability(superposition, self.ODD, 1.0) == 0.0

    def test_formula(self):
        state = random_state(8, seed=7)
        expected = 0.9 * np.sum(np.abs(state[self.ODD]) ** 2)
        assert click_probability(state, self.ODD, 0.1) == pytest.approx(expected, abs=1e-14)


class TestMapProperties:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_probability_conservation(self, model, eps, seed):
        # at each event of a jittered schedule, the run's no-click probability
        # and the oracle's click probability of the state it measures sum to 1
        single, before, _ = run_and_oracle(model, jitter_times(BASE, 0.2 * np.pi, 1, seed)[0], eps)
        for prob, state in zip(single, before):
            assert prob + click_probability(state, EXCITED, eps) == pytest.approx(1.0, abs=1e-12)

    def test_zero_epsilon_weak_equals_projective(self, model):
        # the pure path at epsilon = 0 and the density path at the smallest
        # epsilon above it, where epsilon * rho rounds away
        stack = jitter_times(BASE, 0.2 * np.pi, 3, 5)
        pure = run_survival(model[0], stack, 0.0)
        density = run_survival(model[0], stack, np.finfo(float).tiny)
        assert np.max(np.abs(pure.single - density.single)) <= 1e-12

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_complete_positivity_witness(self, model, seed):
        # every post-measurement state of the run passes its positivity check
        # (min eigenvalue >= -1e-10), and the survival is the trajectory sum,
        # whose branch weights are all >= 0
        prep = model[0]
        times = jitter_times(BASE, 0.2 * np.pi, 1, seed)
        h = parity_chain_hamiltonian(prep.params)
        for eps in (0.0, 0.3, 0.8):
            expected = trajectory_survival(h, prep.ground.even_chain, times[0], eps)
            assert np.max(np.abs(run_survival(prep, times, eps).cumulative[0] - expected)) <= 1e-13

    def test_idempotent_at_zero_epsilon(self, model):
        # a second event 1e-14 after the first finds nothing left to project
        trace = run_survival(model[0], [[1.0, 1.0 + 1e-14]], 0.0)
        assert trace.single[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_affine_in_epsilon_with_correct_endpoints(self, model):
        prep, _, psi = model
        p_e = click_probability(psi, EXCITED, 0.0)
        probs = {eps: run_survival(prep, BASE[:1][None], eps).single[0, 0]
                 for eps in (0.0, 0.25, 0.5, 1.0)}
        assert probs[0.0] == pytest.approx(1.0 - p_e, abs=1e-12)
        assert probs[1.0] == pytest.approx(1.0, abs=1e-12)
        for eps, value in probs.items():
            assert value == pytest.approx(eps + (1 - eps) * (1 - p_e), abs=1e-12)
        # affine: midpoint of the endpoints matches eps = 0.5
        assert probs[0.5] == pytest.approx((probs[0.0] + probs[1.0]) / 2, abs=1e-12)
