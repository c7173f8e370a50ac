import numpy as np
import pytest

from antizeno.dynamics import QuantumState
from antizeno.errors import NumericalError
from antizeno.measurement import MeasurementModel, measure_no_click
from antizeno.model import excitation_probability
from oracle import basis_state, click_probability, excited


def superposition_state():
    vec = (basis_state(1, 0, 0) + basis_state(1, 1, 1)) / np.sqrt(2)
    return QuantumState.pure(vec, excited(4))


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return QuantumState.density(rho / np.trace(rho), excited(dim))


def test_epsilon_validation():
    with pytest.raises(ValueError):
        MeasurementModel(-0.1)
    with pytest.raises(ValueError):
        MeasurementModel(1.1)


class TestMeasureNoClick:
    def test_inert_detector(self):
        rho = random_density(8, seed=3)
        outcome = measure_no_click(rho, MeasurementModel(1.0))
        assert outcome.no_click_probability == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(outcome.post_state.data - rho.data)) <= 1e-14

    def test_fully_excited_certain_click(self):
        state = QuantumState.pure(basis_state(1, 1, 1), excited(4))
        with pytest.raises(NumericalError, match="certain click"):
            measure_no_click(state, MeasurementModel(0.0))

    def test_ideal_projection(self):
        outcome = measure_no_click(superposition_state(), MeasurementModel(0.0))
        assert outcome.no_click_probability == pytest.approx(0.5, abs=1e-14)
        assert outcome.post_state.kind == "pure"
        expected = basis_state(1, 0, 0)
        assert np.max(np.abs(outcome.post_state.data - expected)) <= 1e-14

    def test_weak_map_hand_oracle(self):
        # eps = 0.2 on (|g0> + |e1>)/sqrt(2): probability 0.2 + 0.8*0.5 = 0.6,
        # post state (0.8 * 0.5 * |g0><g0| + 0.2 * rho) / 0.6; checked against
        # brute-force matrix arithmetic
        state = superposition_state()
        outcome = measure_no_click(state, MeasurementModel(0.2))
        assert outcome.no_click_probability == pytest.approx(0.6, abs=1e-14)

        rho = np.outer(state.data, state.data.conj())
        projector = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        sigma = 0.8 * projector @ rho @ projector + 0.2 * rho
        assert np.trace(sigma).real == pytest.approx(0.6, abs=1e-14)
        assert np.max(np.abs(outcome.post_state.data - sigma / 0.6)) <= 1e-12


class TestClickProbability:
    def test_ideal_on_excited(self):
        state = QuantumState.pure(basis_state(1, 1, 0), excited(4))
        assert click_probability(state.data, state.excited, 0.0) == 1.0

    def test_inert_detector_never_clicks(self):
        state = superposition_state()
        assert click_probability(state.data, state.excited, 1.0) == 0.0

    def test_formula(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = QuantumState.pure(v / np.linalg.norm(v), excited(8))
        p_e = excitation_probability(state)
        expected = 0.9 * p_e
        assert click_probability(state.data, state.excited, 0.1) == pytest.approx(expected, abs=1e-14)


class TestMapProperties:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_probability_conservation(self, eps, seed):
        state = random_density(10, seed=seed)
        m = MeasurementModel(eps)
        total = click_probability(state.data, state.excited, eps) + measure_no_click(
            state, m
        ).no_click_probability
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_epsilon_weak_equals_projective(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = QuantumState.pure(v / np.linalg.norm(v), excited(8))
        pure_outcome = measure_no_click(state, MeasurementModel(0.0))
        density_outcome = measure_no_click(state.promoted(), MeasurementModel(0.0))
        assert pure_outcome.no_click_probability == pytest.approx(
            density_outcome.no_click_probability, abs=1e-12
        )
        projector = np.outer(pure_outcome.post_state.data, pure_outcome.post_state.data.conj())
        assert np.max(np.abs(density_outcome.post_state.data - projector)) <= 1e-12

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_complete_positivity_witness(self, seed):
        state = random_density(12, seed=seed)
        for eps in (0.0, 0.3, 0.8):
            post = measure_no_click(state, MeasurementModel(eps)).post_state
            assert np.linalg.eigvalsh(post.data)[0] >= -1e-10

    def test_idempotent_at_zero_epsilon(self):
        state = random_density(8, seed=21)
        m = MeasurementModel(0.0)
        once = measure_no_click(state, m)
        twice = measure_no_click(once.post_state, m)
        assert twice.no_click_probability == pytest.approx(1.0, abs=1e-12)

    def test_affine_in_epsilon_with_correct_endpoints(self):
        state = random_density(8, seed=22)
        p_e = excitation_probability(state)
        probs = {
            eps: measure_no_click(state, MeasurementModel(eps)).no_click_probability
            for eps in (0.0, 0.25, 0.5, 1.0)
        }
        assert probs[0.0] == pytest.approx(1.0 - p_e, abs=1e-12)
        assert probs[1.0] == pytest.approx(1.0, abs=1e-12)
        for eps, value in probs.items():
            assert value == pytest.approx(eps + (1 - eps) * (1 - p_e), abs=1e-12)
        # affine: midpoint of the endpoints matches eps = 0.5
        assert probs[0.5] == pytest.approx((probs[0.0] + probs[1.0]) / 2, abs=1e-12)
