import numpy as np
import pytest

from antizeno.dynamics import QuantumState, excitation_probability
from antizeno.errors import NumericalError
from antizeno.measurement import MeasurementModel, measure_no_click
from antizeno.model import even_chain_excited
from oracle import click_probability

# States are one-run batches on the even chain: site k is |g,k> for even k
# and |e,k> for odd k.


def chain_state(vec):
    vec = np.asarray(vec, dtype=complex)
    return QuantumState("pure", (vec / np.linalg.norm(vec))[None])


def superposition_state():
    return chain_state([1.0, 1.0, 0.0, 0.0])  # (|g,0> + |e,1>)/sqrt(2)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return QuantumState("density", (rho / np.trace(rho))[None])


def excited(state):
    return even_chain_excited(state.dim - 1)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        MeasurementModel(-0.1)
    with pytest.raises(ValueError):
        MeasurementModel(1.1)


class TestMeasureNoClick:
    def test_inert_detector(self):
        rho = random_density(8, seed=3)
        prob, post = measure_no_click(rho, MeasurementModel(1.0))
        assert prob[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(post.data - rho.data)) <= 1e-14

    def test_fully_excited_certain_click(self):
        state = chain_state([0.0, 1.0, 0.0, 0.0])  # |e,1>
        with pytest.raises(NumericalError, match="certain click"):
            measure_no_click(state, MeasurementModel(0.0))

    def test_ideal_projection(self):
        prob, post = measure_no_click(superposition_state(), MeasurementModel(0.0))
        assert prob[0] == pytest.approx(0.5, abs=1e-14)
        assert post.kind == "pure"
        expected = np.eye(4)[0]
        assert np.max(np.abs(post.data[0] - expected)) <= 1e-14

    def test_weak_map_hand_oracle(self):
        # eps = 0.2 on (|g0> + |e1>)/sqrt(2): probability 0.2 + 0.8*0.5 = 0.6,
        # post state (0.8 * 0.5 * |g0><g0| + 0.2 * rho) / 0.6; checked against
        # brute-force matrix arithmetic
        state = superposition_state()
        prob, post = measure_no_click(state, MeasurementModel(0.2))
        assert prob[0] == pytest.approx(0.6, abs=1e-14)

        rho = np.outer(state.data[0], state.data[0].conj())
        projector = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        sigma = 0.8 * projector @ rho @ projector + 0.2 * rho
        assert np.trace(sigma).real == pytest.approx(0.6, abs=1e-14)
        assert np.max(np.abs(post.data[0] - sigma / 0.6)) <= 1e-12


class TestClickProbability:
    def test_ideal_on_excited(self):
        state = chain_state([0.0, 0.0, 0.0, 1.0])  # |e,3>
        assert click_probability(state.data[0], excited(state), 0.0) == 1.0

    def test_inert_detector_never_clicks(self):
        state = superposition_state()
        assert click_probability(state.data[0], excited(state), 1.0) == 0.0

    def test_formula(self):
        rng = np.random.default_rng(7)
        state = chain_state(rng.normal(size=8) + 1j * rng.normal(size=8))
        p_e = excitation_probability(state)[0]
        expected = 0.9 * p_e
        assert click_probability(state.data[0], excited(state), 0.1) == pytest.approx(
            expected, abs=1e-14
        )


class TestMapProperties:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_probability_conservation(self, eps, seed):
        state = random_density(10, seed=seed)
        m = MeasurementModel(eps)
        prob, _ = measure_no_click(state, m)
        total = click_probability(state.data[0], excited(state), eps) + prob[0]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_epsilon_weak_equals_projective(self):
        rng = np.random.default_rng(5)
        state = chain_state(rng.normal(size=8) + 1j * rng.normal(size=8))
        pure_prob, pure_post = measure_no_click(state, MeasurementModel(0.0))
        density_prob, density_post = measure_no_click(state.promoted(), MeasurementModel(0.0))
        assert pure_prob[0] == pytest.approx(density_prob[0], abs=1e-12)
        projector = np.outer(pure_post.data[0], pure_post.data[0].conj())
        assert np.max(np.abs(density_post.data[0] - projector)) <= 1e-12

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_complete_positivity_witness(self, seed):
        state = random_density(12, seed=seed)
        for eps in (0.0, 0.3, 0.8):
            _, post = measure_no_click(state, MeasurementModel(eps))
            assert np.linalg.eigvalsh(post.data[0])[0] >= -1e-10

    def test_idempotent_at_zero_epsilon(self):
        state = random_density(8, seed=21)
        m = MeasurementModel(0.0)
        _, once = measure_no_click(state, m)
        twice, _ = measure_no_click(once, m)
        assert twice[0] == pytest.approx(1.0, abs=1e-12)

    def test_affine_in_epsilon_with_correct_endpoints(self):
        state = random_density(8, seed=22)
        p_e = click_probability(state.data[0], excited(state), 0.0)
        probs = {
            eps: measure_no_click(state, MeasurementModel(eps))[0][0]
            for eps in (0.0, 0.25, 0.5, 1.0)
        }
        assert probs[0.0] == pytest.approx(1.0 - p_e, abs=1e-12)
        assert probs[1.0] == pytest.approx(1.0, abs=1e-12)
        for eps, value in probs.items():
            assert value == pytest.approx(eps + (1 - eps) * (1 - p_e), abs=1e-12)
        # affine: midpoint of the endpoints matches eps = 0.5
        assert probs[0.5] == pytest.approx((probs[0.0] + probs[1.0]) / 2, abs=1e-12)

    def test_batch_is_measured_run_by_run(self):
        runs = [random_density(6, seed=30 + k) for k in range(3)]
        batch = QuantumState("density", np.concatenate([rho.data for rho in runs]))
        for eps in (0.0, 0.4):
            prob, post = measure_no_click(batch, MeasurementModel(eps))
            for k, rho in enumerate(runs):
                single_prob, single_post = measure_no_click(rho, MeasurementModel(eps))
                assert prob[k] == single_prob[0]
                assert np.array_equal(post.data[k], single_post.data[0])
