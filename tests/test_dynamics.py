import numpy as np
import pytest

from antizeno.dynamics import QuantumState, evolve, excitation_trace
from antizeno.errors import NumericalError
from antizeno.measurement import MeasurementModel, measure_no_click
from antizeno.model import ModelParams, even_chain_hamiltonian
from antizeno.numkit import HermitianOperator, hermitian_eig
from antizeno.protocol import prepare_model
from oracle import embed_even_chain, kron_hamiltonian, parity_operator, qubit_p_e


def resonant(g, n_max=40, kind="rabi"):
    return ModelParams(1.0, 1.0, g, n_max, kind)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState("pure", (v / np.linalg.norm(v))[None])


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return QuantumState("density", (rho / np.trace(rho))[None])


class TestQuantumState:
    def test_rejects_bad_norm(self):
        with pytest.raises(NumericalError, match="norm"):
            QuantumState("pure", np.ones((1, 4)))

    def test_rejects_non_hermitian_density(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(NumericalError, match="Hermitian"):
            QuantumState("density", m[None])

    def test_rejects_negative_density(self):
        m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(NumericalError, match="positive"):
            QuantumState("density", m[None])

    def test_rejects_bad_trace(self):
        with pytest.raises(NumericalError, match="trace"):
            QuantumState("density", np.eye(4, dtype=complex)[None])

    def test_promoted_pure_state(self):
        state = random_state(6, seed=4)
        rho = state.promoted()
        assert rho.kind == "density"
        assert np.allclose(rho.data[0], np.outer(state.data[0], state.data[0].conj()), atol=1e-15)

    def test_rejects_unbatched_data(self):
        with pytest.raises(ValueError, match=r"\(runs, n\)"):
            QuantumState("pure", np.eye(4)[0])
        with pytest.raises(ValueError, match=r"\(runs, n, n\)"):
            QuantumState("density", np.eye(4) / 4)

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be 'pure' or 'density', got 'mixed'"):
            QuantumState("mixed", np.eye(4)[:1])

    def test_excitation_trace_requires_increasing_grid(self):
        initial = QuantumState("pure", np.eye(5)[:1])
        with pytest.raises(ValueError, match="increasing"):
            excitation_trace(resonant(0.5, n_max=4), initial, np.array([0.0, 0.0]))

    def test_excitation_trace_requires_a_non_empty_grid(self):
        initial = QuantumState("pure", np.eye(5)[:1])
        with pytest.raises(ValueError, match="non-empty"):
            excitation_trace(resonant(0.5, n_max=4), initial, np.array([]))


class TestBatchedQuantumState:
    """A batch is validated run by run: one bad member rejects the batch."""

    def pure_batch(self):
        return np.concatenate([random_state(6, seed=k).data for k in range(5)])

    def density_batch(self):
        return np.concatenate([random_density(6, seed=k).data for k in range(5)])

    def test_accepts_valid_batches(self):
        pure = QuantumState("pure", self.pure_batch())
        density = QuantumState("density", self.density_batch())
        assert (pure.runs, pure.dim) == (5, 6)
        assert (density.runs, density.dim) == (5, 6)

    def test_rejects_one_bad_norm(self):
        data = self.pure_batch()
        data[3] *= 1.001
        with pytest.raises(NumericalError, match=r"norm.*run 3"):
            QuantumState("pure", data)

    def test_rejects_one_non_hermitian(self):
        data = self.density_batch()
        data[2, 0, 1] += 1e-9
        with pytest.raises(NumericalError, match=r"Hermitian.*run 2"):
            QuantumState("density", data)

    def test_rejects_one_bad_trace(self):
        data = self.density_batch()
        data[4] *= 1.001
        with pytest.raises(NumericalError, match=r"trace.*run 4"):
            QuantumState("density", data)

    def test_rejects_one_negative(self):
        data = self.density_batch()
        data[1] = np.diag([1.2, -0.2, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(NumericalError, match=r"positive.*run 1"):
            QuantumState("density", data)

    def test_promoted_batch_is_per_run_projector(self):
        batch = QuantumState("pure", self.pure_batch())
        rho = batch.promoted()
        assert rho.kind == "density" and rho.runs == 5
        for k in range(5):
            assert np.array_equal(rho.data[k], np.outer(batch.data[k], batch.data[k].conj()))


class TestEvolve:
    def setup_method(self):
        self.p = resonant(0.7, n_max=12)
        self.spec = hermitian_eig(HermitianOperator(kron_hamiltonian(self.p)))

    def test_zero_time_identity(self):
        state = random_state(self.spec.dim, seed=9)
        assert np.max(np.abs(evolve(self.spec, state, [0.0]).data - state.data)) <= 1e-14

    def test_eigenstate_is_stationary(self):
        state = QuantumState("pure", self.spec.eigenvectors[:, 2][None])
        evolved = evolve(self.spec, state, [3.3])
        phase = np.vdot(state.data[0], evolved.data[0])
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.max(np.abs(evolved.data - phase * state.data)) <= 1e-12
        assert qubit_p_e(evolved.data)[0] == pytest.approx(qubit_p_e(state.data)[0], abs=1e-12)

    def test_reversibility(self):
        state = random_state(self.spec.dim, seed=10)
        round_trip = evolve(self.spec, evolve(self.spec, state, [1.9]), [-1.9])
        assert np.max(np.abs(round_trip.data - state.data)) <= 1e-10

    def test_density_evolution_matches_pure(self):
        state = random_state(self.spec.dim, seed=11)
        evolved_pure = evolve(self.spec, state, [2.1]).data[0]
        evolved_rho = evolve(self.spec, state.promoted(), [2.1]).data[0]
        expected = np.outer(evolved_pure, evolved_pure.conj())
        assert np.max(np.abs(evolved_rho - expected)) <= 1e-12

    def test_conservation_laws_along_trace(self):
        h = kron_hamiltonian(self.p)
        even_projector = (np.eye(self.spec.dim) + parity_operator(self.p.n_max)) / 2
        state = random_state(self.spec.dim, seed=12)
        psi = state.data[0]
        energy0 = np.vdot(psi, h @ psi).real
        even0 = np.vdot(psi, even_projector @ psi).real
        for t in (0.5, 1.7, 8.9, 40.0):
            evolved = evolve(self.spec, state, [t]).data[0]
            energy = np.vdot(evolved, h @ evolved).real
            even = np.vdot(evolved, even_projector @ evolved).real
            assert abs(energy - energy0) <= 1e-9 * abs(energy0)
            assert abs(even - even0) <= 1e-10

    @pytest.mark.parametrize("promote", [False, True])
    def test_batch_with_one_time_per_run(self, promote):
        times = np.array([0.0, 0.7, -1.3, 4.2])
        singles = [random_state(self.spec.dim, seed=20 + k) for k in range(times.size)]
        if promote:
            singles = [state.promoted() for state in singles]
        batch = QuantumState(singles[0].kind, np.concatenate([state.data for state in singles]))
        evolved = evolve(self.spec, batch, times)
        for k, t in enumerate(times):
            single = evolve(self.spec, singles[k], [t]).data[0]
            assert np.max(np.abs(evolved.data[k] - single)) <= 1e-14

    def test_times_must_match_runs(self):
        dim = self.spec.dim
        batch = QuantumState("pure", np.concatenate([random_state(dim, seed=k).data for k in range(3)]))
        with pytest.raises(ValueError, match="per run"):
            evolve(self.spec, batch, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="per run"):
            evolve(self.spec, random_state(self.spec.dim, seed=1), 1.0)
        with pytest.raises(ValueError, match="finite"):
            evolve(self.spec, batch, np.array([1.0, np.nan, 2.0]))

    def test_state_must_match_spectrum_dim(self):
        state = random_state(self.spec.dim - 1, seed=2)
        with pytest.raises(ValueError, match=f"state dim {self.spec.dim - 1} does not match"):
            evolve(self.spec, state, [1.0])

    def test_purity_conserved_for_density(self):
        rho = random_density(self.spec.dim, seed=13)
        purity0 = np.trace(rho.data[0] @ rho.data[0]).real
        evolved = evolve(self.spec, rho, [5.3]).data[0]
        purity = np.trace(evolved @ evolved).real
        assert abs(purity - purity0) <= 1e-10


class TestExcitationTrace:
    def test_stationary_vacuum(self):
        p = resonant(0.0, n_max=8)
        initial = QuantumState("pure", np.eye(9)[:1])  # |g,0>
        values = excitation_trace(p, initial, np.linspace(0.0, 10.0, 41))
        assert np.max(values) == 0.0

    def test_takes_a_one_run_batch(self):
        batch = QuantumState("pure", np.eye(9)[:2])
        with pytest.raises(ValueError, match="one-run batch"):
            excitation_trace(resonant(0.5, n_max=8), batch, np.linspace(0.0, 1.0, 3))

    def test_eigenstate_constant(self):
        p = resonant(0.5, n_max=10)
        spec = hermitian_eig(even_chain_hamiltonian(p))
        initial = QuantumState("pure", spec.eigenvectors[:, 1][None])
        values = excitation_trace(p, initial, np.linspace(0.0, 10.0, 41))
        assert np.max(values) - np.min(values) <= 1e-12

    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    def test_chain_matches_full_space(self, kind):
        # an even-sector state evolves identically on the chain and embedded
        # in the full space
        p = resonant(0.8, n_max=14, kind=kind)
        rng = np.random.default_rng(3)
        chain = rng.normal(size=15) + 1j * rng.normal(size=15)
        chain /= np.linalg.norm(chain)
        grid = np.linspace(0.0, 30.0, 601)
        on_chain = excitation_trace(p, QuantumState("pure", chain[None]), grid)
        copies = np.broadcast_to(embed_even_chain(chain), (grid.size, 30))
        full_space = hermitian_eig(HermitianOperator(kron_hamiltonian(p)))
        full = evolve(full_space, QuantumState("pure", copies), grid)
        assert np.max(np.abs(on_chain - qubit_p_e(full.data))) <= 1e-12

    @pytest.mark.parametrize("g_key,g", [("0.333333", 1 / 3), ("0.666667", 2 / 3), ("1", 1.0)])
    def test_long_time_average_golden(self, golden, g_key, g):
        # the oscillation average sits above the ground-state excitation
        # probability (projection populates excited eigenstates, which carry
        # more qubit excitation); the ratio approaches 1 as coupling grows
        p = resonant(g)
        prep = prepare_model(p)
        _, initial = measure_no_click(prep.chain_ground(1), MeasurementModel(0.0))
        grid = np.arange(0.0, 200.0 + 0.01, 0.02)
        values = excitation_trace(p, initial, grid)
        ratio = float(np.mean(values)) / prep.ground.p_e
        assert ratio == pytest.approx(golden["p1e_average_over_ground_pe"][g_key], abs=1e-9)
        assert 0.5 <= ratio <= 2.0
