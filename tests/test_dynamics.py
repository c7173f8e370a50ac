import numpy as np
import pytest

from antizeno.dynamics import ExcitationTrace, QuantumState, evolve, excitation_trace
from antizeno.measurement import MeasurementModel, measure_no_click
from antizeno.model import (
    ModelParams,
    even_chain_excited,
    even_chain_hamiltonian,
    excitation_probability,
    hamiltonian,
)
from antizeno.numkit import hermitian_eig
from antizeno.protocol import prepare_model
from oracle import embed_even_chain, excited, parity_operator


def resonant(g, n_max=40):
    return ModelParams(1.0, 1.0, g, n_max)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.pure(v / np.linalg.norm(v), excited(dim))


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return QuantumState.density(rho / np.trace(rho), excited(dim))


class TestQuantumState:
    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumState.pure(np.ones(4), excited(4))

    def test_rejects_non_hermitian_density(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            QuantumState.density(m, excited(4))

    def test_rejects_negative_density(self):
        m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            QuantumState.density(m, excited(4))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            QuantumState.density(np.eye(4, dtype=complex), excited(4))

    def test_promoted_pure_state(self):
        state = random_state(6, seed=4)
        rho = state.promoted()
        assert rho.kind == "density"
        assert np.allclose(rho.data, np.outer(state.data, state.data.conj()), atol=1e-15)

    def test_excitation_trace_requires_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            ExcitationTrace(np.array([0.0, 0.0]), np.array([0.0, 0.0]))


class TestBatchedQuantumState:
    """A batch is validated run by run: one bad member rejects the batch."""

    def pure_batch(self):
        return np.stack([random_state(6, seed=k).data for k in range(5)])

    def density_batch(self):
        return np.stack([random_density(6, seed=k).data for k in range(5)])

    def test_accepts_valid_batches(self):
        pure = QuantumState.pure(self.pure_batch(), excited(6))
        density = QuantumState.density(self.density_batch(), excited(6))
        assert (pure.batched, pure.runs, pure.dim) == (True, 5, 6)
        assert (density.batched, density.runs, density.dim) == (True, 5, 6)
        single = random_state(6, seed=0)
        assert (single.batched, single.runs) == (False, 1)

    def test_rejects_one_bad_norm(self):
        data = self.pure_batch()
        data[3] *= 1.001
        with pytest.raises(ValueError, match=r"norm.*run 3"):
            QuantumState.pure(data, excited(6))

    def test_rejects_one_non_hermitian(self):
        data = self.density_batch()
        data[2, 0, 1] += 1e-9
        with pytest.raises(ValueError, match=r"Hermitian.*run 2"):
            QuantumState.density(data, excited(6))

    def test_rejects_one_bad_trace(self):
        data = self.density_batch()
        data[4] *= 1.001
        with pytest.raises(ValueError, match=r"trace.*run 4"):
            QuantumState.density(data, excited(6))

    def test_rejects_one_negative(self):
        data = self.density_batch()
        data[1] = np.diag([1.2, -0.2, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"positive.*run 1"):
            QuantumState.density(data, excited(6))

    def test_promoted_batch_is_per_run_projector(self):
        batch = QuantumState.pure(self.pure_batch(), excited(6))
        rho = batch.promoted()
        assert rho.batched and rho.runs == 5
        for k in range(5):
            assert np.array_equal(rho.data[k], np.outer(batch.data[k], batch.data[k].conj()))

    def test_excited_mask(self):
        full = random_state(6, seed=1)
        assert full.excited.tolist() == [False] * 3 + [True] * 3
        assert not full.excited.flags.writeable
        chain = QuantumState.pure(np.eye(5)[0], even_chain_excited(4))
        assert chain.dim == 5 and chain.excited.tolist() == [False, True, False, True, False]
        with pytest.raises(ValueError, match="mask"):
            QuantumState.pure(np.eye(5)[0], np.zeros(4, dtype=bool))


class TestEvolve:
    def setup_method(self):
        self.p = resonant(0.7, n_max=12)
        self.spec = hermitian_eig(hamiltonian(self.p))

    def test_zero_time_identity(self):
        state = random_state(self.spec.dim, seed=9)
        assert np.max(np.abs(evolve(self.spec, state, 0.0).data - state.data)) <= 1e-14

    def test_eigenstate_is_stationary(self):
        state = QuantumState.pure(self.spec.eigenvectors[:, 2], excited(self.spec.dim))
        evolved = evolve(self.spec, state, 3.3)
        phase = np.vdot(state.data, evolved.data)
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.max(np.abs(evolved.data - phase * state.data)) <= 1e-12
        assert excitation_probability(evolved) == pytest.approx(
            excitation_probability(state), abs=1e-12
        )

    def test_reversibility(self):
        state = random_state(self.spec.dim, seed=10)
        round_trip = evolve(self.spec, evolve(self.spec, state, 1.9), -1.9)
        assert np.max(np.abs(round_trip.data - state.data)) <= 1e-10

    def test_density_evolution_matches_pure(self):
        state = random_state(self.spec.dim, seed=11)
        evolved_pure = evolve(self.spec, state, 2.1)
        evolved_rho = evolve(self.spec, state.promoted(), 2.1)
        expected = np.outer(evolved_pure.data, evolved_pure.data.conj())
        assert np.max(np.abs(evolved_rho.data - expected)) <= 1e-12

    def test_conservation_laws_along_trace(self):
        h = hamiltonian(self.p).matrix
        even_projector = (np.eye(self.spec.dim) + parity_operator(self.p.n_max)) / 2
        state = random_state(self.spec.dim, seed=12)
        energy0 = np.vdot(state.data, h @ state.data).real
        even0 = np.vdot(state.data, even_projector @ state.data).real
        for t in (0.5, 1.7, 8.9, 40.0):
            evolved = evolve(self.spec, state, t)
            energy = np.vdot(evolved.data, h @ evolved.data).real
            even = np.vdot(evolved.data, even_projector @ evolved.data).real
            assert abs(energy - energy0) <= 1e-9 * abs(energy0)
            assert abs(even - even0) <= 1e-10

    @pytest.mark.parametrize("promote", [False, True])
    def test_batch_with_one_time_per_run(self, promote):
        times = np.array([0.0, 0.7, -1.3, 4.2])
        singles = [random_state(self.spec.dim, seed=20 + k) for k in range(times.size)]
        if promote:
            singles = [state.promoted() for state in singles]
        batch = QuantumState(
            singles[0].kind, np.stack([state.data for state in singles]), singles[0].excited
        )
        evolved = evolve(self.spec, batch, times)
        for k, t in enumerate(times):
            assert np.max(np.abs(evolved.data[k] - evolve(self.spec, singles[k], t).data)) <= 1e-14

    def test_times_must_match_runs(self):
        dim = self.spec.dim
        batch = QuantumState.pure(
            np.stack([random_state(dim, seed=k).data for k in range(3)]), excited(dim)
        )
        with pytest.raises(ValueError, match="per run"):
            evolve(self.spec, batch, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="per run"):
            evolve(self.spec, random_state(self.spec.dim, seed=1), np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            evolve(self.spec, batch, np.array([1.0, np.nan, 2.0]))

    def test_purity_conserved_for_density(self):
        rho = random_density(self.spec.dim, seed=13)
        purity0 = np.trace(rho.data @ rho.data).real
        evolved = evolve(self.spec, rho, 5.3)
        purity = np.trace(evolved.data @ evolved.data).real
        assert abs(purity - purity0) <= 1e-10


class TestExcitationTrace:
    def test_stationary_vacuum(self):
        p = resonant(0.0, n_max=8)
        initial = QuantumState.pure(np.eye(9)[0], even_chain_excited(8))  # |g,0>
        trace = excitation_trace(p, initial, np.linspace(0.0, 10.0, 41))
        assert np.max(trace.values) == 0.0

    def test_eigenstate_constant(self):
        p = resonant(0.5, n_max=10)
        spec = hermitian_eig(even_chain_hamiltonian(p))
        initial = QuantumState.pure(spec.eigenvectors[:, 1], even_chain_excited(10))
        trace = excitation_trace(p, initial, np.linspace(0.0, 10.0, 41))
        assert np.max(trace.values) - np.min(trace.values) <= 1e-12

    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    def test_chain_matches_full_space(self, kind):
        # an even-sector state evolves identically on the chain and embedded
        # in the full space
        p = resonant(0.8, n_max=14)
        rng = np.random.default_rng(3)
        chain = rng.normal(size=15) + 1j * rng.normal(size=15)
        chain /= np.linalg.norm(chain)
        grid = np.linspace(0.0, 30.0, 601)
        on_chain = excitation_trace(p, QuantumState.pure(chain, even_chain_excited(14)), grid, kind)
        copies = np.broadcast_to(embed_even_chain(chain), (grid.size, 30))
        full = evolve(hermitian_eig(hamiltonian(p, kind)), QuantumState.pure(copies, excited(30)), grid)
        assert np.max(np.abs(on_chain.values - excitation_probability(full))) <= 1e-12

    @pytest.mark.parametrize("g_key,g", [("0.333333", 1 / 3), ("0.666667", 2 / 3), ("1", 1.0)])
    def test_long_time_average_golden(self, golden, g_key, g):
        # the oscillation average sits above the ground-state excitation
        # probability (projection populates excited eigenstates, which carry
        # more qubit excitation); the ratio approaches 1 as coupling grows
        p = resonant(g)
        prep = prepare_model(p)
        initial = measure_no_click(prep.chain_ground(), MeasurementModel(0.0)).post_state
        grid = np.arange(0.0, 200.0 + 0.01, 0.02)
        trace = excitation_trace(p, initial, grid)
        ratio = float(np.mean(trace.values)) / prep.ground.p_e
        assert ratio == pytest.approx(golden["p1e_average_over_ground_pe"][g_key], abs=1e-9)
        assert 0.5 <= ratio <= 2.0
