import numpy as np
import pytest

from antizeno.dynamics import QuantumState
from antizeno.errors import NumericalError
from antizeno.model import (
    ModelParams,
    converge_cutoff,
    eigenstate_overlaps,
    even_chain_excited,
    even_chain_hamiltonian,
    excitation_probability,
    ground_state,
    hamiltonian,
    jaynes_cummings_hamiltonian,
    perturbative_c1,
    rabi_hamiltonian,
)
from antizeno.numkit import hermitian_eig, tensor_product
from antizeno.operators import (
    FockBasis,
    annihilation,
    basis_state,
    field_operator,
    parity_operator,
    qubit_operator,
)


def resonant(g, n_max=40):
    return ModelParams(omega=1.0, omega0=1.0, g=g, n_max=n_max)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 0.5, 40)
    with pytest.raises(ValueError):
        ModelParams(1.0, -0.1, 0.5, 40)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, -0.5, 40)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 0.5, 0)


class TestRabiHamiltonian:
    def test_single_ladder_matrix_element(self):
        p = resonant(0.37, n_max=6)
        h = rabi_hamiltonian(p).matrix
        basis = p.basis
        g0 = basis_state(basis, 0, 0)
        e1 = basis_state(basis, 1, 1)
        assert np.vdot(e1, h @ g0) == pytest.approx(0.37, abs=1e-14)

    def test_uncoupled_spectrum(self):
        p = ModelParams(1.0, 1.0, 0.0, 10)
        spec = hermitian_eig(rabi_hamiltonian(p))
        expected = np.sort(
            np.concatenate([np.arange(11) - 0.5, np.arange(11) + 0.5])
        )
        assert np.allclose(spec.eigenvalues, expected, atol=1e-13)

    def test_parity_commutator(self):
        p = resonant(0.7, n_max=20)
        h = rabi_hamiltonian(p).matrix
        parity = parity_operator(p.basis).matrix
        assert np.max(np.abs(h @ parity - parity @ h)) <= 1e-13

    @pytest.mark.parametrize("omega,omega0,g", [(1.0, 1.0, 0.3), (2.0, 0.5, 1.4), (1.0, 0.0, 1.0)])
    def test_parity_conserved_across_parameters(self, omega, omega0, g):
        p = ModelParams(omega, omega0, g, 24)
        h = rabi_hamiltonian(p).matrix
        parity = parity_operator(p.basis).matrix
        assert np.max(np.abs(h @ parity - parity @ h)) <= 1e-12


def kron_hamiltonian(p, kind):
    """Oracle: the model assembled from tensor products of qubit and field
    operators."""
    basis = p.basis
    a = annihilation(basis)
    number = field_operator(a.conj().T @ a, basis)
    sz = qubit_operator("sigma_z", basis).matrix
    if kind == "rabi":
        coupling = tensor_product(np.array([[0, 1], [1, 0]]), a + a.conj().T)
    else:
        exchange = tensor_product(np.array([[0, 0], [1, 0]]), a)  # |e><g| a
        coupling = exchange + exchange.conj().T
    return p.omega * number + 0.5 * p.omega0 * sz + p.g * coupling


@pytest.mark.parametrize("kind", ["rabi", "jc"])
@pytest.mark.parametrize("n_max", [1, 40])
def test_direct_assembly_matches_kron_oracle(kind, n_max):
    p = resonant(0.83, n_max=n_max)
    h = hamiltonian(p, kind).matrix
    oracle = kron_hamiltonian(p, kind)
    assert h.dtype == np.complex128
    assert h.shape == oracle.shape == (2 * (n_max + 1),) * 2
    # the oracle's number operator a^dagger a rounds its diagonal as
    # sqrt(n)**2; every off-diagonal element agrees bit for bit
    assert np.max(np.abs(h - oracle)) <= 1e-14
    off = ~np.eye(h.shape[0], dtype=bool)
    assert np.array_equal(h[off], oracle[off])


class TestJaynesCummings:
    def test_separable_ground_state(self):
        p = resonant(0.5, n_max=12)
        gs = ground_state(p, kind="jc")
        assert gs.energy == pytest.approx(-0.5, abs=1e-12)
        assert abs(gs.even_chain[0]) == pytest.approx(1.0, abs=1e-12)
        assert gs.p_e <= 1e-12

    def test_counter_rotating_element_removed(self):
        p = resonant(0.37, n_max=6)
        h = jaynes_cummings_hamiltonian(p).matrix
        basis = p.basis
        g0 = basis_state(basis, 0, 0)
        e1 = basis_state(basis, 1, 1)
        assert np.vdot(e1, h @ g0) == 0.0

    def test_resonant_doublet(self):
        # one-excitation block at resonance: energies omega/2 +- g
        p = resonant(0.23, n_max=14)
        spec = hermitian_eig(jaynes_cummings_hamiltonian(p))
        for target in (0.5 - 0.23, 0.5 + 0.23):
            assert np.min(np.abs(spec.eigenvalues - target)) < 1e-12


class TestEvenChain:
    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    @pytest.mark.parametrize("g", [0.0, 0.4, 1.3])
    def test_equals_even_sector_of_full_hamiltonian(self, kind, g):
        p = ModelParams(1.0, 0.7, g, 9)
        full = hamiltonian(p, kind).matrix
        # chain site k is |g,k> (index k) for even k, |e,k> (index 10+k) for odd k
        sites = [k if k % 2 == 0 else 10 + k for k in range(10)]
        chain = even_chain_hamiltonian(p, kind).matrix
        assert chain.dtype == float
        # the full space builds its number operator as a^dagger a, whose
        # diagonal carries sqrt(n)**2 rounding
        assert np.max(np.abs(chain - full[np.ix_(sites, sites)])) <= 1e-14
        assert even_chain_excited(9).tolist() == [k % 2 == 1 for k in range(10)]

    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    def test_chain_spectrum_is_even_sector_spectrum(self, kind):
        p = resonant(0.9, n_max=20)
        full = hermitian_eig(hamiltonian(p, kind))
        even = parity_operator(p.basis).matrix.diagonal().real > 0
        sector = np.sort([
            e for e, v in zip(full.eigenvalues, full.eigenvectors.T)
            if np.sum(np.abs(v[even]) ** 2) > 0.5
        ])
        chain = hermitian_eig(even_chain_hamiltonian(p, kind)).eigenvalues
        assert np.max(np.abs(chain - sector)) <= 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            even_chain_hamiltonian(resonant(0.5), "dicke")

    def test_chain_ground_state_matches(self):
        gs = ground_state(resonant(1.0))
        spec = hermitian_eig(even_chain_hamiltonian(resonant(1.0)))
        assert spec.eigenvalues[0] == pytest.approx(gs.energy, abs=1e-12)
        vec = spec.eigenvectors[:, 0] * np.sign(spec.eigenvectors[0, 0])
        assert np.max(np.abs(vec - gs.even_chain)) <= 1e-12


class TestGroundState:
    def test_bare_vacuum_at_zero_coupling(self):
        gs = ground_state(resonant(0.0))
        assert gs.even_chain[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(gs.even_chain[1:])) < 1e-14
        assert gs.p_e == 0.0
        assert not gs.degenerate

    @pytest.mark.parametrize("g", [0.3, 1.0])
    def test_zero_splitting_closed_form(self, g):
        # omega0 = 0: displaced-oscillator manifold, energy -g^2/omega and
        # manifold-averaged excitation probability exactly 1/2
        gs = ground_state(ModelParams(1.0, 0.0, g, 40))
        assert gs.degenerate
        assert gs.energy == pytest.approx(-(g**2), abs=1e-9)
        assert gs.p_e == pytest.approx(0.5, abs=1e-9)

    def test_resonance_golden_value(self, golden):
        gs = ground_state(resonant(1.0))
        ref = golden["resonance_g1_nmax40"]
        assert gs.p_e == pytest.approx(ref["p_e"], abs=1e-12)
        assert gs.energy == pytest.approx(ref["energy"], abs=1e-12)
        # cutoff-converged: identical at n_max = 60
        ref60 = golden["resonance_g1_nmax60"]
        assert abs(ref["p_e"] - ref60["p_e"]) < 1e-12

    def test_invariants(self):
        gs = ground_state(resonant(0.8))
        assert np.linalg.norm(gs.state) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(gs.even_chain) ** 2) == pytest.approx(1.0, abs=1e-10)
        assert gs.even_chain[0].imag == 0.0
        assert gs.even_chain[0].real >= 0.0
        assert gs.p_e == pytest.approx(np.sum(np.abs(gs.even_chain[1::2]) ** 2), abs=1e-10)

    def test_monotone_excitation_on_grid(self):
        pes = [ground_state(resonant(g)).p_e for g in np.linspace(0.0, 1.0, 11)]
        assert all(b >= a for a, b in zip(pes, pes[1:]))


class TestExcitationProbability:
    def test_deexcited_product_state(self):
        basis = FockBasis(6)
        state = QuantumState.pure(basis_state(basis, 0, 5))
        assert excitation_probability(state) == 0.0

    def test_equal_superposition(self):
        basis = FockBasis(3)
        vec = (basis_state(basis, 0, 0) + basis_state(basis, 1, 1)) / np.sqrt(2)
        assert excitation_probability(QuantumState.pure(vec)) == pytest.approx(0.5, abs=1e-14)

    def test_maximally_mixed(self):
        dim = FockBasis(5).dim
        rho = QuantumState.density(np.eye(dim) / dim)
        assert excitation_probability(rho) == pytest.approx(0.5, abs=1e-14)

    def test_norm_violation_raises(self):
        basis = FockBasis(2)
        state = QuantumState.pure(basis_state(basis, 0, 0))
        # bypass the constructor to model an upstream bug
        object.__setattr__(state, "data", 1.001 * state.data)
        with pytest.raises(NumericalError, match="norm"):
            excitation_probability(state)


class TestPerturbativeC1:
    def test_formula_value(self):
        assert perturbative_c1(resonant(0.01)) == pytest.approx(-0.005, abs=1e-15)

    def test_zero_coupling(self):
        assert perturbative_c1(resonant(0.0)) == 0.0

    def test_against_exact_diagonalization(self):
        p = resonant(0.02)
        exact_c1 = ground_state(p).even_chain[1]
        assert exact_c1.imag == pytest.approx(0.0, abs=1e-12)
        assert abs(exact_c1.real - perturbative_c1(p)) <= 1e-4


class TestConvergeCutoff:
    def test_uncoupled_returns_first_candidate(self):
        assert converge_cutoff(resonant(0.0), 1e-8) == 10

    def test_resonant_golden(self, golden):
        converged = converge_cutoff(resonant(1.0), 1e-8)
        assert converged == golden["converged_nmax_g1_tol1e-8"]
        assert converged <= 60

    def test_unreachable_tolerance_contract(self):
        # successive cutoffs may agree bit-for-bit, in which case the
        # contract ("smallest converged candidate") is satisfied before the
        # cap; otherwise the cap must raise
        from antizeno.model import _ground_scalars

        try:
            n = converge_cutoff(resonant(1.0), 1e-30)
        except NumericalError:
            return
        e1, pe1 = _ground_scalars(resonant(1.0), n, "rabi")
        e2, pe2 = _ground_scalars(resonant(1.0), n + 10, "rabi")
        assert abs(e2 - e1) < 1e-30 and abs(pe2 - pe1) < 1e-30

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            converge_cutoff(resonant(0.5), 0.0)


class TestEigenstateOverlaps:
    def test_self_overlap(self):
        p = resonant(0.6, n_max=12)
        spec = hermitian_eig(rabi_hamiltonian(p))
        state = QuantumState.pure(spec.eigenvectors[:, 0])
        overlaps = eigenstate_overlaps(state, spec, 4)
        assert overlaps[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(overlaps[1:]) < 1e-20

    def test_orthogonal_excited_state(self):
        p = resonant(0.6, n_max=12)
        spec = hermitian_eig(rabi_hamiltonian(p))
        state = QuantumState.pure(spec.eigenvectors[:, 3])
        overlaps = eigenstate_overlaps(state, spec, 4)
        assert overlaps[0] < 1e-20
        assert overlaps[3] == pytest.approx(1.0, abs=1e-12)

    def test_projected_ground_golden(self, golden):
        from antizeno.measurement import MeasurementModel, measure_no_click
        from antizeno.protocol import prepare_model

        prep = prepare_model(resonant(1.0))
        projected = measure_no_click(
            QuantumState.pure(prep.ground.state), MeasurementModel(0.0)
        ).post_state
        overlaps = eigenstate_overlaps(projected, prep.spec, 6)
        assert np.sum(overlaps) <= 1.0 + 1e-10
        assert np.allclose(overlaps, golden["projected_ground_overlaps_g1_k6"], atol=1e-12)

    def test_rejects_density_matrix(self):
        p = resonant(0.6, n_max=8)
        spec = hermitian_eig(rabi_hamiltonian(p))
        rho = QuantumState.density(np.eye(spec.dim) / spec.dim)
        with pytest.raises(ValueError, match="pure"):
            eigenstate_overlaps(rho, spec, 2)


class TestQuadraticLaw:
    def test_full_range_fit(self):
        from antizeno.analysis import fit_quadratic_origin

        grid = np.linspace(0.0, 1.0, 101)
        pes = np.array([ground_state(resonant(g)).p_e for g in grid])
        fit = fit_quadratic_origin(grid, pes)
        assert fit.r_squared >= 0.999

    def test_small_coupling_prefactor(self):
        from antizeno.analysis import fit_quadratic_origin

        grid = np.linspace(0.0, 0.05, 6)
        pes = np.array([ground_state(resonant(g)).p_e for g in grid])
        fit = fit_quadratic_origin(grid, pes)
        assert abs(fit.coefficients["lam"] - 0.25) <= 0.02 * 0.25

    @pytest.mark.parametrize("g", [0.1, 0.5, 0.9])
    def test_rwa_null(self, g):
        assert ground_state(resonant(g), kind="jc").p_e <= 1e-12
