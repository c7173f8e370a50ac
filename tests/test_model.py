import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from antizeno.config import ExperimentConfig, largest_model
from antizeno.dynamics import QuantumState, excitation_probability, excitation_trace
from antizeno.errors import NumericalError
from antizeno.model import (
    DEGENERACY_GAP,
    N_MAX_CAP,
    ModelParams,
    assert_cutoff_converged,
    converge_cutoff,
    even_chain_excited,
    even_chain_hamiltonian,
    ground_state,
    hamiltonian,
)
from antizeno.protocol import prepare_model
from helpers import SQRT2, resonant
from oracle import (
    basis_state,
    braak_roots,
    eigenstate_overlaps,
    embed_even_chain,
    kron_hamiltonian,
    no_click,
    parity_chain_hamiltonian,
    parity_chain_sites,
    parity_operator,
    perturbative_c1,
)


def test_params_validation():
    for args, field in (((-0.1, 0.5, 40), "omega0"), ((1.0, -0.5, 40), "g")):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            ModelParams(*args)
    for n_max in (0, -3, 2.5):
        with pytest.raises(ValueError, match="^n_max must be an integer >= 1"):
            ModelParams(1.0, 0.5, n_max)


def test_params_reject_cutoff_beyond_dimension_cap():
    # the full space holds 2*(n_max+1) <= 1024 states, checked before any
    # matrix is built
    assert 2 * (ModelParams(1.0, 0.5, N_MAX_CAP).n_max + 1) == 1024
    with pytest.raises(ValueError, match="^n_max must be <= 511"):
        ModelParams(1.0, 0.5, 512)


@pytest.mark.parametrize("omega0,g,n_max", [
    (1.6e308, 1e307, 4),            # omega0/2 + the bond term 2*g*sqrt(n_max)
    (1.0, 1e308, 4),                # the bond g*sqrt(n_max)
])
def test_params_reject_hamiltonian_entries_past_the_float_range(omega0, g, n_max):
    with pytest.raises(ValueError, match="Hamiltonian spectrum passes the float range"):
        ModelParams(omega0, g, n_max)


# The largest accepted value of one field, the others fixed: the Gershgorin
# bound 2*(n_max + omega0/2 + 2*g*sqrt(n_max)) is finite there and infinite
# at the next float (omega0 reaches the largest float itself).
FLOAT_RANGE_EDGES = {
    "omega0": (lambda x: ModelParams(x, 1.0, 4), sys.float_info.max),
    "g": (lambda x: ModelParams(1.0, x, 4, "jc"), 2.2471164185778946e307),
}


def test_params_at_the_float_range_build_finite_matrices():
    # the largest accepted models prepare a finite ground state and chain
    # spectrum, all without a numpy warning (warnings are errors here)
    for make, edge in FLOAT_RANGE_EDGES.values():
        if edge < sys.float_info.max:
            with pytest.raises(ValueError, match="spectrum passes the float range"):
                make(np.nextafter(edge, np.inf))
        prep = prepare_model(make(edge))
        gs = prep.ground
        assert math.isfinite(gs.energy) and math.isfinite(gs.gap) and 0 <= gs.p_e <= 1
        assert np.all(np.isfinite(prep.chain.eigenvalues))


def test_params_take_ints_of_any_size():
    # exact for Python ints past int64 and past the float range: no numpy
    # call judges them, and the model keeps floats that numpy can take
    for args, field in (((10**400, 1.0, 4), "omega0"), ((1.0, 10**400, 4), "g")):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            ModelParams(*args)
    p = ModelParams(10**20, 0, 4)
    assert (p.omega0, p.g) == (1e20, 0.0)
    assert all(type(v) is float for v in (p.omega0, p.g))
    gs = ground_state(ModelParams(1, 0, 4))
    assert gs.even_chain is not None and gs.p_e < 1e-30


def test_a_model_below_the_resolution_of_its_photon_energy_solves_as_degenerate():
    # omega = 5.287e306 with omega0 = g = 1, in units of omega: a splitting
    # and coupling far below the rounding of the photon energy 1. The solve
    # reports a degenerate manifold: no chain state, gap omega0 and energy
    # -omega0/2. Scale-aware ground-state decisions would refuse the model.
    w = 1 / 5.287332749595046e306
    gs = ground_state(ModelParams(w, w, 17))
    assert gs.gap == w == 1.8913127797311216e-307
    assert gs.even_chain is None
    assert gs.p_e == 0.5
    assert gs.energy == -w / 2


def test_the_phase_rules_read_the_photon_term_of_the_spread():
    # fig2 at g/omega = 0.5 solves its largest model at n = 40 + 10, whose
    # spread 2*(n + omega0/2 + 2*g*sqrt(n)) is 115.14, 100 of it the photon
    # term 2*n. A grid to omega*t = 5e5 reaches 5.8e7 rad of phase, past the
    # 4.5e7 the run resolves; without the photon term (15.14) it would pass.
    c = ExperimentConfig(experiment="fig2", g_values=(0.5,), time_max=5e5, time_step=1.0)
    assert largest_model(c).spread == 2 * (50 + 0.5 + math.sqrt(50))
    with pytest.raises(ValueError, match="^time_max: fig2 needs a grid whose phases the run resolves"):
        c.validate()


@pytest.mark.parametrize("args,field", [
    ((True, 0.5, 4), "omega0"), ((1.0, False, 4), "g"), (("1", 0.5, 4), "omega0"),
    ((1.0, 0.5, True), "n_max"), ((1.0, 0.5, np.bool_(True)), "n_max"), ((1.0, "0.5", 4), "g"),
], ids=[f"args{i}" for i in range(6)])
def test_params_reject_booleans_and_other_non_numbers(args, field):
    # as config refuses JSON true: True is neither a frequency nor a cutoff
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        ModelParams(*args)


class TestRabiHamiltonian:
    """The model's spectrum and parity, on the chain the runs evolve with
    (``prepare_model(p).chain``) and on the oracle's full space."""

    def test_single_ladder_matrix_element(self):
        p = resonant(0.37, n_max=6)
        g0 = basis_state(p.n_max, 0, 0)
        e1 = basis_state(p.n_max, 1, 1)
        assert np.vdot(e1, kron_hamiltonian(p) @ g0) == pytest.approx(0.37, abs=1e-14)
        # |g,0> <-> |e,1> is the chain's first bond
        assert even_chain_hamiltonian(p).matrix[0, 1] == pytest.approx(0.37, abs=1e-14)

    def test_uncoupled_spectrum(self):
        p = ModelParams(1.0, 0.0, 10)
        expected = np.sort(np.concatenate([np.arange(11) - 0.5, np.arange(11) + 0.5]))
        odd = np.linalg.eigvalsh(parity_chain_hamiltonian(p, odd=True))
        both_chains = np.sort(np.concatenate([prepare_model(p).chain.eigenvalues, odd]))
        assert np.allclose(both_chains, expected, atol=1e-13)
        assert np.allclose(np.linalg.eigvalsh(kron_hamiltonian(p)), expected, atol=1e-13)

    def test_parity_commutator(self):
        p = resonant(0.7, n_max=20)
        h = kron_hamiltonian(p)
        op = parity_operator(p.n_max)
        assert np.max(np.abs(h @ op - op @ h)) <= 1e-13

    @pytest.mark.parametrize("omega,omega0,g", [(1.0, 1.0, 0.3), (2.0, 0.5, 1.4), (1.0, 0.0, 1.0)])
    def test_parity_conserved_across_parameters(self, omega, omega0, g):
        p = ModelParams(omega0 / omega, g / omega, 24)  # in units of omega, as a run builds it
        h = kron_hamiltonian(p)
        op = parity_operator(p.n_max)
        assert np.max(np.abs(h @ op - op @ h)) <= 1e-12
        # the chain the runs evolve with holds the whole even sector's spectrum
        even = parity_chain_sites(p.n_max)
        sector = np.linalg.eigvalsh(h[np.ix_(even, even)])
        assert np.max(np.abs(prepare_model(p).chain.eigenvalues - sector)) <= 1e-12


@pytest.mark.parametrize("kind", ["rabi", "jc"])
@pytest.mark.parametrize("n_max", [1, 40])
def test_direct_assembly_matches_kron_oracle(kind, n_max):
    # the one test of the full-space ``hamiltonian``: the fold that takes the
    # ground state from the chain (ROADMAP item 2) deletes both
    p = resonant(0.83, n_max=n_max, kind=kind)
    h = hamiltonian(p).matrix
    oracle = kron_hamiltonian(p)
    assert h.dtype == np.complex128
    assert h.shape == oracle.shape == (2 * (n_max + 1),) * 2
    # the oracle's number operator a^dagger a rounds its diagonal as
    # sqrt(n)**2; every off-diagonal element agrees bit for bit
    assert np.max(np.abs(h - oracle)) <= 1e-14
    off = ~np.eye(h.shape[0], dtype=bool)
    assert np.array_equal(h[off], oracle[off])


class TestJaynesCummings:
    def test_separable_ground_state(self):
        p = resonant(0.5, n_max=12, kind="jc")
        gs = ground_state(p)
        assert gs.energy == pytest.approx(-0.5, abs=1e-12)
        assert abs(gs.even_chain[0]) == pytest.approx(1.0, abs=1e-12)
        assert gs.p_e <= 1e-12

    def test_counter_rotating_element_removed(self):
        p = resonant(0.37, n_max=6, kind="jc")
        g0 = basis_state(p.n_max, 0, 0)
        e1 = basis_state(p.n_max, 1, 1)
        assert np.vdot(e1, kron_hamiltonian(p) @ g0) == 0.0
        assert even_chain_hamiltonian(p).matrix[0, 1] == 0.0

    def test_resonant_doublet(self):
        # at resonance the one-excitation block |e,0>, |g,1> (odd chain) has
        # energies omega/2 +- g, and the two-excitation block |e,1>, |g,2>
        # (the even chain the runs use) 3 omega/2 +- g sqrt(2)
        p = resonant(0.23, n_max=14, kind="jc")
        full = np.linalg.eigvalsh(kron_hamiltonian(p))
        odd = np.linalg.eigvalsh(parity_chain_hamiltonian(p, odd=True))
        for values, centre, split in ((full, 0.5, 0.23), (odd, 0.5, 0.23), (full, 1.5, 0.23 * SQRT2),
                                      (prepare_model(p).chain.eigenvalues, 1.5, 0.23 * SQRT2)):
            for target in (centre - split, centre + split):
                assert np.min(np.abs(values - target)) < 1e-12


    @pytest.mark.parametrize("n_max", [7, 8, 40])
    @pytest.mark.parametrize("omega0", [1.0, 0.5, 0.0])
    def test_even_chain_is_its_closed_form_manifolds(self, n_max, omega0):
        # |g,0> alone, each pair |e,n>, |g,n+1> (odd n) a 2x2 block with
        # energies (n + 1/2) omega +- sqrt(((omega0 - omega)/2)^2 + g^2 (n+1)),
        # and |e,n_max> alone when n_max is odd
        for g in (0.0, 0.3, 1.0, 2.5):
            n = np.arange(1, n_max, 2)
            split = np.sqrt(((omega0 - 1.0) / 2) ** 2 + g**2 * (n + 1))
            closed = [-omega0 / 2, *(n + 0.5 - split), *(n + 0.5 + split)]
            if n_max % 2:
                closed.append(n_max + omega0 / 2)
            p = ModelParams(omega0, g, n_max, "jc")
            chain = np.linalg.eigvalsh(even_chain_hamiltonian(p).matrix)
            assert np.max(np.abs(chain - np.sort(closed))) <= 1e-12, g


class TestEvenChain:
    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    @pytest.mark.parametrize("g", [0.0, 0.4, 1.3])
    def test_equals_even_sector_of_full_hamiltonian(self, kind, g):
        p = ModelParams(0.7, g, 9, kind)
        full = kron_hamiltonian(p)
        # chain site k is |g,k> (index k) for even k, |e,k> (index 10+k) for odd k
        sites = [k if k % 2 == 0 else 10 + k for k in range(10)]
        chain = even_chain_hamiltonian(p).matrix
        assert chain.dtype == float
        # the full space builds its number operator as a^dagger a, whose
        # diagonal carries sqrt(n)**2 rounding
        assert np.max(np.abs(chain - full[np.ix_(sites, sites)])) <= 1e-14
        assert even_chain_excited(9).tolist() == [k % 2 == 1 for k in range(10)]

    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    def test_chain_spectrum_is_even_sector_spectrum(self, kind):
        p = resonant(0.9, n_max=20, kind=kind)
        values, vectors = np.linalg.eigh(kron_hamiltonian(p))
        even = parity_operator(p.n_max).diagonal().real > 0
        sector = np.sort([
            e for e, v in zip(values, vectors.T)
            if np.sum(np.abs(v[even]) ** 2) > 0.5
        ])
        chain = prepare_model(p).chain.eigenvalues
        assert np.max(np.abs(chain - sector)) <= 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            resonant(0.5, kind="dicke")

    def test_chain_ground_state_matches(self):
        prep = prepare_model(resonant(1.0))
        spec = prep.chain
        assert spec.eigenvalues[0] == pytest.approx(prep.ground.energy, abs=1e-12)
        vec = spec.eigenvectors[:, 0] * np.sign(spec.eigenvectors[0, 0])
        assert np.max(np.abs(vec - prep.ground.even_chain)) <= 1e-12


class TestParityChains:
    """The two parity chains hold the whole truncated model, so the ground
    state is the lower of the two chains' lowest eigenpairs."""

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    @pytest.mark.parametrize("g", [0.0, 0.4, 1.3])
    def test_chain_is_its_block_of_the_kron_hamiltonian(self, odd, kind, g):
        p = ModelParams(0.7, g, 9, kind)
        full = kron_hamiltonian(p)
        sites = parity_chain_sites(9, odd)
        others = np.setdiff1d(np.arange(20), sites)
        chain = parity_chain_hamiltonian(p, odd)
        assert np.max(np.abs(chain - full[np.ix_(sites, sites)])) <= 1e-14
        assert np.all(full[np.ix_(sites, others)] == 0)
        parity = parity_operator(9).diagonal().real[sites]
        assert np.all(parity == (-1.0 if odd else 1.0))

    def test_odd_chain_sites_and_bonds(self):
        p = ModelParams(0.7, 0.5, 3, "jc")
        assert parity_chain_sites(3, odd=True).tolist() == [4, 1, 6, 3]  # |e,0>, |g,1>, |e,2>, |g,3>
        chain = parity_chain_hamiltonian(p, odd=True)
        # jc keeps |e,0> <-> |g,1> and |e,2> <-> |g,3>, the bonds leaving even k
        assert np.diag(chain, 1).tolist() == [0.5, 0.0, 0.5 * np.sqrt(3)]
        assert np.diag(chain).tolist() == [0.35, 1 - 0.35, 2.35, 3 - 0.35]

    # Which chain holds the ground state on the coupling grid: E the even
    # chain, O the odd chain (jc past its level crossing), D degenerate
    # (every level at omega0 = 0 in rabi; the jc crossing at g = omega).
    COUPLINGS = np.linspace(0.0, 2.0, 21)
    GROUND_CHAIN = {
        ("rabi", 1.0): "E" * 21,
        ("rabi", 0.5): "E" * 21,
        ("rabi", 0.0): "D" * 21,
        ("jc", 1.0): "E" * 10 + "D" + "O" * 10,
        ("jc", 0.5): "E" * 8 + "O" * 13,
        ("jc", 0.0): "D" + "O" * 20,
    }

    @pytest.mark.parametrize("kind,omega0", sorted(GROUND_CHAIN))
    def test_ground_state_is_the_lower_chain(self, kind, omega0):
        found = ""
        for g in self.COUPLINGS:
            p = ModelParams(omega0, float(g), 60, kind)
            even_values, even_vectors = np.linalg.eigh(parity_chain_hamiltonian(p))
            odd_values = np.linalg.eigvalsh(parity_chain_hamiltonian(p, odd=True))
            lowest_two = np.sort(np.concatenate([even_values[:2], odd_values[:2]]))[:2]
            if lowest_two[1] - lowest_two[0] < DEGENERACY_GAP:
                found += "D"
                assert ground_state(p).even_chain is None
            elif odd_values[0] < even_values[0]:
                found += "O"
                with pytest.raises(NumericalError, match="odd parity sector"):
                    ground_state(p)
            else:
                found += "E"
                gs = ground_state(p)
                assert gs.even_chain is not None
                assert abs(gs.energy - even_values[0]) <= 1e-12
                assert abs(gs.p_e - np.sum(even_vectors[1::2, 0] ** 2)) <= 1e-12
                expected_gap = min(even_values[1], odd_values[0]) - even_values[0]
                assert abs(gs.gap - expected_gap) <= 1e-9
        assert found == self.GROUND_CHAIN[kind, omega0]

    @pytest.mark.parametrize("kind,omega0", sorted(GROUND_CHAIN))
    def test_chain_state_exactly_when_unique(self, kind, omega0):
        # a tied ground manifold has no chain state to start a run from
        for g in self.COUPLINGS:
            try:
                gs = ground_state(ModelParams(omega0, float(g), 60, kind))
            except NumericalError:  # the odd chain lies lower
                continue
            assert (gs.even_chain is None) == (gs.gap < DEGENERACY_GAP)


class TestGroundState:
    def test_bare_vacuum_at_zero_coupling(self):
        gs = ground_state(resonant(0.0))
        assert gs.even_chain[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(gs.even_chain[1:])) < 1e-14
        assert gs.p_e == 0.0
        assert gs.even_chain is not None

    @pytest.mark.parametrize("g", [0.3, 1.0])
    def test_zero_splitting_closed_form(self, g):
        # omega0 = 0: displaced-oscillator manifold, energy -g^2/omega and
        # manifold-averaged excitation probability exactly 1/2
        gs = ground_state(ModelParams(0.0, g, 40))
        assert gs.even_chain is None
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
        assert np.sum(np.abs(gs.even_chain) ** 2) == pytest.approx(1.0, abs=1e-10)
        assert gs.even_chain[0].imag == 0.0
        assert gs.even_chain[0].real >= 0.0
        assert gs.p_e == pytest.approx(np.sum(np.abs(gs.even_chain[1::2]) ** 2), abs=1e-10)

    @pytest.mark.parametrize("g", [1.1, 1.5])
    def test_jc_odd_sector_ground_state_is_named(self, g):
        # past g = omega at resonance the rotating-wave ground state is the
        # lower one-excitation doublet state, which has odd parity
        with pytest.raises(NumericalError, match="lies in the odd parity sector"):
            ground_state(ModelParams(1.0, g, 20, "jc"))

    def test_odd_sector_error_names_the_cutoff(self):
        # at g/omega = 2.5 the Rabi ground state is even, but n_max = 10
        # is too small to resolve it
        with pytest.raises(NumericalError, match="lies in the odd parity sector at n_max=10"):
            ground_state(resonant(2.5, n_max=10))

    def test_deep_strong_rabi_ground_state_stays_even(self):
        gs = ground_state(ModelParams(1.0, 2.0, 80))
        assert gs.even_chain is not None
        assert np.sum(np.abs(gs.even_chain) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_partial_leak_still_raises(self, monkeypatch):
        # the full-space solve's own check: the fold that takes the ground
        # state from the chain (ROADMAP item 2) deletes it with that solve
        real = np.linalg.eigh

        def leaky(h):
            # rotate the even ground state by 1e-3 rad into the first
            # excited state, which is odd at g/omega = 0.5
            values, v = real(h)
            c, s = np.cos(1e-3), np.sin(1e-3)
            v[:, 0], v[:, 1] = c * v[:, 0] + s * v[:, 1], c * v[:, 1] - s * v[:, 0]
            return values, v

        monkeypatch.setattr(np.linalg, "eigh", leaky)
        with pytest.raises(NumericalError, match="leaks out of the even parity sector by 1.0"):
            ground_state(resonant(0.5, n_max=12))

    def test_monotone_excitation_on_grid(self):
        pes = [ground_state(resonant(g)).p_e for g in np.linspace(0.0, 1.0, 11)]
        assert all(b >= a for a, b in zip(pes, pes[1:]))


class TestExcitationProbability:
    """excitation_probability of QuantumState batches on the even chain, and
    what excitation_trace refuses of them. The fold that keeps states as
    plain arrays (ROADMAP item 3) deletes this class whole."""

    def test_deexcited_product_state(self):
        state = QuantumState("pure", np.eye(7)[4:5])  # |g,4>
        assert excitation_probability(state).tolist() == [0.0]

    def test_equal_superposition(self):
        vec = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)  # (|g,0> + |e,1>)/sqrt(2)
        state = QuantumState("pure", np.stack([np.eye(4)[0], vec]))
        assert excitation_probability(state) == pytest.approx([0.0, 0.5], abs=1e-14)

    def test_excitation_trace_rejects_a_density_state(self):
        # fig2 traces a pure state; excitation_probability has no density branch
        rho = QuantumState("density", np.eye(12)[None] / 12)
        with pytest.raises(ValueError, match="pure states, got 1 density runs"):
            excitation_trace(resonant(0.5, n_max=11), rho, np.linspace(0.0, 1.0, 3))

    def test_excitation_trace_takes_a_one_run_batch(self):
        batch = QuantumState("pure", np.eye(9)[:2])
        with pytest.raises(ValueError, match="one-run batch"):
            excitation_trace(resonant(0.5, n_max=8), batch, np.linspace(0.0, 1.0, 3))

    def test_norm_violation_raises(self):
        state = QuantumState("pure", np.eye(6)[:1])
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
        assert converge_cutoff(resonant(0.0)) == 10

    def test_resonant_golden(self, golden):
        converged = converge_cutoff(resonant(1.0))
        assert converged == golden["converged_nmax_g1_tol1e-8"]
        assert converged <= 60

    def test_unreachable_tolerance_contract(self, monkeypatch):
        # successive cutoffs may agree bit-for-bit, in which case the
        # contract ("smallest converged candidate") is satisfied before the
        # cap; otherwise the cap must raise
        import antizeno.model

        monkeypatch.setattr(antizeno.model, "CUTOFF_TOL", 1e-30)
        try:
            n = converge_cutoff(resonant(1.0))
        except NumericalError:
            return
        gs1, gs2 = ground_state(resonant(1.0, n)), ground_state(resonant(1.0, n + 10))
        assert abs(gs2.energy - gs1.energy) < 1e-30 and abs(gs2.p_e - gs1.p_e) < 1e-30

    def test_unconverged_at_the_cap_raises(self, monkeypatch):
        # no two cutoffs move by less than a tolerance of 0, so the search
        # runs to the (lowered) cap
        import antizeno.model

        monkeypatch.setattr(antizeno.model, "CUTOFF_TOL", 0.0)
        monkeypatch.setattr(antizeno.model, "CUTOFF_CAP", 30)
        with pytest.raises(NumericalError, match="not converged to tol=0 at the n_max=30 cap"):
            converge_cutoff(resonant(1.0))

    @pytest.mark.parametrize("g,n_max", [(2.0, 30), (2.5, 30), (3.0, 40), (4.0, 50)])
    def test_steps_past_under_resolved_cutoffs(self, g, n_max):
        # deep-strong coupling puts the truncated ground state in the odd
        # sector at small cutoffs; those cutoffs count as not converged
        assert converge_cutoff(resonant(g)) == n_max

    def test_jc_odd_sector_raises_at_the_cap(self):
        # the rotating-wave ground state past g = omega is odd at every cutoff
        with pytest.raises(NumericalError, match="odd parity sector up to the n_max=200 cap"):
            converge_cutoff(resonant(1.1, kind="jc"))

    def test_check_on_prepared_model(self):
        assert_cutoff_converged(resonant(1.0))
        with pytest.raises(NumericalError, match="n_max=8 not converged"):
            assert_cutoff_converged(resonant(1.0, n_max=8))
        # the rotating-wave ground state |g,0> is exact at any cutoff
        assert_cutoff_converged(resonant(1.0, n_max=8, kind="jc"))
        # a prepared model's ground state is read from the shared memo
        solved = {}
        p = prepare_model(resonant(1.0), solved).params
        assert list(solved) == [p]
        assert_cutoff_converged(p, solved)
        assert list(solved) == [p, resonant(1.0, n_max=50)]
        with pytest.raises(NumericalError, match="odd parity sector at n_max=10"):
            assert_cutoff_converged(resonant(1.1, n_max=10, kind="jc"))


class TestBraakGFunction:
    """The ground energy against the zeros of Braak's G-functions, which
    hold no Fock cutoff (Braak, PRL 107, 100401 (2011)): with Delta =
    omega0/2 and x = E + g^2, the ground state is the lowest zero of G_-."""

    CASES = [(omega0, g) for omega0 in (1.0, 0.5) for g in (0.5, 1.0, 2.0, 3.0)]

    def test_ground_energy_is_the_lowest_zero(self):
        roots = braak_roots([g for _, g in self.CASES], [omega0 / 2 for omega0, _ in self.CASES])
        for (omega0, g), (minus, plus) in zip(self.CASES, roots):
            params = ModelParams(omega0, g, 10)
            x = ground_state(replace(params, n_max=converge_cutoff(params))).energy + g**2
            assert abs(minus[0] - x) <= 1e-11, (omega0, g)
            # no zero of either G, so no state of either parity, lies below it
            assert np.concatenate([minus, plus]).min() >= x - 1e-11, (omega0, g)

    def test_p_e_is_the_energy_slope(self):
        # Hellmann-Feynman: H holds +Delta sigma_z, so dE/dDelta = <sigma_z>
        # = 2 p_e - 1. The central difference's O(step^2) error is ~1e-11.
        step = 1e-5
        g = [g for _, g in self.CASES for _ in (0, 1)]
        delta = [omega0 / 2 + side for omega0, _ in self.CASES for side in (step, -step)]
        lowest = [minus[0] for minus, _ in braak_roots(g, delta)]
        for (omega0, g), up, down in zip(self.CASES, lowest[0::2], lowest[1::2]):
            params = ModelParams(omega0, g, 10)
            p_e = ground_state(replace(params, n_max=converge_cutoff(params))).p_e
            assert abs(p_e - (1 + (up - down) / (2 * step)) / 2) <= 1e-9, (omega0, g)

    def test_sees_an_unconverged_cutoff(self):
        # the pin can fail: at g/omega = 3, n_max = 30 is off by about 1e-7
        [(minus, _)] = braak_roots([3.0], [0.5])
        energy = ground_state(resonant(3.0, n_max=30)).energy
        assert abs(minus[0] - (energy + 9.0)) > 1e-8


class TestEigenstateOverlaps:
    def test_self_overlap(self):
        vecs = np.linalg.eigh(kron_hamiltonian(resonant(0.6, n_max=12)))[1]
        overlaps = eigenstate_overlaps(vecs[:, 0], vecs, 4)
        assert overlaps[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(overlaps[1:]) < 1e-20

    def test_orthogonal_excited_state(self):
        vecs = np.linalg.eigh(kron_hamiltonian(resonant(0.6, n_max=12)))[1]
        overlaps = eigenstate_overlaps(vecs[:, 3], vecs, 4)
        assert overlaps[0] < 1e-20
        assert overlaps[3] == pytest.approx(1.0, abs=1e-12)

    def test_projected_ground_golden(self, golden):
        prep = prepare_model(resonant(1.0))
        _, projected = no_click(embed_even_chain(prep.ground.even_chain), 0.0)
        vecs = np.linalg.eigh(kron_hamiltonian(prep.params))[1]
        overlaps = eigenstate_overlaps(projected, vecs, 6)
        assert np.sum(overlaps) <= 1.0 + 1e-10
        assert np.allclose(overlaps, golden["projected_ground_overlaps_g1_k6"], atol=1e-12)


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
        assert ground_state(resonant(g, kind="jc")).p_e <= 1e-12
