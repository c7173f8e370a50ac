"""The basis convention, and the qubit (x) Fock operators of the test oracle
built on it."""

import numpy as np
import pytest

from oracle import annihilation, basis_state, field_operator, parity_operator, qubit_operator


def test_basis_validation():
    # the oracle validates nothing: the photon truncation is a field of the
    # model, checked there (test_model.py::test_params_validation)
    assert basis_state(5, 0, 0).size == 12


def test_basis_index_is_bijective():
    states = np.array([basis_state(4, s, n) for s in (0, 1) for n in range(5)])
    assert np.array_equal(states, np.eye(2 * (4 + 1)))


class TestAnnihilation:
    def test_lowering_on_one_photon(self):
        a = annihilation(2)
        one = np.zeros(3, dtype=complex)
        one[1] = 1.0
        assert np.allclose(a @ one, [1.0, 0.0, 0.0], atol=1e-15)

    def test_vacuum_annihilates(self):
        a = annihilation(2)
        vac = np.zeros(3, dtype=complex)
        vac[0] = 1.0
        assert np.allclose(a @ vac, 0.0, atol=1e-15)

    def test_number_operator_diagonal(self):
        a = annihilation(5)
        number = a.conj().T @ a
        assert np.allclose(np.diag(number).real, [0, 1, 2, 3, 4, 5], atol=1e-14)
        assert np.max(np.abs(number - np.diag(np.diag(number)))) == 0.0

    def test_commutator_identity_below_cutoff(self):
        a = annihilation(7)
        commutator = a @ a.conj().T - a.conj().T @ a
        # the last diagonal entry is a truncation artifact; only n < n_max counts
        assert np.allclose(np.diag(commutator)[:7], 1.0, atol=1e-14)


class TestQubitOperators:
    def test_completeness(self):
        total = qubit_operator("P_e", 3) + qubit_operator("P_g", 3)
        assert np.array_equal(total, np.eye(2 * (3 + 1), dtype=complex))

    def test_sigma_x_flips_spin(self):
        sx = qubit_operator("sigma_x", 3)
        assert np.allclose(sx @ basis_state(3, 0, 0), basis_state(3, 1, 0), atol=1e-15)

    def test_sigma_z_eigenstate(self):
        sz = qubit_operator("sigma_z", 3)
        e3 = basis_state(3, 1, 3)
        assert np.vdot(e3, sz @ e3).real == pytest.approx(1.0, abs=1e-15)

    def test_qubit_and_field_operators_commute(self):
        a = annihilation(4)
        for f in (field_operator(a), field_operator(a.conj().T @ a)):
            for name in ("sigma_x", "sigma_z", "P_e", "P_g"):
                q = qubit_operator(name, 4)
                assert np.max(np.abs(q @ f - f @ q)) <= 1e-14


class TestParity:
    def test_even_states(self):
        op = parity_operator(4)
        g0 = basis_state(4, 0, 0)
        e1 = basis_state(4, 1, 1)
        assert np.vdot(g0, op @ g0).real == 1.0
        assert np.vdot(e1, op @ e1).real == 1.0

    def test_odd_state(self):
        g3 = basis_state(4, 0, 3)
        assert np.vdot(g3, parity_operator(4) @ g3).real == -1.0

    def test_squares_to_identity_exactly(self):
        op = parity_operator(6)
        assert np.array_equal(op @ op, np.eye(2 * (6 + 1), dtype=complex))
