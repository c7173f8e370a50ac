import numpy as np
import pytest

from antizeno.dynamics import QuantumState, evolve
from antizeno.errors import NumericalError
from antizeno.model import ModelParams, even_chain_hamiltonian, hamiltonian
from antizeno.numkit import HermitianOperator, hermitian_eig
from oracle import field_operator, qubit_operator


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(a + a.conj().T)


def density_batch(dim, runs):
    """``runs`` random density matrices (seeds 0, 1, ...) as one batch."""
    rhos = []
    for seed in range(runs):
        a = random_hermitian(dim, seed).matrix
        rho = a @ a.conj().T
        rhos.append(rho / np.trace(rho))
    return QuantumState("density", np.array(rhos))


def unitary(spec, t):
    """exp(-iHt) as dynamics.evolve applies it: the basis batch evolved for
    t holds its transpose, row by row."""
    return evolve(spec, QuantumState("pure", np.eye(spec.dim)), np.full(spec.dim, t)).data.T


class TestTensorProduct:
    """The Kronecker lifts of tests/oracle.py: the qubit is the outer (slow)
    factor, so composite index (s, n) is s*(n_max+1) + n."""

    def test_identity_times_identity(self):
        assert np.array_equal(field_operator(np.eye(3)), np.eye(6, dtype=complex))

    def test_diagonal_case(self):
        assert np.array_equal(np.diag(qubit_operator("sigma_z", 1)).real, [-1, -1, 1, 1])

    def test_index_formula_on_random_entries(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        result = np.kron(a, np.eye(4)) @ field_operator(b)
        for _ in range(3):
            i1, j1 = rng.integers(0, 2, size=2)
            i2, j2 = rng.integers(0, 4, size=2)
            # vectorized complex multiply may fuse differently than the scalar one
            assert abs(result[i1 * 4 + i2, j1 * 4 + j2] - a[i1, j1] * b[i2, j2]) <= 1e-14

    def test_associative_for_integer_matrices(self):
        # lifting a qubit and a field factor and multiplying is the product
        # of the two, in either order
        rng = np.random.default_rng(3)
        a = rng.integers(-5, 6, size=(2, 2)).astype(complex)
        b = rng.integers(-5, 6, size=(3, 3)).astype(complex)
        qubit, field = np.kron(a, np.eye(3)), field_operator(b)
        assert np.array_equal(qubit @ field, np.kron(a, b))
        assert np.array_equal(field @ qubit, np.kron(a, b))


class TestHermitianOperator:
    def test_accepts_hermitian(self):
        h = HermitianOperator(np.array([[1.0, 1j], [-1j, 2.0]]))
        assert h.dim == 2

    def test_matrix_is_read_only(self):
        # and C-contiguous, so matrix.data is one buffer (bench/tracer.py hashes it)
        h = HermitianOperator(np.asfortranarray(np.array([[1.0, 2.0], [2.0, 3.0]])))
        assert h.matrix.flags.c_contiguous
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0


class TestHermitianEig:
    def test_pauli_spectrum(self):
        spec = hermitian_eig(HermitianOperator(np.diag([1.0, -1.0])))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_already_diagonal(self):
        spec = hermitian_eig(HermitianOperator(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_reconstruction_oracle_random(self):
        h = random_hermitian(8, seed=5)
        spec = hermitian_eig(h)
        v, lam = spec.eigenvectors, spec.eigenvalues
        scale = np.max(np.abs(h.matrix))
        # V^dagger H V should be diagonal with the eigenvalues
        transformed = v.conj().T @ h.matrix @ v
        assert np.max(np.abs(transformed - np.diag(lam))) <= 1e-9 * scale
        reconstruction = (v * lam) @ v.conj().T
        assert np.max(np.abs(reconstruction - h.matrix)) <= 1e-9 * scale

    def test_permutation_stable(self):
        h = random_hermitian(12, seed=8)
        first = hermitian_eig(h)
        second = hermitian_eig(h)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    @pytest.mark.parametrize("g", [0.5, 2.0])
    @pytest.mark.parametrize("kind", ["rabi", "jc"])
    @pytest.mark.parametrize("build", [hamiltonian, even_chain_hamiltonian])
    def test_package_matrices_give_an_orthonormal_ascending_basis(self, build, kind, g):
        # what eigh guarantees on the matrices this package solves: the
        # complex full space and the real even chain, into deep strong
        # coupling; hermitian_eig does not re-check it at run time
        h = build(ModelParams(1.0, 1.0, g, 80, kind))
        spec = hermitian_eig(h)
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        assert vecs.shape == (h.dim, h.dim) == (vals.size, vals.size)
        assert np.all(np.diff(vals) >= 0)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(h.dim))) <= 1e-10
        assert not (spec.eigenvalues.flags.writeable or spec.eigenvectors.flags.writeable)

    def test_lapack_failure_is_a_numerical_error(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NumericalError, match="eigendecomposition failed: dim=2"):
            hermitian_eig(HermitianOperator(np.eye(2)))


class TestPropagator:
    """exp(-iHt) = V exp(-iEt) V^dagger from a hermitian_eig spectrum, as
    dynamics.evolve applies it to pure batches (``unitary``) and to density
    batches (U rho U^dagger, one time per run). A non-finite time is refused
    by evolve (test_dynamics.py::TestEvolve::test_times_must_match_runs)."""

    def test_zero_time_is_identity(self):
        spec = hermitian_eig(random_hermitian(6, seed=2))
        assert np.max(np.abs(unitary(spec, 0.0) - np.eye(6))) < 1e-12
        rho = density_batch(6, 3)
        assert np.max(np.abs(evolve(spec, rho, np.zeros(3)).data - rho.data)) < 1e-12

    def test_two_level_closed_form(self):
        # a full qubit period gives -1, a global phase that leaves every
        # density matrix unchanged, coherences included
        omega0 = 1.7
        spec = hermitian_eig(HermitianOperator(0.5 * omega0 * np.diag([-1.0, 1.0])))
        assert np.max(np.abs(unitary(spec, 2 * np.pi / omega0) + np.eye(2))) < 1e-12
        plus = QuantumState("pure", np.full((1, 2), np.sqrt(0.5))).promoted()
        evolved = evolve(spec, plus, [2 * np.pi / omega0])
        assert np.max(np.abs(evolved.data - plus.data)) < 1e-12

    def test_unitarity_and_reversibility(self):
        spec = hermitian_eig(random_hermitian(8, seed=13))
        u = unitary(spec, 0.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10
        assert np.max(np.abs(u @ unitary(spec, -0.7) - np.eye(8))) <= 1e-10
        # the evolved basis projectors sum to U U^dagger, and evolve back
        projectors = QuantumState("pure", np.eye(8)).promoted()
        evolved = evolve(spec, projectors, np.full(8, 0.7))
        assert np.max(np.abs(evolved.data.sum(axis=0) - np.eye(8))) <= 1e-10
        back = evolve(spec, evolved, np.full(8, -0.7))
        assert np.max(np.abs(back.data - projectors.data)) <= 1e-10

    def test_group_property(self):
        spec = hermitian_eig(random_hermitian(8, seed=21))
        lhs = unitary(spec, 0.3) @ unitary(spec, 1.1)
        assert np.max(np.abs(lhs - unitary(spec, 1.4))) <= 1e-9
        first, second = np.array([1.1, 0.3, -0.5]), np.array([0.3, 1.1, 2.0])
        rho = density_batch(8, 3)
        twice = evolve(spec, evolve(spec, rho, first), second)
        assert np.max(np.abs(twice.data - evolve(spec, rho, first + second).data)) <= 1e-9

    def test_against_series_exponential_oracle(self):
        # independent route: scaling-and-squaring Taylor series for exp(-iHt)
        h = random_hermitian(6, seed=17)

        def series(t, squarings=10):
            a = -1j * h.matrix * t / 2**squarings
            term = np.eye(6, dtype=complex)
            total = np.eye(6, dtype=complex)
            for k in range(1, 30):
                term = term @ a / k
                total = total + term
            for _ in range(squarings):
                total = total @ total
            return total

        spec = hermitian_eig(h)
        assert np.max(np.abs(unitary(spec, 0.37) - series(0.37))) <= 1e-12
        times = np.array([0.37, -0.21, 0.9])
        rho = density_batch(6, 3)
        evolved = evolve(spec, rho, times)
        for k, t in enumerate(times):
            expected = series(t) @ rho.data[k] @ series(t).conj().T
            assert np.max(np.abs(evolved.data[k] - expected)) <= 1e-12
