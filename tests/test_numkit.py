import numpy as np
import pytest

from antizeno.numkit import HermitianOperator, SpectralDecomposition, hermitian_eig, propagator
from oracle import field_operator, qubit_operator


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(a + a.conj().T)


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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(np.array([[0.0, 1e-9], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_matrix_is_read_only(self):
        h = HermitianOperator(np.eye(2))
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

    def test_spectral_decomposition_validates_orthonormality(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SpectralDecomposition(np.array([0.0, 1.0]), np.ones((2, 2), dtype=complex))


class TestPropagator:
    def test_zero_time_is_identity(self):
        spec = hermitian_eig(random_hermitian(6, seed=2))
        assert np.max(np.abs(propagator(spec, 0.0) - np.eye(6))) < 1e-12

    def test_two_level_closed_form(self):
        omega0 = 1.7
        spec = hermitian_eig(HermitianOperator(0.5 * omega0 * np.diag([-1.0, 1.0])))
        u = propagator(spec, 2 * np.pi / omega0)
        assert np.max(np.abs(u + np.eye(2))) < 1e-12

    def test_unitarity_and_reversibility(self):
        spec = hermitian_eig(random_hermitian(8, seed=13))
        u = propagator(spec, 0.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10
        assert np.max(np.abs(u @ propagator(spec, -0.7) - np.eye(8))) <= 1e-10

    def test_group_property(self):
        spec = hermitian_eig(random_hermitian(8, seed=21))
        lhs = propagator(spec, 0.3) @ propagator(spec, 1.1)
        rhs = propagator(spec, 1.4)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_against_series_exponential_oracle(self):
        # independent route: scaling-and-squaring Taylor series for exp(-iHt)
        h = random_hermitian(6, seed=17)
        t = 0.37
        squarings = 10
        a = -1j * h.matrix * t / 2**squarings
        term = np.eye(6, dtype=complex)
        series = np.eye(6, dtype=complex)
        for k in range(1, 30):
            term = term @ a / k
            series = series + term
        for _ in range(squarings):
            series = series @ series
        u = propagator(hermitian_eig(h), t)
        assert np.max(np.abs(u - series)) <= 1e-12

    def test_rejects_non_finite_time(self):
        spec = hermitian_eig(random_hermitian(2, seed=1))
        with pytest.raises(ValueError, match="finite"):
            propagator(spec, np.nan)
