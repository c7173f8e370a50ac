import numpy as np
import pytest

from antizeno.errors import NumericalError
from antizeno.model import ModelParams, even_chain_hamiltonian, hamiltonian
from antizeno.numkit import HermitianOperator, hermitian_eig
from antizeno.protocol import jitter_times, prepare_model, run_survival, two_period_schedule
from helpers import SQRT2, resonant
from oracle import (
    embed_even_chain, field_operator, full_space_run, kron_hamiltonian,
    no_click, qubit_operator,
)


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
    """numkit's own contract. The fold that deletes numkit (ROADMAP item 6)
    deletes this class whole."""

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
    """numkit's own contract. The fold that deletes numkit (ROADMAP item 6)
    deletes this class whole; the fold that deletes ``hamiltonian`` (item 2)
    deletes its cases of that builder first."""

    @staticmethod
    def random_hermitian(dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return HermitianOperator(a + a.conj().T)

    def test_pauli_spectrum(self):
        spec = hermitian_eig(HermitianOperator(np.diag([1.0, -1.0])))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_already_diagonal(self):
        spec = hermitian_eig(HermitianOperator(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_reconstruction_oracle_random(self):
        h = self.random_hermitian(8, seed=5)
        spec = hermitian_eig(h)
        v, lam = spec.eigenvectors, spec.eigenvalues
        scale = np.max(np.abs(h.matrix))
        # V^dagger H V should be diagonal with the eigenvalues
        transformed = v.conj().T @ h.matrix @ v
        assert np.max(np.abs(transformed - np.diag(lam))) <= 1e-9 * scale
        reconstruction = (v * lam) @ v.conj().T
        assert np.max(np.abs(reconstruction - h.matrix)) <= 1e-9 * scale

    def test_permutation_stable(self):
        h = self.random_hermitian(12, seed=8)
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
        h = build(ModelParams(1.0, g, 80, kind))
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
    """exp(-iHt) as runs apply it between events, pinned through
    ``run_survival`` against the oracle's full-space runs, pure (epsilon =
    0) and density (epsilon > 0). No run can pin reversibility."""

    P = resonant(0.7, n_max=12)

    def test_zero_time_is_identity(self):
        # an interval of 1e-14 evolves nothing: the second event measures the
        # state the first left, the oracle's map applied twice
        prep = prepare_model(self.P)
        psi = embed_even_chain(prep.ground.even_chain)
        for eps in (0.1, 0.5):
            single = run_survival(prep, [[1.0, 1.0 + 1e-14]], eps).single[0]
            prob, post = no_click(psi, eps)
            assert abs(single[0] - prob) < 1e-12
            assert abs(single[1] - no_click(post, eps)[0]) < 1e-12

    def test_two_level_closed_form(self):
        # on the two-site chain |g,0>, |e,1> (n_max = 1) the projected state
        # oscillates at W = sqrt((omega + omega0)^2 + 4 g^2): the second event
        # loses (2g/W)^2 sin^2(W tau / 2) at epsilon = 0, and after a full
        # period, a global phase, finds every state as the first left it
        g = 0.7
        prep = prepare_model(resonant(g, n_max=1))
        w = np.sqrt(4.0 + 4 * g**2)
        for tau in (0.3, 1.1, 2.9):
            loss = 1.0 - run_survival(prep, [[1.0, 1.0 + tau]], 0.0).single[0, 1]
            assert abs(loss - (2 * g / w) ** 2 * np.sin(w * tau / 2) ** 2) < 1e-12
        psi = embed_even_chain(prep.ground.even_chain)
        for eps in (0.0, 0.3):
            single = run_survival(prep, [[1.0, 1.0 + 2 * np.pi / w]], eps).single[0]
            assert abs(single[1] - no_click(no_click(psi, eps)[1], eps)[0]) < 1e-12

    def test_unitarity_and_reversibility(self):
        # exp(-iHt) keeps the trace: a detector that never acts keeps a
        # density stack at survival 1 over 40 jittered events; and it keeps
        # the norm: the pure path matches the oracle's unitary run
        prep = prepare_model(self.P)
        stack = jitter_times(two_period_schedule(2 * np.pi, SQRT2, 40), 0.2 * np.pi, 3, 21)
        assert np.max(np.abs(run_survival(prep, stack, 1.0).cumulative - 1.0)) <= 1e-10
        h, psi = kron_hamiltonian(self.P), embed_even_chain(prep.ground.even_chain)
        trace = run_survival(prep, stack, 0.0)
        for row, times in enumerate(stack):
            assert np.max(np.abs(trace.single[row] - full_space_run(h, psi, times, 0.0)[1])) <= 1e-10

    def test_group_property(self):
        # U(a) U(b) = U(a + b) with the ground state stationary: delaying a
        # whole schedule lengthens only its first interval, so no survival moves
        prep = prepare_model(self.P)
        stack = jitter_times(two_period_schedule(2 * np.pi, SQRT2, 8), 0.2 * np.pi, 3, 4)
        for eps in (0.0, 0.1):
            early, late = (run_survival(prep, stack + delay, eps).single for delay in (0.0, 1.1))
            assert np.max(np.abs(early - late)) <= 1e-9

    def test_against_series_exponential_oracle(self):
        # the one route that uses no eigendecomposition: exp(-iHt) from a
        # scaled and squared Taylor series on the full space
        prep = prepare_model(self.P)
        h, psi = kron_hamiltonian(self.P), embed_even_chain(prep.ground.even_chain)
        times = jitter_times(two_period_schedule(1.0, SQRT2, 6), 0.2, 1, 17)[0]
        for eps in (0.0, 0.1):
            expected = full_space_run(h, psi, times, eps, series=True)[1]
            assert np.max(np.abs(run_survival(prep, times[None], eps).single[0] - expected)) <= 1e-12
