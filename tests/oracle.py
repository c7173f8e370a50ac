"""Independent reference code for the tests, in plain numpy.

The package works on the even parity chain and assembles its one
full-space Hamiltonian entry by entry. This module rebuilds the qubit (x)
Fock algebra the textbook way, from Kronecker products of qubit and field
operators, in the qubit-major basis of ``antizeno.operators``: index(s, n)
= s*(n_max+1) + n, s=0 -> |g>, s=1 -> |e>. It also holds the closed forms
the tests compare against. Nothing here validates its arguments.
"""

import numpy as np

QUBIT = {
    "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sigma_z": np.array([[-1, 0], [0, 1]], dtype=complex),
    "P_e": np.array([[0, 0], [0, 1]], dtype=complex),
    "P_g": np.array([[1, 0], [0, 0]], dtype=complex),
}


def basis_state(n_max, s, n):
    """Amplitude vector of the product state |s, n>."""
    v = np.zeros(2 * (n_max + 1), dtype=complex)
    v[s * (n_max + 1) + n] = 1.0
    return v


def annihilation(n_max):
    """a|n> = sqrt(n)|n-1> on the Fock factor, truncated at n_max."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)


def field_operator(m):
    """A field-factor matrix lifted to the composite space."""
    return np.kron(np.eye(2), m)


def qubit_operator(name, n_max):
    """A qubit matrix (``QUBIT[name]``) lifted to the composite space."""
    return np.kron(QUBIT[name], np.eye(n_max + 1))


def parity_operator(n_max):
    """Diagonal parity operator (-1)**(n+s); |g,0> and |e,1> are even."""
    signs = (-1.0) ** np.arange(n_max + 1)
    return np.diag(np.concatenate([signs, -signs])).astype(complex)


def kron_hamiltonian(p, kind):
    """The Rabi ("rabi") or Jaynes-Cummings ("jc") Hamiltonian of the model
    parameters ``p``, assembled from tensor products."""
    a = annihilation(p.n_max)
    number = field_operator(a.conj().T @ a)
    if kind == "rabi":
        coupling = np.kron(QUBIT["sigma_x"], a + a.conj().T)
    else:
        exchange = np.kron(np.array([[0, 0], [1, 0]]), a)  # |e><g| a
        coupling = exchange + exchange.conj().T
    return p.omega * number + 0.5 * p.omega0 * qubit_operator("sigma_z", p.n_max) + p.g * coupling


def excited(dim):
    """Qubit-major mask of the excited components: the second half."""
    return np.arange(dim) >= dim // 2


def embed_even_chain(chain):
    """Full-space vector of even-chain amplitudes: site k goes to |g,k> for
    even k and to |e,k> for odd k."""
    nf = len(chain)
    full = np.zeros(2 * nf, dtype=complex)
    k = np.arange(nf)
    full[np.where(k % 2 == 0, k, nf + k)] = chain
    return full


def click_probability(data, excited_mask, epsilon):
    """(1 - epsilon) <P_e> of a state vector or density matrix."""
    data = np.asarray(data)
    if data.ndim == 1:
        p_e = np.sum(np.abs(data[excited_mask]) ** 2)
    else:
        p_e = np.sum(np.diagonal(data).real[excited_mask])
    return (1.0 - epsilon) * float(p_e)


def truncated_survival(c0, N):
    """|c0|**(2N+2): survival after N measurements if every no-click left the
    system exactly in the ground state (two-state truncation of the chain)."""
    return abs(c0) ** (2 * N + 2)


def perturbative_c1(p):
    """Leading-order chain coefficient -g/(omega+omega0), valid for g << omega.

    Squared, this gives the small-coupling excitation probability; at
    resonance the quadratic-law prefactor is omega^2/(omega+omega0)^2 = 1/4.
    """
    return -p.g / (p.omega + p.omega0)


def eigenstate_overlaps(psi, eigenvectors, k):
    """Overlap probabilities |<E_i|psi>|^2 with the k lowest eigenstates."""
    return np.abs(eigenvectors[:, :k].conj().T @ psi) ** 2
