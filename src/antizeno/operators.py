"""The basis convention of the composite qubit (x) Fock space.

Basis convention (qubit-major): index(s, n) = s*(n_max+1) + n with
s=0 -> |g>, s=1 -> |e> and n the photon number. The qubit-ground block
therefore occupies the first n_max+1 components, which keeps the qubit
projectors block-diagonal. The sigma_z sign convention is
sigma_z|e> = +|e>, sigma_z|g> = -|g>, so +omega0/2*sigma_z puts the bare
qubit ground state at -omega0/2.

The module holds no code: ``model.ModelParams`` checks the truncation
n_max, and one rule in ``model`` states the matrix elements of both parity
chains, which ``model.hamiltonian`` places in this basis. It remains as the
home of the convention that ``model`` and the test oracle share, and
because outside tools import every module of the package by name.
"""
