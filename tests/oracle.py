"""Independent reference code for the tests, in plain numpy.

The package states the matrix elements once, per parity chain, and places
both chains in its one full-space Hamiltonian. This module rebuilds the
qubit (x) Fock algebra the textbook way, from Kronecker products of qubit
and field operators, in the qubit-major basis of ``antizeno.operators``:
index(s, n) = s*(n_max+1) + n, s=0 -> |g>, s=1 -> |e>. It also holds the closed forms
the tests compare against, and Braak's G-functions, whose zeros give the
Rabi spectrum with no Fock cutoff at all. Like the package, it works in
units of the resonator frequency omega: frequencies in omega, times in
1/omega. Nothing here validates its arguments, except that
``jitter_mean_survival`` refuses inputs its exact form does not cover and
``braak_g`` a series it has not summed. ``oracle_tables`` rebuilds whole
output tables; of the package it reads only ``config.plan`` and the fig2
column names, never a kernel.
"""

from types import SimpleNamespace

import numpy as np

from antizeno.config import FIG2_COLUMN, plan

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


def kron_hamiltonian(p):
    """The Rabi ("rabi") or Jaynes-Cummings ("jc") Hamiltonian of the model
    parameters ``p`` (kind ``p.kind``), assembled from tensor products."""
    a = annihilation(p.n_max)
    number = field_operator(a.conj().T @ a)
    if p.kind == "rabi":
        coupling = np.kron(QUBIT["sigma_x"], a + a.conj().T)
    else:
        exchange = np.kron(np.array([[0, 0], [1, 0]]), a)  # |e><g| a
        coupling = exchange + exchange.conj().T
    return number + 0.5 * p.omega0 * qubit_operator("sigma_z", p.n_max) + p.g * coupling


def parity_chain_sites(n_max, odd=False):
    """Qubit-major indices of the sites k = 0..n_max of one parity chain.
    The even chain |g,0>, |e,1>, |g,2>, ... has site k at |g,k> for even k
    and |e,k> for odd k; the odd chain |e,0>, |g,1>, |e,2>, ... the other
    way round."""
    k = np.arange(n_max + 1)
    return np.where((k % 2 == 0) == odd, n_max + 1 + k, k)


def parity_chain_hamiltonian(p, odd=False):
    """The model of ``p`` on one parity chain (see ``parity_chain_sites``),
    assembled entry by entry as a real tridiagonal matrix: k + omega0/2 on
    an excited site, k - omega0/2 on a ground site, and
    the bond g*sqrt(k+1) between sites k and k+1. "jc" keeps only the
    exchange bonds |e,k> <-> |g,k+1>, the ones that leave an excited site:
    odd k on the even chain, even k on the odd chain."""
    k = np.arange(p.n_max + 1)
    excited_site = (k % 2 == 0) == odd
    diagonal = k + 0.5 * p.omega0 * np.where(excited_site, 1.0, -1.0)
    bonds = p.g * np.sqrt(k[1:])
    if p.kind == "jc":
        bonds = np.where(excited_site[:-1], bonds, 0.0)
    return np.diag(diagonal) + np.diag(bonds, 1) + np.diag(bonds, -1)


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


def qubit_p_e(data):
    """Qubit excitation probability of qubit-major amplitude vectors, one per
    row of ``data``: the weight on the second half."""
    half = data.shape[-1] // 2
    return np.sum(np.abs(data[..., half:]) ** 2, axis=-1)


def no_click(data, epsilon, batch=False):
    """No-click branch (1 - epsilon) P_g rho P_g + epsilon rho on a
    qubit-major state vector or density matrix, or with ``batch`` on a stack
    of them along the first axis: (probability, normalized post state). A
    vector stays a vector only at epsilon = 0."""
    p_g = np.diag(~excited(data.shape[-1])).astype(complex)
    vector = data.ndim == 1 + batch
    if vector and epsilon == 0.0:
        projected = data @ p_g  # P_g is diagonal: rows project as columns do
        prob = np.sum(np.abs(projected) ** 2, axis=-1)
        return prob, projected / np.sqrt(prob)[..., None]
    rho = data[..., :, None] * data[..., None, :].conj() if vector else data
    sigma = (1.0 - epsilon) * p_g @ rho @ p_g + epsilon * rho
    prob = np.trace(sigma, axis1=-2, axis2=-1).real
    return prob, sigma / prob[..., None, None]


def series_propagator(h, t, squarings=10, terms=30):
    """exp(-i h t) from its Taylor series by scaling and squaring: a route
    to the free evolution that uses no eigendecomposition."""
    a = -1j * h * t / 2**squarings
    term = total = np.eye(len(h), dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def full_space_run(h, psi, times, epsilon, density=False, series=False):
    """One schedule run event by event on the full space from the vector
    ``psi``: exp(-i h dt), from a dense ``eigh`` of the matrix ``h`` (or
    from ``series_propagator``), then ``no_click``. ``density`` starts from
    the projector of ``psi`` even at epsilon = 0. Returns the state just
    before each event and the per-event no-click probabilities."""
    vals, vecs = (None, None) if series else np.linalg.eigh(h)
    state = np.outer(psi, psi.conj()) if density else psi
    previous, before, singles = 0.0, [], []
    for t in times:
        if series:
            u = series_propagator(h, t - previous)
        else:
            u = (vecs * np.exp(-1j * vals * (t - previous))) @ vecs.conj().T
        state = u @ state if state.ndim == 1 else u @ state @ u.conj().T
        before.append(state)
        prob, state = no_click(state, epsilon)
        singles.append(prob)
        previous = t
    return before, np.array(singles)


def trajectory_survival(h, psi, times, epsilon):
    """Cumulative no-click survival after each event of one schedule, as the
    quantum-trajectory sum over the subsets S of the first n events at which
    the detector acted:

        sum_S epsilon**(n - |S|) (1 - epsilon)**|S| ||psi_S||**2,

    where psi_S is the pure state ``psi`` evolved under the real symmetric
    even-chain matrix ``h`` and projected onto the qubit-ground sites (even
    k) at the events of S, left unnormalized. No density matrix is formed:
    each event doubles the list of pure branches."""
    vals, vecs = np.linalg.eigh(h)
    ground = np.arange(len(psi)) % 2 == 0
    branches = np.array([psi], dtype=complex)
    weights = np.ones(1)
    previous, cumulative = 0.0, []
    for t in times:
        u = (vecs * np.exp(-1j * vals * (t - previous))) @ vecs.conj().T
        branches = branches @ u.T
        branches = np.concatenate([branches, branches * ground])
        weights = np.concatenate([epsilon * weights, (1.0 - epsilon) * weights])
        cumulative.append(np.sum(weights * np.sum(np.abs(branches) ** 2, axis=1)))
        previous = t
    return np.array(cumulative)


def jitter_mean_survival(p, base, half_window, epsilon):
    """Exact jitter-averaged cumulative survival after each event of the
    schedule ``base`` (times in 1/omega) when event k happens at base[k] + d_k,
    each d_k independent and uniform on [-half_window, half_window], starting
    from the ground state of the model parameters ``p``.

    Cumulative survival is the trace of a product of linear CP maps, so its
    mean is a contraction of averaged superoperators. In the eigenbasis of
    the even parity block of ``kron_hamiltonian(p)`` (w_ab = E_a - E_b), the
    offset d_k enters the free evolutions on both sides of event k, and
    averaging it turns the no-click map M = epsilon*1 + (1-epsilon) P_g.P_g
    into A_{ab,cd} = M_{ab,cd} sinc((w_ab - w_cd) half_window). With R_0 the
    ground state and D_k the k-th base interval, R_k = A(e^{-i w D_k} R_{k-1})
    and the mean after event k is tr R_k.

    Exact only where no draw can reorder the events (2*half_window below
    every base interval, half_window below the first event time): elsewhere
    keeping the events in order would need redraws, which condition the
    offsets, so such schedules are refused. A has (n_max+1)^4 entries,
    so n_max is capped at 40 (22 MB).
    """
    base = np.asarray(base, dtype=float)
    gaps = np.diff(base, prepend=0.0)
    if 2 * half_window >= np.min(gaps[1:], initial=np.inf) or half_window >= base[0]:
        raise ValueError("the jitter redraw rule can fire on this schedule; no exact mean")
    if p.n_max > 40:
        raise ValueError(f"n_max = {p.n_max} > 40: the averaged superoperator is too large")
    even = np.diag(parity_operator(p.n_max)).real > 0
    energies, vectors = np.linalg.eigh(kron_hamiltonian(p).real[np.ix_(even, even)])
    ground = ~excited(even.size)[even]
    p_g = vectors.T @ (ground[:, None] * vectors)
    w = np.subtract.outer(energies, energies).ravel()
    average = np.sinc(np.subtract.outer(w, w) * (half_window / np.pi))
    average *= (1.0 - epsilon) * np.kron(p_g, p_g)
    average[np.diag_indices_from(average)] += epsilon
    r = np.zeros(w.size, dtype=complex)
    r[0] = 1.0  # |E_0><E_0|, the lowest even eigenstate
    means = []
    for gap in gaps:
        y = np.exp(-1j * w * gap) * r
        r = average @ y.real + 1j * (average @ y.imag)
        means.append(np.trace(r.reshape(energies.size, energies.size)).real)
    return np.array(means)


def beyond_5_se(mean, se, exact):
    """Events whose Monte Carlo mean is more than 5 standard errors from the
    exact mean. The 1e-12 covers rounding where the standard error is 0
    (event 1 is deterministic: the ground state is stationary)."""
    return np.abs(mean - exact) > 5 * se + 1e-12


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
    """Leading-order chain coefficient -g/(1 + omega0), valid for g << 1.

    Squared, this gives the small-coupling excitation probability; at
    resonance the quadratic-law prefactor is 1/(1 + omega0)^2 = 1/4.
    """
    return -p.g / (1 + p.omega0)


def weak_coupling_losses(times, omega0, g):
    """Per-event loss 1 - single_n of one run of the schedule ``times``
    (1/omega) from the ground state at epsilon = 0, to second order in g,
    computed from the times alone. With Delta = 1 + omega0, the
    counter-rotating energy of |e,1> over |g,0>: the first loss is the
    ground-state p_e, g**2/Delta**2, and after an interval tau_n it is
    (4 g**2/Delta**2) sin**2(Delta tau_n / 2), since every no-click leaves
    |g,0> plus O(g**2), from which |e,1> grows as (g/Delta)(1 - e^(-i Delta t))."""
    delta = 1 + omega0
    intervals = np.diff(np.asarray(times, dtype=float))
    return (g / delta) ** 2 * np.concatenate([[1.0], 4 * np.sin(delta * intervals / 2) ** 2])


def jitter_weak_coupling_losses(base, half_window, omega0, g):
    """``weak_coupling_losses`` averaged over the jitter: the mean per-event
    loss 1 - single_n when every event of the schedule ``base`` moves
    by an independent uniform draw within +-half_window. The first loss
    does not depend on when it happens. After that, with
    4 sin**2(x/2) = 2 (1 - cos x), both ends of interval tau_n jitter, and
    the mean of cos(Delta (tau_n + d - d')) is
    cos(Delta tau_n) sinc**2(Delta half_window), with sinc x = sin x / x."""
    delta = 1 + omega0
    intervals = np.diff(np.asarray(base, dtype=float))
    damping = np.sinc(delta * half_window / np.pi) ** 2  # numpy's sinc is sin(pi x)/(pi x)
    return (g / delta) ** 2 * np.concatenate([[1.0], 2 * (1 - np.cos(delta * intervals) * damping)])


def eigenstate_overlaps(psi, eigenvectors, k):
    """Overlap probabilities |<E_i|psi>|^2 with the k lowest eigenstates."""
    return np.abs(eigenvectors[:, :k].conj().T @ psi) ** 2


def braak_g(x, g, delta, terms=120):
    """Braak's G-functions (G_-, G_+) of the Rabi model with omega = 1,
    H = a^dagger a + delta sigma_z + g sigma_x (a + a^dagger), at x = E + g^2,
    elementwise over arrays x, g and delta that broadcast (Braak, PRL 107,
    100401 (2011)).

    The regular spectrum is the zeros of G_- (the ground state's parity
    sector) and of G_+ (the other one), with no Fock cutoff:
    G_-+(x) = sum_n K_n(x) [1 -+ delta/(x - n)] g^n, where K_0 = 1,
    K_1 = f_0(x), n K_n = f_{n-1}(x) K_{n-1} - K_{n-2} and
    f_n(x) = 2g + (n - x + delta^2/(x - n))/(2g). Both have simple poles at
    x = 0, 1, 2, ..., so x must avoid the integers. The terms fall off
    geometrically once n exceeds about 4g^2; ``terms`` must reach that
    tail, and a series whose last term is not below 1e-17 of its largest
    raises.
    """
    x = np.asarray(x, dtype=float)
    k_prev, k = np.zeros_like(x), np.ones_like(x)
    minus, plus, largest = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for n in range(terms):
        pole = delta / (x - n)
        term = k * g**n
        largest = np.maximum(largest, np.abs(term))
        minus += term * (1 + pole)
        plus += term * (1 - pole)
        f = 2 * g + (n - x + delta * pole) / (2 * g)
        k_prev, k = k, (f * k - k_prev) / (n + 1)
    if np.any(np.abs(term) > 1e-17 * largest):
        raise ValueError(f"G-function series not converged after {terms} terms")
    return minus, plus


def braak_roots(g, delta, top=1, bisections=50):
    """The zeros of G_- and of G_+ (``braak_g``) on [-delta, top), for each
    coupling g[j] with its delta[j] in (0, 1): a list with one pair of
    sorted arrays (zeros of G_-, zeros of G_+) per coupling.

    E >= -g^2 - delta bounds the spectrum from below, so no zero lies under
    x = -delta. Each stretch between poles is scanned on a grid that closes
    in on the poles geometrically, to 1e-12 of a unit, but never touches
    one, so a sign change on the grid brackets a zero. Bisection then
    refines every bracket of every coupling at once.
    """
    g = np.asarray(g, dtype=float)[:, None, None]
    delta = np.asarray(delta, dtype=float)[:, None, None]
    near = np.geomspace(1e-12, 1e-2, 40)
    t = np.concatenate([near, np.linspace(1e-2, 1 - 1e-2, 400)[1:-1], 1 - near[::-1]])
    poles = np.broadcast_to(np.arange(top)[:, None], (g.size, top, 1))
    starts = np.concatenate([-delta, poles], axis=1)
    widths = np.concatenate([delta, np.ones((g.size, top, 1))], axis=1)
    grid = starts + widths * t  # (coupling, stretch, point)
    brackets = []  # (coupling, 0 for G_- or 1 for G_+, low end, high end)
    for which, values in enumerate(braak_g(grid, g, delta)):
        j, stretch, i = np.nonzero(np.sign(values[..., :-1]) != np.sign(values[..., 1:]))
        brackets.append((j, np.full(j.size, which), grid[j, stretch, i], grid[j, stretch, i + 1]))
    j, which, lo, hi = (np.concatenate(parts) for parts in zip(*brackets))
    couplings = g.size
    g_j, delta_j = g.ravel()[j], delta.ravel()[j]

    def value(x):
        minus, plus = braak_g(x, g_j, delta_j)
        return np.where(which == 0, minus, plus)

    f_lo = value(lo)
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        f_mid = value(mid)
        left = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo, hi = np.where(left, mid, lo), np.where(left, f_mid, f_lo), np.where(left, hi, mid)
    root = 0.5 * (lo + hi)
    return [
        (np.sort(root[(j == k) & (which == 0)]), np.sort(root[(j == k) & (which == 1)]))
        for k in range(couplings)
    ]


# ---------------------------------------------------------------------------
# Whole tables: every numeric data column a build writes, rebuilt from the
# config and ``config.plan`` alone.

EXTINCT = 1e-12  # survival below this is left out of an exponential fit


def oracle_tables(config):
    """The data columns of a build of ``config`` (fig1-fig6 or survival,
    at a fixed ``n_max``), as {table: {column: array}}.

    Each coupling's model is ``kron_hamiltonian`` on the full 2(n_max+1)
    space with one ``np.linalg.eigh``; its ground state is the lowest
    eigenvector. Runs start there and take ``no_click`` at each event of
    the stacks ``plan(config)`` lists, every row of a stack at once: pure
    amplitudes at epsilon = 0, density matrices otherwise. Row k of a
    jittered stack moves its events by ``default_rng(s_k).uniform``, with
    s_k word k of ``SeedSequence(seed).generate_state(runs, uint64)``. Fits
    are refit from the oracle's own columns with ``np.polyfit`` (exponential
    laws, in log space) and ``np.linalg.lstsq`` (y = lam x^2).
    """
    spectra = {}

    def spectrum(g):
        if g not in spectra:
            p = SimpleNamespace(omega0=float(config.omega0) / float(config.omega), g=float(g),
                                n_max=config.n_max, kind="rabi")
            spectra[g] = np.linalg.eigh(kron_hamiltonian(p))
        return spectra[g]

    def blocks(stack):
        """Per (g, epsilon) of the stack: the base schedule and the per-event
        means and stds of single and cumulative survival over its runs."""
        (omega_t1,) = stack.periods
        base = _two_period(omega_t1, config.ratio, stack.n)
        times = np.tile(base, (stack.runs, 1))
        if stack.jitter > 0:
            seeds = np.random.SeedSequence(config.seed).generate_state(stack.runs, np.uint64)
            times += [np.random.default_rng(int(s)).uniform(-stack.jitter, stack.jitter, stack.n)
                      for s in seeds]
        out = []
        for g, eps in stack.pairs:
            single = _survival(*spectrum(g), times, eps)
            cumulative = np.cumprod(single, axis=1)
            mean = single.mean(axis=0)
            out.append({
                "g_over_omega": g, "epsilon": eps, "event": np.arange(1, stack.n + 1),
                "omega_t": base, "single_mean": mean, "single_std": single.std(axis=0),
                "cumulative_mean": cumulative.mean(axis=0), "cumulative_std": cumulative.std(axis=0),
                "chi_n": (1.0 - mean) / g**2 if g**2 > 0 else np.full(stack.n, np.nan),
            })
        return out

    kind = config.experiment
    if kind == "fig1":
        g = np.asarray(config.g_values, dtype=float)
        p_e = np.array([qubit_p_e(spectrum(gi)[1][:, 0]) for gi in config.g_values])
        return {"data": _columns("g_over_omega p_e lambda_fit r_squared",
                                 {"g_over_omega": g, "p_e": p_e, **_quadratic_fit(g, p_e)})}
    if kind == "fig2":
        omega_t = np.arange(0.0, config.time_max + config.time_step / 2, config.time_step)
        table = {"omega_t": omega_t}
        for g in config.g_values:
            energies, vectors = spectrum(g)
            start = no_click(vectors[:, 0], 0.0)[1]
            states = ((start @ vectors.conj()) * np.exp(-1j * np.outer(omega_t, energies))) @ vectors.T
            table[FIG2_COLUMN.format(g)] = qubit_p_e(states)
        return {"data": table}
    if kind == "fig3":
        (sweep,) = plan(config).values()
        times = np.array([_two_period(t1, config.ratio, sweep.n) for t1 in sweep.periods])
        g = np.array([gi for gi, _ in sweep.pairs], dtype=float)
        final = np.array([np.mean(np.prod(_survival(*spectrum(gi), times, eps), axis=1))
                          for gi, eps in sweep.pairs])
        rate, r_squared = _exponential_fit(g**2, final)
        return {"data": _columns("g_over_omega mean_final_survival gaussian_rate gaussian_r_squared",
                                 {"g_over_omega": g, "mean_final_survival": final,
                                  "gaussian_rate": rate, "gaussian_r_squared": r_squared})}
    if kind == "fig4":
        panels = {name: blocks(stack) for name, stack in plan(config).items()}
        (a,) = panels["a"]
        for block in panels["b"]:
            block["fit_rate"], block["fit_r_squared"] = _exponential_fit(
                block["event"], block["cumulative_mean"])
        grid = np.array([block["g_over_omega"] for block in panels["c"]])
        pbar = np.array([np.mean(block["single_mean"]) for block in panels["c"]])
        fit = _quadratic_fit(grid, 1.0 - pbar)
        return {
            "a": _columns("event omega_t single_mean single_std cumulative_mean cumulative_std", a),
            "b": _columns("g_over_omega event omega_t cumulative_mean cumulative_std fit_rate "
                          "fit_r_squared", *panels["b"]),
            "c": _columns("g_over_omega mean_single_survival chi_bar_fit r_squared",
                          {"g_over_omega": grid, "mean_single_survival": pbar,
                           "chi_bar_fit": fit["lambda_fit"], "r_squared": fit["r_squared"]}),
        }
    if kind == "fig5":
        rows = []
        for omega_t1, stack in plan(config).items():
            (block,) = blocks(stack)
            t_over_t1 = block["omega_t"] / omega_t1
            rate, _ = _exponential_fit(t_over_t1, block["cumulative_mean"])
            rows.append({**block, "omega_t1": omega_t1, "t_over_t1": t_over_t1,
                         "rate_per_t_over_t1": rate})
        rates = [block["rate_per_t_over_t1"] for block in rows]
        for block in rows:
            block["rate_ratio_max_min"] = max(rates) / min(rates)
        return {"data": _columns("omega_t1 event omega_t t_over_t1 cumulative_mean cumulative_std "
                                 "rate_per_t_over_t1 rate_ratio_max_min", *rows)}
    (stack,) = plan(config).values()
    schema = "epsilon event omega_t single_mean single_std cumulative_mean cumulative_std"
    if kind == "survival":
        schema = f"g_over_omega {schema} chi_n"
    return {"data": _columns(schema, *blocks(stack))}


def _two_period(omega_t1, ratio, n):
    """Event times T1, T1+T2, 2 T1+T2, ... of n events, T2 = ratio T1."""
    return np.cumsum(np.resize([omega_t1, ratio * omega_t1], n))


def _survival(energies, vectors, times, epsilon):
    """(rows, N) per-event no-click probabilities of a stack of schedules
    run from the lowest eigenvector: each row evolves under
    exp(-i H dt) = V exp(-i E dt) V^dagger between its events."""
    rows = len(times)
    state = np.tile(vectors[:, 0], (rows, 1))
    if epsilon > 0.0:
        state = state[:, :, None] * state[:, None, :].conj()
    singles, previous = [], np.zeros(rows)
    for t in times.T:
        phases = np.exp(-1j * np.outer(t - previous, energies))
        if state.ndim == 2:
            state = ((state @ vectors.conj()) * phases) @ vectors.T
        else:
            u = (vectors * phases[:, None, :]) @ vectors.conj().T
            state = u @ state @ u.conj().transpose(0, 2, 1)
        prob, state = no_click(state, epsilon, batch=True)
        singles.append(prob)
        previous = t
    return np.array(singles).T


def _columns(schema, *blocks):
    """One table of the columns of ``schema`` stacked over ``blocks``; a
    scalar cell repeats down its block."""
    names = schema.split()
    parts = [np.broadcast_arrays(*(block[name] for name in names)) for block in blocks]
    return {name: np.concatenate([part[i] for part in parts]) for i, name in enumerate(names)}


def _r_squared(y, predicted):
    return 1.0 - np.sum((y - predicted) ** 2) / np.sum((y - y.mean()) ** 2)


def _exponential_fit(x, y):
    """(rate, R^2 in log space) of y = exp(c - rate x), fitted on log y over
    the points at or above ``EXTINCT``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y)
    keep = y >= EXTINCT
    slope, intercept = np.polyfit(x[keep], np.log(y[keep]), 1)
    return -slope, _r_squared(np.log(y[keep]), slope * x[keep] + intercept)


def _quadratic_fit(x, y):
    """lam and R^2 of y = lam x^2, fitted through the origin."""
    (lam,), *_ = np.linalg.lstsq(x[:, None] ** 2, y, rcond=None)
    return {"lambda_fit": lam, "r_squared": _r_squared(y, lam * x**2)}
