"""Independent brute-force oracles used by the tests.

Everything here works in the full (unreduced) space or via generic
quadrature/finite differences, deliberately sharing no code path with the
reduced-basis implementations it checks.  The exception is cf4_reference, a
plain per-exponential loop of the same CF4 scheme that checks the vectorised
propagator step for step.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigh_tridiagonal

from annealosc.models import hamiltonian_at, tridiagonal_bands


def full_qubit_hamiltonians(n, f_of_k):
    """Dense 2^n endpoint matrices: H0 = (1/2) sum_i sigma_x^(i),
    H1 = diag(f(popcount(z)))."""
    dim = 2**n
    h0 = np.zeros((dim, dim))
    for z in range(dim):
        for i in range(n):
            h0[z ^ (1 << i), z] += 0.5
    weights = np.array([bin(z).count("1") for z in range(dim)])
    h1 = np.diag(np.array([f_of_k(k) for k in weights], float))
    return h0, h1


def symmetric_sector_matrix(n, h):
    """Project a full 2^n matrix onto the normalized Hamming-weight basis."""
    dim = 2**n
    weights = np.array([bin(z).count("1") for z in range(dim)])
    basis = np.zeros((dim, n + 1))
    for k in range(n + 1):
        mask = weights == k
        basis[mask, k] = 1.0 / math.sqrt(math.comb(n, k))
    return basis.T @ h @ basis


def symmetric_sector_eigenvalues(n, h, k_lowest=3):
    """Lowest eigenvalues of the symmetric sector of a full 2^n matrix."""
    vals = np.linalg.eigvalsh(symmetric_sector_matrix(n, h))
    return vals[:k_lowest]


def full_grover_hamiltonian(big_n, big_m, g):
    """Full N-dimensional search Hamiltonian at schedule value g."""
    h0 = -np.ones((big_n, big_n)) / big_n
    h1 = np.eye(big_n)
    h1[:big_m, :big_m] -= np.eye(big_m)
    return (1.0 - g) * h0 + g * h1


def integrate_schrodinger_full(h_of_s, psi0, tau, rtol=1e-11):
    """Direct integration of i dpsi/ds = tau H(s) psi in the given space."""
    def rhs(s, y):
        return -1j * tau * (h_of_s(s) @ y)
    sol = solve_ivp(rhs, (0.0, 1.0), psi0.astype(complex), method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2)
    assert sol.success
    return sol.y[:, -1]


def cf4_reference(model, taus, n_substeps, psi0):
    """CF4 with n_substeps exponentials, one at a time: H from the model's own
    band or matrix builder at both Gauss nodes of each step, each effective H
    eigendecomposed on its own and applied in complex arithmetic.  Returns
    dim x ntau."""
    a1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
    a2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
    h = 2.0 / n_substeps
    d = model.dim
    psi = np.tile(psi0.astype(complex)[:, None], (1, len(taus)))
    for k in range(n_substeps // 2):
        nodes = [(k + 0.5 - math.sqrt(3.0) / 6.0) * h, (k + 0.5 + math.sqrt(3.0) / 6.0) * h]
        if model.tridiagonal:
            x1, x2 = (np.concatenate(tridiagonal_bands(model, s)) for s in nodes)
        else:
            x1, x2 = (hamiltonian_at(model, s) for s in nodes)
        for c1, c2 in ((2 * a2, 2 * a1), (2 * a1, 2 * a2)):
            x = c1 * x1 + c2 * x2
            w, v = eigh_tridiagonal(x[:d], x[d:]) if model.tridiagonal else eigh(x)
            psi = v @ (np.exp(-1j * np.outer(w, taus) / n_substeps) * (v.T @ psi))
    return psi


def central_difference(f, x, delta=1e-5):
    return (f(x + delta) - f(x - delta)) / (2.0 * delta)
