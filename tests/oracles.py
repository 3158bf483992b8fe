"""Independent brute-force oracles used by the tests.

Everything here works in the full (unreduced) space or via generic
quadrature/finite differences, deliberately sharing no code path with the
reduced-basis implementations it checks.  The exceptions are cf4_reference,
a plain per-exponential loop of the same CF4 scheme that checks the vectorised
propagator step for step, and gap_trace_reference, a per-point gap trace that
checks the batched one point for point, and exact_A_reference, the
three-predict_split closed-form A fit that checks the vectorised profile.
The helpers eigensystem_lowest, dH_ds and gamma_at left the package when no
code in it called them any more; they live here for the tests that use them.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigh_tridiagonal

from annealosc.models import _check_s, hamiltonian_at, tridiagonal_bands
from annealosc.predict import predict_split
from annealosc.spectrum import (DegenerateGroundStateError, GapTrace,
                                _crossing_refine_grid, _two_lowest)


def eigensystem_lowest(h, k):
    """k smallest eigenvalues (ascending) and orthonormal eigenvectors of a
    symmetric matrix, with a residual check ||Hv - lv|| <= 1e-10 ||H||."""
    h = np.asarray(h, float)
    dim = h.shape[0]
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= {dim}, got {k}")
    vals, vecs = eigh(h, subset_by_index=(0, k - 1))
    scale = max(np.linalg.norm(h, 2), 1.0)
    resid = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
    if np.any(resid > 1e-10 * scale):
        raise RuntimeError(f"eigensolver residual too large: {resid.max():.3e}")
    return vals, vecs


def dH_ds(model, s):
    """Exact derivative g'(s) (h1 - h0)."""
    _check_s(s)
    return model.schedule_deriv(s) * (model.h1 - model.h0)


def gamma_at(model, s, vecs=None):
    """Transition matrix element <phi0|dH/ds|phi1> (sign set by the supplied
    or freshly computed eigenvectors)."""
    if vecs is None:
        _, vecs = _two_lowest(model, s)
    return float(vecs[:, 0] @ dH_ds(model, s) @ vecs[:, 1])


def exact_A_reference(p, taus, probs, a_max):
    """Least-squares A on [0, a_max] at the v of p, from three predict_split
    calls: P = q A^2 + l A + c with c = P(0), q and l from P(+-1).  Returns
    (A, SSE(A), A is an endpoint)."""
    c = predict_split(p.with_values(A=0.0), taus)
    up = predict_split(p.with_values(A=1.0), taus)
    down = predict_split(p.with_values(A=-1.0), taus)
    q, l, r = 0.5 * (up + down) - c, 0.5 * (up - down), probs - c
    roots = np.roots([2.0 * (q @ q), 3.0 * (q @ l), l @ l - 2.0 * (q @ r),
                      -(l @ r)]).real
    cands = np.concatenate([[0.0, a_max], roots[(roots > 0.0) & (roots < a_max)]])
    sse = [float(np.sum((r - (q * a + l) * a) ** 2)) for a in cands]
    i = int(np.argmin(sse))
    return float(cands[i]), sse[i], i < 2


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


def _two_lowest_reference(model, s):
    if model.tridiagonal:
        diag, off = tridiagonal_bands(model, s)
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    return eigensystem_lowest(hamiltonian_at(model, s), 2)


def gap_trace_reference(model, n_points=201, n_refine=160):
    """gap_trace one point at a time: each H(s) from the model's own band or
    matrix builder, its two lowest pairs from eigh_tridiagonal or
    eigensystem_lowest, the gauge fixed point by point against the previous
    point, gamma from dH_ds per point.  Signs are anchored as in gap_trace:
    the ground state's largest-magnitude entry positive at s = 0, and
    gamma(0) >= 0."""
    grid = np.linspace(0.0, 1.0, n_points)
    coarse = np.array([np.diff(_two_lowest_reference(model, s)[0])[0] for s in grid])
    extra = _crossing_refine_grid(grid, coarse, n_refine)
    grid = np.unique(np.concatenate([grid, extra]))
    npts = len(grid)
    lam = np.empty((2, npts))
    vecs = np.empty((2, model.dim, npts))
    for i, s in enumerate(grid):
        vals, v = _two_lowest_reference(model, s)
        if vals[1] - vals[0] <= 0:
            raise DegenerateGroundStateError(f"degenerate levels at s={s}")
        for j in range(2):
            if i and vecs[j, :, i - 1] @ v[:, j] < 0:
                v[:, j] = -v[:, j]
        lam[:, i] = vals
        vecs[:, :, i] = v.T
    v0 = vecs[0, :, 0]
    if v0[np.argmax(np.abs(v0))] < 0:
        vecs[0] = -vecs[0]
    gamma = np.array([vecs[0, :, i] @ dH_ds(model, s) @ vecs[1, :, i]
                      for i, s in enumerate(grid)])
    if gamma[0] < 0:
        vecs[1] = -vecs[1]
        gamma = -gamma
    delta = lam[1] - lam[0]
    overlap = np.sum(vecs[:, :, :-1] * vecs[:, :, 1:], axis=1)
    return GapTrace(s=grid, lambda0=lam[0], lambda1=lam[1], delta=delta,
                    gamma=gamma, rho=gamma / delta**2, vec0=vecs[0], vec1=vecs[1],
                    model=model,
                    gauge_continuous=bool(np.abs(overlap).min() >= math.sqrt(0.5)))


def central_difference(f, x, delta=1e-5):
    return (f(x + delta) - f(x - delta)) / (2.0 * delta)
