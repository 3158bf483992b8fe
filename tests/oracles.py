"""Test helpers around perfbench/reference.py, the tests' one independent
reference.

`reference` imports nothing from annealosc: it builds every model's dense
H(s) from the model formulas, and has the gap, the DOP853 leakage and the
no-barrier and search closed forms.  The tests take their reference H(s),
cost f(k), gap and leakage from it; `dense_reference` maps a ModelSpec to
its model, and gap_integrals_reference runs scipy's quad on its gap.  The
2^n- and N-dimensional builders (full_qubit_hamiltonians,
symmetric_sector_*, full_grover_hamiltonian) and integrate_schrodinger_full
check the reduced spaces against the full ones.

The rest are each a slower or older form of a fast path that they check.
cf4_reference, a per-exponential loop of the CF4 scheme, checks the
vectorised propagator step for step, and gap_trace_reference, a per-point
gap trace, checks the batched one point for point; both take H(s) from
`dense_reference`.  Two wrap package internals on purpose:
exact_A_reference, the three-predict_split closed-form A fit that checks the
vectorised profile, and fit_A_v_golden, the golden-section search
(golden_min) of the fit profile that the joint fit used before its slope
root.  evolve_schrodinger (the CF4 sweep for one tau, with a norm check),
evolve_two_level (the DOP853 eigenbasis cross-check of the amplitude
integral and of the reduced sweeps), fit_single_frequency (the nested
single-frequency baseline of the fit), transition_probability (P of one
final state) and the search model's s-dependent closed forms grover_gap and
grover_gamma (which check its generic trace) left the package when no code
in it called them any more; they live here for the tests that use them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh, eigh_tridiagonal

from annealosc import fit
from annealosc.evolve import (ConvergenceError, EvolutionConfig, _evolve_batch, _leakage,
                              ground_state)
from annealosc.models import _check_s, grover_schedule
from annealosc.predict import _check_search, predict_split
from annealosc.spectrum import DegenerateGroundStateError, GapTrace

import reference


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, a: float, b: float, tol: float = 1e-8) -> float:
    """Golden-section search for the minimum of a unimodal f on [a, b].

    Stops once b - a <= tol, or once rounding leaves no float strictly
    between the bracket and its two interior points (so a tol below the
    float spacing at [a, b] ends there instead of looping forever)."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_A_v_golden(sweep, p, a_max=2.0, v_range=(0.02, 50.0), n_scan=48, tol=1e-9):
    """(v_hat, a_hat) by golden section on the fit profile: the best point
    of fit_A_v's log-v scan, its two neighbouring cells refined by golden_min
    on F(v) = min_A SSE to tol in log v, and A from `fit._exact_A` there."""
    taus = sweep.taus
    s, r = fit._fixed_terms(p, taus, sweep.probs)

    def exact(v):
        return fit._exact_A(np.asarray(v, float), p.g, p.m, taus, s, r, a_max)

    grid = np.linspace(math.log(v_range[0]), math.log(v_range[1]), n_scan)
    i = int(np.argmin(exact(np.exp(grid))[1]))
    logv = golden_min(lambda lv: exact([math.exp(lv)])[1][0],
                      grid[max(i - 1, 0)], grid[min(i + 1, n_scan - 1)], tol=tol)
    v_hat = math.exp(logv)
    return v_hat, float(exact([v_hat])[0][0])


def exact_A_reference(p, taus, probs, a_max):
    """Least-squares A on [0, a_max] at the v of p, from three predict_split
    calls: P = q A^2 + l A + c with c = P(0), q and l from P(+-1).  Returns
    (A, SSE(A), A is an endpoint)."""
    c = predict_split(replace(p, A=0.0), taus)
    up = predict_split(replace(p, A=1.0), taus)
    down = predict_split(replace(p, A=-1.0), taus)
    q, l, r = 0.5 * (up + down) - c, 0.5 * (up - down), probs - c
    roots = np.roots([2.0 * (q @ q), 3.0 * (q @ l), l @ l - 2.0 * (q @ r),
                      -(l @ r)]).real
    cands = np.concatenate([[0.0, a_max], roots[(roots > 0.0) & (roots < a_max)]])
    sse = [float(np.sum((r - (q * a + l) * a) ** 2)) for a in cands]
    i = int(np.argmin(sse))
    return float(cands[i]), sse[i], i < 2


def dense_reference(spec):
    """perfbench's `reference` model for a ModelSpec: the same H(s) built
    from the model formulas, sharing no code with `build_model`."""
    if spec.kind == "grover":
        return reference.search(spec.big_n, spec.big_m)
    if spec.kind == "cubic":
        return reference.cubic(spec.n)
    if spec.kind == "nobarrier":
        return reference.nobarrier(spec.n, spec.mu)
    return reference.barrier(spec.n, spec.mu, spec.alpha, spec.beta)


def gap_integrals_reference(dense, s_star):
    """(int_0^s* Delta ds, int_s*^1 Delta ds) by scipy's adaptive quad on the
    reference gap of a `dense_reference` model at epsabs = epsrel = 1e-14;
    s_star NaN (no crossing) gives (int_0^1 Delta ds, 0).  On some gaps quad
    warns that roundoff keeps it from 1e-14 relative; it then stops near that
    level, far inside the 1e-10 the tests allow."""
    def side(a, b):
        return quad(lambda s: reference.gap(dense, s), a, b, epsabs=1e-14,
                    epsrel=1e-14, limit=2000)[0]
    if math.isnan(s_star):
        return side(0.0, 1.0), 0.0
    return side(0.0, s_star), side(s_star, 1.0)


def fit_single_frequency(sweep, p):
    """RMS residual of the best single-frequency model: the large-gap form
    with omega = omega_- + omega_+ and a free overall amplitude (linear
    least squares).  Used as the nested-model baseline."""
    taus, probs = sweep.taus, sweep.probs
    omega = p.omega_minus + p.omega_plus
    basis = (p.rho0**2 + p.rho1**2 - 2 * p.rho0 * p.rho1 * np.cos(omega * taus)) / taus**2
    c = float(basis @ probs / (basis @ basis))
    return fit._rms(probs - c * basis)


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


def evolve_schrodinger(model, tau, cfg=EvolutionConfig()):
    """Final state at s=1 starting from the s=0 ground state, by the package's
    CF4 sweep for the one tau."""
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    psi = _evolve_batch(model, np.array([tau]), cfg)[:, 0]
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ConvergenceError("final state norm deviates by more than 1e-10")
    return psi


def transition_probability(psi, model):
    """P = 1 - |<phi0(1)|psi>|^2 of one final state, as tau_sweep computes it."""
    return float(_leakage(ground_state(model, 1.0), psi))


@dataclass(frozen=True)
class TwoLevelAmplitudes:
    c0: complex
    c1: complex
    m: int

    @property
    def p_leak(self) -> float:
        return self.m * abs(self.c1) ** 2


def evolve_two_level(trace, tau, m=1):
    """Integrate the eigenbasis amplitude equations along the trace:

        dC0/ds = -m C1 gamma/Delta
        dC1/ds =  C0 gamma/Delta - i tau Delta C1

    starting from C0=1, C1=0 (ground-state energy shifted to zero, so only
    the gap enters the phase), by DOP853 at rtol 1e-10, atol 1e-12.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    coup = CubicSpline(trace.s, trace.gamma / trace.delta)
    dspl = CubicSpline(trace.s, trace.delta)

    def rhs(s, y):
        c0, c1 = y
        k = coup(s)
        return [-m * c1 * k, c0 * k - 1j * tau * dspl(s) * c1]

    sol = solve_ivp(rhs, (0.0, 1.0), np.array([1.0 + 0j, 0.0 + 0j]),
                    method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise ConvergenceError(f"two-level integration failed: {sol.message}")
    c0, c1 = sol.y[:, -1]
    if abs(c0) ** 2 + m * abs(c1) ** 2 > 1.0 + 1e-6:
        raise ConvergenceError("two-level amplitudes exceed unit probability")
    return TwoLevelAmplitudes(c0=complex(c0), c1=complex(c1), m=m)


def cf4_reference(spec, taus, n_substeps, psi0):
    """CF4 with n_substeps exponentials, one at a time: H from spec's
    `dense_reference` model at both Gauss nodes of each step, each effective H
    eigendecomposed on its own (eigh_tridiagonal on the bands of a qubit
    model, eigh otherwise) and applied in complex arithmetic.  Returns
    dim x ntau."""
    dense = dense_reference(spec)
    a1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
    a2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
    h = 2.0 / n_substeps
    psi = np.tile(psi0.astype(complex)[:, None], (1, len(taus)))
    for k in range(n_substeps // 2):
        nodes = [(k + 0.5 - math.sqrt(3.0) / 6.0) * h, (k + 0.5 + math.sqrt(3.0) / 6.0) * h]
        x1, x2 = (dense.h(s) for s in nodes)
        for c1, c2 in ((2 * a2, 2 * a1), (2 * a1, 2 * a2)):
            x = c1 * x1 + c2 * x2
            w, v = (eigh(x) if spec.kind == "grover"
                    else eigh_tridiagonal(np.diag(x), np.diag(x, 1)))
            psi = v @ (np.exp(-1j * np.outer(w, taus) / n_substeps) * (v.T @ psi))
    return psi


def _two_lowest_reference(spec, dense, s):
    h = dense.h(s)
    if spec.kind != "grover":
        return eigh_tridiagonal(np.diag(h), np.diag(h, 1), select="i", select_range=(0, 1))
    w, v = np.linalg.eigh(h)
    return w[:2], v[:, :2]


def gap_trace_reference(spec, n_points=201):
    """gap_trace one point at a time: each H(s) and dH/ds from spec's
    `dense_reference` model, its two lowest pairs from eigh_tridiagonal on
    the bands of a qubit model or numpy's eigh.  Every cell where either
    level's |overlap| with the next point is below 1/sqrt(2) is bisected,
    one point at a time, until none is left.  The gauge is fixed point by
    point against the previous point, and signs are anchored as in
    gap_trace: the ground state's largest-magnitude entry positive at s = 0,
    and gamma(0) >= 0.  The trace's model is None."""
    dense = dense_reference(spec)
    pairs = {s: _two_lowest_reference(spec, dense, s) for s in np.linspace(0.0, 1.0, n_points)}
    while True:
        grid = sorted(pairs)
        mids = [0.5 * (a + b) for a, b in zip(grid[:-1], grid[1:])
                if min(abs(pairs[a][1][:, j] @ pairs[b][1][:, j]) for j in range(2))
                < math.sqrt(0.5)]
        if not mids:
            break
        for s in mids:
            pairs[s] = _two_lowest_reference(spec, dense, s)
    grid = np.array(grid)
    npts = len(grid)
    lam = np.empty((2, npts))
    vecs = np.empty((2, len(dense.h0), npts))
    for i, s in enumerate(grid):
        vals, v = pairs[s]
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
    gamma = np.array([vecs[0, :, i] @ dense.dh(s) @ vecs[1, :, i]
                      for i, s in enumerate(grid)])
    if gamma[0] < 0:
        vecs[1] = -vecs[1]
        gamma = -gamma
    return GapTrace(s=grid, lambda0=lam[0], lambda1=lam[1], gamma=gamma,
                    vec0=vecs[0], vec1=vecs[1], model=None)


def grover_gap(big_n, big_m, s):
    """Gap sqrt(1 - 4 (1-g) g (N-M)/N) under the optimal schedule."""
    _check_search(big_n, big_m)
    _check_s(s)
    g, _ = grover_schedule(big_n, big_m)
    gs = g(np.asarray(s, float))
    out = np.sqrt(1.0 - 4.0 * (1.0 - gs) * gs * (big_n - big_m) / big_n)
    return float(out) if out.ndim == 0 else out


def grover_gamma(big_n, big_m, s):
    """Coupling gamma(s) = g'(s) sqrt(M(N-M)) / (N Delta(s)) under the optimal
    schedule; symmetric about s = 1/2 with gamma(0) = gamma(1) =
    arctan(sqrt((N-M)/M))."""
    _check_search(big_n, big_m)
    _check_s(s)
    s = np.asarray(s, float)
    _, gp = grover_schedule(big_n, big_m)
    out = gp(s) * math.sqrt(big_m * (big_n - big_m)) / (big_n * grover_gap(big_n, big_m, s))
    return float(out) if np.ndim(out) == 0 else out


def central_difference(f, x, delta=1e-5):
    return (f(x + delta) - f(x - delta)) / (2.0 * delta)
