"""Direct integration of i dpsi/ds = tau H(s) psi and derived sweep utilities.

The integrator is the fourth-order commutator-free Magnus scheme CF4
(Blanes & Moan, Appl. Numer. Math. 56 (2006) 1519; Alvermann & Fehske,
J. Comput. Phys. 230 (2011) 5930).  Each step of width h applies two
exponentials of weighted sums of H at the step's two Gauss nodes.  Every
model is affine in its schedule g(s), so each exponential is the exact
propagator exp(-i tau h/2 H(g_eff)) of H at an effective schedule value,
obtained by eigendecomposition of the small reduced matrix; the norm is kept
to machine precision.  A level of n substeps is n exponentials (n/2 steps),
and levels double until the final state moves by less than the tolerance.
For tau sweeps the eigendecompositions of a level are shared across all tau
values, so a whole sweep costs little more than a single evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigh_tridiagonal

from .models import ReducedHamiltonian, hamiltonian_at, tridiagonal_bands
from .spectrum import GapTrace, _two_lowest


class ConvergenceError(RuntimeError):
    """Step-doubling did not converge within the substep budget."""


@dataclass(frozen=True)
class EvolutionConfig:
    step_tolerance: float = 1e-8
    max_steps: int = 1 << 22
    initial_steps: int = 256

    def __post_init__(self):
        if self.step_tolerance <= 0:
            raise ValueError("step_tolerance must be positive")
        if self.max_steps < 2:
            raise ValueError("max_steps must be at least 2")
        # a level of n substeps is n/2 CF4 steps of two exponentials each
        if self.initial_steps % 2 or not 2 <= self.initial_steps <= self.max_steps:
            raise ValueError(
                f"initial_steps must be even and in [2, max_steps={self.max_steps}], "
                f"got {self.initial_steps}")


@dataclass(frozen=True)
class SweepResult:
    taus: np.ndarray
    probs: np.ndarray
    model_label: str
    config: EvolutionConfig

    def __post_init__(self):
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("taus must strictly increase")
        if np.any((self.probs < 0) | (self.probs > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        self.taus.setflags(write=False)
        self.probs.setflags(write=False)


@dataclass(frozen=True)
class TwoLevelAmplitudes:
    c0: complex
    c1: complex
    m: int

    @property
    def p_leak(self) -> float:
        return self.m * abs(self.c1) ** 2


def ground_state(model: ReducedHamiltonian, s: float) -> np.ndarray:
    """Normalized lowest eigenvector of H(s); sign fixed so the largest-
    magnitude entry is positive."""
    vals, vecs = _two_lowest(model, s)
    if vals[1] - vals[0] <= 1e-12 * max(abs(vals[1]), 1.0):
        raise RuntimeError(f"ground state degenerate at s={s}")
    v = vecs[:, 0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v


# CF4 step k of width h takes H at the Gauss nodes s1,2 = (k + 1/2 -+ sqrt3/6) h
# and applies exp(-i tau h (a2 H1 + a1 H2)) first, exp(-i tau h (a1 H1 + a2 H2))
# second, with a1,2 = (3 -+ 2 sqrt3)/12 and a1 + a2 = 1/2.  Rows: the weights of
# the two node values in each exponential's effective H, in order of application.
_NODE_OFFSETS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_A1, _A2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_CF4_WEIGHTS = 2.0 * np.array([[_A2, _A1], [_A1, _A2]])


def _cf4_nodes(n_substeps: int) -> np.ndarray:
    """Gauss nodes of the n_substeps/2 CF4 steps, shape (steps, 2), in
    increasing s."""
    h = 2.0 / n_substeps
    return (np.arange(n_substeps // 2)[:, None] + _NODE_OFFSETS) * h


def _cf4_eigs(model: ReducedHamiltonian, n_substeps: int):
    """Eigendecompositions of the n_substeps effective Hamiltonians, in order
    of application; the bands (or matrices) are taken at the Gauss nodes in
    increasing s and combined linearly, which is exact as H is affine in g."""
    d = model.dim
    for s1, s2 in _cf4_nodes(n_substeps):
        if model.tridiagonal:
            x1, x2 = (np.concatenate(tridiagonal_bands(model, s)) for s in (s1, s2))
        else:
            x1, x2 = hamiltonian_at(model, s1), hamiltonian_at(model, s2)
        for c1, c2 in _CF4_WEIGHTS:
            x = c1 * x1 + c2 * x2
            yield eigh_tridiagonal(x[:d], x[d:]) if model.tridiagonal else eigh(x)


def _propagate_small_dim(model: ReducedHamiltonian, taus: np.ndarray,
                         n_substeps: int, psi0: np.ndarray) -> np.ndarray:
    """CF4 propagation specialized for few-level models.

    All effective Hamiltonians are eigendecomposed in one batched call, and
    the exponentials are multiplied pairwise (a balanced tree), so the
    Python-level work grows like log(n_substeps) instead of n_substeps.
    """
    g = np.asarray(model.schedule(_cf4_nodes(n_substeps)), float)
    g = (g @ _CF4_WEIGHTS.T).ravel()
    h = np.multiply.outer(1.0 - g, model.h0) + np.multiply.outer(g, model.h1)
    w, v = np.linalg.eigh(h)
    vt = v.transpose(0, 2, 1)
    ds = 1.0 / n_substeps
    dim = model.dim
    psi = np.tile(psi0.astype(complex), (len(taus), 1))[..., None]
    # cap the (ntau, chunk, dim, dim) workspace at a few hundred MB
    chunk = max(2, (1 << 21) // max(1, len(taus) * dim * dim))
    for i0 in range(0, n_substeps, chunk):
        wc, vc, vtc = w[i0:i0 + chunk], v[i0:i0 + chunk], vt[i0:i0 + chunk]
        phases = np.exp(-1j * ds * wc[None] * taus[:, None, None])
        u = (vc[None] * phases[..., None, :]) @ vtc[None]
        # fold pairs right-to-left so earlier exponentials act first
        while u.shape[1] > 1:
            even = (u.shape[1] // 2) * 2
            prod = u[:, 1:even:2] @ u[:, 0:even:2]
            if u.shape[1] % 2:
                prod = np.concatenate([prod, u[:, -1:]], axis=1)
            u = prod
        psi = u[:, 0] @ psi
    return psi[..., 0].T


def _propagate(model: ReducedHamiltonian, taus: np.ndarray, n_substeps: int,
               psi0: np.ndarray) -> np.ndarray:
    """CF4-evolve one initial state for every tau at once with n_substeps
    exponentials; returns dim x ntau."""
    if model.dim <= 8:
        return _propagate_small_dim(model, taus, n_substeps, psi0)
    ds = 1.0 / n_substeps
    psi = np.tile(psi0.astype(complex)[:, None], (1, len(taus)))
    for w, v in _cf4_eigs(model, n_substeps):
        phases = np.exp(-1j * np.outer(w, taus) * ds)
        psi = v @ (phases * (v.T @ psi))
    return psi


def _evolve_batch(model, taus, cfg):
    psi0 = ground_state(model, 0.0)
    n = cfg.initial_steps
    prev = _propagate(model, taus, n, psi0)
    worst = np.inf
    while 2 * n <= cfg.max_steps:
        n *= 2
        cur = _propagate(model, taus, n, psi0)
        worst = np.linalg.norm(cur - prev, axis=0).max()
        if worst < cfg.step_tolerance:
            return cur
        prev = cur
    raise ConvergenceError(
        f"CF4 integration not converged at {n} substeps "
        f"(error {worst:.3e}, tolerance {cfg.step_tolerance:.1e})")


def evolve_schrodinger(model: ReducedHamiltonian, tau: float,
                       cfg: EvolutionConfig = EvolutionConfig()) -> np.ndarray:
    """Final state at s=1 starting from the s=0 ground state.

    Accepted only when doubling the substep count moves the final state by
    less than cfg.step_tolerance in norm.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    psi = _evolve_batch(model, np.array([tau]), cfg)[:, 0]
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ConvergenceError("final state norm deviates by more than 1e-10")
    return psi


def _leakage(phi0: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """1 - |<phi0|psi>|^2 for a state or for each column of psi, clipped to
    [0, 1] against roundoff."""
    return np.clip(1.0 - np.abs(phi0 @ psi) ** 2, 0.0, 1.0)


def transition_probability(psi: np.ndarray, model: ReducedHamiltonian) -> float:
    """P = 1 - |<phi0(1)|psi>|^2, clipped to [0, 1] against roundoff."""
    return float(_leakage(ground_state(model, 1.0), psi))


def tau_sweep(model: ReducedHamiltonian, taus: np.ndarray,
              cfg: EvolutionConfig = EvolutionConfig()) -> SweepResult:
    """Leakage probability P(tau) for every tau, order-aligned with taus."""
    taus = np.asarray(taus, float)
    if np.any(taus <= 0):
        raise ValueError("all taus must be positive")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("taus must strictly increase")
    probs = _leakage(ground_state(model, 1.0), _evolve_batch(model, taus, cfg))
    return SweepResult(taus=taus.copy(), probs=probs,
                       model_label=model.label, config=cfg)


def evolve_two_level(trace: GapTrace, tau: float, m: int = 1,
                     rtol: float = 1e-10) -> TwoLevelAmplitudes:
    """Integrate the eigenbasis amplitude equations along the trace:

        dC0/ds = -m C1 gamma/Delta
        dC1/ds =  C0 gamma/Delta - i tau Delta C1

    starting from C0=1, C1=0 (ground-state energy shifted to zero, so only
    the gap enters the phase).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    coup = trace.coupling_spline()
    dspl = trace.delta_spline()

    def rhs(s, y):
        c0, c1 = y
        k = coup(s)
        return [-m * c1 * k, c0 * k - 1j * tau * dspl(s) * c1]

    sol = solve_ivp(rhs, (0.0, 1.0), np.array([1.0 + 0j, 0.0 + 0j]),
                    method="DOP853", rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise ConvergenceError(f"two-level integration failed: {sol.message}")
    c0, c1 = sol.y[:, -1]
    if abs(c0) ** 2 + m * abs(c1) ** 2 > 1.0 + 1e-6:
        raise ConvergenceError("two-level amplitudes exceed unit probability")
    return TwoLevelAmplitudes(c0=complex(c0), c1=complex(c1), m=m)
