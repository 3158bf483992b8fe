"""Direct integration of i dpsi/ds = tau H(s) psi and derived sweep utilities.

The integrator is the fourth-order commutator-free Magnus scheme CF4
(Blanes & Moan, Appl. Numer. Math. 56 (2006) 1519; Alvermann & Fehske,
J. Comput. Phys. 230 (2011) 5930).  Each step of width h applies two
exponentials of weighted sums of H at the step's two Gauss nodes.  Every
model is affine in its schedule g(s), so each exponential is the exact
propagator exp(-i tau h/2 H(g_eff)) of H at an effective schedule value,
obtained by eigendecomposition of the small reduced matrix; the norm is kept
to machine precision.  A level of n substeps is n exponentials (n/2 steps).
Levels double, and each tau is accepted at the first level whose final state
differs from the previous level's by less than step_tolerance in 2-norm; later
levels evolve only the taus still open, sharing each level's eigendecompositions
among them, so a sweep costs little more than one evolution.

One pipeline serves every model.  The schedule is evaluated at all Gauss
nodes of a level in one call, and the level is worked through in chunks of
consecutive exponentials whose workspace is capped:

- the chunk's matrices h0 + g_eff (h1 - h0) are eigendecomposed by
  spectrum's `_eigs`, the package's one eigensolver (for these full spectra,
  one batched dense eigh, or eigh_tridiagonal per matrix for tridiagonal
  models above dimension 32);
- the phases exp(-i tau w / n) of the whole chunk are formed for every tau
  at once;
- the chunk's exponentials act on the state in turn, each as two real matrix
  products on the float view of the complex state (the eigenvectors are
  real) around the phase multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

# unused, importable for perfbench/tracing.py's wrappers until ROADMAP item 3
from scipy.linalg import eigh, eigh_tridiagonal  # noqa: F401
from .models import ReducedHamiltonian, hamiltonian_at, tridiagonal_bands  # noqa: F401
from .spectrum import _WORKSPACE_BYTES, GapTrace, _eigs, _two_lowest


class ConvergenceError(RuntimeError):
    """Step-doubling did not converge within the substep budget."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Levels double from initial_steps up to max_steps; each tau is accepted
    at the first level whose final state moves by < step_tolerance in 2-norm."""
    step_tolerance: float = 1e-8
    max_steps: int = 1 << 22
    initial_steps: int = 256

    def __post_init__(self):
        if not 0 < self.step_tolerance < math.inf:
            raise ValueError("step_tolerance must be positive and finite")
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
        if not (np.isfinite(self.taus).all() and np.isfinite(self.probs).all()):
            raise ValueError("taus and probabilities must be finite")
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


def _chunk_size(dim: int, ntau: int) -> int:
    """Exponentials per chunk: those whose complex phases for every tau and
    real matrix and eigenvector stacks fit in _WORKSPACE_BYTES."""
    per_exp = 16 * ntau * dim + 16 * dim * dim
    return max(2, _WORKSPACE_BYTES // per_exp)


def _propagate(model: ReducedHamiltonian, taus: np.ndarray, n_substeps: int,
               psi0: np.ndarray) -> np.ndarray:
    """CF4-evolve one initial state for every tau at once with n_substeps
    exponentials, chunk by chunk (see the module docstring); returns
    dim x ntau."""
    g = (np.asarray(model.schedule(_cf4_nodes(n_substeps)), float) @ _CF4_WEIGHTS.T).ravel()
    chunk = _chunk_size(model.dim, len(taus))
    angle_rate = -np.asarray(taus, float) / n_substeps
    psi = np.tile(psi0.astype(complex)[:, None], (1, len(taus)))
    for i0 in range(0, n_substeps, chunk):
        w, v = _eigs(model, g[i0:i0 + chunk])
        # exp(i angle) as cos + i sin written into one complex array: the same
        # values as np.exp, without complex temporaries, in about 0.6 the time
        phases = np.empty(w.shape + angle_rate.shape, complex)
        np.multiply(w[..., None], angle_rate, out=phases.imag)
        np.cos(phases.imag, out=phases.real)
        np.sin(phases.imag, out=phases.imag)
        # the eigenvectors are real, so each exponential's two basis changes
        # are real GEMMs on the float view of the complex state: half the
        # flops of promoting v to complex
        for vk, pk in zip(v, phases):
            x = (vk.T @ psi.view(float)).view(complex)
            x *= pk
            psi = (vk @ x.view(float)).view(complex)
    return psi


def _evolve_batch(model, taus, cfg):
    """Final states (dim x ntau), each tau accepted on its own error."""
    psi0 = ground_state(model, 0.0)
    n = cfg.initial_steps
    prev = _propagate(model, taus, n, psi0)
    final = np.empty_like(prev)
    open_, err = np.arange(len(taus)), np.full(len(taus), np.inf)
    while open_.size and 2 * n <= cfg.max_steps:
        n *= 2
        cur = _propagate(model, taus[open_], n, psi0)
        err = np.linalg.norm(cur - prev, axis=0)
        done = err < cfg.step_tolerance
        final[:, open_[done]] = cur[:, done]
        open_, prev, err = open_[~done], cur[:, ~done], err[~done]
    if open_.size:
        raise ConvergenceError(
            f"CF4 integration not converged at {n} substeps for {open_.size} "
            f"tau (error up to {err.max():.3e}, tolerance {cfg.step_tolerance:.1e})")
    return final


def evolve_schrodinger(model: ReducedHamiltonian, tau: float,
                       cfg: EvolutionConfig = EvolutionConfig()) -> np.ndarray:
    """Final state at s=1 starting from the s=0 ground state."""
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    psi = _evolve_batch(model, np.array([tau]), cfg)[:, 0]
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ConvergenceError("final state norm deviates by more than 1e-10")
    return psi


def _leakage(phi0: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """1 - |<phi0|psi>|^2 for a state or each column of psi, as the squared norm
    of psi's part orthogonal to phi0 (no cancellation at small P), at most 1."""
    excited = psi - np.multiply.outer(phi0, phi0 @ psi)
    return np.minimum(np.linalg.norm(excited, axis=0) ** 2, 1.0)


def transition_probability(psi: np.ndarray, model: ReducedHamiltonian) -> float:
    """P = 1 - |<phi0(1)|psi>|^2, computed as in _leakage."""
    return float(_leakage(ground_state(model, 1.0), psi))


def tau_sweep(model: ReducedHamiltonian, taus: np.ndarray,
              cfg: EvolutionConfig = EvolutionConfig()) -> SweepResult:
    """Leakage probability P(tau) for every tau, order-aligned with taus."""
    taus = np.asarray(taus, float)
    if not np.all((taus > 0) & (taus < math.inf)):
        raise ValueError("all taus must be positive and finite")
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
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
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
