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
  spectrum's `_eigs`, the package's one eigensolver, whose docstring says
  which routine takes these full spectra;
- the phases exp(-i tau w / n) of the whole chunk are formed for every tau
  at once, by table products on the tau lattice: evenly spaced taus are
  tau = rows[p] + cols[r] on a ceil(sqrt ntau)-wide grid, so cos and sin run
  on the two tables and each phase is one complex product of two entries;
  any other tau set is the degenerate lattice (one column), whose phases
  are direct cos and sin (see _tau_lattice and _phases);
- the chunk's exponentials act on the state in turn, each as two real matrix
  products on the float view of the complex state (the eigenvectors are
  real) around the phase multiplication, written in place into two buffers
  allocated once per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# unused, importable for perfbench/tracing.py's wrappers until ROADMAP item 5
from scipy.linalg import eigh, eigh_tridiagonal  # noqa: F401
from .models import ReducedHamiltonian, hamiltonian_at, tridiagonal_bands  # noqa: F401
from .models import _check_int, _check_real
from .spectrum import _check_gap, _eigs, _two_lowest


class ConvergenceError(RuntimeError):
    """Step-doubling did not converge within the substep budget."""


# substeps of the first doubling level
_INITIAL_STEPS = 256
# Bytes of the arrays held for one chunk of exponentials: a flat peak
# resident set at a negligible per-chunk Python overhead.
_WORKSPACE_BYTES = 1 << 20


@dataclass(frozen=True)
class EvolutionConfig:
    """Levels double from _INITIAL_STEPS up to max_steps; each tau is accepted
    at the first level whose final state moves by < step_tolerance in 2-norm,
    so max_steps must reach the second level."""
    step_tolerance: float = 1e-8
    max_steps: int = 1 << 22

    def __post_init__(self):
        _check_real("step_tolerance", self.step_tolerance, positive=True)
        _check_int("max_steps", self.max_steps)
        if self.max_steps < 2 * _INITIAL_STEPS:
            raise ValueError(
                f"max_steps must be at least {2 * _INITIAL_STEPS}, got {self.max_steps}")


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


def ground_state(model: ReducedHamiltonian, s: float) -> np.ndarray:
    """Normalized lowest eigenvector of H(s); sign fixed so the largest-
    magnitude entry is positive.  DegenerateGroundStateError when the two
    lowest levels coincide (`spectrum._check_gap`)."""
    vals, vecs = _two_lowest(model, s)
    _check_gap(s, vals[0], vals[1])
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


def _tau_lattice(taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) with taus[j] = rows[j // q] + cols[j % q], q = len(cols).

    Evenly spaced taus (more than three, each within 4 ulp of
    taus[0] + j delta) give q = ceil(sqrt(ntau)), rows = taus[::q] and
    cols = r delta; any other set is the degenerate lattice rows = taus,
    cols = [0]."""
    m = len(taus)
    if m > 3:
        delta = (taus[-1] - taus[0]) / (m - 1)
        off = np.abs(taus - (taus[0] + np.arange(m) * delta))
        if np.all(off <= 4 * np.spacing(np.abs(taus))):
            q = math.isqrt(m - 1) + 1
            return taus[::q], np.arange(q) * delta
    return taus, np.zeros(1)


def _expi(w: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """exp(i w rate), shape w.shape + rate.shape, as cos + i sin written into
    one complex array: the same values as np.exp, without complex
    temporaries, in about 0.6 the time."""
    out = np.empty(w.shape + rate.shape, complex)
    np.multiply(w[..., None], rate, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def _phases(w: np.ndarray, rows: np.ndarray, cols: np.ndarray, n_substeps: int,
            m: int) -> np.ndarray:
    """exp(-i w tau / n_substeps) for the first m taus of the lattice
    tau = rows[p] + cols[r] (see _tau_lattice), shape w.shape + (m,).

    The phase is the table product A_p B_r of A_p = exp(-i w rows[p] / n)
    and B_r = exp(-i w cols[r] / n), the table-product method for FFT
    twiddle factors (Van Loan, Computational Frameworks for the FFT, 1992,
    section 1.4): trigonometry on rows + cols angles per eigenvalue, not m.
    The degenerate lattice has B = 1, so its phases are A, direct cos and
    sin of every tau."""
    a = _expi(w, -rows / n_substeps)
    if len(cols) == 1:
        return a
    b = _expi(w, -cols / n_substeps)
    return (a[..., :, None] * b[..., None, :]).reshape(w.shape + (-1,))[..., :m]


def _chunk_size(dim: int, rows: int, cols: int) -> int:
    """Exponentials per chunk: those whose real matrix and eigenvector stacks
    and complex phases fit in _WORKSPACE_BYTES.  The phases of one
    eigenvalue are charged rows for the degenerate lattice (cols = 1, whose
    phases are the table A of _phases), and otherwise rows + cols for the
    tables A and B and rows x cols for their product.  The state and the
    buffer the in-place GEMMs write into are allocated once per level and
    not charged."""
    phases = rows if cols == 1 else rows * cols + rows + cols
    per_exp = 16 * dim * phases + 16 * dim * dim
    return max(2, _WORKSPACE_BYTES // per_exp)


def _propagate(model: ReducedHamiltonian, taus: np.ndarray, n_substeps: int,
               psi0: np.ndarray) -> np.ndarray:
    """CF4-evolve one initial state for every tau at once with n_substeps
    exponentials, chunk by chunk (see the module docstring); returns
    dim x ntau."""
    g = (np.asarray(model.schedule(_cf4_nodes(n_substeps)), float) @ _CF4_WEIGHTS.T).ravel()
    taus = np.asarray(taus, float)
    rows, cols = _tau_lattice(taus)
    chunk = _chunk_size(model.dim, len(rows), len(cols))
    # the eigenvectors are real, so each exponential's two basis changes are
    # real GEMMs on the float view of the complex state, written into fixed
    # buffers: half the flops of promoting v to complex, no per-step arrays
    psi = np.tile(psi0.astype(complex)[:, None], (1, len(taus))).view(float)
    x = np.empty_like(psi)
    xc = x.view(complex)
    for i0 in range(0, n_substeps, chunk):
        w, v = _eigs(model, g[i0:i0 + chunk])
        for vk, pk in zip(v, _phases(w, rows, cols, n_substeps, len(taus))):
            np.matmul(vk.T, psi, out=x)
            xc *= pk
            np.matmul(vk, x, out=psi)
    return psi.view(complex)


def _evolve_batch(model, taus, cfg):
    """Final states (dim x ntau), each tau accepted on its own error."""
    psi0 = ground_state(model, 0.0)
    n = _INITIAL_STEPS
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


def _leakage(phi0: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """1 - |<phi0|psi>|^2 for a state or each column of psi, as the squared norm
    of psi's part orthogonal to phi0 (no cancellation at small P), at most 1."""
    excited = psi - np.multiply.outer(phi0, phi0 @ psi)
    return np.minimum(np.linalg.norm(excited, axis=0) ** 2, 1.0)


def tau_sweep(model: ReducedHamiltonian, taus: np.ndarray,
              cfg: EvolutionConfig = EvolutionConfig()) -> SweepResult:
    """Leakage probability P(tau) for every tau, order-aligned with taus."""
    taus = np.asarray(taus, float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError(f"taus must be a non-empty 1-d array, got shape {taus.shape}")
    if not np.all((taus > 0) & (taus < math.inf)):
        raise ValueError("all taus must be positive and finite")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("taus must strictly increase")
    probs = _leakage(ground_state(model, 1.0), _evolve_batch(model, taus, cfg))
    return SweepResult(taus=taus.copy(), probs=probs,
                       model_label=model.label, config=cfg)
