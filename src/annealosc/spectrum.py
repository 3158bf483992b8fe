"""Spectral-gap traces, avoided-crossing extraction, and gap integrals.

Conventions: Delta(s) = lambda1 - lambda0 > 0, gamma(s) = <phi0|dH/ds|phi1>
with a sign-continuous eigenvector gauge, and rho(s) = gamma(s)/Delta(s)**2.

`_eigs` is the package's one eigensolver: `gap_trace`, the scalar helpers and
evolve's propagator all call it.  It has three cases:

- the lowest levels of a tridiagonal model, at any dimension, by LAPACK
  bisection and inverse iteration (dstebz/dstein) per matrix;
- all levels of a tridiagonal model above dimension 32 by eigh_tridiagonal
  per matrix;
- all other decompositions (dense models, full spectra up to dimension 32)
  by batched dense eigh.

Every lowest pair it returns is residual-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, interpolate, optimize
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

from .models import ReducedHamiltonian
# unused, importable for perfbench/tracing.py's wrappers until ROADMAP item 7
from scipy.linalg import eigh  # noqa: F401
from .models import hamiltonian_at, tridiagonal_bands  # noqa: F401


class DegenerateGroundStateError(RuntimeError):
    """Raised when the two lowest levels coincide (Delta <= 0)."""


# Full spectra (evolve's exponentials) of tridiagonal models up to this
# dimension are computed by batched dense np.linalg.eigh, larger ones by
# eigh_tridiagonal per matrix.  Microseconds per matrix, stacks of 128 (2 vCPUs,
# one BLAS thread; ranges are two runs):
#   d                   13   17   29   31      33   41        85
#   batched eigh        19   34   58   65-92   96   138-202   860
#   eigh_tridiagonal    41   56   67   74-112  81   170-176   504
_DENSE_EIGH_MAX_DIM = 32
# Bytes of the arrays held for one batch of matrices (in evolve, one chunk):
# a flat peak resident set at a negligible per-batch Python overhead.
_WORKSPACE_BYTES = 1 << 20

# The lowest pairs of a tridiagonal model at any dimension come from LAPACK's
# bisection (dstebz) and inverse iteration (dstein), called directly: scipy's
# eigh_tridiagonal runs the same two routines behind argument validation that
# costs about as much as they do at these sizes.  Microseconds per matrix for
# the lowest 2 pairs, residual check included, stacks of 128 (2 vCPUs, one
# BLAS thread; ranges are two runs):
#   d                              17   25      41        65
#   _lowest_tridiagonal            18   28-34   41-42     69-77
#   batched eigh (all d pairs)     26   58-80   154-168   427-439
#   eigh_tridiagonal, select "i"   46   60      66-72     91-118
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), dtype=np.float64)


def _lowest_tridiagonal(diag: np.ndarray, off: np.ndarray, m: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Lowest m eigenvalues (k, m) and eigenvectors (k, d, m), ascending, of
    the k symmetric tridiagonal matrices with diagonals diag (k, d) and
    off-diagonals off (k, d - 1); each pair checked to
    ||Hv - lv|| <= 1e-10 max(max|l|, 1)."""
    k, d = diag.shape
    w, v = np.empty((k, m)), np.empty((k, d, m))
    for i in range(k):
        # range 2 = by index (il..iu, 1-based), abstol 0 (LAPACK's default);
        # order "B" (by split-off block) is the order dstein takes
        found, wi, iblock, isplit, info = _STEBZ(diag[i], off[i], 2, 0.0, 0.0,
                                                 1, m, 0.0, "B")
        if info == 0 and found == m:
            vi, info = _STEIN(diag[i], off[i], wi[:m], iblock, isplit)
        if info or found != m:
            raise np.linalg.LinAlgError(
                f"tridiagonal eigensolver failed (info {info}, {found} of {m} pairs)")
        w[i], v[i] = wi[:m], vi
        # a zero off-diagonal (h1 of a qubit model is diagonal) splits the
        # matrix into blocks, and block order need not be ascending
        if isplit[0] < d:
            order = np.argsort(w[i])
            w[i], v[i] = w[i, order], v[i][:, order]
    r = (diag[..., None] - w[:, None, :]) * v  # Hv - lv, band by band
    r[:, :-1] += off[..., None] * v[:, 1:]
    r[:, 1:] += off[..., None] * v[:, :-1]
    resid = np.sqrt(np.einsum("kim,kim->km", r, r))
    if not (resid <= 1e-10 * np.maximum(np.abs(w).max(axis=1, keepdims=True), 1.0)).all():
        raise RuntimeError(f"eigensolver residual too large: {np.nanmax(resid):.3e}")
    return w, v


def _eigs(model: ReducedHamiltonian, g, lowest: int | None = None
          ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (k, m) and eigenvectors (k, d, m) of H = h0 + g (h1 - h0)
    at the k schedule values g, ascending: all d levels, or the `lowest` m.

    - lowest m of a tridiagonal model: `_lowest_tridiagonal`, at any dimension;
    - all levels of a tridiagonal model above _DENSE_EIGH_MAX_DIM:
      eigh_tridiagonal per matrix;
    - otherwise (dense models, smaller tridiagonal full spectra): batched
      dense eigh, in batches whose stacks fit in _WORKSPACE_BYTES.

    Every lowest-m pair is checked to ||Hv - lv|| <= 1e-10 max(max|l|, 1).
    """
    g = np.asarray(g, float)
    if not np.isfinite(g).all():
        raise ValueError("schedule values must be finite")
    d, m = model.dim, lowest or model.dim
    h0, h1 = model.h0, model.h1
    if model.tridiagonal and (lowest is not None or d > _DENSE_EIGH_MAX_DIM):
        diag = h0.diagonal() + g[:, None] * (h1.diagonal() - h0.diagonal())
        off = h0.diagonal(1) + g[:, None] * (h1.diagonal(1) - h0.diagonal(1))
        if lowest is not None:
            return _lowest_tridiagonal(diag, off, m)
        w, v = np.empty((len(g), d)), np.empty((len(g), d, d))
        for k in range(len(g)):
            w[k], v[k] = eigh_tridiagonal(diag[k], off[k])
        return w, v
    dh = h1 - h0
    w, v = np.empty((len(g), m)), np.empty((len(g), d, m))
    batch = max(1, _WORKSPACE_BYTES // (16 * d * d))  # matrix and vector stacks
    for i in range(0, len(g), batch):
        h = h0 + g[i:i + batch, None, None] * dh
        wb, vb = np.linalg.eigh(h)
        w[i:i + batch], v[i:i + batch] = wb[:, :m], vb[..., :m]
        if lowest is not None:
            resid = np.linalg.norm(h @ vb[..., :m] - vb[..., :m] * wb[:, None, :m], axis=1)
            scale = np.maximum(np.abs(wb).max(axis=1), 1.0)  # ||H||_2
            if np.any(resid > 1e-10 * scale[:, None]):
                raise RuntimeError(f"eigensolver residual too large: {resid.max():.3e}")
    return w, v


def _two_lowest(model: ReducedHamiltonian, s: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    w, v = _eigs(model, np.atleast_1d(model.schedule(s)), 2)
    return w[0], v[0]


def gap_at(model: ReducedHamiltonian, s: float) -> float:
    vals, _ = _two_lowest(model, s)
    return float(vals[1] - vals[0])


@dataclass(frozen=True)
class GapTrace:
    """Spectral data sampled on an increasing s grid covering [0, 1].

    Eigenvector signs are fixed so successive overlaps are positive, which
    makes gamma(s) continuous on the grid, and at s = 0 so that the ground
    state's largest-magnitude entry (as in `ground_state`) and gamma are not
    negative, whatever the eigensolver.  gauge_continuous is False when an
    |overlap| is below 1/sqrt(2) (over 45 degrees of turn in one cell): the
    grid is too coarse to trust the signs, and `coupling_spline` refuses the
    trace.  The vectors are kept (dim x npoints per level) for cross checks
    and endpoint gauges.
    """

    s: np.ndarray
    lambda0: np.ndarray
    lambda1: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    rho: np.ndarray
    vec0: np.ndarray = field(repr=False)
    vec1: np.ndarray = field(repr=False)
    model: ReducedHamiltonian = field(repr=False)
    gauge_continuous: bool

    def __post_init__(self):
        if self.s[0] != 0.0 or self.s[-1] != 1.0 or np.any(np.diff(self.s) <= 0):
            raise ValueError("s grid must strictly increase from 0 to 1")
        if np.any(self.delta <= 0):
            raise DegenerateGroundStateError("nonpositive gap in trace")
        for a in (self.s, self.lambda0, self.lambda1, self.delta, self.gamma,
                  self.rho, self.vec0, self.vec1):
            a.setflags(write=False)

    def delta_spline(self):
        return interpolate.CubicSpline(self.s, self.delta)

    def coupling_spline(self):
        """Cubic spline of gamma(s)/Delta(s); refused when the gauge is not
        continuous, since gamma's sign may then flip between grid points."""
        if not self.gauge_continuous:
            raise ValueError(
                "eigenvector gauge not continuous on this grid (an eigenvector "
                "turns over 45 degrees in one cell): gamma's sign is not "
                "trustworthy; trace with more n_points")
        return interpolate.CubicSpline(self.s, self.gamma / self.delta)


def _crossing_refine_grid(s_grid: np.ndarray, delta: np.ndarray, n_extra: int) -> np.ndarray:
    """Extra sample points clustered around the interior gap minimum, none
    closer to a coarse point than 1e-9 of the coarse cell it falls in."""
    i = int(np.argmin(delta))
    if i == 0 or i == len(s_grid) - 1:
        return np.empty(0)
    g = delta[i]
    # refine over the region where Delta < 4g, padded by one coarse cell
    below = np.where(delta < 4 * g)[0]
    lo = s_grid[max(below.min() - 1, 0)]
    hi = s_grid[min(below.max() + 1, len(s_grid) - 1)]
    extra = np.linspace(lo, hi, n_extra + 2)[1:-1]
    # a refinement point that should coincide with a coarse point can land a
    # rounding error away from it; kept, the pair would make a cell so small
    # that locate_crossing brackets the minimum inside it
    j = np.searchsorted(s_grid, extra)  # s_grid[j-1] < extra <= s_grid[j]
    left, right = extra - s_grid[j - 1], s_grid[j] - extra
    return extra[np.minimum(left, right) > 1e-9 * (left + right)]


def gap_trace(model: ReducedHamiltonian, grid: np.ndarray | None = None,
              n_points: int = 201, refine: bool = True,
              n_refine: int = 160) -> GapTrace:
    """Sample the two lowest levels along s with a sign-continuous gauge.

    A uniform base grid is used unless `grid` is given; when `refine` is set
    and the gap has an interior minimum, extra points are inserted around it.
    The grid and the refinement points are each decomposed in one batch.
    """
    if grid is None:
        if n_points < 64:
            raise ValueError("need at least 64 grid points")
        grid = np.linspace(0.0, 1.0, n_points)
    grid = np.asarray(grid, float)
    if grid[0] != 0.0 or grid[-1] != 1.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must strictly increase from 0 to 1")

    lam, vecs = _eigs(model, model.schedule(grid), 2)
    if np.any(lam[:, 1] <= lam[:, 0]):
        raise DegenerateGroundStateError("nonpositive gap on coarse grid")
    extra = _crossing_refine_grid(grid, lam[:, 1] - lam[:, 0], n_refine) if refine else grid[:0]
    if extra.size:
        lam_x, vecs_x = _eigs(model, model.schedule(extra), 2)
        order = np.argsort(np.concatenate([grid, extra]))
        grid, lam, vecs = (np.concatenate(pair)[order] for pair in
                           ((grid, extra), (lam, lam_x), (vecs, vecs_x)))

    overlap = np.einsum("kil,kil->kl", vecs[:-1], vecs[1:])
    vecs[1:] *= np.cumprod(np.where(overlap < 0, -1.0, 1.0), axis=0)[:, None, :]
    if vecs[0, np.argmax(np.abs(vecs[0, :, 0])), 0] < 0:
        vecs[..., 0] *= -1.0
    gamma = model.schedule_deriv(grid) * np.einsum(
        "ki,ki->k", vecs[..., 0] @ (model.h1 - model.h0), vecs[..., 1])
    if gamma[0] < 0:
        vecs[..., 1] *= -1.0
        gamma = -gamma

    delta = lam[:, 1] - lam[:, 0]
    return GapTrace(s=grid, lambda0=lam[:, 0], lambda1=lam[:, 1], delta=delta,
                    gamma=gamma, rho=gamma / delta**2, vec0=vecs[..., 0].T,
                    vec1=vecs[..., 1].T, model=model,
                    gauge_continuous=bool(np.abs(overlap).min() >= math.sqrt(0.5)))


@dataclass(frozen=True)
class CrossingParams:
    """Avoided-crossing descriptors and gap integrals.

    kind is "avoided" when the gap dips below half its flank value (Delta
    reaches 2g on both sides of the minimum), "large-gap" when an interior
    minimum exists but stays shallow, and "none" when Delta is monotone.
    v is NaN unless kind == "avoided".
    """

    kind: str
    s_star: float
    g: float
    v: float
    omega_minus: float
    omega_plus: float

    @property
    def omega(self) -> float:
        return self.omega_minus + self.omega_plus


def locate_crossing(trace: GapTrace, s_tol: float = 1e-8,
                    quad_tol: float = 1e-10) -> CrossingParams:
    """Refine the gap minimum, classify it, and integrate the gap.

    The minimum is refined by bounded scalar minimization of Delta(s) between
    the bracketing grid points.  The Landau-Zener slope v is read off the
    curvature of Delta**2 at the minimum, v = sqrt((Delta**2)''(s*) / 2),
    which is exact for the Landau-Zener gap sqrt(g**2 + v**2 (s - s*)**2) and
    insensitive to where the crossing region ends.  (The straight flanks of
    the gap curve never reach the asymptotic slope when the crossing region
    is narrow, so a flank-line fit systematically underestimates v.)
    omega_-/omega_+ come from adaptive quadrature of Delta split at s*.
    """
    model = trace.model
    i = int(np.argmin(trace.delta))
    monotone = i == 0 or i == len(trace.s) - 1
    if monotone:
        omega, _ = integrate.quad(lambda s: gap_at(model, s), 0.0, 1.0,
                                  epsabs=quad_tol, limit=200)
        return CrossingParams(kind="none", s_star=math.nan, g=float(trace.delta.min()),
                              v=math.nan, omega_minus=omega, omega_plus=0.0)

    lo, hi = trace.s[i - 1], trace.s[i + 1]
    res = optimize.minimize_scalar(lambda s: gap_at(model, s), bounds=(lo, hi),
                                   method="bounded", options={"xatol": s_tol})
    s_star = float(res.x)
    g = float(gap_at(model, s_star))

    omega_minus, _ = integrate.quad(lambda s: gap_at(model, s), 0.0, s_star,
                                    epsabs=quad_tol, limit=200)
    omega_plus, _ = integrate.quad(lambda s: gap_at(model, s), s_star, 1.0,
                                   epsabs=quad_tol, limit=200)

    # half width at Delta = 2g; absent on either side -> shallow (large-gap) dip
    def rises_to(target, a, b):
        fa = gap_at(model, a) - target
        fb = gap_at(model, b) - target
        if fa * fb > 0:
            return None
        return float(optimize.brentq(lambda s: gap_at(model, s) - target, a, b,
                                     xtol=1e-10))
    left = rises_to(2 * g, 0.0, s_star) if gap_at(model, 0.0) > 2 * g else None
    right = rises_to(2 * g, s_star, 1.0) if gap_at(model, 1.0) > 2 * g else None
    if left is None or right is None:
        return CrossingParams(kind="large-gap", s_star=s_star, g=g, v=math.nan,
                              omega_minus=omega_minus, omega_plus=omega_plus)

    w = max(s_star - left, right - s_star)
    # curvature of Delta**2 at the minimum: exact second difference for the
    # Landau-Zener parabola, sampled well inside the crossing region
    h = min(w / 4.0, s_star, 1.0 - s_star)
    curv = (gap_at(model, s_star + h) ** 2 - 2.0 * g**2
            + gap_at(model, s_star - h) ** 2) / h**2
    v = math.sqrt(max(curv / 2.0, 0.0))
    return CrossingParams(kind="avoided", s_star=s_star, g=g, v=v,
                          omega_minus=omega_minus, omega_plus=omega_plus)


def nobarrier_gap(s, mu: float):
    """Closed-form no-barrier gap sqrt(1 - 2s + (1 + mu) s**2)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    s = np.asarray(s, float)
    if np.any(s < 0) or np.any(s > 1):
        raise ValueError("s must lie in [0, 1]")
    out = np.sqrt(1.0 - 2.0 * s + (1.0 + mu) * s**2)
    return float(out) if out.ndim == 0 else out


def rho_endpoints(trace: GapTrace) -> tuple[float, float]:
    """Signed rho(0), rho(1) under the trace's continuous gauge."""
    return float(trace.rho[0]), float(trace.rho[-1])

