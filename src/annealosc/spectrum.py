"""Spectral-gap traces, avoided-crossing extraction, and gap integrals.

Conventions: Delta(s) = lambda1 - lambda0 > 0, gamma(s) = <phi0|dH/ds|phi1>
with a sign-continuous eigenvector gauge, and rho(s) = gamma(s)/Delta(s)**2.
A gap of at most 1e-12 max(|lambda1|, 1) is a degenerate ground state
(`_check_gap`), in a trace as in evolve's initial and final states.

`_eigs` is the package's one eigensolver: `gap_trace`, the scalar helpers and
evolve's propagator all call it, and its docstring says which routine serves
which request.  The Gauss-Kronrod nodes and curvature points of
`locate_crossing` take the lowest eigenvalues alone.

`locate_crossing` finds the gap minimum s* and the two points where the gap
is 2g as roots, using the slope Delta'(s) that Hellmann-Feynman gives from the
eigenvectors of each eigensolve: s* by safeguarded secant steps from the trace
cell where the trace's own slopes change sign, the 2g points by Newton steps,
both sides in one batch.  It integrates the gap by QUADPACK's 21-point
Gauss-Kronrod rule on adaptively bisected panels graded out from s*; each
round of nodes is one values-only `_eigs` batch, and omega_- and omega_+ are
each within _QUAD_TOL absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .models import ReducedHamiltonian, _check_int, _check_s
# unused, importable for perfbench/tracing.py's wrappers until ROADMAP item 5
from scipy.linalg import eigh, eigh_tridiagonal  # noqa: F401
from .models import hamiltonian_at, tridiagonal_bands  # noqa: F401


class DegenerateGroundStateError(RuntimeError):
    """Raised when the two lowest levels coincide (see `_check_gap`)."""


def _check_gap(s, lambda0, lambda1) -> None:
    """Raise DegenerateGroundStateError at the first point s where the two
    lowest levels lambda0 <= lambda1 coincide to rounding:
    Delta <= 1e-12 max(|lambda1|, 1).  Scalars or arrays of one shape."""
    s, lambda0, lambda1 = (np.atleast_1d(x) for x in (s, lambda0, lambda1))
    bad = np.flatnonzero(lambda1 - lambda0 <= 1e-12 * np.maximum(np.abs(lambda1), 1.0))
    if bad.size:
        raise DegenerateGroundStateError(f"ground state degenerate at s={s[bad[0]]}")


# Every model is a symmetric tridiagonal pair; its lowest pairs come from
# _lowest_tridiagonal at any dimension.  Full spectra (evolve's exponentials)
# up to this dimension come from one batched np.linalg.eigh, larger ones from
# LAPACK's dstevd (divide and conquer) per matrix; the two give bitwise-equal
# pairs at every d below, so the bound is only a speed choice.  Microseconds
# per matrix, stacks of 64 (2 vCPUs, one BLAS thread):
#   d                    9    17    25    29    31    33
#   batched eigh        5.7  19.6  45.5  45.5  53.7  77.7
#   _STEVD per matrix   7.0  20.5  46.6  45.3  52.1  59.4
_DENSE_EIGH_MAX_DIM = 32

# The lowest pairs of every model at any dimension come from LAPACK's
# bisection (dstebz) and inverse iteration (dstein), called directly: scipy's
# eigh_tridiagonal runs the same two routines behind argument validation that
# costs about as much as they do at these sizes.  Microseconds per matrix for
# the lowest 2 pairs, residual check included, stacks of 128 (2 vCPUs, one
# BLAS thread; ranges are two runs):
#   d                              17   25      41        65
#   _lowest_tridiagonal            18   28-34   41-42     69-77
#   batched eigh (all d pairs)     26   58-80   154-168   427-439
#   eigh_tridiagonal, select "i"   46   60      66-72     91-118
_STEBZ, _STEIN, _STEVD = get_lapack_funcs(("stebz", "stein", "stevd"),
                                         dtype=np.float64)


def _lowest_tridiagonal(diag: np.ndarray, off: np.ndarray, m: int, vectors: bool = True
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """Lowest m eigenvalues (k, m) and eigenvectors (k, d, m), ascending, of
    the k symmetric tridiagonal matrices with diagonals diag (k, d) and
    off-diagonals off (k, d - 1); each pair checked to
    ||Hv - lv|| <= 1e-10 max(max|l|, 1).  Without vectors, the eigenvalues
    come from bisection alone and None takes the vectors' place."""
    k, d = diag.shape
    w = np.empty((k, m))
    v = np.empty((k, d, m)) if vectors else None
    for i in range(k):
        # range 2 = by index (il..iu, 1-based), abstol 0 (LAPACK's default);
        # order "B" (by split-off block) is the order dstein takes
        found, wi, iblock, isplit, info = _STEBZ(diag[i], off[i], 2, 0.0, 0.0,
                                                 1, m, 0.0, "B")
        if vectors and info == 0 and found == m:
            vi, info = _STEIN(diag[i], off[i], wi[:m], iblock, isplit)
        if info or found != m:
            raise np.linalg.LinAlgError(
                f"tridiagonal eigensolver failed (info {info}, {found} of {m} pairs)")
        # a zero off-diagonal (h1 of a qubit model is diagonal) splits the
        # matrix into blocks, and block order need not be ascending
        order = np.argsort(wi[:m]) if isplit[0] < d else slice(None)
        w[i] = wi[:m][order]
        if vectors:
            v[i] = vi[:, order]
    if not vectors:
        return w, None
    r = (diag[..., None] - w[:, None, :]) * v  # Hv - lv, band by band
    r[:, :-1] += off[..., None] * v[:, 1:]
    r[:, 1:] += off[..., None] * v[:, :-1]
    resid = np.sqrt(np.einsum("kim,kim->km", r, r))
    if not (resid <= 1e-10 * np.maximum(np.abs(w).max(axis=1, keepdims=True), 1.0)).all():
        raise RuntimeError(f"eigensolver residual too large: {np.nanmax(resid):.3e}")
    return w, v


def _eigs(model: ReducedHamiltonian, g, lowest: int | None = None, vectors: bool = True
          ) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (k, m) and eigenvectors (k, d, m) of H = h0 + g (h1 - h0)
    at the k schedule values g, ascending: all d levels, or the `lowest` m.
    With vectors=False (lowest levels only) the eigenvalues come alone, as
    (w, None).

    Every model is a symmetric tridiagonal pair, so the routine follows from
    the request and the dimension alone:

    - lowest m, at any dimension: LAPACK bisection and inverse iteration
      (dstebz/dstein) per matrix, `_lowest_tridiagonal`, which checks each
      pair to ||Hv - lv|| <= 1e-10 max(max|l|, 1).  Values only come from
      bisection alone, which fixes each eigenvalue by its Sturm counts
      (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386), so they are
      bitwise the values of the pairs;
    - all levels up to _DENSE_EIGH_MAX_DIM: one batched dense
      np.linalg.eigh;
    - all levels above it: LAPACK's dstevd per matrix, the routine scipy's
      eigh_tridiagonal runs for a full spectrum, called directly (_STEVD).

    A LAPACK failure raises LinAlgError.
    """
    g = np.asarray(g, float)
    if not np.isfinite(g).all():
        raise ValueError("schedule values must be finite")
    if not vectors and lowest is None:
        raise ValueError("eigenvalues alone are computed for the lowest levels only")
    h0, h1 = model.h0, model.h1
    if lowest is None and model.dim <= _DENSE_EIGH_MAX_DIM:
        return np.linalg.eigh(h0 + g[:, None, None] * (h1 - h0))
    diag = h0.diagonal() + g[:, None] * (h1.diagonal() - h0.diagonal())
    off = h0.diagonal(1) + g[:, None] * (h1.diagonal(1) - h0.diagonal(1))
    if lowest is not None:
        return _lowest_tridiagonal(diag, off, lowest, vectors)
    d = model.dim
    w, v = np.empty((len(g), d)), np.empty((len(g), d, d))
    for k in range(len(g)):
        w[k], v[k], info = _STEVD(diag[k], off[k])
        if info:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info {info})")
    return w, v


def _two_lowest(model: ReducedHamiltonian, s: float) -> tuple[np.ndarray, np.ndarray]:
    _check_s(s)
    w, v = _eigs(model, np.atleast_1d(model.schedule(s)), 2)
    return w[0], v[0]


def gap_at(model: ReducedHamiltonian, s: float) -> float:
    vals, _ = _two_lowest(model, s)
    return float(vals[1] - vals[0])


def _turning_cells(vec0: np.ndarray, vec1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps (k - 1, 2) of two levels' eigenvectors (d, k) at successive points, and the
    cells where one turns by over 45 degrees (|overlap| < 1/sqrt(2)): its sign there, and
    gamma's, may be wrong."""
    overlap = np.stack([np.einsum("ik,ik->k", v[:, :-1], v[:, 1:]) for v in (vec0, vec1)], 1)
    return overlap, (np.abs(overlap) < math.sqrt(0.5)).any(axis=1)


@dataclass(frozen=True)
class GapTrace:
    """Spectral data sampled on an increasing s grid covering [0, 1].

    Eigenvector signs are fixed so successive overlaps are positive, which
    makes gamma(s) continuous on the grid, and at s = 0 so that the ground
    state's largest-magnitude entry (as in `ground_state`) and gamma are not
    negative, whatever the eigensolver.  A cell where an eigenvector turns by
    over 45 degrees leaves gamma's sign to chance: such a trace raises
    ValueError (`gap_trace` bisects those cells), and a degenerate point
    DegenerateGroundStateError (`_check_gap`).  The vectors are kept (dim x
    npoints per level) for cross checks and endpoint gauges.  delta and rho
    are computed from the other fields, so a `dataclasses.replace` of
    lambda0, lambda1 or gamma keeps them in step.
    """

    s: np.ndarray
    lambda0: np.ndarray
    lambda1: np.ndarray
    delta: np.ndarray = field(init=False)
    gamma: np.ndarray
    rho: np.ndarray = field(init=False)
    vec0: np.ndarray = field(repr=False)
    vec1: np.ndarray = field(repr=False)
    model: ReducedHamiltonian = field(repr=False)

    def __post_init__(self):
        if self.s[0] != 0.0 or self.s[-1] != 1.0 or np.any(np.diff(self.s) <= 0):
            raise ValueError("s grid must strictly increase from 0 to 1")
        _check_gap(self.s, self.lambda0, self.lambda1)
        delta = self.lambda1 - self.lambda0
        if _turning_cells(self.vec0, self.vec1)[1].any():
            raise ValueError("an eigenvector turns over 45 degrees in a trace cell")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "rho", self.gamma / delta**2)
        for a in (self.s, self.lambda0, self.lambda1, self.delta, self.gamma,
                  self.rho, self.vec0, self.vec1):
            a.setflags(write=False)


# rounds of bisection before gap_trace gives up (a default cell then spans 5e-12)
_MAX_BISECTIONS = 30


def gap_trace(model: ReducedHamiltonian, grid: np.ndarray | None = None,
              n_points: int = 201) -> GapTrace:
    """Sample the two lowest levels along s with a sign-continuous gauge.

    The grid starts as `grid`, or as n_points uniform points.  Each round
    then bisects every cell where an eigenvector turns by over 45 degrees
    (`_turning_cells`), until none is left; RuntimeError after
    _MAX_BISECTIONS rounds.  Each set of points is decomposed in one batch.
    """
    if grid is None:
        _check_int("n_points", n_points)
        if n_points < 64:
            raise ValueError("need at least 64 grid points")
        grid = np.linspace(0.0, 1.0, n_points)
    grid = np.asarray(grid, float)
    if grid[0] != 0.0 or grid[-1] != 1.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must strictly increase from 0 to 1")

    lam, vecs = _eigs(model, model.schedule(grid), 2)
    _check_gap(grid, lam[:, 0], lam[:, 1])
    for rounds in range(_MAX_BISECTIONS + 1):
        overlap, turning = _turning_cells(vecs[..., 0].T, vecs[..., 1].T)
        if not turning.any():
            break
        lo, hi = grid[:-1][turning], grid[1:][turning]
        extra = 0.5 * (lo + hi)
        if rounds == _MAX_BISECTIONS or not np.all((lo < extra) & (extra < hi)):
            raise RuntimeError(f"an eigenvector turns over 45 degrees in [{lo[0]:.17g}, "
                               f"{hi[0]:.17g}] after {rounds} rounds of bisection")
        lam_x, vecs_x = _eigs(model, model.schedule(extra), 2)
        order = np.argsort(np.concatenate([grid, extra]))
        grid, lam, vecs = (np.concatenate(pair)[order] for pair in
                           ((grid, extra), (lam, lam_x), (vecs, vecs_x)))

    vecs[1:] *= np.cumprod(np.where(overlap < 0, -1.0, 1.0), axis=0)[:, None, :]
    if vecs[0, np.argmax(np.abs(vecs[0, :, 0])), 0] < 0:
        vecs[..., 0] *= -1.0
    gamma = model.schedule_deriv(grid) * np.einsum(
        "ki,ki->k", vecs[..., 0] @ (model.h1 - model.h0), vecs[..., 1])
    if gamma[0] < 0:
        vecs[..., 1] *= -1.0
        gamma = -gamma

    return GapTrace(s=grid, lambda0=lam[:, 0], lambda1=lam[:, 1], gamma=gamma,
                    vec0=vecs[..., 0].T, vec1=vecs[..., 1].T, model=model)


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


# QUADPACK's 21-point Gauss-Kronrod rule QK21 (Piessens et al., QUADPACK,
# Springer 1983): the Kronrod nodes in (0, 1] and their weights, the node 0
# last, and the 10-point Gauss weights of the nodes at odd positions.
_XK_HALF = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                     0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                     0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                     0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                     0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
                     0.0])
_WK_HALF = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                     0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                     0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                     0.123491976262065851077208980865766, 0.134709217311473325928054001771707,
                     0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                     0.149445554002916905664936468389821])
_WG_HALF = np.array([0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                     0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                     0.295524224714752870173892994651328])
# on [-1, 1], ascending: the Gauss nodes are _XK[1::2]
_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF, _WG_HALF[::-1]])
# panels _gap_integrals may evaluate before it gives up: about what quad with
# limit=200 evaluates on each of two sides.  Bisecting a sharp feature adds
# two panels a round; an unattainable tolerance doubles the open panels each
# round and meets the cap within a few rounds.
_QK_MAX_PANELS = 800


def _gap_integrals(model: ReducedHamiltonian, edges: np.ndarray, groups: np.ndarray,
                   tol: float) -> np.ndarray:
    """Integrals of Delta(s) over groups of panels, to tol absolute per group.

    Panel j is [edges[j], edges[j + 1]] and adds to group groups[j].  Each
    round evaluates the 21 Gauss-Kronrod nodes of every open panel in one
    values-only `_eigs` batch (the lowest two eigenvalues, from bisection
    alone; no eigenvectors), accepts a panel whose QUADPACK error estimate
    is at most its width's share of tol, and bisects the others.  Raises
    RuntimeError rather than evaluate more than _QK_MAX_PANELS panels.
    """
    a, b = edges[:-1], edges[1:]
    share = tol / np.bincount(groups, weights=b - a)  # tolerance per unit width
    total = np.zeros(len(share))
    evaluated = 0
    while len(a):
        evaluated += len(a)
        if evaluated > _QK_MAX_PANELS:
            raise RuntimeError(f"gap integrals not within {tol:g} after "
                               f"{evaluated - len(a)} Gauss-Kronrod panels")
        half = 0.5 * (b - a)
        nodes = 0.5 * (a + b)[:, None] + half[:, None] * _XK
        lam, _ = _eigs(model, model.schedule(nodes.ravel()), 2, vectors=False)
        f = (lam[:, 1] - lam[:, 0]).reshape(nodes.shape)
        kronrod = f @ _WK
        # QUADPACK's error estimate: |K - G| scaled by the variation resasc,
        # at least 50 ulp of the integral of |f|
        resasc = np.abs(f - 0.5 * kronrod[:, None]) @ _WK
        err = np.abs(kronrod - f[:, 1::2] @ _WG)
        err = np.where(resasc > 0, resasc * np.minimum(
            1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5), err)
        err = half * np.maximum(err, 50.0 * np.finfo(float).eps * (np.abs(f) @ _WK))
        done = err <= share[groups] * (b - a)
        total += np.bincount(groups[done], weights=(half * kronrod)[done], minlength=len(total))
        a, b, groups = a[~done], b[~done], groups[~done]
        mid = 0.5 * (a + b)
        a, b, groups = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(groups, 2)
    return total


def _graded(width: float, length: float) -> np.ndarray:
    """Distances width, 4 width, 16 width, ... below length."""
    d = width * 4.0 ** np.arange(max(0, math.ceil(math.log(length / width, 4.0))) + 1)
    return d[d < length]


def _hf_slope(model: ReducedHamiltonian, s: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Delta'(s) = g'(s) (<phi1|h1 - h0|phi1> - <phi0|h1 - h0|phi0>) at the k
    points s from their lowest two eigenvectors vecs (k, d, 2), by
    Hellmann-Feynman (Feynman, Phys. Rev. 56 (1939) 340); any sign gauge."""
    hf = np.einsum("kim,kim->km", vecs, np.matmul(model.h1 - model.h0, vecs))
    return model.schedule_deriv(s) * (hf[:, 1] - hf[:, 0])


def _gap_slope(model: ReducedHamiltonian, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Delta and its Hellmann-Feynman slope at the points s, one `_eigs` batch."""
    lam, vecs = _eigs(model, model.schedule(s), 2)
    return lam[:, 1] - lam[:, 0], _hf_slope(model, s, vecs)


def _secant_root(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """A root of f in [a, b], given fa = f(a) < 0 < fb = f(b), to tol.

    Secant steps through the last two points, starting from the end with the
    smaller |f| and kept inside the bracket around the sign change: as in
    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4), a step that would leave the bracket, or that is not below
    half the step before last, bisects instead.  Once the secant has
    converged on an end of the bracket (a step below tol/2 after another, or
    one that would not leave that end) and the bracket is still wider than
    tol, the next step is tol/2 into it, which closes the bracket around the
    converged point.  Returns the end of the final bracket (at most tol wide,
    or no float between its ends) with the smaller |f|: a point where f was
    evaluated, within tol of a root.
    """
    x0, f0, x1, f1 = (b, fb, a, fa) if abs(fa) < abs(fb) else (a, fa, b, fb)
    before_last = last = b - a
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        x = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else mid
        if abs(x - x1) < 0.5 * tol and (abs(last) < 0.5 * tol or not a < x < b):
            # the secant has converged on x1, an end of the bracket
            x = x1 + math.copysign(0.5 * tol, mid - x1)
            before_last, last = last, x - x1
        elif a < x < b and abs(x - x1) < 0.5 * abs(before_last):
            before_last, last = last, x - x1
        else:
            x = mid
            before_last = last = mid - x1
        if not a < x < b:
            x = mid
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        x0, f0, x1, f1 = x1, f1, x, fx
    return a if abs(fa) <= abs(fb) else b


# a 2g point is accepted once its Newton step is this small
_TWO_G_XTOL = 1e-10
# locate_crossing's bound on |s* - root of Delta'| and its absolute bound on
# each of omega_- and omega_+
_S_TOL = 1e-8
_QUAD_TOL = 1e-10


def _two_g_points(model: ReducedHamiltonian, g: float, lo: np.ndarray, hi: np.ndarray,
                  f_lo: np.ndarray, f_hi: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray
                  ) -> np.ndarray:
    """The points where Delta = 2g, one in each cell [lo, hi] across which
    Delta - 2g changes sign from f_lo to f_hi, with slopes d_lo and d_hi.

    Newton steps on the Hellmann-Feynman slope from each cell's root of the
    cubic Hermite interpolant of Delta - 2g; every side's bracket shrinks to
    its sign change, and a step that leaves it bisects.  All sides are one
    `_eigs` batch a step, until every step is at most _TWO_G_XTOL.
    """
    h = hi - lo
    m_lo, m_hi, df = h * d_lo, h * d_hi, f_hi - f_lo
    x = np.empty_like(lo)
    for k, coeffs in enumerate(zip(m_lo + m_hi - 2.0 * df, 3.0 * df - 2.0 * m_lo - m_hi,
                                   m_lo, f_lo)):
        # the root nearest the real interval [0, 1], which holds at least one
        t = np.roots(coeffs)
        t = t.real[np.argmin(np.abs(t.imag) + np.abs(t.real - np.clip(t.real, 0.0, 1.0)))]
        x[k] = lo[k] + h[k] * min(max(t, 0.0), 1.0)
    for _ in range(60):
        delta, slope = _gap_slope(model, x)
        f = delta - 2.0 * g
        same = np.sign(f) == np.sign(f_lo)
        lo, f_lo = np.where(same, x, lo), np.where(same, f, f_lo)
        hi = np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f == 0.0, 0.0, f / slope)
        new = x - step
        new = np.where((lo < new) & (new < hi) | (step == 0.0), new, 0.5 * (lo + hi))
        if np.all(np.abs(new - x) <= _TWO_G_XTOL):
            return new
        x = new
    raise RuntimeError(f"Delta = 2g points not found within {_TWO_G_XTOL:g} in 60 steps")


def locate_crossing(trace: GapTrace) -> CrossingParams:
    """Refine the gap minimum, classify it, and integrate the gap.

    s* is the root of the Hellmann-Feynman slope Delta'(s) (`_hf_slope`) to
    within _S_TOL, bracketed by the trace cell next to the trace's smallest gap
    where the slopes of the trace's own eigenvectors change sign, and refined
    by safeguarded secant steps of one eigensolve each (`_secant_root`); g is
    Delta there.  The Landau-Zener slope v is read off the curvature of
    Delta**2 at the minimum, v = sqrt((Delta**2)''(s*) / 2), which is exact
    for the Landau-Zener gap sqrt(g**2 + v**2 (s - s*)**2) and insensitive to
    where the crossing region ends.  (The straight flanks of the gap curve
    never reach the asymptotic slope when the crossing region is narrow, so a
    flank-line fit systematically underestimates v.)  Its second difference
    is taken at a quarter of the larger 2g half-width, whose two ends come
    from Newton steps on the same slope, both sides in one batch a step
    (`_two_g_points`).  omega_- and omega_+ each come to within _QUAD_TOL
    absolute from adaptive 21-point Gauss-Kronrod quadrature of Delta on
    panels graded out from s*, the smallest on each side as wide as the 2g
    half-width there (at a large-gap dip, the trace's Delta < 2g
    half-width), every round of nodes decomposed in one batch
    (`_gap_integrals`).  Raises RuntimeError when the slopes at the trace
    points around its smallest gap do not bracket a minimum (a trace too
    coarse there).
    """
    model, s, delta = trace.model, trace.s, trace.delta
    i = int(np.argmin(delta))
    if i == 0 or i == len(s) - 1:
        omega = _gap_integrals(model, np.array([0.0, 1.0]), np.array([0]), _QUAD_TOL)
        return CrossingParams(kind="none", s_star=math.nan, g=float(delta.min()),
                              v=math.nan, omega_minus=float(omega[0]), omega_plus=0.0)

    def trace_slopes(j):
        return _hf_slope(model, s[j], np.stack([trace.vec0[:, j].T, trace.vec1[:, j].T], 2))

    near = np.arange(i - 1, i + 2)
    left_slope, slope, right_slope = trace_slopes(near)
    gaps = {float(s[j]): float(delta[j]) for j in near}

    def gap_slope(x):
        d, sl = _gap_slope(model, np.array([x]))
        gaps[x] = float(d[0])
        return float(sl[0])

    if slope == 0.0:
        s_star = float(s[i])
    elif left_slope < 0.0 < slope:
        s_star = _secant_root(gap_slope, s[i - 1], s[i], left_slope, slope, _S_TOL)
    elif slope < 0.0 < right_slope:
        s_star = _secant_root(gap_slope, s[i], s[i + 1], slope, right_slope, _S_TOL)
    else:
        raise RuntimeError(
            f"gap slopes {left_slope:.3g}, {slope:.3g}, {right_slope:.3g} at the trace "
            f"points around its smallest gap (s = {s[i]:.6g}) bracket no minimum; "
            f"trace with more n_points")
    s_star = float(s_star)
    g = gaps[s_star]

    # the trace points nearest s* on either side where Delta > 2g: the 2g
    # half-width lies in the cell next to each (absent on a side whose end
    # has Delta <= 2g: a shallow, large-gap dip)
    above = delta > 2 * g
    left = np.flatnonzero(above & (s < s_star))[-1] if above[0] else None
    right = np.flatnonzero(above & (s > s_star))[0] if above[-1] else None
    if left is None or right is None:
        # the trace's Delta < 2g half-width on each side, or the whole side
        wl = s_star - s[left] if left is not None else s_star
        wr = s[right] - s_star if right is not None else 1.0 - s_star
    else:
        # the 2g cells, cut at s* (where the slope is 0): Delta - 2g falls
        # from + to - on the left and rises from - to + on the right
        cells = np.array([left, right - 1])
        lo = np.array([s[left], max(s[right - 1], s_star)])
        hi = np.array([min(s[left + 1], s_star), s[right]])
        f_lo = np.where(lo == s_star, g, delta[cells]) - 2 * g
        f_hi = np.where(hi == s_star, g, delta[cells + 1]) - 2 * g
        d_lo = np.where(lo == s_star, 0.0, trace_slopes(cells))
        d_hi = np.where(hi == s_star, 0.0, trace_slopes(cells + 1))
        rise_left, rise_right = _two_g_points(model, g, lo, hi, f_lo, f_hi, d_lo, d_hi).tolist()
        wl, wr = s_star - rise_left, rise_right - s_star

    # panels graded out from s*, the smallest as wide as the half-width on its side
    dl, dr = _graded(wl, s_star), _graded(wr, 1.0 - s_star)
    edges = np.concatenate([[0.0], s_star - dl[::-1], [s_star], s_star + dr, [1.0]])
    groups = np.repeat([0, 1], [len(dl) + 1, len(dr) + 1])
    omega_minus, omega_plus = _gap_integrals(model, edges, groups, _QUAD_TOL).tolist()
    if left is None or right is None:
        return CrossingParams(kind="large-gap", s_star=s_star, g=g, v=math.nan,
                              omega_minus=omega_minus, omega_plus=omega_plus)

    # curvature of Delta**2 at the minimum: exact second difference for the
    # Landau-Zener parabola, sampled well inside the crossing region
    h = min(max(wl, wr) / 4.0, s_star, 1.0 - s_star)
    lam, _ = _eigs(model, model.schedule(np.array([s_star + h, s_star - h])), 2,
                   vectors=False)
    up, down = (lam[:, 1] - lam[:, 0]).tolist()
    curv = (up**2 - 2.0 * g**2 + down**2) / h**2
    v = math.sqrt(max(curv / 2.0, 0.0))
    return CrossingParams(kind="avoided", s_star=s_star, g=g, v=v,
                          omega_minus=omega_minus, omega_plus=omega_plus)


def rho_endpoints(trace: GapTrace) -> tuple[float, float]:
    """Signed rho(0), rho(1) under the trace's continuous gauge."""
    return float(trace.rho[0]), float(trace.rho[-1])

