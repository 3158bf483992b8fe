"""Least-squares estimation of the splitting-ansatz parameters A (and v).

The ansatz is quadratic in A, so the sum of squared residuals is a quartic
in A and its minimum over [0, _A_MAX] is found exactly, from a few dot
products and the roots of a cubic.  Only v is searched: the two-parameter
fit profiles A out of the objective, scans a log-spaced v grid to avoid the
exponentially flat valley in v, and takes the root of the profile's slope in
log v, which the envelope theorem gives in closed form at the optimal A, in
the grid cell where it changes sign.  The whole scan is one vectorised pass
over its v grid (`_exact_A` takes an array of v), and each secant step of the
root is a one-v pass; the terms of the ansatz that do not depend on v are
formed once per fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import SweepResult
from .models import _check_int
from .predict import SplitParams, _lz_decay, _split_terms, predict_split
from .spectrum import _secant_root

# the fitted A lies in [0, _A_MAX]; fit_A_v resolves log v to _V_TOL
_A_MAX = 2.0
_V_TOL = 1e-9


def _fixed_terms(p: SplitParams, taus: np.ndarray,
                 probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, r), the parts of the A fit that do not depend on v: with
    predict's `_split_terms` (a, t, b), S = 2 t / tau and the residual base
    r = probs - m (a - b), the residual at A = 0."""
    a, t, b = _split_terms(p, taus)
    return 2.0 * t / taus, probs - p.m * (a - b)


def _exact_A(v: np.ndarray, g: float, m: int, taus: np.ndarray, s: np.ndarray,
             r: np.ndarray, a_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares A on [0, a_max] at each v of an array, with g, m and the
    terms (S, r) of `_fixed_terms` fixed.

    With e = exp(-pi g^2 tau / (4 v)), predict_split is P = q A^2 + l A + c
    with q = m e^2, l = m e S and c independent of A and v, so the objective
    SSE(A) = sum (r - q A^2 - l A)^2 is a quartic; its minimum on [0, a_max]
    is at an endpoint or at a root of the cubic SSE'(A) inside the interval.
    One NumPy pass serves every v: the cubics' coefficients are row-wise dot
    products and their roots the eigenvalues of a stack of companion
    matrices.  Returns arrays (A, SSE(A), A is an endpoint), one entry per v.
    """
    e = _lz_decay(g, v[:, None], taus)
    q, l = m * e**2, m * e * s
    # SSE'(A) / 2 = 2 qq A^3 + 3 ql A^2 + (ll - 2 qr) A - lr
    coef = np.stack([2.0 * np.einsum("ij,ij->i", q, q), 3.0 * np.einsum("ij,ij->i", q, l),
                     np.einsum("ij,ij->i", l, l) - 2.0 * (q @ r), -(l @ r)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        monic = coef[:, 1:] / coef[:, :1]
    # once e^4 underflows at every tau the leading coefficient vanishes (all
    # four do once e does), and SSE(A) is flat to rounding: those rows try
    # only the endpoints, as np.roots of the zero polynomial does; a stacked
    # eigvals would raise on their non-finite companion matrices
    solvable = np.isfinite(monic).all(axis=1)
    companion = np.zeros((int(solvable.sum()), 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion[:, 0, :] = -monic[solvable]
    # candidates: both endpoints, then the roots; the real part of a complex
    # pair is kept too, so a near-double root split by rounding is still tried
    # (every candidate is scored on the residuals)
    cands = np.full((len(v), 5), np.nan)
    cands[:, 0], cands[:, 1] = 0.0, a_max
    cands[solvable, 2:] = np.linalg.eigvals(companion).real
    resid = r - (q[:, None, :] * cands[:, :, None] + l[:, None, :]) * cands[:, :, None]
    inside = (cands > 0.0) & (cands < a_max)
    inside[:, :2] = True
    sse = np.where(inside, np.sum(resid**2, axis=2), np.inf)
    i = np.argmin(sse, axis=1)  # the endpoints come first and win ties
    rows = np.arange(len(v))
    return cands[rows, i], sse[rows, i], i < 2


def _profile_slope(v: np.ndarray, a: np.ndarray, g: float, m: int, taus: np.ndarray,
                   s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """dF/dlog v of the profile F(v) = min_A SSE(A, v) at each v, given the
    optimal A there (from `_exact_A`, with its (S, r) from `_fixed_terms`).

    By the envelope theorem this is dSSE/dlog v at fixed A.  With
    e = _lz_decay(g, v, tau) and k = pi g^2 tau / (4 v), de/dlog v = k e, so
    the model terms q A^2 + l A (q = m e^2, l = m e S) change at the rate
    k (2 q A^2 + l A), and dSSE/dlog v = -2 sum resid k (2 q A^2 + l A).
    """
    v, a = v[:, None], a[:, None]
    e = _lz_decay(g, v, taus)
    lam = m * e * a * (e * a + s)  # q A^2 + l A
    k = math.pi * g**2 * taus / (4.0 * v)
    return -2.0 * np.sum((r - lam) * k * (lam + m * (e * a) ** 2), axis=1)


@dataclass(frozen=True)
class FitResult:
    a_hat: float
    v_hat: float | None
    rms_residual: float
    n_points: int
    converged: bool

    def __post_init__(self):
        if not 0.0 <= self.rms_residual < math.inf:
            raise ValueError("rms_residual must be nonnegative and finite")
        if not (math.isfinite(self.a_hat)
                and (self.v_hat is None or math.isfinite(self.v_hat))):
            raise ValueError("a_hat and v_hat must be finite")

    def provenance(self, params: SplitParams, sweep: SweepResult) -> dict:
        """Full parameter record for JSON serialization."""
        return {
            "a_hat": self.a_hat,
            "v_hat": self.v_hat,
            "rms_residual": self.rms_residual,
            "n_points": self.n_points,
            "converged": self.converged,
            "g": params.g,
            "v": self.v_hat if self.v_hat is not None else params.v,
            "omega_minus": params.omega_minus,
            "omega_plus": params.omega_plus,
            "rho0": params.rho0,
            "rho1": params.rho1,
            "m": params.m,
            "tau_min": float(sweep.taus[0]),
            "tau_max": float(sweep.taus[-1]),
        }


def _check_sweep(taus: np.ndarray, omega: float) -> None:
    """A fit needs at least 20 taus spanning at least 3 periods 2 pi / omega,
    omega = omega_- + omega_+; the CLI checks its tau grid before sweeping."""
    if len(taus) < 20:
        raise ValueError("need at least 20 sweep points")
    span = taus[-1] - taus[0]
    if span * omega < 3 * 2 * math.pi:
        raise ValueError("sweep must span at least 3 oscillation periods")


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


def fit_A(sweep: SweepResult, p: SplitParams) -> FitResult:
    """One-parameter fit of A over [0, _A_MAX] against a direct sweep.

    The least-squares A is exact (see `_exact_A`); the fit is converged when
    it lies strictly inside (0, _A_MAX).
    """
    _check_sweep(sweep.taus, p.omega_minus + p.omega_plus)
    taus, probs = sweep.taus, sweep.probs
    s, r = _fixed_terms(p, taus, probs)
    a_hat, _sse, on_edge = _exact_A(np.array([p.v]), p.g, p.m, taus, s, r, _A_MAX)
    a_hat = float(a_hat[0])
    resid = probs - predict_split(p.with_values(A=a_hat), taus)
    return FitResult(a_hat=a_hat, v_hat=None, rms_residual=_rms(resid),
                     n_points=len(taus), converged=not on_edge[0])


def fit_A_v(sweep: SweepResult, p: SplitParams,
            v_range: tuple[float, float] = (0.02, 50.0), n_scan: int = 48) -> FitResult:
    """Joint (A, v) fit with g fixed, A in [0, _A_MAX].

    The objective valley is strongly correlated in (A, v), so the fit
    profiles out A: for each candidate v the inner minimum over A is solved
    in closed form (see `_exact_A`), and only the profile objective
    F(v) = min_A sse(A, v) is searched, on a log-spaced v grid of n_scan
    points (one `_exact_A` call for the whole grid).  v_hat is then the root
    of dF/dlog v (`_profile_slope`) in the grid cell next to the best point
    where the slope changes sign, by safeguarded secant steps of one
    single-v `_exact_A` call each, to _V_TOL/2 in log v.  Where the slope does
    not change sign there (a minimum at an end of v_range, or a flat profile
    with no Landau-Zener signal) v_hat is the best grid point, and the fit is
    flagged unconverged.
    """
    if not 0.0 < v_range[0] < v_range[1] < math.inf:
        raise ValueError(f"need 0 < v_range[0] < v_range[1] < inf, got {v_range}")
    _check_int("n_scan", n_scan)
    if not n_scan >= 3:
        raise ValueError(f"n_scan must be at least 3, got {n_scan}")
    _check_sweep(sweep.taus, p.omega_minus + p.omega_plus)
    taus, probs = sweep.taus, sweep.probs
    s, r = _fixed_terms(p, taus, probs)

    grid = np.linspace(math.log(v_range[0]), math.log(v_range[1]), n_scan)
    a_scan, sse, _edge = _exact_A(np.exp(grid), p.g, p.m, taus, s, r, _A_MAX)
    a_at = dict(zip(grid.tolist(), a_scan.tolist()))
    i = int(np.argmin(sse))
    near = np.arange(max(i - 1, 0), min(i + 2, n_scan))
    slopes = dict(zip(near.tolist(), _profile_slope(
        np.exp(grid[near]), a_scan[near], p.g, p.m, taus, s, r).tolist()))

    def profile_slope(logv):
        v = np.array([math.exp(logv)])
        a, _sse, _edge = _exact_A(v, p.g, p.m, taus, s, r, _A_MAX)
        a_at[logv] = float(a[0])
        return float(_profile_slope(v, a, p.g, p.m, taus, s, r)[0])

    # the cell next to the best point on the side where F falls, if F turns
    # back up across it
    lo, hi = (i - 1, i) if slopes[i] > 0.0 else (i, i + 1)
    if lo in slopes and hi in slopes and slopes[lo] < 0.0 < slopes[hi]:
        logv = _secant_root(profile_slope, grid[lo], grid[hi], slopes[lo], slopes[hi],
                            0.5 * _V_TOL)
    else:
        logv = grid[i]
    logv = float(logv)
    v_hat, a_hat = math.exp(logv), a_at[logv]
    resid = probs - predict_split(p.with_values(A=a_hat, v=v_hat), taus)
    # degenerate when forcing A = 0 fits essentially as well (the data carry
    # no Landau-Zener signal, so v is arbitrary), or v ran into its bounds;
    # the SSE at A = 0 is sum r^2 at every v
    best = float(np.sum(resid**2))
    degenerate = (best >= float(np.sum(r**2)) * (1.0 - 1e-9) - 1e-30
                  or not (v_range[0] * 1.001 < v_hat < v_range[1] * 0.999))
    return FitResult(a_hat=a_hat, v_hat=v_hat, rms_residual=_rms(resid),
                     n_points=len(taus), converged=not degenerate)
