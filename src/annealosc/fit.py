"""Least-squares estimation of the splitting-ansatz parameters A (and v).

The ansatz is quadratic in A, so the sum of squared residuals is a quartic
in A and its minimum over [0, a_max] is found exactly, from a few dot
products and the roots of a cubic.  Only v is searched: the two-parameter
fit profiles A out of the objective, scans a log-spaced v grid to avoid the
exponentially flat valley in v, and refines the best cell by golden section.
The whole scan is one vectorised pass over its v grid (`_exact_A` takes an
array of v), and each golden-section step is a one-v pass; the terms of the
ansatz that do not depend on v are formed once per fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import SweepResult
from .predict import SplitParams, _lz_decay, _split_terms, predict_split

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


def _check_sweep(sweep: SweepResult, p: SplitParams) -> None:
    if len(sweep.taus) < 20:
        raise ValueError("need at least 20 sweep points")
    span = sweep.taus[-1] - sweep.taus[0]
    omega = p.omega_minus + p.omega_plus
    if span * omega < 3 * 2 * math.pi:
        raise ValueError("sweep must span at least 3 oscillation periods")


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


def _check_a_max(a_max: float) -> None:
    if not 0.0 < a_max < math.inf:
        raise ValueError(f"a_max must be positive and finite, got {a_max}")


def fit_A(sweep: SweepResult, p: SplitParams, a_max: float = 2.0) -> FitResult:
    """One-parameter fit of A over [0, a_max] against a direct sweep.

    The least-squares A is exact (see `_exact_A`); the fit is converged when
    it lies strictly inside (0, a_max).
    """
    _check_a_max(a_max)
    _check_sweep(sweep, p)
    taus, probs = sweep.taus, sweep.probs
    s, r = _fixed_terms(p, taus, probs)
    a_hat, _sse, on_edge = _exact_A(np.array([p.v]), p.g, p.m, taus, s, r, a_max)
    a_hat = float(a_hat[0])
    resid = probs - predict_split(p.with_values(A=a_hat), taus)
    return FitResult(a_hat=a_hat, v_hat=None, rms_residual=_rms(resid),
                     n_points=len(taus), converged=not on_edge[0])


def fit_A_v(sweep: SweepResult, p: SplitParams, a_max: float = 2.0,
            v_range: tuple[float, float] = (0.02, 50.0), n_scan: int = 48,
            tol: float = 1e-9) -> FitResult:
    """Joint (A, v) fit with g fixed.

    The objective valley is strongly correlated in (A, v), so the fit
    profiles out A: for each candidate v the inner minimum over A is solved
    in closed form (see `_exact_A`), and only the profile objective
    F(v) = min_A sse(A, v) is searched, on a log-spaced v grid of n_scan
    points (one `_exact_A` call for the whole grid) refined by golden
    section to tol in log v (one single-v call per step).
    """
    _check_a_max(a_max)
    if not 0.0 < v_range[0] < v_range[1] < math.inf:
        raise ValueError(f"need 0 < v_range[0] < v_range[1] < inf, got {v_range}")
    if not n_scan >= 3:
        raise ValueError(f"n_scan must be at least 3, got {n_scan}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_sweep(sweep, p)
    taus, probs = sweep.taus, sweep.probs
    s, r = _fixed_terms(p, taus, probs)

    def exact(v):
        return _exact_A(v, p.g, p.m, taus, s, r, a_max)

    grid = np.linspace(math.log(v_range[0]), math.log(v_range[1]), n_scan)
    i = int(np.argmin(exact(np.exp(grid))[1]))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, n_scan - 1)]
    logv = golden_min(lambda lv: exact(np.array([math.exp(lv)]))[1][0], lo, hi, tol=tol)
    v_hat = math.exp(logv)
    a_hat = float(exact(np.array([v_hat]))[0][0])
    resid = probs - predict_split(p.with_values(A=a_hat, v=v_hat), taus)
    # degenerate when forcing A = 0 fits essentially as well (the data carry
    # no Landau-Zener signal, so v is arbitrary), or v ran into its bounds;
    # the SSE at A = 0 is sum r^2 at every v
    best = float(np.sum(resid**2))
    degenerate = (best >= float(np.sum(r**2)) * (1.0 - 1e-9) - 1e-30
                  or not (v_range[0] * 1.001 < v_hat < v_range[1] * 0.999))
    return FitResult(a_hat=a_hat, v_hat=v_hat, rms_residual=_rms(resid),
                     n_points=len(taus), converged=not degenerate)


def fit_single_frequency(sweep: SweepResult, p: SplitParams) -> float:
    """RMS residual of the best single-frequency model: the large-gap form
    with omega = omega_- + omega_+ and a free overall amplitude (linear
    least squares).  Used as the nested-model baseline."""
    taus, probs = sweep.taus, sweep.probs
    omega = p.omega_minus + p.omega_plus
    basis = (p.rho0**2 + p.rho1**2 - 2 * p.rho0 * p.rho1 * np.cos(omega * taus)) / taus**2
    c = float(basis @ probs / (basis @ basis))
    return _rms(probs - c * basis)
