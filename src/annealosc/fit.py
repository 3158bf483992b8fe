"""Least-squares estimation of the splitting-ansatz parameters A (and v).

The ansatz is quadratic in A, so the sum of squared residuals is a quartic
in A and its minimum over [0, a_max] is found exactly, from a few dot
products and the roots of a cubic.  Only v is searched: the two-parameter
fit profiles A out of the objective, scans a log-spaced v grid to avoid the
exponentially flat valley in v, and refines the best cell by golden section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import SweepResult
from .predict import SplitParams, predict_split

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, a: float, b: float, tol: float = 1e-8) -> float:
    """Golden-section search for the minimum of a unimodal f on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _exact_A(p: SplitParams, taus: np.ndarray, probs: np.ndarray,
             a_max: float) -> tuple[float, float, bool]:
    """Least-squares A on [0, a_max] with every other parameter of p fixed.

    predict_split is P = q A^2 + l A + c with q, l, c independent of A, so
    with r = probs - c the objective SSE(A) = sum (r - q A^2 - l A)^2 is a
    quartic; its minimum on [0, a_max] is at an endpoint or at a root of the
    cubic SSE'(A) inside the interval.  Returns (A, SSE(A), A is an endpoint).
    """
    c = predict_split(p.with_values(A=0.0), taus)
    up = predict_split(p.with_values(A=1.0), taus)
    down = predict_split(p.with_values(A=-1.0), taus)
    q, l, r = 0.5 * (up + down) - c, 0.5 * (up - down), probs - c
    # SSE'(A) / 2 = 2 qq A^3 + 3 ql A^2 + (ll - 2 qr) A - lr; the real part of
    # a complex pair is kept too, so a near-double root split by rounding is
    # still tried (every candidate is scored on the residuals themselves)
    roots = np.roots([2.0 * (q @ q), 3.0 * (q @ l), l @ l - 2.0 * (q @ r),
                      -(l @ r)]).real
    cands = np.concatenate([[0.0, a_max], roots[(roots > 0.0) & (roots < a_max)]])
    sse = [float(np.sum((r - (q * a + l) * a) ** 2)) for a in cands]
    i = int(np.argmin(sse))  # the endpoints come first and win ties
    return float(cands[i]), sse[i], i < 2


@dataclass(frozen=True)
class FitResult:
    a_hat: float
    v_hat: float | None
    rms_residual: float
    n_points: int
    converged: bool

    def __post_init__(self):
        if self.rms_residual < 0:
            raise ValueError("rms_residual must be nonnegative")

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


def fit_A(sweep: SweepResult, p: SplitParams, a_max: float = 2.0) -> FitResult:
    """One-parameter fit of A over [0, a_max] against a direct sweep.

    The least-squares A is exact (see `_exact_A`); the fit is converged when
    it lies strictly inside (0, a_max).
    """
    _check_sweep(sweep, p)
    taus, probs = sweep.taus, sweep.probs
    a_hat, _sse, on_edge = _exact_A(p, taus, probs, a_max)
    resid = probs - predict_split(p.with_values(A=a_hat), taus)
    return FitResult(a_hat=float(a_hat), v_hat=None, rms_residual=_rms(resid),
                     n_points=len(taus), converged=not on_edge)


def fit_A_v(sweep: SweepResult, p: SplitParams, a_max: float = 2.0,
            v_range: tuple[float, float] = (0.02, 50.0), n_scan: int = 48,
            tol: float = 1e-9) -> FitResult:
    """Joint (A, v) fit with g fixed.

    The objective valley is strongly correlated in (A, v), so the fit
    profiles out A: for each candidate v the inner minimum over A is solved
    in closed form (see `_exact_A`), and only the profile objective
    F(v) = min_A sse(A, v) is searched, on a log-spaced v grid of n_scan
    points refined by golden section to tol in log v.
    """
    _check_sweep(sweep, p)
    taus, probs = sweep.taus, sweep.probs
    log_lo, log_hi = math.log(v_range[0]), math.log(v_range[1])

    def sse(a, v):
        q = p.with_values(A=a, v=v)
        return float(np.sum((probs - predict_split(q, taus)) ** 2))

    def profile(logv):
        return _exact_A(p.with_values(v=math.exp(logv)), taus, probs, a_max)[1]

    grid = np.linspace(log_lo, log_hi, n_scan)
    vals = np.array([profile(lv) for lv in grid])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, n_scan - 1)]
    logv = golden_min(profile, lo, hi, tol=tol)
    v_hat = math.exp(logv)
    a_hat = _exact_A(p.with_values(v=v_hat), taus, probs, a_max)[0]
    resid = probs - predict_split(p.with_values(A=a_hat, v=v_hat), taus)
    # degenerate when forcing A = 0 fits essentially as well (the data carry
    # no Landau-Zener signal, so v is arbitrary), or v ran into its bounds
    best = float(np.sum(resid**2))
    degenerate = (best >= sse(0.0, v_hat) * (1.0 - 1e-9) - 1e-30
                  or not (v_range[0] * 1.001 < v_hat < v_range[1] * 0.999))
    return FitResult(a_hat=float(a_hat), v_hat=float(v_hat),
                     rms_residual=_rms(resid), n_points=len(taus),
                     converged=not degenerate)


def fit_single_frequency(sweep: SweepResult, p: SplitParams) -> float:
    """RMS residual of the best single-frequency model: the large-gap form
    with omega = omega_- + omega_+ and a free overall amplitude (linear
    least squares).  Used as the nested-model baseline."""
    taus, probs = sweep.taus, sweep.probs
    omega = p.omega_minus + p.omega_plus
    basis = (p.rho0**2 + p.rho1**2 - 2 * p.rho0 * p.rho1 * np.cos(omega * taus)) / taus**2
    c = float(basis @ probs / (basis @ basis))
    return _rms(probs - c * basis)
