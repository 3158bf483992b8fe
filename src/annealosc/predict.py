"""Closed-form leakage predictions.

Covers the oscillatory-integral amplitude (`amplitude_integral`, a quadrature
on a gap trace), the large-gap probability formula, the Landau-Zener
frequency-splitting ansatz, and the adiabatic-search (Grover) special case,
whose frequency and endpoint rho are closed forms of N and M alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import _check_int, _check_real
from .spectrum import CrossingParams, GapTrace


def _check_params(p, *positive: str) -> None:
    """Raise ValueError unless p.rho0 and p.rho1 are finite, the named fields
    of p positive and finite, and p.m an integer >= 1 (a float m would scale
    every prediction)."""
    for name in ("rho0", "rho1", *positive):
        _check_real(name, getattr(p, name), positive=name in positive)
    _check_int("m", p.m)
    if p.m < 1:
        raise ValueError("m must be a positive integer")


@dataclass(frozen=True)
class LargeGapParams:
    rho0: float
    rho1: float
    omega: float
    m: int = 1

    def __post_init__(self):
        _check_params(self, "omega")


@dataclass(frozen=True)
class SplitParams:
    """Inputs to the frequency-split ansatz.  A may be None until fitted,
    and may be negative, but not NaN or infinite; v is positive and finite."""

    rho0: float
    rho1: float
    omega_minus: float
    omega_plus: float
    g: float
    v: float
    A: float | None = None
    m: int = 1

    def __post_init__(self):
        _check_params(self, "omega_minus", "omega_plus", "g", "v")
        if self.A is not None:
            _check_real("A", self.A)


def _taus(tau) -> np.ndarray:
    """tau as a float array, every value checked positive and finite."""
    tau = np.asarray(tau, float)
    if not np.all((tau > 0) & (tau < math.inf)):
        raise ValueError("tau must be positive and finite")
    return tau


def predict_large_gap(p: LargeGapParams, tau):
    """P(tau) = m [(rho0^2 + rho1^2) - 2 rho0 rho1 cos(omega tau)] / tau^2."""
    tau = _taus(tau)
    out = p.m * ((p.rho0**2 + p.rho1**2)
                 - 2.0 * p.rho0 * p.rho1 * np.cos(p.omega * tau)) / tau**2
    return float(out) if out.ndim == 0 else out


def landau_zener_amplitude(A: float, g: float, v: float, tau):
    """Lambda(tau) = A exp(-pi g^2 tau / (4 v))."""
    _check_real("A", A)
    _check_real("g", g, positive=True)
    _check_real("v", v, positive=True)
    tau = _taus(tau)
    out = A * _lz_decay(g, v, tau)
    return float(out) if out.ndim == 0 else out


def _lz_decay(g: float, v, tau: np.ndarray) -> np.ndarray:
    """e = exp(-pi g^2 tau / (4 v)), the only factor of the split ansatz that
    depends on v; v and tau broadcast (an array v[:, None] gives one row of e
    per v, each row bitwise equal to the scalar-v result)."""
    return np.exp(-math.pi * g**2 * tau / (4.0 * v))


def _split_terms(p: SplitParams, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, t, b), the terms of the split ansatz that depend on neither A nor v:

        P/m = Lambda^2 + a + (2 Lambda / tau) t - b,  Lambda = A _lz_decay(g, v, tau),
        a = (rho0^2 + rho1^2) / tau^2,
        t = rho0 sin(w- tau) + rho1 sin(w+ tau),
        b = (2 rho0 rho1 / tau^2) cos((w- + w+) tau),

    summed by predict_split in that order.
    """
    a = (p.rho0**2 + p.rho1**2) / tau**2
    t = p.rho0 * np.sin(p.omega_minus * tau) + p.rho1 * np.sin(p.omega_plus * tau)
    b = (2.0 * p.rho0 * p.rho1 / tau**2) * np.cos((p.omega_plus + p.omega_minus) * tau)
    return a, t, b


def predict_split(p: SplitParams, tau):
    """Frequency-split ansatz for the leakage probability.

    P/m = Lambda^2 + (rho0^2 + rho1^2)/tau^2
          + (2 Lambda / tau) (rho0 sin(w- tau) + rho1 sin(w+ tau))
          - (2 rho0 rho1 / tau^2) cos((w+ + w-) tau)
    """
    if p.A is None:
        raise ValueError("SplitParams.A is unset")
    tau = _taus(tau)
    lam = landau_zener_amplitude(p.A, p.g, p.v, tau)
    a, t, b = _split_terms(p, tau)
    out = p.m * (lam**2 + a + (2.0 * lam / tau) * t - b)
    return float(out) if out.ndim == 0 else out


def split_params_from_crossing(crossing: CrossingParams, rho0: float, rho1: float,
                               A: float | None = None, v: float | None = None,
                               m: int = 1) -> SplitParams:
    """Assemble SplitParams from located crossing data plus endpoint rhos.

    The endpoint couplings carry an overall eigenvector-gauge sign; the
    ansatz interference terms assume the gauge with rho0 >= 0, so a globally
    flipped pair is canonicalized here (the product rho0*rho1 is invariant).
    """
    if rho0 < 0:
        rho0, rho1 = -rho0, -rho1
    return SplitParams(rho0=rho0, rho1=rho1,
                       omega_minus=crossing.omega_minus,
                       omega_plus=crossing.omega_plus,
                       g=crossing.g,
                       v=v if v is not None else crossing.v,
                       A=A, m=m)


def amplitude_integral(trace: GapTrace, tau: float) -> complex:
    """Oscillatory integral for the final excited amplitude,

        C1(1, tau) = int_0^1 ds (gamma/Delta) exp(-i tau int_s^1 Delta dz),

    evaluated Filon-style: the cumulative phase is tabulated once via a cubic
    spline antiderivative, then each subinterval is integrated analytically
    with linear amplitude and linear phase, so accuracy is uniform in tau.

    Delta and gamma/Delta are cubic splines through the trace points, so the
    trace's grid sets the accuracy: at a sharp crossing a default trace
    (`gap_trace`, 201 points plus bisection) gives C1 to about 1e-3 relative:
    on cubic30 at tau = 50, 200 and 800 its error against a 4,001-point trace
    is 6.9e-4 to 9.0e-4, with |C1| from 1.4 down to 0.72.
    """
    _check_real("tau", tau, positive=True)
    # imported on first use, so that importing the package skips scipy.interpolate
    from scipy.interpolate import CubicSpline
    coup = CubicSpline(trace.s, trace.gamma / trace.delta)
    phase_to_one = CubicSpline(trace.s, trace.delta).antiderivative()
    total = float(phase_to_one(1.0))

    # resolve both the amplitude structure and the phase oscillation: at least
    # 12 cells per radian of total phase
    n = int(max(2000, 12.0 * tau * total, 4 * len(trace.s)))
    s = np.linspace(0.0, 1.0, n + 1)
    f = coup(s)
    phi = tau * (total - phase_to_one(s))  # phase(s) = tau * int_s^1 Delta

    h = np.diff(s)
    a = f[:-1]
    b = np.diff(f) / h
    phi0 = phi[:-1]
    k = np.diff(phi) / h  # negative of tau*Delta on each cell

    # int_0^h (a + b u) exp(-i (phi0 + k u)) du, with Taylor fallback at small kh
    kh = k * h
    small = np.abs(kh) < 1e-6
    ik = -1j * k
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(-1j * kh)
        i0 = (e - 1.0) / ik
        i1 = (h * e - i0) / ik
    i0_small = h * (1.0 - 0.5j * kh)
    i1_small = 0.5 * h**2 * (1.0 - (2.0 / 3.0) * 1j * kh)
    i0 = np.where(small, i0_small, i0)
    i1 = np.where(small, i1_small, i1)
    segs = np.exp(-1j * phi0) * (a * i0 + b * i1)
    return complex(segs.sum())


def _check_search(big_n: int, big_m: int) -> None:
    """Raise ValueError unless N and M are integers with 1 <= M < N."""
    _check_int("big_n", big_n)
    _check_int("big_m", big_m)
    if not 1 <= big_m < big_n:
        raise ValueError(f"need 1 <= M < N, got M={big_m}, N={big_n}")


def grover_rho(big_n: int, big_m: int) -> float:
    """Endpoint rho = gamma(0) / Delta(0)^2 = arctan(sqrt((N-M)/M)) under the
    optimal schedule, where Delta(0) = 1; rho(1) is the same."""
    _check_search(big_n, big_m)
    return math.atan(math.sqrt((big_n - big_m) / big_m))


def grover_omega(big_n: int, big_m: int) -> float:
    """Oscillation frequency sqrt(M/N) artanh(sqrt((N-M)/N)) / arctan(sqrt((N-M)/M))."""
    theta = grover_rho(big_n, big_m)
    frac = big_m / big_n
    return math.sqrt(frac) * math.atanh(math.sqrt(1.0 - frac)) / theta


def predict_grover(big_n: int, big_m: int, tau):
    """Leading-order leakage P = (4 rho^2 / tau^2) sin^2(omega tau / 2), with
    rho = `grover_rho`."""
    tau = _taus(tau)
    rho = grover_rho(big_n, big_m)
    omega = grover_omega(big_n, big_m)
    out = (4.0 * rho**2 / tau**2) * np.sin(omega * tau / 2.0) ** 2
    return float(out) if out.ndim == 0 else out
