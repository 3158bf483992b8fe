"""Closed-form leakage predictions.

Covers the oscillatory-integral amplitude, the large-gap probability formula,
the Landau-Zener frequency-splitting ansatz, and the adiabatic-search
(Grover) special case where everything is analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .models import _check_int, _check_not_bool, _check_s, grover_schedule
from .spectrum import CrossingParams, GapTrace


def _check_params(p, *floats: str) -> None:
    """Raise ValueError unless the named fields of p are finite and p.m is
    an integer >= 1 (NaN passes every comparison, and a float m would scale
    every prediction)."""
    for name in floats:
        if not math.isfinite(getattr(p, name)):
            raise ValueError(f"{name} must be finite, got {getattr(p, name)}")
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
        _check_params(self, "rho0", "rho1", "omega")
        if self.omega <= 0:
            raise ValueError("omega must be positive")


@dataclass(frozen=True)
class SplitParams:
    """Inputs to the frequency-split ansatz.  A may be None until fitted,
    and may be negative, but not NaN or infinite."""

    rho0: float
    rho1: float
    omega_minus: float
    omega_plus: float
    g: float
    v: float
    A: float | None = None
    m: int = 1

    def __post_init__(self):
        _check_params(self, "rho0", "rho1", "omega_minus", "omega_plus", "g")
        if self.omega_minus <= 0 or self.omega_plus <= 0:
            raise ValueError("omega_minus and omega_plus must be positive")
        if self.g <= 0:
            raise ValueError("g must be positive")
        for name in ("A", "v"):
            _check_not_bool(name, getattr(self, name))
        if self.v is not None and not 0 < self.v < math.inf:
            raise ValueError(f"v must be positive and finite, got {self.v}")
        if self.A is not None and not math.isfinite(self.A):
            raise ValueError(f"A must be finite, got {self.A}")

    def with_values(self, **kw) -> "SplitParams":
        return replace(self, **kw)


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
    if not (math.isfinite(A) and 0 < g < math.inf and 0 < v < math.inf):
        raise ValueError(f"need a finite A and positive finite g, v; got {A}, {g}, {v}")
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
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    dspl = trace.delta_spline()
    coup = trace.coupling_spline()
    phase_to_one = dspl.antiderivative()
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


def grover_omega(big_n: int, big_m: int) -> float:
    """Oscillation frequency sqrt(M/N) artanh(sqrt((N-M)/N)) / arctan(sqrt((N-M)/M))."""
    _check_search(big_n, big_m)
    frac = big_m / big_n
    return math.sqrt(frac) * math.atanh(math.sqrt(1.0 - frac)) / math.atan(
        math.sqrt((big_n - big_m) / big_m))


def grover_period(big_n: int, big_m: int) -> float:
    """Oscillation period T = 2 pi / omega in tau: predict_grover's
    sin^2(omega tau / 2) repeats with it."""
    return 2.0 * math.pi / grover_omega(big_n, big_m)


def grover_gap(big_n: int, big_m: int, s):
    """Gap sqrt(1 - 4 (1-g) g (N-M)/N) under the optimal schedule."""
    _check_search(big_n, big_m)
    _check_s(s)
    g, _ = grover_schedule(big_n, big_m)
    gs = g(np.asarray(s, float))
    out = np.sqrt(1.0 - 4.0 * (1.0 - gs) * gs * (big_n - big_m) / big_n)
    return float(out) if out.ndim == 0 else out


def grover_gamma(big_n: int, big_m: int, s):
    """Coupling gamma(s) = g'(s) sqrt(M(N-M)) / (N Delta(s)) under the optimal
    schedule; symmetric about s = 1/2 with gamma(0) = gamma(1) =
    arctan(sqrt((N-M)/M))."""
    _check_search(big_n, big_m)
    _check_s(s)
    s = np.asarray(s, float)
    _, gp = grover_schedule(big_n, big_m)
    out = gp(s) * math.sqrt(big_m * (big_n - big_m)) / (big_n * grover_gap(big_n, big_m, s))
    return float(out) if np.ndim(out) == 0 else out


def predict_grover(big_n: int, big_m: int, tau):
    """Leading-order leakage P = (4 rho^2 / tau^2) sin^2(omega tau / 2), with
    rho = gamma(0) / Delta(0)^2 and Delta(0) = 1."""
    tau = _taus(tau)
    rho = grover_gamma(big_n, big_m, 0.0)
    omega = grover_omega(big_n, big_m)
    out = (4.0 * rho**2 / tau**2) * np.sin(omega * tau / 2.0) ** 2
    return float(out) if out.ndim == 0 else out
