"""Reference computations for the benchmark's correctness checks.

Everything here is built from the model formulas with dense linear algebra,
scipy's DOP853 integrator and quadrature.  It imports nothing from
`annealosc`, so a fault in the package cannot also hide in its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DenseModel:
    """H(s) = (1 - g(s)) h0 + g(s) h1 as dense matrices."""

    h0: np.ndarray
    h1: np.ndarray
    g: Callable[[float], float]
    dg: Callable[[float], float]

    def h(self, s: float) -> np.ndarray:
        gs = self.g(s)
        return (1.0 - gs) * self.h0 + gs * self.h1

    def dh(self, s: float) -> np.ndarray:
        return self.dg(s) * (self.h1 - self.h0)


def _linear(s):
    return s


def _one(s):
    return 1.0


def _qubit_model(n: int, cost: np.ndarray) -> DenseModel:
    """Transverse field (1/2) sum sigma_x in the Hamming-weight basis plus
    a diagonal cost f(k); off-diagonals sqrt((k+1)(n-k))/2."""
    h0 = np.zeros((n + 1, n + 1))
    for k in range(n):
        h0[k, k + 1] = h0[k + 1, k] = math.sqrt((k + 1) * (n - k)) / 2.0
    return DenseModel(h0=h0, h1=np.diag(np.asarray(cost, float)),
                      g=_linear, dg=_one)


def nobarrier(n: int, mu: float) -> DenseModel:
    return _qubit_model(n, [mu * k for k in range(n + 1)])


def barrier(n: int, mu: float, alpha: float, beta: float) -> DenseModel:
    """Linear cost mu*k plus a binomial bump of even width >= n**alpha,
    centred at ceil(n/4), with peak height n**beta."""
    width = math.ceil(n ** alpha)
    if width % 2:
        width += 1
    centre = math.ceil(n / 4)
    cost = []
    for k in range(n + 1):
        j = k - centre + width // 2
        bump = math.comb(width, j) / math.comb(width, width // 2) if 0 <= j <= width else 0.0
        cost.append(mu * k + n ** beta * bump)
    return _qubit_model(n, cost)


def cubic(n: int) -> DenseModel:
    return _qubit_model(n, [n * (2.0 * k / n - 1.0) ** 3 for k in range(n + 1)])


def search(big_n: int, big_m: int) -> DenseModel:
    """Adiabatic search on span{target, non-target} with the local schedule
    g(s) = (1 - tan((1 - 2s) theta) / sqrt(q)) / 2, q = (N-M)/M,
    theta = atan(sqrt(q))."""
    q = (big_n - big_m) / big_m
    theta = math.atan(math.sqrt(q))
    u = np.array([math.sqrt(big_m / big_n), math.sqrt((big_n - big_m) / big_n)])

    def g(s):
        return 0.5 * (1.0 - math.tan((1.0 - 2.0 * s) * theta) / math.sqrt(q))

    def dg(s):
        return theta / (math.sqrt(q) * math.cos((1.0 - 2.0 * s) * theta) ** 2)

    return DenseModel(h0=-np.outer(u, u), h1=np.diag([0.0, 1.0]), g=g, dg=dg)


# ------------------------------------------------------------------ spectra

def gap(model: DenseModel, s: float) -> float:
    w = np.linalg.eigvalsh(model.h(s))
    return float(w[1] - w[0])


def rho_endpoints(model: DenseModel, n_grid: int = 201) -> tuple[float, float]:
    """rho = <phi0|dH/ds|phi1> / Delta^2 at s = 0 and s = 1, with eigenvector
    signs carried continuously along an s grid."""
    prev = None
    rhos = []
    for s in np.linspace(0.0, 1.0, n_grid):
        w, v = np.linalg.eigh(model.h(s))
        v = v[:, :2].copy()
        if prev is not None:
            v *= np.sign(np.sum(prev * v, axis=0))
        prev = v
        if s in (0.0, 1.0):
            rhos.append(float(v[:, 0] @ model.dh(s) @ v[:, 1]) / (w[1] - w[0]) ** 2)
    return rhos[0], rhos[1]


def _golden_min(f, a: float, b: float, tol: float) -> float:
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
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


def _bisect(f, a: float, b: float, tol: float = 1e-12) -> float:
    fa = f(a)
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Crossing:
    kind: str
    s_star: float
    g: float
    v: float
    omega_minus: float
    omega_plus: float


def crossing(model: DenseModel, n_grid: int = 401) -> Crossing:
    """Gap minimum and its class, from dense eigenvalues.

    The minimum is bracketed on a uniform grid and refined by golden
    section; `crossing_at` gives the parameters there.
    """
    f = lambda s: gap(model, s)  # noqa: E731
    grid = np.linspace(0.0, 1.0, n_grid)
    vals = np.array([f(s) for s in grid])
    i = int(np.argmin(vals))
    if i in (0, n_grid - 1):
        omega = quad(f, 0.0, 1.0, epsabs=1e-11, limit=400)[0]
        return Crossing("none", math.nan, float(vals[i]), math.nan, omega, 0.0)
    return crossing_at(model, _golden_min(f, grid[i - 1], grid[i + 1], 1e-11))


def crossing_at(model: DenseModel, s_star: float) -> Crossing:
    """Crossing parameters taken at s_star, the gap minimum or not.

    It is "avoided" when the gap reaches 2g on both sides of s_star and
    "large-gap" otherwise.  v = sqrt((Delta^2)''/2) is the second difference
    of Delta^2 at step h = min(w/4, s*, 1-s*), w the larger distance from
    s* to a 2g crossing.  omega-/omega+ integrate the gap on either side.
    """
    f = lambda s: gap(model, s)  # noqa: E731
    g = f(s_star)
    om = quad(f, 0.0, s_star, epsabs=1e-11, limit=400)[0]
    op = quad(f, s_star, 1.0, epsabs=1e-11, limit=400)[0]
    if not (f(0.0) > 2 * g and f(1.0) > 2 * g):
        return Crossing("large-gap", s_star, g, math.nan, om, op)
    left = _bisect(lambda s: f(s) - 2 * g, 0.0, s_star)
    right = _bisect(lambda s: f(s) - 2 * g, s_star, 1.0)
    h = min(max(s_star - left, right - s_star) / 4.0, s_star, 1.0 - s_star)
    curv = (f(s_star + h) ** 2 - 2.0 * g * g + f(s_star - h) ** 2) / h**2
    return Crossing("avoided", s_star, g, math.sqrt(curv / 2.0), om, op)


def gap_integral(model: DenseModel) -> float:
    return quad(lambda s: gap(model, s), 0.0, 1.0, epsabs=1e-12, limit=400)[0]


# ---------------------------------------------------------------- evolution

def leakage_dop853(model: DenseModel, tau: float, rtol: float = 1e-11) -> float:
    """P = 1 - |<phi0(1)|psi(1)>|^2 for i dpsi/ds = tau H(s) psi started in
    the ground state of H(0), integrated with DOP853."""
    psi0 = np.linalg.eigh(model.h(0.0))[1][:, 0].astype(complex)
    sol = solve_ivp(lambda s, y: -1j * tau * (model.h(s) @ y), (0.0, 1.0), psi0,
                    method="DOP853", rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    psi = sol.y[:, -1]
    phi0 = np.linalg.eigh(model.h(1.0))[1][:, 0]
    return float(1.0 - abs(phi0 @ psi) ** 2 / np.vdot(psi, psi).real)


# ------------------------------------------------------------- closed forms

def nobarrier1_gap(s, mu: float):
    """n = 1 no-barrier gap sqrt(1 - 2s + (1 + mu^2) s^2)."""
    s = np.asarray(s, float)
    return np.sqrt(1.0 - 2.0 * s + (1.0 + mu * mu) * s * s)


def nobarrier1_omega(mu: float) -> float:
    """Integral of the n = 1 gap over [0, 1]: with a = 1 + mu^2,
    u = s - 1/a and k = mu/a, sqrt(a) [u r/2 + k^2 asinh(u/k)/2] evaluated
    from u = -1/a to 1 - 1/a, r = sqrt(u^2 + k^2)."""
    a = 1.0 + mu * mu
    k = mu / a

    def prim(u):
        return 0.5 * u * math.sqrt(u * u + k * k) + 0.5 * k * k * math.asinh(u / k)

    return math.sqrt(a) * (prim(1.0 - 1.0 / a) - prim(-1.0 / a))


def nobarrier1_rhos(mu: float) -> tuple[float, float]:
    """|gamma Delta| = mu/2 along the path, so rho0 = mu/2 at Delta = 1 and
    rho1 = 1/(2 mu^2) at Delta = mu, with the same sign."""
    return mu / 2.0, 1.0 / (2.0 * mu * mu)


def search_omega(big_n: int, big_m: int) -> float:
    """sqrt(M/N) atanh(sqrt((N-M)/N)) / atan(sqrt((N-M)/M))."""
    return (math.sqrt(big_m / big_n) * math.atanh(math.sqrt((big_n - big_m) / big_n))
            / math.atan(math.sqrt((big_n - big_m) / big_m)))


def search_rho(big_n: int, big_m: int) -> float:
    """rho = gamma(0) / Delta(0)^2 = atan(sqrt((N-M)/M)) since Delta(0) = 1."""
    return math.atan(math.sqrt((big_n - big_m) / big_m))


def large_gap(tau, rho0: float, rho1: float, omega: float, m: int = 1):
    tau = np.asarray(tau, float)
    return m * (rho0**2 + rho1**2 - 2.0 * rho0 * rho1 * np.cos(omega * tau)) / tau**2


def search_leakage(tau, rho: float, omega: float):
    tau = np.asarray(tau, float)
    return 4.0 * rho**2 / tau**2 * np.sin(omega * tau / 2.0) ** 2


def split_ansatz(tau, A: float, g: float, v: float, rho0: float, rho1: float,
                 omega_minus: float, omega_plus: float, m: int = 1):
    """Frequency-split leakage with Lambda = A exp(-pi g^2 tau / (4 v)):
    P/m = Lambda^2 + (rho0^2 + rho1^2)/tau^2
          + (2 Lambda/tau)(rho0 sin(w- tau) + rho1 sin(w+ tau))
          - (2 rho0 rho1/tau^2) cos((w- + w+) tau)."""
    tau = np.asarray(tau, float)
    lam = A * np.exp(-math.pi * g * g * tau / (4.0 * v))
    return m * (lam**2 + (rho0**2 + rho1**2) / tau**2
                + 2.0 * lam / tau * (rho0 * np.sin(omega_minus * tau)
                                     + rho1 * np.sin(omega_plus * tau))
                - 2.0 * rho0 * rho1 / tau**2 * np.cos((omega_minus + omega_plus) * tau))
