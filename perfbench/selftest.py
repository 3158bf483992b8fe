"""Fast self-test of the benchmark's reference code against closed forms.

    python3 perfbench/selftest.py

Prints one line per check and exits 1 if any fails.  Runs in a few seconds
and needs only numpy and scipy.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import reference as ref


def _lz_model(s0: float, c: float, g: float) -> ref.DenseModel:
    """H(s) = [[c(s - s0), g/2], [g/2, -c(s - s0)]]: the gap is exactly
    sqrt(g^2 + (2c)^2 (s - s0)^2), a Landau-Zener crossing with v = 2c."""
    h0 = np.array([[-c * s0, g / 2], [g / 2, c * s0]])
    h1 = np.array([[c * (1 - s0), g / 2], [g / 2, -c * (1 - s0)]])
    return ref.DenseModel(h0=h0, h1=h1, g=lambda s: s, dg=lambda s: 1.0)


def _lz_integral(g: float, v: float, a: float, b: float) -> float:
    def prim(u):
        r = math.sqrt(g * g + v * v * u * u)
        return 0.5 * u * r + g * g / (2 * v) * math.asinh(v * u / g)
    return prim(b) - prim(a)


def checks() -> dict[str, bool]:
    out = {}
    s = np.linspace(0.0, 1.0, 101)
    for mu in (1.0, math.sqrt(2.0), 2.0):
        model = ref.nobarrier(1, mu)
        err = max(abs(ref.gap(model, x) - ref.nobarrier1_gap(x, mu)) for x in s)
        out[f"nobarrier mu={mu:.4g}: dense gap = closed form (1e-12)"] = err <= 1e-12
        out[f"nobarrier mu={mu:.4g}: quadrature omega = closed form (1e-10)"] = (
            abs(ref.gap_integral(model) - ref.nobarrier1_omega(mu)) <= 1e-10)
        r0, r1 = ref.rho_endpoints(model)
        c0, c1 = ref.nobarrier1_rhos(mu)
        sign = math.copysign(1.0, r0)
        out[f"nobarrier mu={mu:.4g}: rho endpoints = closed form (1e-10)"] = (
            abs(sign * r0 - c0) <= 1e-10 and abs(sign * r1 - c1) <= 1e-10)
        cr = ref.crossing(model)
        a = 1.0 + mu * mu
        out[f"nobarrier mu={mu:.4g}: s* = 1/(1+mu^2), g = mu/sqrt(1+mu^2)"] = (
            cr.kind == "large-gap" and abs(cr.s_star - 1 / a) <= 1e-8
            and abs(cr.g - mu / math.sqrt(a)) <= 1e-12
            and abs(cr.omega_minus + cr.omega_plus - ref.nobarrier1_omega(mu)) <= 1e-10)
    out["nobarrier mu=1: omega = 1/2 + asinh(1)/(2 sqrt 2)"] = abs(
        ref.nobarrier1_omega(1.0) - (0.5 + math.asinh(1.0) / (2 * math.sqrt(2.0)))) <= 1e-14

    model = ref.search(64, 1)
    out["search N=64: quadrature omega = closed form (1e-9)"] = abs(
        ref.gap_integral(model) - ref.search_omega(64, 1)) <= 1e-9
    r0, r1 = ref.rho_endpoints(model)
    out["search N=64: |rho(0)| = |rho(1)| = atan(sqrt(N-1)) (1e-10)"] = (
        abs(abs(r0) - ref.search_rho(64, 1)) <= 1e-10
        and abs(abs(r1) - ref.search_rho(64, 1)) <= 1e-10)

    for n in (5, 16, 40):
        w = np.linalg.eigvalsh(ref.barrier(n, 1.0, 0.3, 0.5).h0)
        out[f"transverse field n={n}: spectrum = k - n/2"] = bool(
            np.max(np.abs(w - (np.arange(n + 1) - n / 2))) <= 1e-10)
    bump = np.diag(ref.barrier(84, 1.0, 0.3, 0.5).h1) - np.arange(85)
    out["barrier n=84: bump of 5 sites peaking at n^beta on k=21"] = (
        int(np.count_nonzero(np.abs(bump) > 1e-12)) == 5
        and int(np.argmax(bump)) == 21 and abs(bump.max() - 84 ** 0.5) <= 1e-12)
    cub = np.diag(ref.cubic(30).h1)
    out["cubic n=30: cost runs from -n to n"] = cub[0] == -30.0 and cub[-1] == 30.0

    lz = _lz_model(0.4, 5.0, 0.1)
    cr = ref.crossing(lz)
    v = 10.0
    out["Landau-Zener model: class, s*, g, v, omega+- exact"] = (
        cr.kind == "avoided" and abs(cr.s_star - 0.4) <= 1e-8
        and abs(cr.g - 0.1) <= 1e-12 and abs(cr.v / v - 1.0) <= 1e-6
        and abs(cr.omega_minus - _lz_integral(0.1, v, -0.4, 0.0)) <= 1e-9
        and abs(cr.omega_plus - _lz_integral(0.1, v, 0.0, 0.6)) <= 1e-9)

    mu = math.sqrt(2.0)
    model = ref.nobarrier(1, mu)
    r0, r1 = ref.nobarrier1_rhos(mu)
    om = ref.nobarrier1_omega(mu)
    worst = max(abs(ref.leakage_dop853(model, t) - ref.large_gap(t, r0, r1, om)) * t**3
                for t in (40.0, 70.0, 100.0))
    out["DOP853 no-barrier leakage within 5/tau^3 of the large-gap formula"] = worst <= 5.0
    model = ref.search(64, 1)
    t = 2 * math.pi * 8.5 / ref.search_omega(64, 1)  # a maximum of sin^2
    p = ref.leakage_dop853(model, t)
    env = ref.search_leakage(t, ref.search_rho(64, 1), ref.search_omega(64, 1))
    out["DOP853 search leakage within 10% of 4 rho^2/tau^2 at a maximum"] = abs(p / env - 1) <= 0.1

    taus = np.linspace(50.0, 400.0, 30)
    no_lz = ref.split_ansatz(taus, 0.0, 0.2, 5.0, 0.3, 0.4, 0.2, 0.6)
    out["split ansatz with A = 0 is the large-gap formula"] = bool(np.allclose(
        no_lz, ref.large_gap(taus, 0.3, 0.4, 0.8), rtol=1e-13, atol=0))
    only_lz = ref.split_ansatz(taus, 0.7, 0.2, 5.0, 0.0, 0.0, 0.2, 0.6)
    out["split ansatz with rho = 0 is Lambda^2"] = bool(np.allclose(
        only_lz, (0.7 * np.exp(-math.pi * 0.04 * taus / 20.0)) ** 2, rtol=1e-13, atol=0))
    return out


def main() -> int:
    results = checks()
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
