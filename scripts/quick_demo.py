#!/usr/bin/env python3
"""End-to-end demo on the decoupled two-level model (runs in seconds).

Builds the model, locates the gap minimum, runs a direct tau sweep, and
compares it against the closed-form oscillatory prediction.

Usage:
    python scripts/quick_demo.py
"""

import numpy as np

from annealosc import ModelSpec, build_model, gap_trace, locate_crossing
from annealosc.evolve import EvolutionConfig, tau_sweep
from annealosc.predict import LargeGapParams, predict_large_gap
from annealosc.spectrum import rho_endpoints


def main() -> int:
    model = build_model(ModelSpec(kind="nobarrier", n=1, mu=1.0))
    trace = gap_trace(model)
    crossing = locate_crossing(trace)
    print(f"gap minimum g = {crossing.g:.6f} at s* = {crossing.s_star:.4f} "
          f"({crossing.kind}), oscillation frequency omega = {crossing.omega:.6f}")

    taus = np.linspace(20.0, 100.0, 81)
    sweep = tau_sweep(model, taus, EvolutionConfig(step_tolerance=1e-7))
    rho0, rho1 = rho_endpoints(trace)
    pred = predict_large_gap(
        LargeGapParams(rho0=rho0, rho1=rho1, omega=crossing.omega), taus)
    err = np.abs(sweep.probs - pred)
    print(f"direct vs predicted leakage over tau in [20, 100]: "
          f"max |diff| = {err.max():.2e} (bound 5/tau^3 = {5 / taus[0]**3:.2e})")
    for tau in (20.0, 40.0, 80.0):
        i = int(np.argmin(np.abs(taus - tau)))
        print(f"  tau = {taus[i]:6.1f}: P_direct = {sweep.probs[i]:.3e}  "
              f"P_predicted = {pred[i]:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
