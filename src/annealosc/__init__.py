"""Near-adiabatic annealing simulations and leakage-oscillation analysis."""

__version__ = "0.16.0"

from .models import ModelSpec, ReducedHamiltonian, build_model, hamiltonian_at
from .spectrum import (CrossingParams, GapTrace, gap_trace, locate_crossing,
                       rho_endpoints)
from .evolve import EvolutionConfig, SweepResult, ground_state, tau_sweep
from .predict import (LargeGapParams, SplitParams, amplitude_integral, grover_omega,
                      landau_zener_amplitude, predict_grover, predict_large_gap,
                      predict_split)
from .fit import FitResult, fit_A, fit_A_v
