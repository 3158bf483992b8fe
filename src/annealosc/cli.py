"""Configuration-driven command line for gap traces, sweeps, predictions,
fits, and figure-data reproduction.

All outputs are CSV/JSON with a comment header embedding the config hash and
tool version; identical configs produce byte-identical files.  Exit codes:
0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .evolve import ConvergenceError, EvolutionConfig, SweepResult, tau_sweep
from .fit import FitResult, fit_A, fit_A_v
from .models import ModelSpec, build_model
from .predict import (LargeGapParams, SplitParams, grover_gamma, grover_omega,
                      grover_period, predict_grover, predict_large_gap,
                      predict_split, split_params_from_crossing)
from .spectrum import (DegenerateGroundStateError, gap_trace, locate_crossing,
                       rho_endpoints)

@dataclass(frozen=True)
class TauGrid:
    min: float
    max: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("tau min and max must be finite")
        if self.min <= 0:
            raise ValueError("tau min must be positive")
        if self.count < 1:
            raise ValueError("tau count must be at least 1")
        if self.count > 1 and self.max <= self.min:
            raise ValueError("tau max must exceed tau min")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be 'linear' or 'log'")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.min])
        if self.spacing == "log":
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    model: ModelSpec | None = None
    s_points: int = 201
    tau_grid: TauGrid | None = None
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    outputs: str = "out"
    figure: str | None = None
    prediction: dict = field(default_factory=dict)  # A, v, m overrides
    fit_vary_v: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.model is None and self.mode != "reproduce-figure":
            raise ValueError(f"{self.mode} mode requires a model")
        extra = set(self.prediction) - {"A", "v", "m"}
        if extra:
            raise ValueError(f"unknown prediction fields: {sorted(extra)}")
        # predict and fit modes read m as given: a float is not truncated
        m = self.prediction.get("m", 1)
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValueError(f"prediction.m must be an integer >= 1, got {m!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if "model" in d and d["model"] is not None:
            d["model"] = ModelSpec.from_dict(d["model"])
        if "tau_grid" in d and d["tau_grid"] is not None:
            d["tau_grid"] = TauGrid(**d["tau_grid"])
        if "evolution" in d and d["evolution"] is not None:
            d["evolution"] = EvolutionConfig(**d["evolution"])
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**d)

    def snapshot(self) -> dict:
        """Config with every default made explicit (for hashing and output)."""
        snap = asdict(self)
        snap["version"] = __version__
        return snap


def config_hash(cfg: ExperimentConfig) -> str:
    snap = cfg.snapshot()
    snap.pop("outputs", None)  # artifact location does not affect results
    blob = json.dumps(snap, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray],
              cfg: ExperimentConfig) -> None:
    lines = [f"# config_hash={config_hash(cfg)}", f"# version={__version__}",
             ",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict, cfg: ExperimentConfig) -> None:
    payload = dict(payload)
    payload["config_hash"] = config_hash(cfg)
    payload["version"] = __version__
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_sweep_config(spec: ModelSpec, taus: np.ndarray, evo: EvolutionConfig) -> SweepResult:
    """One tau sweep of the config's model over every tau."""
    return tau_sweep(build_model(spec), taus, evo)


_sweep_chunk = run_sweep_config  # unused; perfbench/tracing.py looks it up (ROADMAP item 2)


def _endpoint_rhos(spec: ModelSpec, trace) -> tuple[float, float]:
    """Barrier problems use the unperturbed closed-form endpoint rhos (the
    barrier is localized away from the endpoints); everything else uses the
    numerically diagonalized trace values."""
    if spec.kind == "barrier":
        # per-qubit values of the decoupled chain: rho(0) = gamma(0)/Delta(0)^2
        # = mu/2 and rho(1) = (mu/2)/mu^2 = 1/(2 mu)
        return spec.mu / 2.0, 1.0 / (2.0 * spec.mu)
    return rho_endpoints(trace)


def _default_m(spec: ModelSpec) -> int:
    """The barrier problem's first excited level is n-fold degenerate in the
    full qubit space; paired with the per-state endpoint rhos this makes the
    fitted amplitude A comparable across n (pure Landau-Zener gives A = 1)."""
    return spec.n if spec.kind == "barrier" else 1


def run_gap(cfg: ExperimentConfig, out: Path, tag: str = "") -> dict:
    model = build_model(cfg.model)
    trace = gap_trace(model, n_points=cfg.s_points)
    crossing = locate_crossing(trace)
    write_csv(out / f"gap{tag}.csv",
              ["s", "lambda0", "lambda1", "delta", "gamma", "rho"],
              [trace.s, trace.lambda0, trace.lambda1, trace.delta,
               trace.gamma, trace.rho], cfg)
    payload = {
        "kind": crossing.kind,
        "s_star": None if math.isnan(crossing.s_star) else crossing.s_star,
        "g": crossing.g,
        "v": None if math.isnan(crossing.v) else crossing.v,
        "omega_minus": crossing.omega_minus,
        "omega_plus": crossing.omega_plus,
        "omega": crossing.omega,
    }
    write_json(out / f"crossing{tag}.json", payload, cfg)
    return payload


def run_sweep(cfg: ExperimentConfig, out: Path, tag: str = "") -> SweepResult:
    if cfg.tau_grid is None:
        raise ValueError("sweep mode requires a tau_grid")
    taus = cfg.tau_grid.values()
    result = run_sweep_config(cfg.model, taus, cfg.evolution)
    write_csv(out / f"sweep{tag}.csv", ["tau", "p_transition", "p_ground"],
              [result.taus, result.probs, 1.0 - result.probs], cfg)
    write_json(out / f"sweep_config{tag}.json", cfg.snapshot(), cfg)
    return result


def run_predict(cfg: ExperimentConfig, out: Path, tag: str = "") -> None:
    if cfg.tau_grid is None:
        raise ValueError("predict mode requires a tau_grid")
    taus = cfg.tau_grid.values()
    spec = cfg.model
    m = cfg.prediction.get("m", _default_m(spec))
    if spec.kind == "grover":
        probs = predict_grover(spec.big_n, spec.big_m, taus)
        params = {"model": "grover", "omega": grover_omega(spec.big_n, spec.big_m),
                  "rho": grover_gamma(spec.big_n, spec.big_m, 0.0)}
    else:
        model = build_model(spec)
        trace = gap_trace(model, n_points=cfg.s_points)
        crossing = locate_crossing(trace)
        rho0, rho1 = _endpoint_rhos(spec, trace)
        if crossing.kind == "avoided":
            A = cfg.prediction.get("A")
            if A is None:
                raise ValueError(
                    "avoided crossing detected: set prediction.A in the config "
                    "(run fit mode to estimate it)")
            v = cfg.prediction.get("v")
            p = split_params_from_crossing(crossing, rho0, rho1, A=A, v=v, m=m)
            probs = predict_split(p, taus)
            params = {"model": "split", "A": p.A, "g": p.g, "v": p.v,
                      "omega_minus": p.omega_minus, "omega_plus": p.omega_plus,
                      "rho0": p.rho0, "rho1": p.rho1, "m": m}
        else:
            lg = LargeGapParams(rho0=rho0, rho1=rho1, omega=crossing.omega, m=m)
            probs = predict_large_gap(lg, taus)
            params = {"model": "large-gap", "omega": lg.omega,
                      "rho0": rho0, "rho1": rho1, "m": m}
    write_csv(out / f"prediction{tag}.csv", ["tau", "p_predicted"],
              [taus, probs], cfg)
    write_json(out / f"prediction_params{tag}.json", params, cfg)


def run_fit(cfg: ExperimentConfig, out: Path, tag: str = "",
            sweep: SweepResult | None = None) -> tuple[FitResult, SplitParams]:
    spec = cfg.model
    model = build_model(spec)
    trace = gap_trace(model, n_points=cfg.s_points)
    crossing = locate_crossing(trace)
    if crossing.kind != "avoided":
        raise ValueError(
            f"fit mode needs an avoided crossing; gap analysis says {crossing.kind!r}")
    if sweep is None:
        if cfg.tau_grid is None:
            raise ValueError("fit mode requires a tau_grid (inline sweep generation)")
        sweep = run_sweep_config(spec, cfg.tau_grid.values(), cfg.evolution)
    m = cfg.prediction.get("m", _default_m(spec))
    rho0, rho1 = _endpoint_rhos(spec, trace)
    if cfg.fit_vary_v:
        p = split_params_from_crossing(crossing, rho0, rho1, v=crossing.v, m=m)
        result = fit_A_v(sweep, p)
        p = p.with_values(A=result.a_hat, v=result.v_hat)
    else:
        p = split_params_from_crossing(crossing, rho0, rho1, m=m)
        result = fit_A(sweep, p)
        p = p.with_values(A=result.a_hat)
    write_json(out / f"fit{tag}.json", result.provenance(p, sweep), cfg)
    write_csv(out / f"fit_curve{tag}.csv", ["tau", "p_fitted"],
              [sweep.taus, predict_split(p, sweep.taus)], cfg)
    return result, p


def run_grover(cfg: ExperimentConfig, out: Path, tag: str = "") -> None:
    spec = cfg.model
    if spec.kind != "grover":
        raise ValueError("grover mode requires a grover model")
    payload = {
        "N": spec.big_n, "M": spec.big_m,
        "omega": grover_omega(spec.big_n, spec.big_m),
        "period": grover_period(spec.big_n, spec.big_m),
        "rho": grover_gamma(spec.big_n, spec.big_m, 0.0),
    }
    write_json(out / f"grover{tag}.json", payload, cfg)
    if cfg.tau_grid is not None:
        taus = cfg.tau_grid.values()
        write_csv(out / f"grover_prediction{tag}.csv", ["tau", "p_predicted"],
                  [taus, predict_grover(spec.big_n, spec.big_m, taus)], cfg)


# each single-config mode's runner, called as runner(cfg, out, tag)
_RUNNERS = {"gap": run_gap, "sweep": run_sweep, "predict": run_predict,
            "fit": run_fit, "grover": run_grover}
MODES = (*_RUNNERS, "reproduce-figure")


# ---------------------------------------------------------------------------
# Figure recipes: named experiment presets with their parameters baked in.

def _recipe(mode, model, tau=None, evolution=None, **kw):
    return ExperimentConfig(
        mode=mode, model=ModelSpec.from_dict(model),
        tau_grid=TauGrid(**tau) if tau else None,
        evolution=EvolutionConfig(**(evolution or {})), **kw)


# legend values label the squared final gap: the model coupling is their
# square root, so the gap is normalized to Delta(0) = 1, Delta(1) = sqrt(label)
_FIG3_MUS = (1.0, 2.0, 4.0)
_FIG4_MUS = (1.0, 2.0, 4.0)


def _figure_configs(name: str) -> list[tuple[str, ExperimentConfig]]:
    n84 = {"kind": "barrier", "n": 84, "mu": 1.0, "alpha": 0.3, "beta": 0.5}
    cubic30 = {"kind": "cubic", "n": 30}
    grover64 = {"kind": "grover", "big_n": 64, "big_m": 1}
    sweep_tol = {"step_tolerance": 1e-5}
    if name == "fig3":
        out = []
        for mu in _FIG3_MUS:
            model = {"kind": "nobarrier", "n": 1, "mu": math.sqrt(mu)}
            tau = {"min": 20.0, "max": 100.0, "count": 201}
            out.append((f"_mu{mu:g}_data", _recipe("sweep", model, tau)))
            out.append((f"_mu{mu:g}_theory", _recipe("predict", model, tau)))
        return out
    if name == "fig4":
        out = []
        for mu in _FIG4_MUS:
            model = {"kind": "barrier", "n": 100, "mu": math.sqrt(mu),
                     "alpha": 0.1, "beta": 0.1}
            tau = {"min": 20.0, "max": 100.0, "count": 161}
            out.append((f"_mu{mu:g}_data",
                        _recipe("sweep", model, tau, evolution=sweep_tol)))
            out.append((f"_mu{mu:g}_theory", _recipe("predict", model, tau)))
        return out
    if name == "fig5":
        return [("", _recipe("gap", n84))]
    if name == "fig6":
        tau = {"min": 100.0, "max": 400.0, "count": 151}
        return [("", _recipe("sweep", n84, tau, evolution=sweep_tol))]
    if name == "fig7":
        # window where leakage has decayed to the ~10% level the ansatz assumes
        tau = {"min": 400.0, "max": 1000.0, "count": 121}
        return [("", _recipe("fit", n84, tau, evolution=sweep_tol))]
    if name == "fig8":
        return [("", _recipe("gap", cubic30))]
    if name == "fig9":
        # the cubic oscillation only emerges once the Landau-Zener amplitude
        # has decayed to the scale of the boundary terms, far out in tau
        tau = {"min": 6000.0, "max": 7500.0, "count": 251}
        evo = {"step_tolerance": 1e-4, "max_steps": 1 << 17}
        return [("", _recipe("fit", cubic30, tau, evolution=evo,
                             fit_vary_v=True))]
    if name == "fig10":
        tau = {"min": 150.0, "max": 500.0, "count": 241}
        return [("_data", _recipe("sweep", grover64, tau)),
                ("_theory", _recipe("grover", grover64, tau))]
    raise ValueError(f"unknown figure {name!r} (expected fig3..fig10)")


def run_reproduce_figure(cfg: ExperimentConfig, out: Path, threads: int = 1) -> None:
    """Run the recipe's sub-configs, whole ones on `threads` spawned workers."""
    if not cfg.figure:
        raise ValueError("reproduce-figure mode requires a figure name")
    jobs = [(_RUNNERS[sub.mode], sub, out, f"_{cfg.figure}{tag}")
            for tag, sub in _figure_configs(cfg.figure)]
    if threads == 1 or len(jobs) == 1:
        for run, *args in jobs:
            run(*args)
        return
    env = dict(os.environ)
    # spawned workers read these as they import numpy: n workers use n cores
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            for future in [pool.submit(*job) for job in jobs]:
                future.result()
    finally:
        os.environ.clear()
        os.environ.update(env)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="annealosc",
        description="Near-adiabatic annealing sweeps, gap analysis, and "
                    "oscillation predictions")
    ap.add_argument("--config", type=Path, help="JSON experiment config")
    ap.add_argument("--mode", choices=MODES, help="override config mode")
    ap.add_argument("--out", type=Path, help="output directory")
    ap.add_argument("--threads", default="1",
                    help="worker processes that run a figure recipe's sub-configs "
                         "in parallel (default 1)")
    ap.add_argument("--figure", help="figure name for reproduce-figure mode")
    return ap


def _thread_count(flag: str) -> int:
    """--threads as a positive integer."""
    try:
        threads = int(flag)
    except ValueError:
        raise ValueError(f"--threads must be an integer, got {flag!r}") from None
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    return threads


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        threads = _thread_count(args.threads)
        raw = {}
        if args.config is not None:
            raw = json.loads(args.config.read_text())
        if args.mode:
            raw["mode"] = args.mode
        if args.figure:
            raw["figure"] = args.figure
            raw.setdefault("mode", "reproduce-figure")
        if args.out is not None:
            raw["outputs"] = str(args.out)
        if "mode" not in raw:
            raise ValueError("no mode given (use --mode or a config file)")
        cfg = ExperimentConfig.from_dict(raw)
        out = Path(cfg.outputs)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.mode == "reproduce-figure":
            run_reproduce_figure(cfg, out, threads)
        else:
            _RUNNERS[cfg.mode](cfg, out)
    # LinAlgError subclasses ValueError, so it is caught first
    except (ConvergenceError, DegenerateGroundStateError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
