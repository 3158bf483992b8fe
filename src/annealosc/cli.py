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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evolve import ConvergenceError, EvolutionConfig, SweepResult, tau_sweep
from .fit import _check_sweep, fit_A, fit_A_v
from .models import ModelSpec, _check_int, _check_real, build_model
from .predict import (LargeGapParams, grover_omega, grover_rho, predict_grover,
                      predict_large_gap, predict_split, split_params_from_crossing)
from .spectrum import (DegenerateGroundStateError, gap_trace, locate_crossing,
                       rho_endpoints)

@dataclass(frozen=True)
class TauGrid:
    min: float
    max: float
    count: int

    def __post_init__(self):
        _check_real("tau min", self.min, positive=True)
        _check_real("tau max", self.max)
        _check_int("tau count", self.count)
        if self.count < 1:
            raise ValueError("tau count must be at least 1")
        if self.count > 1 and self.max <= self.min:
            raise ValueError("tau max must exceed tau min")

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)  # [min] for count 1


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    model: ModelSpec | None = None
    tau_grid: TauGrid | None = None
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    outputs: str = "out"
    prediction: dict = field(default_factory=dict)  # A, v overrides
    fit_vary_v: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.model is None:
            raise ValueError(f"{self.mode} mode requires a model")
        if self.tau_grid is None and self.mode != "gap":
            raise ValueError(f"{self.mode} mode requires a tau_grid")
        # the fields the run reads: predict's A and v, only at an avoided crossing (run_predict)
        read = {"A", "v"} if self.mode == "predict" and self.model.kind != "grover" else set()
        if unread := set(self.prediction) - read:
            raise ValueError(f"{self.mode} mode on a {self.model.kind} model reads no "
                             f"prediction fields {sorted(unread)}")
        for name, value in self.prediction.items():  # A may be negative; v may not
            _check_real(f"prediction.{name}", value, positive=name == "v")
        if not isinstance(self.fit_vary_v, bool):
            raise ValueError(f"fit_vary_v must be true or false, got {self.fit_vary_v!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(_json_object("config", d))
        blocks = {"model": ModelSpec.from_dict, "tau_grid": lambda b: TauGrid(**b),
                  "evolution": lambda b: EvolutionConfig(**b), "prediction": dict}
        for name, build in blocks.items():
            if d.get(name) is None:
                d.pop(name, None)  # null means the block is absent
            else:
                d[name] = build(_json_object(name, d[name]))
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**d)

    def snapshot(self) -> dict:
        """Config with every default made explicit (for hashing and output)."""
        snap = asdict(self)
        snap["version"] = __version__
        return snap


def _json_object(name: str, value) -> dict:
    """value, if it is a JSON object; a ValueError naming it otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


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
    lines += [",".join(_fmt(x) for x in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict, cfg: ExperimentConfig) -> None:
    payload = {**payload, "config_hash": config_hash(cfg), "version": __version__}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_sweep_config(spec: ModelSpec, taus: np.ndarray, evo: EvolutionConfig) -> SweepResult:
    """One tau sweep of the config's model over every tau."""
    return tau_sweep(build_model(spec), taus, evo)


_sweep_chunk = run_sweep_config  # unused; perfbench/tracing.py looks it up (ROADMAP item 5)


def _analyse(cfg: ExperimentConfig):
    """(trace, crossing, rho0, rho1, m), the analysis gap, predict and fit share.

    The rhos are the trace's endpoint rhos (`rho_endpoints`).  Barrier
    problems divide them by sqrt(n) and take m = n: their first excited
    level is n-fold degenerate in the full qubit space, which makes the
    fitted A comparable across n (pure Landau-Zener gives A = 1); where the
    bump is far from both ends, as in the decoupled chain, the per-qubit
    rhos are mu/2 and 1/(2 mu^2).  Other models take m = 1."""
    spec = cfg.model
    trace = gap_trace(build_model(spec))
    crossing = locate_crossing(trace)
    root_n, m = (math.sqrt(spec.n), spec.n) if spec.kind == "barrier" else (1.0, 1)
    rho0, rho1 = (rho / root_n for rho in rho_endpoints(trace))
    return trace, crossing, rho0, rho1, m


def run_gap(cfg: ExperimentConfig, out: Path, tag: str = "") -> None:
    trace, crossing, *_ = _analyse(cfg)
    write_csv(out / f"gap{tag}.csv",
              ["s", "lambda0", "lambda1", "delta", "gamma", "rho"],
              [trace.s, trace.lambda0, trace.lambda1, trace.delta,
               trace.gamma, trace.rho], cfg)
    # every CrossingParams field, NaN (no crossing) as null, and omega
    payload = {name: None if isinstance(x, float) and math.isnan(x) else x
               for name, x in asdict(crossing).items()}
    write_json(out / f"crossing{tag}.json", {**payload, "omega": crossing.omega}, cfg)


def run_sweep(cfg: ExperimentConfig, out: Path, tag: str = "") -> None:
    result = run_sweep_config(cfg.model, cfg.tau_grid.values(), cfg.evolution)
    write_csv(out / f"sweep{tag}.csv", ["tau", "p_transition", "p_ground"],
              [result.taus, result.probs, 1.0 - result.probs], cfg)
    write_json(out / f"sweep_config{tag}.json", cfg.snapshot(), cfg)


def run_predict(cfg: ExperimentConfig, out: Path, tag: str = "") -> None:
    taus = cfg.tau_grid.values()
    spec = cfg.model
    if spec.kind == "grover":
        probs = predict_grover(spec.big_n, spec.big_m, taus)
        params = {"model": "grover", "omega": grover_omega(spec.big_n, spec.big_m),
                  "rho": grover_rho(spec.big_n, spec.big_m)}
    else:
        _trace, crossing, rho0, rho1, m = _analyse(cfg)
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
            if unread := {"A", "v"} & set(cfg.prediction):
                raise ValueError(f"gap analysis says {crossing.kind!r}: predict mode reads "
                                 f"no prediction fields {sorted(unread)}")
            lg = LargeGapParams(rho0=rho0, rho1=rho1, omega=crossing.omega, m=m)
            probs = predict_large_gap(lg, taus)
            params = {"model": "large-gap", "omega": lg.omega,
                      "rho0": rho0, "rho1": rho1, "m": m}
    write_csv(out / f"prediction{tag}.csv", ["tau", "p_predicted"],
              [taus, probs], cfg)
    write_json(out / f"prediction_params{tag}.json", params, cfg)


def run_fit(cfg: ExperimentConfig, out: Path, tag: str = "") -> None:
    _trace, crossing, rho0, rho1, m = _analyse(cfg)
    if crossing.kind != "avoided":
        raise ValueError(
            f"fit mode needs an avoided crossing; gap analysis says {crossing.kind!r}")
    taus = cfg.tau_grid.values()
    _check_sweep(taus, crossing.omega)
    sweep = run_sweep_config(cfg.model, taus, cfg.evolution)
    p = split_params_from_crossing(crossing, rho0, rho1, m=m)
    result = fit_A_v(sweep, p) if cfg.fit_vary_v else fit_A(sweep, p)
    p = replace(p, A=result.a_hat, v=p.v if result.v_hat is None else result.v_hat)
    write_json(out / f"fit{tag}.json", result.provenance(p, sweep), cfg)
    write_csv(out / f"fit_curve{tag}.csv", ["tau", "p_fitted"],
              [sweep.taus, predict_split(p, sweep.taus)], cfg)


# each mode's runner, called as runner(cfg, out, tag)
_RUNNERS = {"gap": run_gap, "sweep": run_sweep, "predict": run_predict, "fit": run_fit}
MODES = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# Figure recipes: named experiment presets with their parameters baked in.

FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")


def _recipe(mode, model, tau=None, evolution=None, **kw):
    return ExperimentConfig(
        mode=mode, model=ModelSpec.from_dict(model),
        tau_grid=TauGrid(**tau) if tau else None,
        evolution=EvolutionConfig(**(evolution or {})), **kw)


def _figure_configs(name: str) -> list[tuple[str, ExperimentConfig]]:
    n84 = {"kind": "barrier", "n": 84, "mu": 1.0, "alpha": 0.3, "beta": 0.5}
    cubic30 = {"kind": "cubic", "n": 30}
    grover64 = {"kind": "grover", "big_n": 64, "big_m": 1}
    sweep_tol = {"step_tolerance": 1e-5}
    # fig3 and fig4 legend values label the squared final gap: the model coupling
    # is their square root, so the gap is normalized to Delta(0) = 1,
    # Delta(1) = sqrt(label)
    if name == "fig3":
        out = []
        for mu in (1.0, 2.0, 4.0):
            model = {"kind": "nobarrier", "n": 1, "mu": math.sqrt(mu)}
            tau = {"min": 20.0, "max": 100.0, "count": 201}
            out.append((f"_mu{mu:g}_data", _recipe("sweep", model, tau)))
            out.append((f"_mu{mu:g}_theory", _recipe("predict", model, tau)))
        return out
    if name == "fig4":
        out = []
        for mu in (1.0, 2.0, 4.0):
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
                ("_theory", _recipe("predict", grover64, tau))]
    raise ValueError(f"unknown figure {name!r} (expected one of {', '.join(FIGURES)})")


def run_reproduce_figure(name: str, out: Path, threads: int = 1) -> None:
    """Run recipe name's sub-configs, whole ones on `threads` spawned workers."""
    jobs = [(_RUNNERS[sub.mode], sub, out, f"_{name}{tag}")
            for tag, sub in _figure_configs(name)]
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
    # no argparse choices: an unknown mode is a validation error (exit 1)
    ap.add_argument("--mode", help=f"override config mode ({', '.join(MODES)})")
    ap.add_argument("--out", type=Path, help="output directory")
    ap.add_argument("--threads", default="1",
                    help="worker processes that run a figure recipe's sub-configs "
                         "in parallel (default 1)")
    ap.add_argument("--figure", help=f"run a figure recipe ({', '.join(FIGURES)}); "
                                     "takes no --config or --mode")
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
        if args.figure is not None:
            if args.config is not None or args.mode is not None:
                raise ValueError("--figure cannot be combined with --config or --mode")
            _figure_configs(args.figure)  # an unknown name raises before any output
            cfg, out = None, args.out or Path("out")
        else:
            raw = {}
            if args.config is not None:
                raw = _json_object("config", json.loads(args.config.read_text()))
            if args.mode is not None:
                raw["mode"] = args.mode
            if args.out is not None:
                raw["outputs"] = str(args.out)
            if "mode" not in raw:
                raise ValueError("no mode given (use --mode, --figure or a config file)")
            cfg = ExperimentConfig.from_dict(raw)
            out = Path(cfg.outputs)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg is None:
            run_reproduce_figure(args.figure, out, threads)
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
