"""Golden outputs: the figure recipes fig3, fig5, fig8 and fig10, the small
CONFIGS of every mode, the crossings of the six ORACLE_MODELS
and those of every model the benchmark's analysis-scan workload can draw,
rerun and compared with tests/golden/.

Every value is compared at relative tolerance RTOL, so a change that moves
any output past rounding shows here; the `version` and `config_hash` lines
alone are skipped.  `python scripts/update_golden.py` writes the files that
are new or moved, deletes those no longer produced, and prints the largest
change per file.
"""

import json
import math
import tempfile
from pathlib import Path

from annealosc import ModelSpec, build_model, gap_trace, locate_crossing
from annealosc.cli import main

import workloads
from test_spectrum import ORACLE_MODELS

GOLDEN = Path(__file__).resolve().parent / "golden"
FIGURES = ("fig3", "fig5", "fig8", "fig10")
_BARRIER12 = {"kind": "barrier", "n": 12, "mu": 1.0, "alpha": 0.3, "beta": 0.5}
_FIT_TAUS = {"min": 20.0, "max": 100.0, "count": 81}
_ONE_TAU = {"min": 150.0, "max": 150.0, "count": 1}
# one small config per mode and prediction kind, each run by main into out/<name>/
CONFIGS = {
    "fit_A": {"mode": "fit", "model": _BARRIER12, "tau_grid": _FIT_TAUS,
              "evolution": {"step_tolerance": 1e-5}},
    "fit_A_v": {"mode": "fit", "model": _BARRIER12, "tau_grid": _FIT_TAUS,
                "evolution": {"step_tolerance": 1e-5}, "fit_vary_v": True},
    "predict_avoided": {"mode": "predict", "prediction": {"A": 0.7},
                        "model": {"kind": "barrier", "n": 40, "mu": 1.0, "alpha": 0.3,
                                  "beta": 0.5},
                        "tau_grid": {"min": 20.0, "max": 100.0, "count": 31}},
    # a large-gap barrier whose endpoint rhos differ from mu = 1's
    "predict_barrier_mu2": {"mode": "predict",
                            "model": {"kind": "barrier", "n": 100, "mu": 2.0, "alpha": 0.1,
                                      "beta": 0.1},
                            "tau_grid": {"min": 20.0, "max": 100.0, "count": 5}},
    "predict_grover": {"mode": "predict", "model": {"kind": "grover", "big_n": 64, "big_m": 1},
                       "tau_grid": _ONE_TAU},
    "predict_grover12": {"mode": "predict", "model": {"kind": "grover", "big_n": 12, "big_m": 3},
                         "tau_grid": {"min": 10.0, "max": 50.0, "count": 5}},
    "predict_nobarrier": {"mode": "predict", "model": {"kind": "nobarrier", "n": 1, "mu": 1.0},
                          "tau_grid": _ONE_TAU},
    "predict_cubic": {"mode": "predict", "model": {"kind": "cubic", "n": 30},
                      "prediction": {"A": 0.1}, "tau_grid": _ONE_TAU},
    "gap": {"mode": "gap", "model": {"kind": "barrier", "n": 16, "mu": 1.3, "alpha": 0.3,
                                     "beta": 0.5}},
    # a trace whose 1-2 crossing near s = 0.45 takes two rounds of bisection
    "gap_bisected": {"mode": "gap", "model": {"kind": "barrier", "n": 40, "mu": 1.0,
                                              "alpha": 0.5, "beta": 0.8}},
}
RTOL = 1e-12
# the stamps every output carries, which change with the version
_SKIPPED = ("config_hash", "version")
_SKIPPED_LINES = tuple(f"# {k}=" for k in _SKIPPED)


def analysis_scan_models() -> dict[str, tuple[dict, int]]:
    """Every model perfbench's analysis-scan workload can draw, read from
    workloads.AnalysisScan (its sizes with each (alpha, beta) pair of their
    grid, the cubic sizes and the known-fault model), with gap_trace's
    default n_points, which the workload uses."""
    scan = workloads.AnalysisScan
    models = {}
    for kind, expect, sizes in scan.SIZES:
        for n in sizes:
            if kind == "cubic":
                models[f"cubic n={n}"] = (dict(kind="cubic", n=n), 201)
                continue
            for alpha, beta in scan.PAIRS[expect]:
                models[f"barrier n={n} alpha={alpha} beta={beta}"] = (
                    dict(kind="barrier", n=n, mu=1.0, alpha=alpha, beta=beta), 201)
    models["known fault"] = (dict(kind="barrier", mu=1.0, **scan.KNOWN_FAULT), 201)
    return models


def _write_crossings(path: Path, models: dict[str, tuple[dict, int]]) -> None:
    """Each model's crossing, its floats as float.hex, into the JSON file path."""
    crossings = {}
    for name, (spec, n_points) in models.items():
        cr = locate_crossing(gap_trace(build_model(ModelSpec(**spec)), n_points=n_points))
        crossings[name] = {"kind": cr.kind, **{
            field: float.hex(getattr(cr, field))
            for field in ("s_star", "g", "v", "omega_minus", "omega_plus")}}
    path.write_text(json.dumps(crossings, indent=2, sort_keys=True) + "\n")


def write_outputs(out: Path) -> None:
    """Each figure's CSV/JSON outputs into out/<figure>/, each CONFIGS
    entry's into out/<name>/, crossings.json with each ORACLE_MODELS
    crossing and analysis_scan.json with each `analysis_scan_models`
    crossing."""
    for figure in FIGURES:
        if main(["--figure", figure, "--out", str(out / figure), "--threads", "1"]) != 0:
            raise RuntimeError(f"--figure {figure} failed")
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(config))
            if main(["--config", str(path), "--out", str(out / name)]) != 0:
                raise RuntimeError(f"config {name} failed")
    _write_crossings(out / "crossings.json", ORACLE_MODELS)
    _write_crossings(out / "analysis_scan.json", analysis_scan_models())


def _values(path: Path) -> list:
    """The file's values in order: CSV cells and JSON leaves, the config_hash
    and version lines and keys left out."""
    if path.suffix == ".csv":
        return [cell for line in path.read_text().splitlines()
                if not line.startswith(_SKIPPED_LINES)
                for cell in line.split(",")]
    out = []

    def leaves(x):
        if isinstance(x, dict):
            for k in sorted(x):
                if k not in _SKIPPED:
                    out.append(k)
                    leaves(x[k])
        else:
            out.append(x)
    leaves(json.loads(path.read_text()))
    return out


def _number(x):
    """x as a float if it is a JSON number, a decimal CSV cell or a
    float.hex string, else None."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    if isinstance(x, str) and x.lstrip("-").startswith("0x"):
        return float.fromhex(x)
    try:
        return float(x)
    except ValueError:
        return None


def _change(got, want) -> float:
    """Relative change of one value: 0 when equal, NaN matching NaN; inf for
    a moved zero, infinity or NaN, and for any other difference."""
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return 0.0 if got == want else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or b == 0.0 or not math.isfinite(b):
        return math.inf
    return abs(a - b) / abs(b)


def largest_changes(got_dir: Path, want_dir: Path) -> dict[str, float]:
    """Largest relative change of each file under want_dir against its copy
    under got_dir; inf for a missing file or a changed shape or string."""
    changes = {}
    for want in sorted(p for p in want_dir.rglob("*") if p.is_file()):
        rel = want.relative_to(want_dir).as_posix()
        got = got_dir / rel
        if not got.is_file():
            changes[rel] = math.inf
            continue
        a, b = _values(got), _values(want)
        changes[rel] = (max(map(_change, a, b), default=0.0) if len(a) == len(b)
                        else math.inf)
    extra = {p.relative_to(got_dir).as_posix() for p in got_dir.rglob("*") if p.is_file()}
    for rel in sorted(extra - changes.keys()):
        changes[rel] = math.inf
    return changes


def test_outputs_match_golden(tmp_path):
    write_outputs(tmp_path)
    changes = largest_changes(tmp_path, GOLDEN)
    assert len(changes) == 42
    assert {f: c for f, c in changes.items() if not c <= RTOL} == {}
