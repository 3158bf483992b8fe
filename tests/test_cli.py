import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import annealosc
from annealosc import ModelSpec, cli, evolve, spectrum
from annealosc.cli import (FIGURES, MODES, ExperimentConfig, TauGrid, _figure_configs,
                           _recipe, config_hash, main)
from annealosc.predict import predict_grover

import reference

NOBARRIER = {"kind": "nobarrier", "n": 1, "mu": 1.0}


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ------------------------------------------------------------ config layer

def test_tau_grid_values_and_validation():
    lin = TauGrid(min=10.0, max=20.0, count=3)
    assert np.allclose(lin.values(), [10.0, 15.0, 20.0])
    assert TauGrid(min=5.0, max=5.0, count=1).values().tolist() == [5.0]
    with pytest.raises(ValueError):
        TauGrid(min=0.0, max=10.0, count=5)
    with pytest.raises(ValueError):
        TauGrid(min=10.0, max=5.0, count=5)
    with pytest.raises(TypeError):  # the grid is linear: spacing is not a field
        TauGrid(min=1.0, max=2.0, count=5, spacing="cubic")
    for bad in (math.nan, math.inf, "20", None):
        with pytest.raises(ValueError, match="^tau min must be positive and finite"):
            TauGrid(min=bad, max=10.0, count=5)
        with pytest.raises(ValueError, match="^tau max must be a finite number"):
            TauGrid(min=1.0, max=bad, count=5)


@pytest.mark.parametrize("field", [{"tau_grid": {"min": math.nan, "max": 40.0, "count": 3}},
                                   {"evolution": {"step_tolerance": math.nan}}])
def test_non_finite_config_values_exit_1(tmp_path, field):
    # json reads NaN and Infinity, which pass every comparison-only check
    payload = {"mode": "sweep", "model": NOBARRIER,
               "tau_grid": {"min": 20.0, "max": 40.0, "count": 3}, **field}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("name, value", [("mu", math.nan), ("mu", math.inf),
                                         ("alpha", math.nan), ("beta", math.inf),
                                         ("mu", "1"), ("beta", None)])
def test_non_finite_model_values_exit_1(tmp_path, capsys, name, value):
    model = {"kind": "barrier", "n": 16, "mu": 1.0, "alpha": 0.3, "beta": 0.5,
             name: value}
    cfg = _write_config(tmp_path, {"mode": "gap", "model": model})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"error: {name} must be" in capsys.readouterr().err
    # the library raises the same error
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ModelSpec(**model)


def test_non_integer_model_size_exit_1(tmp_path, capsys):
    # a float N is rejected before gap mode writes anything, not truncated
    model = {"kind": "grover", "big_n": 64.5, "big_m": 1}
    cfg = _write_config(tmp_path, {"mode": "gap", "model": model})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "error: big_n must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "gap.csv").exists()


_SWEEP = {"mode": "sweep", "model": NOBARRIER,
          "tau_grid": {"min": 20.0, "max": 40.0, "count": 3}}
_BARRIER16 = {"kind": "barrier", "n": 16, "mu": 1.0, "alpha": 0.3, "beta": 0.5}


@pytest.mark.parametrize("field, payload", [
    ("tau count", {**_SWEEP, "tau_grid": {"min": 20.0, "max": 40.0, "count": True}}),
    ("tau count", {"mode": "predict", "model": {"kind": "grover", "big_n": 64, "big_m": 1},
                   "tau_grid": {"min": 20.0, "max": 40.0, "count": 3.5}}),
    ("fit_vary_v", {"mode": "fit", "model": _BARRIER16, "fit_vary_v": "no",
                    "tau_grid": {"min": 20.0, "max": 60.0, "count": 5}}),
    ("step_tolerance", {**_SWEEP, "evolution": {"step_tolerance": True}}),
    ("mu", {"mode": "gap", "model": {**NOBARRIER, "mu": True}}),
    ("tau min", {**_SWEEP, "tau_grid": {"min": True, "max": 40.0, "count": 3}}),
    ("prediction.A", {"mode": "predict", "model": _BARRIER16, "prediction": {"A": True},
                      "tau_grid": {"min": 20.0, "max": 60.0, "count": 5}}),
    ("prediction.v", {"mode": "predict", "model": _BARRIER16,
                      "prediction": {"A": 0.5, "v": True},
                      "tau_grid": {"min": 20.0, "max": 60.0, "count": 5}}),
    # a string or null is no number either
    ("mu", {"mode": "gap", "model": {**NOBARRIER, "mu": "1"}}),
    # a JSON integer beyond the float range, which would overflow in the model
    ("mu", {"mode": "gap", "model": {**NOBARRIER, "mu": 10**400}}),
    ("alpha", {"mode": "gap", "model": {**_BARRIER16, "alpha": "0.3"}}),
    ("tau min", {**_SWEEP, "tau_grid": {"min": "20", "max": 40.0, "count": 3}}),
    ("step_tolerance", {**_SWEEP, "evolution": {"step_tolerance": "1e-5"}}),
    ("prediction.A", {"mode": "predict", "model": _BARRIER16, "prediction": {"A": "0.5"},
                      "tau_grid": {"min": 20.0, "max": 60.0, "count": 5}}),
    ("prediction.A", {"mode": "predict", "model": _BARRIER16, "prediction": {"A": None},
                      "tau_grid": {"min": 20.0, "max": 60.0, "count": 5}}),
    ("prediction.v", {"mode": "predict", "model": _BARRIER16,
                      "prediction": {"A": 0.5, "v": "1"},
                      "tau_grid": {"min": 20.0, "max": 60.0, "count": 5}}),
    # every block, and the config itself, is a JSON object
    ("prediction", {**_SWEEP, "mode": "predict", "prediction": ["A"]}),
    ("prediction", {**_SWEEP, "mode": "predict", "prediction": "Am"}),
    ("model", {"mode": "gap", "model": "barrier"}),
    ("tau_grid", {**_SWEEP, "tau_grid": [20.0, 40.0, 3]}),
    ("evolution", {**_SWEEP, "evolution": 1e-5}),
    ("config", [1, 2]),
], ids=["count-true", "count-float", "fit_vary_v-string",
        "step_tolerance-true", "mu-true", "tau-min-true", "A-true", "v-true",
        "mu-string", "mu-huge-int", "alpha-string", "tau-min-string", "step_tolerance-string",
        "A-string", "A-null", "v-string",
        "prediction-list", "prediction-string", "model-string", "tau_grid-list",
        "evolution-number", "config-list"])
def test_config_field_types_exit_1_before_output(tmp_path, capsys, field, payload):
    # a JSON true is not the number 1, an integer or boolean field takes no
    # float or string, and a block is an object: each is a validation error
    # before any file is written
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("prediction", [{"A": 0.5, "m": 0},
                                        {"A": 0.5, "V": 3},
                                        {"A": math.nan},
                                        {"A": math.inf},
                                        # infinite v: Landau-Zener factor 1 at every tau
                                        {"A": 0.1, "v": math.inf}])
def test_bad_prediction_overrides_exit_1(tmp_path, prediction):
    payload = {"mode": "predict", "prediction": prediction,
               "model": {"kind": "barrier", "n": 16, "mu": 1.0,
                         "alpha": 0.3, "beta": 0.5},
               "tau_grid": {"min": 20.0, "max": 60.0, "count": 5}}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "prediction.csv").exists()


@pytest.mark.parametrize("mode", ["predict", "fit"])
@pytest.mark.parametrize("m", [2.7, 1e300, 2.0, True, "3", None],
                         ids=["2.7", "1e300", "2.0", "true", "string", "null"])
def test_prediction_m_must_be_a_json_integer(tmp_path, capsys, mode, m):
    # m is worked out from the model, and no run reads prediction.m: a float
    # is not truncated (m = 1e300 would scale P up to 1e298), nor is any
    # other value read; each is an unread field
    payload = {"mode": mode, "prediction": {"A": 0.5, "m": m},
               "model": {"kind": "barrier", "n": 16, "mu": 1.0,
                         "alpha": 0.3, "beta": 0.5},
               "tau_grid": {"min": 20.0, "max": 60.0, "count": 5}}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert re.search(r"reads no prediction fields \[.*'m'\]", capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("message, payload", [
    ("predict mode on a grover model reads no prediction fields ['A', 'm']",
     {"mode": "predict", "model": {"kind": "grover", "big_n": 64, "big_m": 1},
      "prediction": {"m": 3, "A": 0.5}}),
    ("gap analysis says 'large-gap': predict mode reads no prediction fields ['A', 'v']",
     {"mode": "predict", "model": NOBARRIER, "prediction": {"A": 0.5, "v": 3.0}}),
    ("sweep mode on a nobarrier model reads no prediction fields ['A']",
     {"mode": "sweep", "model": NOBARRIER, "prediction": {"A": 0.5}}),
    ("fit mode on a barrier model reads no prediction fields ['A']",
     {"mode": "fit", "model": _BARRIER16, "prediction": {"A": 0.5}}),
    ("predict mode on a barrier model reads no prediction fields ['m']",
     {"mode": "predict", "model": _BARRIER16, "prediction": {"A": 0.5, "m": 16}}),
], ids=["grover", "nobarrier", "sweep", "fit", "m"])
def test_unread_prediction_fields_exit_1_before_output(tmp_path, capsys, message, payload):
    # a field the run would not read was hashed into the outputs and ignored
    cfg = _write_config(tmp_path, {**payload, "tau_grid": {"min": 20.0, "max": 60.0,
                                                            "count": 5}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"mode": "gap", "model": NOBARRIER,
                                    "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"mode": "mystery"})


def test_version_matches_pyproject():
    # a regex, not tomllib: the package supports Python 3.10
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert version == annealosc.__version__


def test_import_loads_no_scipy_subpackage_but_linalg():
    # a fresh interpreter, so no other test's imports count
    src = str(Path(annealosc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, annealosc, annealosc.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert "scipy.linalg" in loaded
    heavy = {"scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special"}
    assert not loaded & heavy


def test_config_hash_sensitivity():
    a = ExperimentConfig.from_dict({"mode": "gap", "model": NOBARRIER})
    b = ExperimentConfig.from_dict({"mode": "gap", "model": NOBARRIER})
    c = ExperimentConfig.from_dict({"mode": "gap", "model": NOBARRIER,
                                    "evolution": {"step_tolerance": 1e-6}})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert "version" in a.snapshot()


# ------------------------------------------------------------------ modes

def test_main_requires_mode(tmp_path, capsys):
    assert main(["--out", str(tmp_path)]) == 1
    assert "mode" in capsys.readouterr().err


def test_modes_are_the_four_runners():
    assert MODES == ("gap", "sweep", "predict", "fit")


def test_unknown_mode_flag_exit_1(tmp_path, capsys):
    # a validation error, as for an unknown mode in a config file; exit 2
    # means a numerical failure
    assert main(["--mode", "bogus", "--out", str(tmp_path / "out")]) == 1
    assert "error: unknown mode 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", MODES)
def test_missing_model_rejected(tmp_path, capsys, mode):
    assert main(["--mode", mode, "--out", str(tmp_path)]) == 1
    assert "requires a model" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_threads_flag_rejected(tmp_path, capsys, value):
    assert main(["--mode", "gap", "--threads", value, "--out", str(tmp_path)]) == 1
    assert "error: --threads" in capsys.readouterr().err


def test_main_rejects_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 1


def test_gap_mode_nobarrier(tmp_path):
    cfg = _write_config(tmp_path, {"mode": "gap", "model": NOBARRIER})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    crossing = json.loads((tmp_path / "crossing.json").read_text())
    assert crossing["s_star"] == pytest.approx(0.5, abs=1e-6)
    assert crossing["g"] == pytest.approx(0.70711, abs=1e-5)
    lines = (tmp_path / "gap.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("# version=")
    assert lines[2] == "s,lambda0,lambda1,delta,gamma,rho"


def test_sweep_mode_outputs_and_determinism(tmp_path):
    payload = {"mode": "sweep", "model": NOBARRIER,
               "tau_grid": {"min": 20.0, "max": 40.0, "count": 9}}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    rows = (out1 / "sweep.csv").read_text().splitlines()
    assert rows[2] == "tau,p_transition,p_ground"
    tau, p, q = map(float, rows[3].split(","))
    assert tau == 20.0 and 0.0 <= p <= 1.0 and p + q == pytest.approx(1.0, abs=1e-15)
    snap = json.loads((out1 / "sweep_config.json").read_text())
    assert snap["tau_grid"]["count"] == 9


def test_sweep_mode_requires_tau_grid(tmp_path):
    cfg = _write_config(tmp_path, {"mode": "sweep", "model": NOBARRIER})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("message, payload", [
    ("sweep mode requires a tau_grid", {"mode": "sweep", "model": NOBARRIER}),
    ("sweep mode requires a tau_grid", {"mode": "sweep", "model": NOBARRIER,
                                        "tau_grid": None}),
    ("predict mode requires a tau_grid", {"mode": "predict", "model": NOBARRIER}),
    ("fit mode requires a tau_grid", {"mode": "fit", "model": _BARRIER16}),
    # the modes and the field that version 0.12.0 removed
    ("unknown mode 'grover'", {"mode": "grover", "model": {"kind": "grover", "big_n": 64,
                                                           "big_m": 1}}),
    ("unknown mode 'reproduce-figure'", {"mode": "reproduce-figure"}),
    ("unknown config fields: ['figure']", {"mode": "gap", "model": NOBARRIER,
                                           "figure": "fig5"}),
    # the field that version 0.13.0 removed: gap_trace refines its own grid
    ("unknown config fields: ['s_points']", {"mode": "gap", "model": NOBARRIER,
                                             "s_points": 100.5}),
    # a model takes only the fields its kind reads
    ("a cubic model reads no fields ['alpha', 'mu']",
     {"mode": "gap", "model": {"kind": "cubic", "n": 16, "mu": 3.0, "alpha": 0.3}}),
    ("a grover model reads no fields ['mu', 'n']",
     {"mode": "predict", "model": {"kind": "grover", "big_n": 64, "big_m": 1, "n": 5, "mu": 2},
      "tau_grid": {"min": 20.0, "max": 40.0, "count": 3}}),
], ids=["sweep", "sweep-null", "predict", "fit", "grover-mode", "reproduce-figure-mode",
        "figure-field", "s_points-field", "cubic-unread-keys", "grover-unread-keys"])
def test_mode_requirements_exit_1_before_output(tmp_path, capsys, message, payload):
    # the config is checked before any analysis or sweep runs
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_null_blocks_are_absent(tmp_path):
    # "evolution": null runs with the default evolution, not a traceback
    payload = {**_SWEEP, "evolution": None, "prediction": None}
    assert ExperimentConfig.from_dict(payload) == ExperimentConfig.from_dict(_SWEEP)
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    snap = json.loads((tmp_path / "sweep_config.json").read_text())
    assert snap["evolution"] == {"step_tolerance": 1e-8, "max_steps": 1 << 22}


def test_sweep_numerical_failure_exit_code(tmp_path):
    payload = {"mode": "sweep", "model": NOBARRIER,
               "tau_grid": {"min": 50.0, "max": 60.0, "count": 3},
               "evolution": {"step_tolerance": 1e-14, "max_steps": 512}}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("mode", ["gap", "sweep"])
def test_degenerate_ground_state_exit_2(tmp_path, capsys, mode):
    # Delta(1) = mu = 1e-13 is degenerate to rounding: the trace applies the
    # sweep's rule, and does not write rho(1) = gamma / Delta^2 ~ 5e25
    payload = {"mode": mode, "model": {"kind": "nobarrier", "n": 1, "mu": 1e-13},
               "tau_grid": {"min": 20.0, "max": 40.0, "count": 3}}
    if mode == "gap":
        del payload["tau_grid"]
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "ground state degenerate at s=1.0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_eigensolver_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a numerical failure, although LinAlgError subclasses ValueError (exit 1)
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(spectrum, "_eigs", fail)
    cfg = _write_config(tmp_path, {"mode": "gap", "model": NOBARRIER})
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_predict_mode_large_gap(tmp_path):
    payload = {"mode": "predict", "model": NOBARRIER,
               "tau_grid": {"min": 20.0, "max": 100.0, "count": 11}}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "prediction_params.json").read_text())
    assert params["model"] == "large-gap"
    assert params["omega"] == pytest.approx(0.811613, abs=1e-4)


@pytest.mark.parametrize("mu", [math.sqrt(2.0), 2.0])
def test_predict_mode_barrier_endpoint_rho(tmp_path, mu):
    # the shallow bump sits away from s = 1, where each qubit is the
    # single-qubit nobarrier model: rho(1) = 1/(2 mu^2), not 1/(2 mu)
    payload = {"mode": "predict", "tau_grid": {"min": 20.0, "max": 100.0, "count": 5},
               "model": {"kind": "barrier", "n": 100, "mu": mu, "alpha": 0.1, "beta": 0.1}}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "prediction_params.json").read_text())
    assert params["m"] == 100
    assert abs(params["rho1"] - reference.nobarrier1_rhos(mu)[1]) <= 1e-6


def test_predict_mode_avoided_needs_a(tmp_path):
    payload = {"mode": "predict", "model": {"kind": "cubic", "n": 30},
               "tau_grid": {"min": 20.0, "max": 120.0, "count": 5}}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    payload["prediction"] = {"A": 0.1}
    cfg = _write_config(tmp_path, payload, "cfg2.json")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "prediction_params.json").read_text())
    assert params["model"] == "split" and params["A"] == 0.1


def test_fit_mode_rejects_large_gap_model(tmp_path):
    payload = {"mode": "fit", "model": NOBARRIER,
               "tau_grid": {"min": 20.0, "max": 120.0, "count": 30}}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("tau_grid, error", [
    ({"min": 100.0, "max": 400.0, "count": 19}, "at least 20 sweep points"),
    ({"min": 100.0, "max": 100.5, "count": 40}, "at least 3 oscillation periods"),
], ids=["19-taus", "short-span"])
def test_fit_mode_checks_tau_grid_before_sweeping(tmp_path, capsys, monkeypatch,
                                                  tau_grid, error):
    # the fit's rule on its taus ran only after the whole sweep
    monkeypatch.setattr(cli, "tau_sweep", lambda *a: pytest.fail("swept"))
    payload = {"mode": "fit", "model": _BARRIER16, "tau_grid": tau_grid}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert error in capsys.readouterr().err


def test_predict_mode_grover(tmp_path):
    # the search model's omega and rho are closed forms: no gap analysis runs
    payload = {"mode": "predict",
               "model": {"kind": "grover", "big_n": 64, "big_m": 1},
               "tau_grid": {"min": 100.0, "max": 200.0, "count": 5}}
    cfg = _write_config(tmp_path, payload)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "prediction_params.json").read_text())
    assert params["model"] == "grover"
    assert params["omega"] == pytest.approx(0.2394257806110935, abs=1e-12)
    assert params["rho"] == pytest.approx(math.atan(math.sqrt(63)), abs=1e-12)
    rows = (tmp_path / "prediction.csv").read_text().splitlines()[3:]
    taus, probs = np.array([[float(x) for x in r.split(",")] for r in rows]).T
    assert taus.tolist() == [100.0, 125.0, 150.0, 175.0, 200.0]
    assert probs.tolist() == predict_grover(64, 1, taus).tolist()


# -------------------------------------------------------- recipe workers

def _cheap_recipe(name):
    tau = {"min": 20.0, "max": 40.0, "count": 25}
    evo = {"step_tolerance": 1e-6}
    return [("_mu1", _recipe("sweep", NOBARRIER, tau, evolution=evo)),
            ("_mu2", _recipe("sweep", dict(NOBARRIER, mu=2.0), tau, evolution=evo)),
            ("_theory", _recipe("predict", NOBARRIER, tau))]


def test_reproduce_figure_thread_invariance(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_figure_configs", _cheap_recipe)
    env = dict(os.environ)
    for threads in ("1", "2"):
        assert main(["--figure", "fig3", "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
    assert dict(os.environ) == env  # the workers' BLAS settings stay theirs
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    assert len(names) == 6
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    failing = _recipe("sweep", NOBARRIER, {"min": 50.0, "max": 60.0, "count": 3},
                      evolution={"step_tolerance": 1e-14, "max_steps": 512})
    monkeypatch.setattr(cli, "_figure_configs",
                        lambda name: _cheap_recipe(name) + [("_bad", failing)])
    assert main(["--figure", "fig3", "--out", str(tmp_path / "bad"),
                 "--threads", "2"]) == 2


# --------------------------------------------------------- figure recipes

_RECIPE_SIZES = [("fig3", 6), ("fig4", 6), ("fig5", 1), ("fig6", 1), ("fig7", 1),
                 ("fig8", 1), ("fig9", 1), ("fig10", 2)]


@pytest.mark.parametrize("name,count", _RECIPE_SIZES)
def test_figure_recipes_well_formed(name, count):
    assert tuple(fig for fig, _ in _RECIPE_SIZES) == FIGURES
    configs = _figure_configs(name)
    assert len(configs) == count
    for _tag, sub in configs:
        assert sub.mode in ("gap", "sweep", "predict", "fit")
        if sub.mode in ("sweep", "fit", "predict"):
            assert sub.tau_grid is not None


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError):
        _figure_configs("fig11")
    # before any output: no directory is made for the unknown recipe
    assert main(["--figure", "fig11", "--out", str(tmp_path / "f11")]) == 1
    assert not (tmp_path / "f11").exists()


def test_reproduce_figure_gap_smoke(tmp_path):
    assert main(["--figure", "fig5", "--out", str(tmp_path)]) == 0
    crossing = json.loads((tmp_path / "crossing_fig5.json").read_text())
    assert crossing["kind"] == "avoided"
    assert 0.0 < crossing["s_star"] < 1.0


@pytest.mark.parametrize("extra", [["--config", "cfg.json"], ["--mode", "gap"]],
                         ids=["config", "mode"])
def test_figure_takes_no_config_or_mode(tmp_path, monkeypatch, capsys, extra):
    # the recipe was silently dropped for the config's run, or the mode's
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, {"mode": "gap", "model": NOBARRIER})
    assert main(["--figure", "fig5", *extra, "--out", str(tmp_path / "out")]) == 1
    assert "--figure cannot be combined" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------- benchmark tracer

def test_benchmark_tracer_wraps_and_restores(tmp_path):
    # perfbench/tracing.py looks up names the package keeps only for it (the
    # eigensolver imports of spectrum and evolve, cli._sweep_chunk): if one
    # goes, install() raises here and not only on a traced benchmark run
    import tracing
    names = [(spectrum, "locate_crossing"), (cli, "locate_crossing"), (spectrum, "eigh"),
             (spectrum, "eigh_tridiagonal"), (evolve, "eigh_tridiagonal"),
             (evolve, "tridiagonal_bands"), (cli, "_sweep_chunk")]
    before = [getattr(module, attr) for module, attr in names]
    _tracer, undo = tracing.install(tmp_path)
    try:
        assert all(getattr(m, a) is not b for (m, a), b in zip(names, before))
    finally:
        undo()
    assert all(getattr(m, a) is b for (m, a), b in zip(names, before))


@pytest.mark.parametrize("name", ["cli-tridiag", "analysis-scan"])
def test_benchmark_workloads_run_and_check(tmp_path, name):
    # perfbench/workloads.py drives the package through its public API: a
    # removal it depends on fails here and not only on a benchmark run
    import workloads
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.prepare()
    workload.reference()
    for op in workload.ops():
        assert op.check(op.run()) == [], op.label
