"""The benchmark's three workloads.

Each workload turns the seed into inputs, warms up every timed code path,
lists its operations and checks each operation's output against
`reference` (which shares no code with `annealosc`) or against a property
the method must have.  An operation is a zero-argument callable; its check
returns a list of failure messages, empty when the output is right.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from annealosc import cli, evolve, fit, models, predict, spectrum

import reference as ref

SQRT2 = math.sqrt(2.0)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # for an operation that fails its check every round because of a named
    # program fault: returns the fault's name when the output shows that
    # fault's symptom and nothing else wrong, "" otherwise.  Such a failure
    # counts as failed but does not make the run incorrect.
    known_fault: Callable[[Any], str] | None = None


def dop853_bound(tol: float) -> float:
    """|P - P_ref| allowed at step tolerance tol.

    A level is accepted once doubling the substeps moves the final state by
    less than tol in norm; for a second-order rule the accepted state's own
    error is then about tol/3.  P = 1 - |<phi0|psi>|^2 moves by at most
    2 |dpsi|, so 2 tol leaves a factor-3 margin; 1e-8 covers the reference.
    """
    return 2.0 * tol + 1e-8


def _interior_extrema(taus: np.ndarray, probs: np.ndarray):
    """(position, value, is_max) of interior extrema, refined by a parabola
    through the sample and its two neighbours."""
    out = []
    h = taus[1] - taus[0]
    for i in range(1, len(probs) - 1):
        a, b, c = probs[i - 1], probs[i], probs[i + 1]
        if (b - a) * (c - b) < 0:
            curv = a - 2 * b + c
            d = 0.5 * (a - c) / curv
            out.append((taus[i] + d * h, b - 0.25 * (a - c) * d, curv < 0))
    return out


# --------------------------------------------------------------- sweep-d2

class SweepD2:
    """Library tau_sweep on the dimension-2 models of the fig3 and fig10
    recipes: no-barrier n=1 at couplings 1, sqrt 2, 2 on tau in [20, 100] and
    the N=64, M=1 search model on tau in [150, 500], step tolerance 1e-7.

    Each no-barrier range is split at a per-coupling tau into a low and a
    high block of 8 seeded tau.  Below the split every tau converges by
    16384 substeps; the high block holds tau = 90, which needs 32768, and
    the low block tau = 40, which needs 16384.  These anchors fix the
    accepted doubling level of each block, so the work per round does not
    depend on the seed.  The search model gets two blocks of 7 tau spaced a
    sixth of the oscillation period, each covering one period placed at a
    seeded minimum in the lower and the upper half of its range, so every
    block holds an interior minimum and maximum.
    """

    pool_workers = 0
    TOL = 1e-7
    SPLIT = {1.0: 75.0, SQRT2: 60.0, 2.0: 45.0}

    def __init__(self, seed: int, out: Path):
        self.seed = seed

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        cfg = evolve.EvolutionConfig(step_tolerance=self.TOL)
        self.blocks = []  # (label, model key, taus)
        for mu, split in self.SPLIT.items():
            low = np.sort(np.append(rng.uniform(20.0, split, 7), 40.0))
            high = np.sort(np.append(rng.uniform(split, 100.0, 7), 90.0))
            self.blocks += [(f"nobarrier mu={mu:.4g} low", mu, low),
                            (f"nobarrier mu={mu:.4g} high", mu, high)]
        omega = ref.search_omega(64, 1)
        period = 2 * math.pi / omega
        for lo, hi in ((150.0, 325.0), (325.0, 500.0)):
            k_min = math.ceil((lo + 0.375 * period) / period)
            k_max = math.floor((hi - 0.875 * period) / period)
            k = int(rng.integers(k_min, k_max + 1))
            start = k * period - 0.25 * period + rng.uniform(-0.125, 0.125) * period
            self.blocks.append((f"search k={k}", "search",
                                start + np.arange(7) * period / 6.0))
        self.spot = {int(rng.integers(0, 6)): int(rng.integers(0, 8)),
                     int(rng.integers(6, 8)): int(rng.integers(0, 7))}
        self.models = {mu: models.build_model(models.ModelSpec(kind="nobarrier", n=1, mu=mu))
                       for mu in self.SPLIT}
        self.models["search"] = models.build_model(models.ModelSpec(kind="grover", big_n=64, big_m=1))
        self.cfg = cfg
        warm = evolve.EvolutionConfig(step_tolerance=1e-3)
        for key in (1.0, "search"):
            evolve.tau_sweep(self.models[key], np.array([30.0, 160.0]), warm)

    def reference(self) -> None:
        self.ref_p = {}
        for b, j in self.spot.items():
            _, key, taus = self.blocks[b]
            dense = ref.search(64, 1) if key == "search" else ref.nobarrier(1, key)
            self.ref_p[b] = (j, ref.leakage_dop853(dense, float(taus[j])))

    def ops(self) -> list[Op]:
        out = []
        for b, (label, key, taus) in enumerate(self.blocks):
            run = (lambda m=self.models[key], t=taus:
                   evolve.tau_sweep(m, t, self.cfg).probs.copy())
            out.append(Op(label, run, lambda p, b=b: self._check(b, p)))
        return out

    def _check(self, b: int, probs: np.ndarray) -> list[str]:
        label, key, taus = self.blocks[b]
        errs = []
        if key == "search":
            omega, rho = ref.search_omega(64, 1), ref.search_rho(64, 1)
            ext = _interior_extrema(taus, probs)
            if not any(m for *_, m in ext) or all(m for *_, m in ext):
                errs.append(f"{label}: expected an interior minimum and maximum")
            for t, val, is_max in ext:
                if is_max:
                    env = 4 * rho**2 / t**2
                    if abs(val - env) > 0.10 * env:
                        errs.append(f"{label}: peak {val:.4g} at {t:.2f} vs 4rho^2/tau^2 {env:.4g}")
                else:
                    tk = 2 * math.pi * round(t * omega / (2 * math.pi)) / omega
                    if abs(t - tk) > 0.02 * tk:
                        errs.append(f"{label}: minimum at {t:.2f} vs 2 pi k/omega {tk:.2f}")
        else:
            r0, r1 = ref.nobarrier1_rhos(key)
            pred = ref.large_gap(taus, r0, r1, ref.nobarrier1_omega(key))
            worst = float(np.max(np.abs(probs - pred) * taus**3))
            if worst > 5.0:
                errs.append(f"{label}: |P - large-gap| tau^3 = {worst:.3g} > 5")
        if b in self.ref_p:
            j, p_ref = self.ref_p[b]
            if abs(probs[j] - p_ref) > dop853_bound(self.TOL):
                errs.append(f"{label}: P({taus[j]:.3f}) = {probs[j]:.10g}, DOP853 {p_ref:.10g}")
        return errs


# ------------------------------------------------------------ cli-tridiag

class CliTridiag:
    """annealosc.cli.main in sweep mode with --threads 2 on barrier models
    of dimension 13 and 17, step tolerance 1e-5.

    - large-gap barrier n=16, alpha = beta = 0.1 (the fig4 family), 81 tau:
      two chunks, 64 and 17;
    - avoided-crossing barrier n=16, alpha=0.3, beta=0.5, 161 tau: three
      chunks, the last one running alone;
    - avoided-crossing barrier n=12, alpha=0.3, beta=0.5, 97 tau.

    The tau range of each is [20, 100] with seeded ends moved inward by up
    to 2.  One seeded tau per sweep is checked against DOP853 on the dense
    (n+1)-dimensional H(s).
    """

    pool_workers = 2
    TOL = 1e-5
    SWEEPS = (("largegap-n16", dict(n=16, alpha=0.1, beta=0.1), 81),
              ("avoided-n16", dict(n=16, alpha=0.3, beta=0.5), 161),
              ("avoided-n12", dict(n=12, alpha=0.3, beta=0.5), 97))

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def _config(self, path: Path, model: dict, lo: float, hi: float, count: int,
                tol: float) -> None:
        path.write_text(json.dumps({
            "mode": "sweep", "model": model,
            "tau_grid": {"min": lo, "max": hi, "count": count},
            "evolution": {"step_tolerance": tol}}))

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.sweeps = []
        for label, params, count in self.SWEEPS:
            lo, hi = 20.0 + rng.uniform(0, 2), 100.0 - rng.uniform(0, 2)
            model = {"kind": "barrier", "n": params["n"], "mu": 1.0,
                     "alpha": params["alpha"], "beta": params["beta"]}
            cfg = self.out / f"{label}.json"
            self._config(cfg, model, lo, hi, count, self.TOL)
            self.sweeps.append((label, model, cfg, np.linspace(lo, hi, count),
                                int(rng.integers(0, count))))
        warm = self.out / "warmup.json"
        self._config(warm, {"kind": "barrier", "n": 9, "mu": 1.0, "alpha": 0.1,
                            "beta": 0.1}, 5.0, 10.0, 65, 1e-2)
        if cli.main(["--config", str(warm), "--out", str(self.out / "warmup"),
                     "--threads", "2"]) != 0:
            raise RuntimeError("warm-up CLI run failed")

    def reference(self) -> None:
        self.ref_p = []
        for _, model, _, taus, j in self.sweeps:
            dense = ref.barrier(model["n"], 1.0, model["alpha"], model["beta"])
            self.ref_p.append(ref.leakage_dop853(dense, float(taus[j])))

    def ops(self) -> list[Op]:
        out = []
        for i, (label, _, cfg, _, _) in enumerate(self.sweeps):
            outdir = self.out / label
            # relative, so the output path in the config snapshot has the same
            # length in every checkout
            argv = ["--config", os.path.relpath(cfg), "--out", os.path.relpath(outdir),
                    "--threads", "2"]
            out.append(Op(label, lambda a=argv: cli.main(a),
                          lambda rc, i=i, d=outdir: self._check(i, rc, d)))
        return out

    def _check(self, i: int, rc: int, outdir: Path) -> list[str]:
        label, _, _, taus, j = self.sweeps[i]
        if rc != 0:
            return [f"{label}: exit code {rc}"]
        errs = []
        with open(outdir / "sweep.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        if rows[0] != ["tau", "p_transition", "p_ground"]:
            errs.append(f"{label}: CSV header {rows[0]}")
        data = np.array(rows[1:], float)
        if data.shape != (len(taus), 3) or np.any(np.abs(data[:, 0] - taus) > 1e-12 * taus):
            return errs + [f"{label}: CSV tau column does not match the requested grid"]
        p, pg = data[:, 1], data[:, 2]
        if np.any((p < 0) | (p > 1)):
            errs.append(f"{label}: P outside [0, 1]")
        if np.any(pg != 1.0 - p):
            errs.append(f"{label}: p_ground != 1 - P")
        snap = json.loads((outdir / "sweep_config.json").read_text())
        if snap.get("mode") != "sweep" or "config_hash" not in snap:
            errs.append(f"{label}: sweep_config.json lacks mode or config_hash")
        # the next round must write its own files
        for name in ("sweep.csv", "sweep_config.json"):
            (outdir / name).unlink()
        if abs(p[j] - self.ref_p[i]) > dop853_bound(self.TOL):
            errs.append(f"{label}: P({taus[j]:.3f}) = {p[j]:.10g}, DOP853 {self.ref_p[i]:.10g}")
        return errs


# ---------------------------------------------------------- analysis-scan

@dataclass
class Scanned:
    spec: models.ModelSpec
    dense: ref.DenseModel
    expect: str       # the crossing class the parameter range is built for
    a_fix: float      # A of the fit_A data (v as located)
    a_joint: float    # A of the fit_A_v data
    v_factor: float   # v of the fit_A_v data, relative to the located v


class AnalysisScan:
    """build_model -> gap_trace -> locate_crossing on seeded models, and for
    each avoided crossing fit_A and fit_A_v on split-ansatz data made by
    `reference.split_ansatz` from the located parameters.

    Per round: barrier models with n = 24, 40, 64 and (alpha, beta) from
    the avoided-crossing grid, with n = 32, 56 and (alpha, beta) from the
    large-gap grid, cubic models with n = 16, 24, and the fixed model that
    hits a known fault of gap_trace.  The seed draws the (alpha, beta)
    pairs, the fit amplitudes and the order of the sizes.  The fit data
    cover 60 tau with pi g^2 tau / (4 v) in [0.5, 3], where the
    Landau-Zener term decays from 0.6 to 0.05 of A.
    """

    pool_workers = 0
    N_TAU = 60
    # the same sizes every round and every seed keep the work per round fixed
    SIZES = (("barrier", "avoided", [24, 40, 64]), ("barrier", "large-gap", [32, 56]),
             ("cubic", "avoided", [16, 24]))
    # (alpha, beta) grids whose every pair passes every check at these sizes;
    # an arbitrary pair can hit the duplicate-grid-point fault below
    PAIRS = {"avoided": [(a, b) for a in (0.26, 0.28, 0.30, 0.32, 0.34)
                         for b in (0.46, 0.50, 0.54, 0.58)],
             "large-gap": [(a, b) for a in (0.06, 0.09, 0.12, 0.15)
                           for b in (0.06, 0.10, 0.14, 0.18)]}
    # gap_trace keeps a refinement point 5.6e-17 from the coarse point
    # s = 0.37; locate_crossing then brackets the minimum between the two
    # and returns s* = 0.37 instead of 0.3683
    KNOWN_FAULT = dict(n=40, alpha=0.3307940789736494, beta=0.5272988341563213)
    FAULT_S, FAULT_NAME = 0.37, "gap_trace duplicate grid point, see CHANGES.md"
    # |program - reference| allowed; see README for the reasons
    BOUNDS = {"s_star": 1e-6, "g": 1e-9, "v_rel": 1e-5, "omega": 1e-6}

    def __init__(self, seed: int, out: Path):
        self.seed = seed

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.scan = []
        for kind, expect, sizes in self.SIZES:
            for n in rng.permutation(sizes).tolist():
                if kind == "cubic":
                    spec, dense = models.ModelSpec(kind="cubic", n=n), ref.cubic(n)
                else:
                    pairs = self.PAIRS[expect]
                    alpha, beta = pairs[int(rng.integers(len(pairs)))]
                    spec = models.ModelSpec(kind="barrier", n=n, mu=1.0, alpha=alpha, beta=beta)
                    dense = ref.barrier(n, 1.0, alpha, beta)
                self.scan.append(Scanned(spec, dense, expect,
                                         float(rng.uniform(0.1, 0.9)),
                                         float(rng.uniform(0.1, 0.9)),
                                         float(rng.uniform(0.7, 1.4))))
        k = self.KNOWN_FAULT
        self.scan.append(Scanned(
            models.ModelSpec(kind="barrier", mu=1.0, **k),
            ref.barrier(k["n"], 1.0, k["alpha"], k["beta"]), "avoided", 0.5, 0.5, 1.2))
        warm = [models.ModelSpec(kind="barrier", n=12, mu=1.0, alpha=0.3, beta=0.5),
                models.ModelSpec(kind="barrier", n=12, mu=1.0, alpha=0.1, beta=0.1)]
        for spec in warm:
            self._analyse(Scanned(spec, None, "", 0.5, 0.5, 1.2), n_scan=6)

    def _data(self, p: predict.SplitParams, A: float, v: float):
        x = np.linspace(0.5, 3.0, self.N_TAU)
        taus = x * 4.0 * v / (math.pi * p.g**2)
        probs = ref.split_ansatz(taus, A, p.g, v, p.rho0, p.rho1,
                                 p.omega_minus, p.omega_plus, p.m)
        return evolve.SweepResult(taus=taus, probs=probs, model_label="synthetic",
                                  config=evolve.EvolutionConfig())

    def _analyse(self, item: Scanned, n_scan: int = 48) -> dict:
        model = models.build_model(item.spec)
        trace = spectrum.gap_trace(model)
        cr = spectrum.locate_crossing(trace)
        out = {"crossing": cr}
        if cr.kind == "avoided":
            p = predict.split_params_from_crossing(cr, *spectrum.rho_endpoints(trace))
            out["fit_A"] = fit.fit_A(self._data(p, item.a_fix, p.v), p)
            v_true = p.v * item.v_factor
            out["v_true"] = v_true
            out["fit_A_v"] = fit.fit_A_v(self._data(p, item.a_joint, v_true), p,
                                         n_scan=n_scan)
        return out

    def reference(self) -> None:
        self.ref_cr = [ref.crossing(item.dense) for item in self.scan]
        self.ref_fault = {}  # reference taken at the program's faulty s*

    def ops(self) -> list[Op]:
        ops = [Op(f"{it.spec.kind} n={it.spec.n}", lambda it=it: self._analyse(it),
                  lambda res, i=i: self._check(i, res))
               for i, it in enumerate(self.scan)]
        ops[-1].known_fault = self._known_fault
        return ops

    @staticmethod
    def _label(item: Scanned) -> str:
        return f"{item.spec.kind} n={item.spec.n} a={item.spec.alpha} b={item.spec.beta}"

    def _check(self, i: int, res: dict) -> list[str]:
        item, want, got = self.scan[i], self.ref_cr[i], res["crossing"]
        if want.kind != item.expect:
            return [f"{self._label(item)}: reference class {want.kind}, "
                    f"scan expects {item.expect}"]
        return self._crossing_errors(item, got, want) + self._fit_errors(item, res)

    def _known_fault(self, res: dict) -> str:
        """FAULT_NAME when the output of the fixed model shows the named
        fault and nothing else: s* at the refinement point next to
        s = FAULT_S, and class, g, v, omega-, omega+ and both fits as the
        dense reference gives them at that s*."""
        item, got = self.scan[-1], res["crossing"]
        if got.kind != "avoided" or not abs(got.s_star - self.FAULT_S) <= 1e-6:
            return ""
        if got.s_star not in self.ref_fault:
            self.ref_fault[got.s_star] = ref.crossing_at(item.dense, got.s_star)
        want = self.ref_fault[got.s_star]
        errs = self._crossing_errors(item, got, want) + self._fit_errors(item, res)
        return "" if errs else self.FAULT_NAME

    def _crossing_errors(self, item: Scanned, got, want: ref.Crossing) -> list[str]:
        label = self._label(item)
        if got.kind != want.kind:
            return [f"{label}: class {got.kind}, reference {want.kind}"]
        bd = self.BOUNDS
        diffs = {"s_star": abs(got.s_star - want.s_star), "g": abs(got.g - want.g),
                 "omega": max(abs(got.omega_minus - want.omega_minus),
                              abs(got.omega_plus - want.omega_plus))}
        if want.kind == "avoided":
            diffs["v_rel"] = abs(got.v / want.v - 1.0)
        return [f"{label}: {k} differs by {d:.3g} > {bd[k]:g}"
                for k, d in diffs.items() if not d <= bd[k]]

    @classmethod
    def _fit_errors(cls, item: Scanned, res: dict) -> list[str]:
        if "fit_A" not in res:
            return []
        label, errs = cls._label(item), []
        fa, fav = res["fit_A"], res["fit_A_v"]
        if not (fa.converged and abs(fa.a_hat - item.a_fix) <= 1e-6):
            errs.append(f"{label}: fit_A {fa.a_hat!r} vs {item.a_fix!r}")
        if not (fav.converged and abs(fav.a_hat / item.a_joint - 1) <= 1e-4
                and abs(fav.v_hat / res["v_true"] - 1) <= 1e-4):
            errs.append(f"{label}: fit_A_v ({fav.a_hat!r}, {fav.v_hat!r}) vs "
                        f"({item.a_joint!r}, {res['v_true']!r})")
        return errs


WORKLOADS = {"sweep-d2": SweepD2, "cli-tridiag": CliTridiag, "analysis-scan": AnalysisScan}
