import json
import math

import numpy as np
import pytest

from annealosc import EvolutionConfig, ModelSpec, build_model, ground_state, tau_sweep
from annealosc import evolve, spectrum
from annealosc.cli import main
from annealosc.evolve import ConvergenceError, SweepResult, _propagate
from annealosc.models import ReducedHamiltonian
from annealosc.spectrum import DegenerateGroundStateError, gap_trace

import reference
from oracles import (cf4_reference, evolve_schrodinger, evolve_two_level,
                     full_grover_hamiltonian, integrate_schrodinger_full,
                     transition_probability)

from test_spectrum import OMEGA_NB_MU1


def test_ground_state_grover_initial(grover64):
    psi = ground_state(grover64, 0.0)
    expected = np.array([math.sqrt(1 / 64), math.sqrt(63 / 64)])
    assert np.allclose(psi, expected, atol=1e-12)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)


def test_ground_state_nobarrier_final(nobarrier1):
    psi = ground_state(nobarrier1, 1.0)
    assert np.allclose(np.abs(psi), [1.0, 0.0], atol=1e-14)


def test_degenerate_final_ground_state_raises_the_trace_error():
    # H(1) = diag(0, 0, 1): the sweep fails as the gap trace does, with the
    # error the CLI reports as a numerical failure
    off = np.array([1.0, 1.0])
    model = ReducedHamiltonian(h0=np.diag(off, 1) + np.diag(off, -1),
                               h1=np.diag([0.0, 0.0, 1.0]), schedule=lambda s: s,
                               schedule_deriv=lambda s: 1.0, label="degenerate end")
    with pytest.raises(DegenerateGroundStateError):
        gap_trace(model)
    with pytest.raises(DegenerateGroundStateError, match="degenerate at s=1.0"):
        tau_sweep(model, [20.0])


def test_unitarity(nobarrier1, grover64):
    for model, tau in [(nobarrier1, 37.5), (grover64, 123.0)]:
        psi = evolve_schrodinger(model, tau)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_rejects_bad_tau(nobarrier1):
    for tau in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            evolve_schrodinger(nobarrier1, tau)


def test_n1_against_large_gap_formula(nobarrier1):
    # two-level problem: P ~ sin^2(omega tau / 2) / tau^2 with rho = 1/2
    tau = 50.0
    psi = evolve_schrodinger(nobarrier1, tau)
    p = transition_probability(psi, nobarrier1)
    pred = math.sin(OMEGA_NB_MU1 * tau / 2) ** 2 / tau**2
    assert pred == pytest.approx(3.93e-4, abs=5e-6)
    assert abs(p - pred) < 1e-5


def test_methods_agree(nobarrier1):
    tau = 42.0
    p_cf4 = transition_probability(evolve_schrodinger(nobarrier1, tau), nobarrier1)
    p_ref = reference.leakage_dop853(reference.nobarrier(1, 1.0), tau)
    assert p_cf4 == pytest.approx(p_ref, abs=1e-9)


def test_barrier_dim17_sweep_against_dense_oracle():
    # a tridiagonal model with an avoided crossing, against the reference's
    # DOP853 integration of its dense H(s)
    model = build_model(ModelSpec(kind="barrier", n=16, mu=1.0, alpha=0.3, beta=0.5))
    taus = np.array([20.0, 45.0, 70.0, 100.0])
    sweep = tau_sweep(model, taus)
    dense = reference.barrier(16, 1.0, 0.3, 0.5)
    for tau, p in zip(taus, sweep.probs):
        assert p == pytest.approx(reference.leakage_dop853(dense, tau), abs=1e-9)


@pytest.mark.parametrize("n", [16, 84])
def test_nobarrier_sweep_against_product_formula(n):
    # n independent qubits: the state stays a product, so P_n = 1 - (1 - P_1)^n
    # exactly, here up to d = 85 (dstevd's route); P_1 from the reference's
    # DOP853.  step_tolerance bounds each tau's state change between levels
    # in 2-norm, an absolute measure, so P is held to it absolutely (the
    # largest error here is 2.5e-8, at n = 84 and tau = 60)
    tol = 1e-5
    taus = np.array([20.0, 60.0, 200.0, 500.0, 1000.0])
    sweep = tau_sweep(build_model(ModelSpec(kind="nobarrier", n=n, mu=1.0)), taus,
                      EvolutionConfig(step_tolerance=tol))
    p1 = np.array([reference.leakage_dop853(reference.nobarrier(1, 1.0), tau) for tau in taus])
    assert np.abs(sweep.probs - (1.0 - (1.0 - p1) ** n)).max() <= tol


def test_grover_against_full_space_oracle():
    big_n, big_m, tau = 4, 1, 30.0
    model = build_model(ModelSpec(kind="grover", big_n=big_n, big_m=big_m))
    psi = evolve_schrodinger(model, tau)
    g = reference.search(big_n, big_m).g

    def h_full(s):
        return full_grover_hamiltonian(big_n, big_m, g(s))

    psi0_full = np.full(big_n, 1.0 / math.sqrt(big_n))
    psi_full = integrate_schrodinger_full(h_full, psi0_full, tau)
    # embed reduced state in full space via the target/non-target basis
    basis = np.zeros((big_n, 2))
    basis[:big_m, 0] = 1.0 / math.sqrt(big_m)
    basis[big_m:, 1] = 1.0 / math.sqrt(big_n - big_m)
    embedded = basis @ psi
    phase = psi_full @ embedded.conj() / abs(psi_full @ embedded.conj())
    assert np.allclose(embedded * phase, psi_full, atol=1e-8)


def test_transition_probability_limits(nobarrier1):
    phi = ground_state(nobarrier1, 1.0).astype(complex)
    assert transition_probability(phi, nobarrier1) == pytest.approx(0.0, abs=1e-14)
    perp = np.array([-phi[1].conjugate(), phi[0].conjugate()])
    assert transition_probability(perp, nobarrier1) == pytest.approx(1.0, abs=1e-14)


def test_sweep_composition_and_independence(nobarrier1):
    taus = np.array([30.0, 45.0, 60.0])
    sweep = tau_sweep(nobarrier1, taus)
    for tau, p in zip(taus, sweep.probs):
        single = transition_probability(evolve_schrodinger(nobarrier1, tau),
                                        nobarrier1)
        assert p == pytest.approx(single, abs=1e-10)
    assert np.all((sweep.probs >= 0) & (sweep.probs <= 1))


@pytest.mark.parametrize("case, taus, tau, tol", [
    ("nobarrier1", np.array([40.0, 400.0, 1000.0]), 400.0, 1e-5),
    ("barrier16", np.linspace(20.0, 100.0, 65), 60.0, 1e-5),
    ("grover64", np.linspace(100.0, 300.0, 41), 200.0, 1e-7),
])
def test_sweep_batch_independent(request, case, taus, tau, tol):
    # each tau is accepted on its own error, so the taus it shares a sweep
    # with do not change its P
    model = _barrier(16) if case == "barrier16" else request.getfixturevalue(case)
    cfg = EvolutionConfig(step_tolerance=tol)
    alone = tau_sweep(model, np.array([tau]), cfg).probs[0]
    batch = tau_sweep(model, taus, cfg).probs[np.flatnonzero(taus == tau)[0]]
    assert abs(batch - alone) <= 1e-12 * alone


@pytest.mark.parametrize("case, taus, tol", [
    ("barrier16", np.linspace(20.0, 100.0, 65), 1e-5),
    ("grover64", np.linspace(100.0, 300.0, 41), 1e-7),
])
def test_sweep_batch_independent_at_every_tau(request, case, taus, tol):
    # a tau's table-product phases depend on its sweep's lattice, so its P
    # does too, at roundoff: 1e-12 relative, or the change 2 sqrt(P) |dpsi|
    # that a state difference |dpsi| = 1e-14 makes to a small P
    model = _barrier(16) if case == "barrier16" else request.getfixturevalue(case)
    cfg = EvolutionConfig(step_tolerance=tol)
    batch = tau_sweep(model, taus, cfg).probs
    alone = np.array([tau_sweep(model, np.array([t]), cfg).probs[0] for t in taus])
    assert np.all(np.abs(batch - alone) <= 1e-12 * alone + 2e-14 * np.sqrt(alone))


def test_sweep_validates_taus(nobarrier1):
    with pytest.raises(ValueError):
        tau_sweep(nobarrier1, np.array([10.0, 5.0]))
    with pytest.raises(ValueError):
        tau_sweep(nobarrier1, np.array([-1.0, 5.0]))
    # a NaN or inf tau would otherwise run every doubling level to max_steps
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            tau_sweep(nobarrier1, np.array([5.0, bad]))


@pytest.mark.parametrize("taus", [np.array([]), np.array(5.0)], ids=["empty", "0-d"])
def test_sweep_rejects_empty_and_scalar_taus(nobarrier1, monkeypatch, taus):
    # an empty array decomposed 256 matrices for an empty result, and a 0-d
    # one failed inside np.diff; both are refused before any eigensolve
    monkeypatch.setattr(evolve, "_eigs", lambda *a, **k: pytest.fail("_eigs called"))
    monkeypatch.setattr(evolve, "_two_lowest", lambda *a: pytest.fail("_two_lowest called"))
    with pytest.raises(ValueError, match="taus"):
        tau_sweep(nobarrier1, taus)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_result_rejects_non_finite(bad):
    good = np.array([1.0, 2.0])
    for taus, probs in ((np.array([1.0, bad]), good / 4), (good, np.array([0.1, bad]))):
        with pytest.raises(ValueError):
            SweepResult(taus=taus, probs=probs, model_label="", config=EvolutionConfig())


def test_sweep_decay_bound(nobarrier1, nobarrier1_trace):
    # envelope bound from the oscillatory formula with both amplitude terms
    rho0, rho1 = nobarrier1_trace.rho[0], nobarrier1_trace.rho[-1]
    taus = np.linspace(200.0, 400.0, 40)
    sweep = tau_sweep(nobarrier1, taus)
    bound = (abs(rho0) + abs(rho1)) ** 2 / taus**2
    assert np.all(sweep.probs <= bound * 1.001)


def test_cf4_convergence_order(nobarrier1):
    # doubling the substeps reduces the error by at least the fourth-order factor
    tau = 25.0
    psi0 = ground_state(nobarrier1, 0.0)
    ref = _propagate(nobarrier1, np.array([tau]), 1 << 14, psi0)[:, 0]
    errs = []
    for n in (64, 128, 256):
        psi = _propagate(nobarrier1, np.array([tau]), n, psi0)[:, 0]
        errs.append(np.linalg.norm(psi - ref))
    assert errs[0] / errs[1] >= 15.0
    assert errs[1] / errs[2] >= 15.0


def _barrier(n):
    return build_model(ModelSpec(kind="barrier", n=n, mu=1.0, alpha=0.3, beta=0.5))


_REFERENCE_CASES = [
    ("grover64", dict(kind="grover", big_n=64, big_m=1), 8192),  # d = 2
    # batched dense eigh, sequential real-GEMM apply
    ("barrier12", dict(kind="barrier", n=12, mu=1.0, alpha=0.3, beta=0.5), 1024),
    ("barrier16", dict(kind="barrier", n=16, mu=1.0, alpha=0.3, beta=0.5), 1024),
    # dstevd per matrix
    ("barrier84", dict(kind="barrier", n=84, mu=1.0, alpha=0.3, beta=0.5), 250),
]


@pytest.mark.parametrize("spec, n_substeps, taus, q", [
    pytest.param(ModelSpec(**spec), n, taus, q, id=f"{case}-{n}{suffix}")
    for taus, q, suffix in (
        (np.array([20.0, 37.0, 61.5, 90.0, 140.0]), 1, ""),  # direct phases
        (np.linspace(20.0, 140.0, 9), 3, "-lattice"))        # table products
    for case, spec, n in _REFERENCE_CASES])
def test_propagate_matches_per_exponential_reference(spec, n_substeps, taus, q):
    model = build_model(spec)
    rows, cols = evolve._tau_lattice(taus)
    assert len(cols) == q
    # the level ends in a partial chunk
    chunk = evolve._chunk_size(model.dim, len(rows), len(cols))
    assert chunk < n_substeps and n_substeps % chunk
    psi0 = ground_state(model, 0.0)
    psi = _propagate(model, taus, n_substeps, psi0)
    ref = cf4_reference(spec, taus, n_substeps, psi0)
    assert np.linalg.norm(psi - ref, axis=0).max() <= 1e-12


def test_eigensolver_branches_agree(monkeypatch):
    model = _barrier(16)
    taus = np.array([25.0, 55.0, 95.0])
    psi0 = ground_state(model, 0.0)
    monkeypatch.setattr(spectrum, "_DENSE_EIGH_MAX_DIM", model.dim)
    dense = _propagate(model, taus, 512, psi0)
    monkeypatch.setattr(spectrum, "_DENSE_EIGH_MAX_DIM", model.dim - 1)
    banded = _propagate(model, taus, 512, psi0)
    assert np.linalg.norm(dense - banded, axis=0).max() <= 1e-12


def _degenerate(taus):
    return taus, np.zeros(1)


@pytest.mark.parametrize("taus", [
    np.linspace(20.0, 100.0, 161),
    np.linspace(6000.0, 7500.0, 251),
    np.linspace(150.0, 500.0, 241)[97:203],   # a contiguous open run
    np.linspace(20.0, 100.0, 65)[40:],        # the high-tau end of a sweep
    np.linspace(1.0, 2.0, 4),
])
def test_tau_lattice_of_even_grids(taus):
    rows, cols = evolve._tau_lattice(taus)
    q = math.isqrt(len(taus) - 1) + 1
    assert len(cols) == q and cols[0] == 0.0 and np.array_equal(rows, taus[::q])
    j = np.arange(len(taus))
    assert np.all(np.abs(rows[j // q] + cols[j % q] - taus) <= 4 * np.spacing(taus))


def _moved(taus, i, ulps):
    taus = taus.copy()
    for _ in range(ulps):
        taus[i] = np.nextafter(taus[i], math.inf)
    return taus


@pytest.mark.parametrize("taus", [
    np.geomspace(20.0, 100.0, 161),
    np.array([50.0]),
    np.array([20.0, 60.0]),
    np.array([20.0, 60.0, 100.0]),
    _moved(np.linspace(20.0, 100.0, 65), 30, 8),
    np.linspace(20.0, 100.0, 65)[[3, 4, 5, 7, 8, 9]],  # open taus with a hole
])
def test_tau_lattice_falls_back_to_degenerate(taus):
    rows, cols = evolve._tau_lattice(taus)
    assert rows is taus and np.array_equal(cols, [0.0])


def test_lattice_phases_match_direct_trigonometry():
    rng = np.random.default_rng(5)
    taus, n = np.linspace(6000.0, 7500.0, 251), 250
    w = rng.uniform(-2.0, 2.0, (3, 4))  # angles up to 60 rad
    rows, cols = evolve._tau_lattice(taus)
    assert len(cols) > 1
    phases = evolve._phases(w, rows, cols, n, len(taus))
    angles = -w[..., None] * taus / n
    assert np.abs(angles).max() > 55.0
    assert np.abs(phases - (np.cos(angles) + 1j * np.sin(angles))).max() <= 1e-13


@pytest.mark.parametrize("case, taus, tol", [
    ("barrier16", np.linspace(20.0, 100.0, 65), 1e-5),
    ("grover64", np.linspace(100.0, 300.0, 41), 1e-7),
    ("cubic16", np.linspace(300.0, 500.0, 33), 1e-4),
])
def test_lattice_phases_change_no_work_and_no_probability(request, monkeypatch,
                                                          case, taus, tol):
    # the table-product phases against direct trigonometry on every tau:
    # the same accepted level per tau, the same eigendecompositions, and P
    # to roundoff: 1e-12 relative, or the change 2 sqrt(P) |dpsi| that a
    # roundoff-level state difference |dpsi| = 1e-14 makes to a small P
    # (grover64 at tau = 210 has P = 4.1e-7 and |dP| = 1.1e-18)
    if case == "grover64":
        model = request.getfixturevalue(case)
    elif case == "cubic16":
        model = build_model(ModelSpec(kind="cubic", n=16))
    else:
        model = _barrier(16)
    cfg = EvolutionConfig(step_tolerance=tol)
    real_eigs, real_propagate = evolve._eigs, evolve._propagate

    def run():
        matrices, last = [0], {}

        def eigs(model, g, *args):
            matrices[0] += len(g)
            return real_eigs(model, g, *args)

        def propagate(model, ts, n, psi0):
            last.update(dict.fromkeys(ts.tolist(), n))
            return real_propagate(model, ts, n, psi0)

        monkeypatch.setattr(evolve, "_eigs", eigs)
        monkeypatch.setattr(evolve, "_propagate", propagate)
        probs = tau_sweep(model, taus, cfg).probs
        return probs, matrices[0], [last[t] for t in taus.tolist()]

    assert len(evolve._tau_lattice(taus)[1]) > 1
    lattice = run()
    monkeypatch.setattr(evolve, "_tau_lattice", _degenerate)
    direct = run()
    assert lattice[1] == direct[1] and lattice[2] == direct[2]
    p = direct[0]
    assert np.all(np.abs(lattice[0] - p) <= 1e-12 * p + 2e-14 * np.sqrt(p))


def test_nonconvergence_reported(nobarrier1):
    cfg = EvolutionConfig(step_tolerance=1e-14, max_steps=512)
    with pytest.raises(ConvergenceError):
        evolve_schrodinger(nobarrier1, 80.0, cfg)


@pytest.mark.parametrize("initial_steps", [-4, 0, 1, 7, 128])
def test_bad_initial_steps_rejected(initial_steps):
    # the first level is fixed at evolve._INITIAL_STEPS substeps
    with pytest.raises(TypeError, match="initial_steps"):
        EvolutionConfig(initial_steps=initial_steps)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_bad_step_tolerance_rejected(tol):
    with pytest.raises(ValueError):
        EvolutionConfig(step_tolerance=tol)


@pytest.mark.parametrize("evolution", [{"initial_steps": 0}, {"initial_steps": -4},
                                       {"method": "exponential-midpoint"},
                                       {"initial_steps": 256}, {"max_steps": 128},
                                       {"max_steps": 256}, {"max_steps": 511},
                                       {"max_steps": 300.5}])
def test_bad_evolution_config_cli_exit_code(tmp_path, evolution):
    # `method` and `initial_steps` are no longer EvolutionConfig fields, and
    # max_steps must be an integer that reaches the second level's 512
    # substeps, where the first comparison of two levels is made
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "sweep", "model": {"kind": "nobarrier", "n": 1, "mu": 1.0},
        "tau_grid": {"min": 20.0, "max": 30.0, "count": 3},
        "evolution": evolution}))
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_sweep_computes_final_ground_state_once(nobarrier1, monkeypatch):
    calls = []
    real = evolve.ground_state
    monkeypatch.setattr(evolve, "ground_state",
                        lambda model, s: calls.append(s) or real(model, s))
    tau_sweep(nobarrier1, np.linspace(20.0, 40.0, 9))
    assert sorted(calls) == [0.0, 1.0]


def test_two_level_matches_full_evolution(nobarrier1, nobarrier1_trace):
    for tau in (20.0, 50.0):
        direct = transition_probability(evolve_schrodinger(nobarrier1, tau),
                                        nobarrier1)
        amp = evolve_two_level(nobarrier1_trace, tau)
        assert amp.p_leak == pytest.approx(direct, abs=1e-6)
        assert abs(amp.c0) ** 2 + amp.p_leak == pytest.approx(1.0, abs=1e-6)


def test_two_level_decoupled_stays_put(nobarrier1_trace):
    import dataclasses
    tr = dataclasses.replace(nobarrier1_trace,
                             gamma=np.zeros_like(nobarrier1_trace.gamma))
    amp = evolve_two_level(tr, 30.0)
    assert abs(amp.c1) < 1e-12
    assert abs(amp.c0) == pytest.approx(1.0, abs=1e-12)


def test_two_level_trace_refuses_turning_vectors(nobarrier1_trace):
    # no trace can carry a cell where an eigenvector turns over 45 degrees, so
    # the two-level integrators never read a gamma of untrusted sign: here the
    # ground state turns by 60 degrees at one point
    import dataclasses
    tr = nobarrier1_trace
    vec0 = tr.vec0.copy()
    vec0[:, 200] = 0.5 * tr.vec0[:, 200] + math.sqrt(0.75) * tr.vec1[:, 200]
    with pytest.raises(ValueError, match="45 degrees"):
        dataclasses.replace(tr, vec0=vec0)


def test_two_level_large_tau_matches_formula(nobarrier1_trace):
    tau = 300.0
    amp = evolve_two_level(nobarrier1_trace, tau)
    pred = math.sin(OMEGA_NB_MU1 * tau / 2) ** 2 / tau**2
    assert amp.p_leak == pytest.approx(pred, abs=5.0 / tau**3)


def test_adiabatic_envelope_decay(nobarrier1):
    # oscillation maxima near tau = (2k+1) pi / omega decay like tau^-2
    om = OMEGA_NB_MU1
    k1, k2 = 11, 23
    t1 = (2 * k1 + 1) * math.pi / om
    t2 = (2 * k2 + 1) * math.pi / om
    p1 = transition_probability(evolve_schrodinger(nobarrier1, t1), nobarrier1)
    p2 = transition_probability(evolve_schrodinger(nobarrier1, t2), nobarrier1)
    assert p2 <= p1 * (t1 / t2) ** 2 * 1.1
