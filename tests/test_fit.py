import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealosc import SplitParams, predict_split
from annealosc.evolve import EvolutionConfig, SweepResult
from annealosc.fit import (fit_A, fit_A_v, fit_single_frequency, golden_min)

BASE = SplitParams(rho0=0.5, rho1=1.0, omega_minus=0.3, omega_plus=0.5,
                   g=0.25, v=0.5, A=None, m=1)


def synthetic_sweep(a, v=None, taus=None, noise=None, rng=None):
    if taus is None:
        taus = np.linspace(20.0, 120.0, 120)
    p = BASE.with_values(A=a) if v is None else BASE.with_values(A=a, v=v)
    probs = predict_split(p, taus)
    if noise is not None:
        probs = probs * (1.0 + noise * rng.standard_normal(len(taus)))
    probs = np.clip(probs, 0.0, 1.0)
    return SweepResult(taus=taus, probs=probs, model_label="synthetic",
                       config=EvolutionConfig())


def test_golden_min_quadratic():
    assert golden_min(lambda x: (x - 0.3) ** 2, -1.0, 1.0) == pytest.approx(
        0.3, abs=1e-7)


def test_fit_a_noiseless_roundtrip():
    res = fit_A(synthetic_sweep(0.25), BASE)
    assert res.a_hat == pytest.approx(0.25, abs=1e-6)
    assert res.rms_residual < 1e-9
    assert res.converged
    assert res.n_points == 120


def test_fit_a_boundary_flagged():
    res = fit_A(synthetic_sweep(0.25), BASE, a_max=0.1)
    assert not res.converged
    assert res.a_hat == pytest.approx(0.1, abs=1e-6)


@pytest.mark.parametrize("a", [0.02, 1.98])
def test_fit_a_near_bounds_converged(a):
    # an interior minimum close to either bound is still an interior minimum
    res = fit_A(synthetic_sweep(a), BASE)
    assert res.a_hat == pytest.approx(a, abs=1e-6)
    assert res.converged


@settings(deadline=None, max_examples=60)
@given(a=st.floats(0.0, 2.5), a_max=st.floats(0.05, 2.0),
       noise=st.floats(0.01, 0.3), seed=st.integers(0, 2**32 - 1))
def test_fit_a_finds_exact_minimum(a, a_max, noise, seed):
    # no A on a fine grid over [0, a_max] fits noisy data better than a_hat
    sweep = synthetic_sweep(a, noise=noise, rng=np.random.default_rng(seed))

    def sse(x):
        return float(np.sum((sweep.probs
                             - predict_split(BASE.with_values(A=x), sweep.taus)) ** 2))

    res = fit_A(sweep, BASE, a_max=a_max)
    assert 0.0 <= res.a_hat <= a_max
    grid_best = min(sse(x) for x in np.linspace(0.0, a_max, 2001))
    assert sse(res.a_hat) <= grid_best * (1.0 + 1e-12)


def test_fit_a_noise_calibration():
    # 1% multiplicative noise: recovered A stays within 2% of truth
    rng = np.random.default_rng(20240817)
    errs = []
    for _ in range(100):
        sweep = synthetic_sweep(0.25, noise=0.01, rng=rng)
        errs.append(abs(fit_A(sweep, BASE).a_hat - 0.25))
    errs = np.array(errs)
    assert errs.mean() <= 0.02 * 0.25
    assert np.quantile(errs, 0.95) <= 0.02 * 0.25


def test_fit_a_rejects_inadequate_sweep():
    taus = np.linspace(20.0, 120.0, 10)
    sweep = synthetic_sweep(0.1, taus=taus)
    with pytest.raises(ValueError):
        fit_A(sweep, BASE)
    taus = np.linspace(20.0, 25.0, 30)  # far less than 3 periods
    with pytest.raises(ValueError):
        fit_A(synthetic_sweep(0.1, taus=taus), BASE)


def test_fit_a_v_noiseless_roundtrip():
    res = fit_A_v(synthetic_sweep(0.2, v=0.5), BASE)
    assert res.a_hat == pytest.approx(0.2, rel=1e-4)
    assert res.v_hat == pytest.approx(0.5, rel=1e-4)
    assert res.converged
    assert res.rms_residual < 1e-9


@pytest.mark.parametrize("a,v,tau_hi", [
    (0.01, 0.05, 60.0),   # fast decay: signal only at small tau
    (0.1, 0.05, 60.0),
    (0.05, 1.0, 120.0),
    (1.0, 5.0, 300.0),    # slow decay needs a long window
])
def test_fit_a_v_roundtrip_grid(a, v, tau_hi):
    taus = np.linspace(2.0 if v <= 1.0 else 20.0, tau_hi, 150)
    sweep = synthetic_sweep(a, v=v, taus=taus)
    assert sweep.probs.max() <= 1.0 - 1e-12  # window keeps P physical
    res = fit_A_v(sweep, BASE)
    assert res.a_hat == pytest.approx(a, rel=1e-4)
    assert res.v_hat == pytest.approx(v, rel=1e-4)


def test_fit_a_v_degenerate_flagged():
    # data with no Landau-Zener component: A -> 0 with arbitrary v
    res = fit_A_v(synthetic_sweep(0.0), BASE)
    assert not res.converged
    assert res.rms_residual < 1e-10


def test_fit_invariant_under_point_order():
    # the objective depends only on the set of (tau, P) pairs
    rng = np.random.default_rng(3)
    taus = np.linspace(20.0, 120.0, 120)
    probs = predict_split(BASE.with_values(A=0.3), taus)
    perm = rng.permutation(len(taus))
    order = np.argsort(taus[perm])
    shuffled = SweepResult(taus=taus[perm][order], probs=probs[perm][order],
                           model_label="synthetic", config=EvolutionConfig())
    straight = SweepResult(taus=taus, probs=probs.copy(),
                           model_label="synthetic", config=EvolutionConfig())
    assert fit_A(shuffled, BASE).a_hat == fit_A(straight, BASE).a_hat


def test_nested_model_comparison_synthetic():
    # with a genuine Landau-Zener component the split fit must beat the best
    # single-frequency model; without one the two residuals coincide
    sweep = synthetic_sweep(0.3, taus=np.linspace(10.0, 120.0, 160))
    split_rms = fit_A(sweep, BASE).rms_residual
    single_rms = fit_single_frequency(sweep, BASE)
    assert split_rms < 0.5 * single_rms

    flat = synthetic_sweep(0.0)
    assert fit_A(flat, BASE).rms_residual <= fit_single_frequency(flat, BASE) + 1e-9


def test_provenance_record():
    sweep = synthetic_sweep(0.25)
    res = fit_A(sweep, BASE)
    rec = res.provenance(BASE, sweep)
    assert rec["a_hat"] == res.a_hat
    assert rec["v"] == BASE.v
    assert rec["tau_min"] == 20.0 and rec["tau_max"] == 120.0
    assert rec["omega_minus"] == BASE.omega_minus
