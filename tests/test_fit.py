import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from annealosc import SplitParams, fit, predict_split
from annealosc.evolve import EvolutionConfig, SweepResult
from annealosc.fit import FitResult, fit_A, fit_A_v

from oracles import (exact_A_reference, fit_A_v_golden, fit_single_frequency,
                     golden_min)

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


@pytest.mark.parametrize("tol", [0.0, 1e-20])
def test_golden_min_stops_at_float_resolution(tol):
    # a tol below the float spacing of the bracket cannot be met
    assert golden_min(lambda x: (x - 0.3) ** 2, -3.9, 3.9, tol=tol) == pytest.approx(
        0.3, abs=1e-7)


def test_fit_a_noiseless_roundtrip():
    res = fit_A(synthetic_sweep(0.25), BASE)
    assert res.a_hat == pytest.approx(0.25, abs=1e-6)
    assert res.rms_residual < 1e-9
    assert res.converged
    assert res.n_points == 120


def test_fit_a_boundary_flagged():
    # data with A above fit._A_MAX = 2
    res = fit_A(synthetic_sweep(2.5), BASE)
    assert not res.converged
    assert res.a_hat == pytest.approx(2.0, abs=1e-6)


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
    # no A on a fine grid over [0, a_max] fits noisy data better than _exact_A's
    sweep = synthetic_sweep(a, noise=noise, rng=np.random.default_rng(seed))

    def sse(x):
        return float(np.sum((sweep.probs
                             - predict_split(BASE.with_values(A=x), sweep.taus)) ** 2))

    a_hat = float(_profile([BASE.v], sweep, a_max)[0][0])
    assert 0.0 <= a_hat <= a_max
    grid_best = min(sse(x) for x in np.linspace(0.0, a_max, 2001))
    assert sse(a_hat) <= grid_best * (1.0 + 1e-12)


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


def _profile(v, sweep, a_max=2.0, p=BASE):
    s, r = fit._fixed_terms(p, sweep.taus, sweep.probs)
    return fit._exact_A(np.asarray(v, float), p.g, p.m, sweep.taus, s, r, a_max)


@settings(deadline=None, max_examples=60)
@given(a=st.floats(0.0, 2.5), log_v_true=st.floats(math.log(0.02), math.log(50.0)),
       noise=st.sampled_from([None, 0.01, 0.3]), a_max=st.floats(0.05, 2.0),
       log_vs=st.lists(st.floats(math.log(0.02), math.log(50.0)), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_profile_matches_reference(a, log_v_true, noise, a_max, log_vs, seed):
    # every v of one vectorised call against the three-predict_split oracle;
    # tau from 2 keeps exp(-pi g^2 tau / (4 v)) >= 7e-3 at the first tau for
    # every v drawn, so SSE(A) is not flat to rounding (where it is, the
    # oracle's differences of predict_split lose q and l, and its A is
    # arbitrary among near-equal candidates; the underflow test covers that)
    sweep = synthetic_sweep(a, v=math.exp(log_v_true), noise=noise,
                            rng=np.random.default_rng(seed),
                            taus=np.linspace(2.0, 120.0, 120))
    vs = np.exp(log_vs)
    got_a, got_sse, got_edge = _profile(vs, sweep, a_max)
    for j, v in enumerate(vs):
        want_a, want_sse, want_edge = exact_A_reference(
            BASE.with_values(v=v), sweep.taus, sweep.probs, a_max)
        assert abs(got_a[j] - want_a) <= 1e-12
        # near an exact fit SSE is a sum of residuals far below the data, so
        # both carry the data's rounding: |dSSE| <= 2 sqrt(SSE) |d resid|,
        # with |d resid| a few eps |P|
        floor = 1e-14 * math.sqrt(want_sse) * np.linalg.norm(sweep.probs) + 1e-30
        assert abs(got_sse[j] - want_sse) <= 1e-12 * want_sse + floor
        assert got_edge[j] == want_edge


@pytest.mark.parametrize("v,taus", [
    (1e-4, np.linspace(20.0, 120.0, 120)),  # e underflows at every tau
    (3.5e-3, np.linspace(20.0, 35.0, 40)),  # e^4 underflows, e^2 does not
])
def test_profile_underflow_returns_endpoint(v, taus):
    sweep = synthetic_sweep(0.25, taus=taus)
    # one batch with a regular v: the vanished cubic must not spoil the batch
    got_a, got_sse, got_edge = _profile([v, 0.5], sweep)
    want = exact_A_reference(BASE.with_values(v=v), sweep.taus, sweep.probs, 2.0)
    assert got_edge[0] and math.isfinite(got_a[0]) and math.isfinite(got_sse[0])
    assert (got_a[0], got_sse[0], got_edge[0]) == want
    assert got_a[1] == pytest.approx(0.25, abs=1e-9)


def test_fit_work_counts(monkeypatch):
    # the scan is one n_scan-wide profile call; every secant step of the
    # slope root is a one-v call, and the bracket's ends and v_hat's A come
    # from calls already made; predict_split serves only the final residuals
    sizes, ps_calls = [], []
    exact, predict = fit._exact_A, fit.predict_split

    def counting_exact(v, *args):
        sizes.append(len(v))
        return exact(v, *args)

    def counting_predict(*args):
        ps_calls.append(1)
        return predict(*args)

    monkeypatch.setattr(fit, "_exact_A", counting_exact)
    monkeypatch.setattr(fit, "predict_split", counting_predict)
    sweep = synthetic_sweep(0.2, v=0.5)
    fit_A_v(sweep, BASE, n_scan=48)
    assert sizes[0] == 48
    assert len(sizes) >= 2 and all(n == 1 for n in sizes[1:])
    assert len(sizes) <= 15  # golden section took about 45
    assert len(ps_calls) <= 3
    sizes.clear()
    fit_A(sweep, BASE)
    assert sizes == [1]


# the noiseless sweeps of test_fit_a_v_noiseless_roundtrip and
# test_fit_a_v_roundtrip_grid
ROUNDTRIP_SWEEPS = [(0.2, 0.5, None)] + [
    (a, v, np.linspace(2.0 if v <= 1.0 else 20.0, tau_hi, 150))
    for a, v, tau_hi in [(0.01, 0.05, 60.0), (0.1, 0.05, 60.0), (0.05, 1.0, 120.0),
                         (1.0, 5.0, 300.0)]]


def _assert_matches_golden(sweep, **kw):
    tol = fit._V_TOL
    res = fit_A_v(sweep, BASE, **kw)
    v_ref, a_ref = fit_A_v_golden(sweep, BASE, tol=tol, **kw)
    assert abs(math.log(res.v_hat / v_ref)) <= tol
    assert abs(res.a_hat - a_ref) <= 1e-8 * abs(a_ref)
    return res


@pytest.mark.parametrize("a,v,taus", ROUNDTRIP_SWEEPS)
def test_fit_a_v_matches_golden_reference(a, v, taus):
    res = _assert_matches_golden(synthetic_sweep(a, v=v, taus=taus))
    assert res.converged


@settings(deadline=None, max_examples=60)
@given(a=st.floats(0.01, 1.9), log_v_true=st.floats(math.log(0.05), math.log(20.0)))
def test_fit_a_v_matches_golden_property(a, log_v_true):
    # noiseless data that stay physical: the profile's minimum is an exact
    # fit, which golden section resolves as well as the slope root does
    taus = np.linspace(2.0, 120.0, 120)
    p = BASE.with_values(A=a, v=math.exp(log_v_true))
    assume(predict_split(p, taus).max() < 1.0)
    _assert_matches_golden(synthetic_sweep(a, v=p.v, taus=taus))


@pytest.mark.parametrize("a,log_v", [(0.0115, 2.095), (0.035, -2.715), (0.3, 0.0)])
def test_fit_a_v_resolves_noisy_minimum(a, log_v):
    # with 1% noise the profile's minimum is far above rounding, so F is flat
    # to rounding over about sqrt(eps) in log v and golden section stops up
    # to 1e-8 off; the slope root matches the vertex of a cubic fitted to F
    # at 13 points 2e-5 apart
    sweep = synthetic_sweep(a, v=math.exp(log_v), taus=np.linspace(2.0, 120.0, 120),
                            noise=0.01, rng=np.random.default_rng(2))
    res = fit_A_v(sweep, BASE)
    j = np.arange(-6.0, 7.0)
    x = math.log(res.v_hat) + 2e-5 * j
    cubic = np.polynomial.Polynomial.fit(j, _profile(np.exp(x), sweep)[1], 3)
    turning = cubic.deriv().roots()
    vertex = x[6] + 2e-5 * turning.real[np.argmin(np.abs(turning))]
    assert abs(math.log(res.v_hat) - vertex) <= 1e-9


def test_fit_a_v_edge_minimum_flagged():
    # true v = 0.5 above v_range: the profile falls all the way to the upper
    # bound, v_hat is that bound and the fit is not converged
    sweep = synthetic_sweep(0.2, v=0.5)
    res = fit_A_v(sweep, BASE, v_range=(0.02, 0.3))
    assert res.v_hat == pytest.approx(0.3, rel=1e-15)
    assert not res.converged
    v_ref, a_ref = fit_A_v_golden(sweep, BASE, v_range=(0.02, 0.3))
    assert abs(math.log(res.v_hat / v_ref)) <= 1e-9
    assert res.a_hat == pytest.approx(a_ref, rel=1e-8)


def test_fit_a_v_no_signal_is_degenerate():
    # A = 0 data: A_hat = 0 at every v, the profile is flat and has no slope,
    # and v_hat is a scan point, flagged
    res = fit_A_v(synthetic_sweep(0.0), BASE, n_scan=48)
    grid = np.exp(np.linspace(math.log(0.02), math.log(50.0), 48))
    assert np.min(np.abs(grid / res.v_hat - 1.0)) <= 1e-15
    assert res.a_hat == 0.0
    assert not res.converged


def test_fit_a_v_stops_at_float_resolution(monkeypatch):
    # a _V_TOL below the float spacing of log v cannot be met
    monkeypatch.setattr(fit, "_V_TOL", 1e-300)
    sweep = synthetic_sweep(0.2, v=0.5)
    res = fit_A_v(sweep, BASE)
    assert res.v_hat == pytest.approx(0.5, rel=1e-9)
    assert res.converged


@pytest.mark.parametrize("a_max", [math.nan, math.inf, 0.0, -1.0])
def test_fit_a_rejects_bad_a_max(a_max):
    # the bound is the constant fit._A_MAX
    with pytest.raises(TypeError, match="a_max"):
        fit_A(synthetic_sweep(0.25), BASE, a_max=a_max)


@pytest.mark.parametrize("kw", [
    {"a_max": math.nan}, {"a_max": math.inf}, {"a_max": 0.0},
    {"v_range": (50.0, 0.02)}, {"v_range": (0.5, 0.5)}, {"v_range": (0.0, 50.0)},
    {"v_range": (0.02, math.inf)}, {"v_range": (math.nan, 50.0)},
    {"n_scan": 2}, {"n_scan": 4.5}, {"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-9},
    {"tol": math.inf},
])
def test_fit_a_v_rejects_bad_arguments(kw):
    # a_max and tol are the constants fit._A_MAX and fit._V_TOL
    removed = {"a_max", "tol"} & kw.keys()
    with pytest.raises(TypeError if removed else ValueError):
        fit_A_v(synthetic_sweep(0.2, v=0.5), BASE, **kw)


@pytest.mark.parametrize("kw", [
    {"a_hat": math.nan}, {"a_hat": math.inf}, {"v_hat": math.nan},
    {"v_hat": -math.inf}, {"rms_residual": math.nan}, {"rms_residual": math.inf},
    {"rms_residual": -1.0},
])
def test_fit_result_rejects_non_finite(kw):
    fields = dict(a_hat=0.2, v_hat=0.5, rms_residual=0.0, n_points=120,
                  converged=True) | kw
    with pytest.raises(ValueError):
        FitResult(**fields)
