import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import interpolate, optimize
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from annealosc import (ModelSpec, build_model, gap_trace, ground_state,
                       locate_crossing, rho_endpoints)
from annealosc import spectrum
from annealosc.cli import main
from annealosc.models import ReducedHamiltonian
from annealosc.spectrum import DegenerateGroundStateError, gap_at

import reference
from oracles import (dense_reference, full_qubit_hamiltonians,
                     gap_integrals_reference, gap_trace_reference,
                     symmetric_sector_eigenvalues)

# analytic antiderivative of sqrt(1 - 2s + 2s^2): with u = s - 1/2,
# int sqrt(2u^2 + 1/2) du = (u/2) sqrt(2u^2 + 1/2)
#                           + (1/(4 sqrt(2))) asinh(2u), giving
OMEGA_NB_MU1 = 0.5 + math.asinh(1.0) / (2 * math.sqrt(2))


def test_frozen_omega_value_against_quadrature():
    num, _ = quad(lambda s: math.sqrt(1 - 2 * s + 2 * s**2), 0, 1, epsabs=1e-13)
    assert num == pytest.approx(OMEGA_NB_MU1, abs=1e-12)


def test_eigensystem_matches_full_space_oracle():
    n = 8
    spec = ModelSpec(kind="barrier", n=n, mu=1.0, alpha=0.3, beta=0.5)
    model = build_model(spec)
    f = np.diag(dense_reference(spec).h1)
    full_h0, full_h1 = full_qubit_hamiltonians(n, lambda k: f[k])
    vals, _ = spectrum._eigs(model, [0.5], 3)
    oracle = symmetric_sector_eigenvalues(n, 0.5 * full_h0 + 0.5 * full_h1)
    assert np.allclose(vals[0], oracle, atol=1e-10)


def test_trace_matches_closed_form_mu1(nobarrier1_trace):
    tr = nobarrier1_trace
    assert np.allclose(tr.delta, reference.nobarrier1_gap(tr.s, 1.0), atol=1e-10)


def test_gamma_delta_product_is_half_mu(nobarrier1_trace):
    # gamma(s) = mu / (2 Delta(s)) in the decoupled problem
    tr = nobarrier1_trace
    assert np.allclose(np.abs(tr.gamma) * 2 * tr.delta, 1.0, atol=1e-10)


@pytest.mark.parametrize("mu", [2.0, 4.0])
def test_gamma_delta_product_other_mu(mu):
    tr = gap_trace(build_model(ModelSpec(kind="nobarrier", n=1, mu=mu)),
                   n_points=101)
    assert np.allclose(np.abs(tr.gamma) * 2 * tr.delta, mu, atol=1e-10)


def test_trace_grid_and_gauge(nobarrier1_trace):
    tr = nobarrier1_trace
    assert tr.s[0] == 0.0 and tr.s[-1] == 1.0
    assert np.all(np.diff(tr.s) > 0)
    assert np.all(tr.delta > 0)
    assert np.allclose(tr.rho * tr.delta**2, tr.gamma, atol=1e-14)
    # sign continuity of the gauge
    assert np.all(np.sum(tr.vec0[:, :-1] * tr.vec0[:, 1:], axis=0) > 0)
    assert np.all(np.sum(tr.vec1[:, :-1] * tr.vec1[:, 1:], axis=0) > 0)


def test_trace_rejects_short_grid(nobarrier1):
    with pytest.raises(ValueError):
        gap_trace(nobarrier1, n_points=32)


@pytest.mark.parametrize("bad", [200.5, True])
def test_trace_rejects_non_integer_n_points(nobarrier1, bad):
    # a float failed inside np.linspace, and True was read as 1
    with pytest.raises(ValueError, match="n_points must be an integer"):
        gap_trace(nobarrier1, n_points=bad)


def test_barrier84_interior_minimum(barrier84_trace, barrier84_crossing):
    cr = barrier84_crossing
    assert cr.kind == "avoided"
    assert 0.0 < cr.s_star < 1.0
    assert 0.0 < cr.g < barrier84_trace.delta[0]
    assert cr.v > 0
    assert cr.omega == pytest.approx(cr.omega_minus + cr.omega_plus, abs=1e-12)


def test_locate_crossing_nobarrier(nobarrier1_trace):
    cr = locate_crossing(nobarrier1_trace)
    # interior minimum exists but the dip is shallow: large-gap path
    assert cr.kind == "large-gap"
    assert cr.s_star == pytest.approx(0.5, abs=1e-7)
    assert cr.g == pytest.approx(math.sqrt(0.5), abs=1e-10)
    assert math.isnan(cr.v)
    assert cr.omega_minus == pytest.approx(cr.omega_plus, abs=1e-7)
    assert cr.omega == pytest.approx(OMEGA_NB_MU1, abs=1e-5)


def test_shallow_barrier_takes_large_gap_path():
    model = build_model(ModelSpec(kind="barrier", n=20, mu=1.0,
                                  alpha=0.1, beta=0.1))
    cr = locate_crossing(gap_trace(model, n_points=101))
    assert cr.kind in ("large-gap", "none")


def test_refined_grid_has_no_near_duplicate_point():
    # a refinement point rounds to 5.6e-17 from the coarse point s = 0.37;
    # kept, it made locate_crossing return that point instead of the
    # minimum (0.3682826 from a dense eigvalsh scan)
    model = build_model(ModelSpec(kind="barrier", n=40, mu=1.0,
                                  alpha=0.3307940789736494,
                                  beta=0.5272988341563213))
    trace = gap_trace(model)
    assert np.diff(trace.s).min() >= 1e-12
    assert locate_crossing(trace).s_star == pytest.approx(0.3682826, abs=1e-6)


def test_refined_trace_decomposes_each_point_once(monkeypatch):
    # the gauge pass reuses the coarse pass's eigenpairs; only the
    # refinement points are decomposed a second time
    model = build_model(ModelSpec(kind="barrier", n=40, mu=1.0,
                                  alpha=0.3, beta=0.5))
    calls = []
    real = spectrum._STEBZ
    monkeypatch.setattr(spectrum, "_STEBZ",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    trace = gap_trace(model)
    assert len(calls) == len(trace.s) > 201
    monkeypatch.undo()
    fresh = gap_trace(model, grid=trace.s)  # a given grid is used as given
    for name in ("lambda0", "lambda1", "delta", "gamma", "rho", "vec0", "vec1"):
        assert np.array_equal(getattr(trace, name), getattr(fresh, name)), name


def test_nobarrier_omega_closed_form():
    assert reference.nobarrier1_omega(1.0) == pytest.approx(OMEGA_NB_MU1, abs=1e-15)


def test_monotone_gap_reports_no_crossing():
    # at mu = 40 the gap's minimum (s = 1/1601) lies inside the first cell of
    # a 101-point grid, so the trace's gap only grows
    model = build_model(ModelSpec(kind="nobarrier", n=1, mu=40.0))
    tr = gap_trace(model, n_points=101)
    assert int(np.argmin(tr.delta)) == 0
    cr = locate_crossing(tr)
    assert cr.kind == "none"
    assert math.isnan(cr.s_star) and math.isnan(cr.v)
    assert cr.g == tr.delta[0]
    assert cr.omega_plus == 0.0
    assert cr.omega == pytest.approx(reference.nobarrier1_omega(40.0), abs=1e-10)


def test_quadrature_grid_consistency(barrier84, barrier84_crossing):
    finer = locate_crossing(gap_trace(barrier84, n_points=401))
    assert finer.omega_minus == pytest.approx(barrier84_crossing.omega_minus, abs=1e-9)
    assert finer.omega_plus == pytest.approx(barrier84_crossing.omega_plus, abs=1e-9)


@pytest.mark.parametrize("name", ["s_tol", "quad_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_locate_crossing_rejects_bad_tolerances(barrier84_trace, name, value):
    # the tolerances are the constants spectrum._S_TOL and _QUAD_TOL
    with pytest.raises(TypeError, match=name):
        locate_crossing(barrier84_trace, **{name: value})


ORACLE_MODELS = {
    "cubic30": (dict(kind="cubic", n=30), 201),
    "barrier84": (dict(kind="barrier", n=84, mu=1.0, alpha=0.3, beta=0.5), 201),
    "grover64": (dict(kind="grover", big_n=64, big_m=1), 201),
    "nobarrier_mu1": (dict(kind="nobarrier", n=1, mu=1.0), 401),
    "nobarrier_mu40": (dict(kind="nobarrier", n=1, mu=40.0), 101),
    # a 1-2 near-crossing (gap 0.0116 at s = 0.4516) makes Delta sharp there
    "barrier40_excited": (dict(kind="barrier", n=40, mu=1.0, alpha=0.5, beta=0.8), 201),
}


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_gap_integrals_match_tight_quadrature(name):
    spec, n_points = ORACLE_MODELS[name]
    spec = ModelSpec(**spec)
    cr = locate_crossing(gap_trace(build_model(spec), n_points=n_points))
    want_minus, want_plus = gap_integrals_reference(dense_reference(spec), cr.s_star)
    assert abs(cr.omega_minus - want_minus) <= 1e-10
    assert abs(cr.omega_plus - want_plus) <= 1e-10


def test_gauss_kronrod_rule_exact_for_polynomials():
    # K21 integrates degree 31 exactly on [-1, 1], its embedded G10 degree 19
    assert np.allclose(spectrum._XK[1::2], np.polynomial.legendre.leggauss(10)[0],
                       rtol=0, atol=1e-15)
    for j in range(32):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert spectrum._XK**j @ spectrum._WK == pytest.approx(exact, abs=1e-15)
        if j < 20:
            assert spectrum._XK[1::2]**j @ spectrum._WG == pytest.approx(exact, abs=1e-15)


def test_locate_crossing_batches_its_evaluations(monkeypatch, barrier84_trace):
    # scalar evaluation took 415 calls of one matrix each; the graded panels
    # need 273 matrices (399 from one panel per side), and the slope roots
    # 5 secant steps of one matrix and 2 Newton steps of two, plus the two
    # curvature points: 10 calls and 284 matrices.  Only the 9 matrices of
    # the slope roots need eigenvectors (one dstein call each); the
    # Gauss-Kronrod nodes and curvature points take eigenvalues alone.
    matrices, slope_matrices, stein = [], [], []
    real = spectrum._eigs
    monkeypatch.setattr(spectrum, "_eigs",
                        lambda m, g, *a, **k: matrices.append(len(g)) or real(m, g, *a, **k))
    real_slope = spectrum._gap_slope
    monkeypatch.setattr(spectrum, "_gap_slope",
                        lambda m, s: slope_matrices.append(len(s)) or real_slope(m, s))
    real_stein = spectrum._STEIN
    monkeypatch.setattr(spectrum, "_STEIN", lambda *a: stein.append(1) or real_stein(*a))
    monkeypatch.setattr(spectrum, "gap_at", lambda *a: pytest.fail("gap_at called"))
    assert locate_crossing(barrier84_trace).kind == "avoided"
    assert len(matrices) <= 12
    assert sum(matrices) <= 290
    assert len(stein) == sum(slope_matrices) <= 9


def test_unattainable_quad_tol_raises(monkeypatch, nobarrier1_trace):
    # every panel fails, so the open panels double each round until the
    # panel cap stops the loop
    matrices = []
    real = spectrum._eigs
    monkeypatch.setattr(spectrum, "_eigs",
                        lambda m, g, *a, **k: matrices.append(len(g)) or real(m, g, *a, **k))
    monkeypatch.setattr(spectrum, "_QUAD_TOL", 1e-300)
    with pytest.raises(RuntimeError, match="Gauss-Kronrod panels"):
        locate_crossing(nobarrier1_trace)
    assert sum(matrices) <= 21 * spectrum._QK_MAX_PANELS + 100


# ------------------------------------------------ slope roots of locate_crossing

def _crossing_model(name):
    spec, n_points = ORACLE_MODELS[name]
    model = build_model(ModelSpec(**spec))
    return model, gap_trace(model, n_points=n_points)


def _delta(model, s):
    return spectrum._gap_slope(model, np.atleast_1d(np.asarray(s, float)))[0]


def _slope(model, s):
    return spectrum._gap_slope(model, np.atleast_1d(np.asarray(s, float)))[1]


@pytest.mark.parametrize("name", ["barrier84", "cubic30", "grover64", "nobarrier_mu40"])
def test_hellmann_feynman_slope_matches_central_difference(name):
    # grover64's schedule is not linear, so g'(s) is exercised too; nobarrier
    # mu = 40 has its minimum at s = 1/1601
    model, trace = _crossing_model(name)
    cr = locate_crossing(trace)
    s0 = cr.s_star if cr.kind != "none" else 1.0 / 1601.0
    width = cr.g / cr.v if cr.kind == "avoided" else 0.05 * min(s0, 1.0 - s0) + 1e-4
    s = s0 + width * np.array([-2.0, -0.5, 0.0, 0.3, 1.0, 3.0])
    s = s[(s > 1e-4) & (s < 1.0 - 1e-4)]
    h = 1e-5 * width
    want = (_delta(model, s + h) - _delta(model, s - h)) / (2.0 * h)
    got = _slope(model, s)
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_nobarrier_slope_closed_form():
    model = build_model(ModelSpec(kind="nobarrier", n=1, mu=40.0))
    s = np.array([0.0, 1.0 / 3202.0, 1.0 / 1601.0, 0.01, 0.5, 1.0])
    want = ((1.0 + 40.0**2) * s - 1.0) / reference.nobarrier1_gap(s, 40.0)
    assert np.abs(_slope(model, s) - want).max() <= 1e-12 * np.abs(want).max()


# g as version 0.5.1 located it (bounded Brent on Delta), per model
SLOPE_ROOT_MODELS = {
    "barrier84": (dict(kind="barrier", n=84, mu=1.0, alpha=0.3, beta=0.5),
                  0.24848493603218103),
    "cubic30": (dict(kind="cubic", n=30), 0.13742191688030303),
    "barrier40_excited": (dict(kind="barrier", n=40, mu=1.0, alpha=0.5, beta=0.8),
                          0.01839020960083637),
    # the refinement point 5.6e-17 from s = 0.37 (test_refined_grid_has_no_near_duplicate_point)
    "barrier40_fault": (dict(kind="barrier", n=40, mu=1.0, alpha=0.3307940789736494,
                             beta=0.5272988341563213), 0.2274108093469689),
    "barrier32_large_gap": (dict(kind="barrier", n=32, mu=1.0, alpha=0.06, beta=0.06),
                            0.6085749818042689),
}


@pytest.mark.parametrize("name", list(SLOPE_ROOT_MODELS))
def test_s_star_is_a_tight_slope_root(name):
    spec, g_before = SLOPE_ROOT_MODELS[name]
    model = build_model(ModelSpec(**spec))
    cr = locate_crossing(gap_trace(model))
    assert cr.kind == ("large-gap" if name == "barrier32_large_gap" else "avoided")
    root = optimize.brentq(lambda x: _slope(model, x)[0], cr.s_star - 1e-4,
                           cr.s_star + 1e-4, xtol=1e-15)
    assert abs(cr.s_star - root) <= 1e-8
    assert abs(cr.g - g_before) <= 1e-13
    assert cr.g == _delta(model, cr.s_star)[0]


@pytest.mark.parametrize("name", ["barrier84", "cubic30", "barrier40_excited"])
def test_two_g_points_are_tight(monkeypatch, name):
    model, trace = _crossing_model(name)
    found = []
    real = spectrum._two_g_points
    monkeypatch.setattr(spectrum, "_two_g_points",
                        lambda *a: found.append(real(*a)) or found[-1])
    cr = locate_crossing(trace)
    assert cr.kind == "avoided" and len(found) == 1
    left, right = found[0]
    assert left < cr.s_star < right
    assert np.abs(_delta(model, found[0]) - 2.0 * cr.g).max() <= 1e-10
    for x, lo, hi in ((left, 0.0, cr.s_star), (right, cr.s_star, 1.0)):
        root = optimize.brentq(lambda y: _delta(model, y)[0] - 2.0 * cr.g, lo, hi, xtol=1e-15)
        assert abs(x - root) <= 1e-10


@pytest.mark.parametrize("f,root", [
    (lambda x: math.tanh(20.0 * (x - 0.3)), 0.3),
    (lambda x: (x - 0.3) + 4.0 * (x - 0.3) ** 3, 0.3),
    (lambda x: math.exp(x) - 2.0, math.log(2.0)),
    # the secant lands on an end of the bracket and would bisect from there
    (lambda x: math.atan(30.0 * (x - 0.3)) + 0.5, 0.3 - math.tan(0.5) / 30.0),
    # a slope with rounding noise never reaches 0: the bracket must close on
    # its own once the secant has converged
    (lambda x: (x - 0.3) + 1e-13 * math.sin(1e9 * x), 0.3),
])
@pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-300])
def test_secant_root(f, root, tol):
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)
    x = spectrum._secant_root(counted, 0.0, 1.0, f(0.0), f(1.0), tol)
    # the end returned is the converged secant point, not just any point
    # within tol
    assert abs(x - root) <= 1e-12
    assert x in seen and all(0.0 < y < 1.0 for y in seen)
    # bisection alone would take 27 steps to 1e-8; a tol below the float
    # spacing ends at adjacent floats, after bisecting the noise's sign changes
    assert len(seen) <= (12 if tol >= 1e-12 else 64)


def test_secant_root_falls_back_to_bisection():
    # at a triple root the secant converges only linearly: bisecting whenever
    # a step does not halve the step before last keeps the count within twice
    # the 27 steps of bisection alone (65 without that rule)
    seen = []
    x = spectrum._secant_root(lambda y: seen.append(y) or (y - 0.3) ** 3,
                              0.0, 1.0, -0.027, 0.343, 1e-8)
    assert abs(x - 0.3) <= 1e-8
    assert len(seen) <= 54


def test_slope_root_stops_at_float_resolution(monkeypatch, barrier84_trace,
                                              barrier84_crossing):
    # an _S_TOL below the float spacing at s* cannot be met
    monkeypatch.setattr(spectrum, "_S_TOL", 1e-300)
    cr = locate_crossing(barrier84_trace)
    assert cr.s_star == pytest.approx(barrier84_crossing.s_star, abs=1e-8)
    assert cr.g == pytest.approx(barrier84_crossing.g, abs=1e-14)


def test_unbracketed_minimum_raises(barrier84_trace):
    # a smallest gap planted where the slopes on both sides are negative
    # (the trace's gap is still falling there): no cell next to it holds a
    # minimum, and locate_crossing says so instead of reporting that point
    delta = barrier84_trace.delta.copy()
    j = int(np.argmin(delta)) - 10
    delta[j] = 0.5 * delta.min()
    bad = dataclasses.replace(barrier84_trace, delta=delta, rho=barrier84_trace.gamma / delta**2)
    with pytest.raises(RuntimeError, match="bracket no minimum"):
        locate_crossing(bad)


def _flank_slope(model, lo, hi, n=40):
    ss = np.linspace(lo, hi, n)
    dd = np.array([gap_at(model, s) for s in ss])
    return float(np.polyfit(ss, dd, 1)[0])


def flank_slopes(trace, crossing):
    """Left and right slopes of the gap's straight flanks, fitted between two
    and six half-widths (at Delta = 2g) from an avoided crossing."""
    model = trace.model
    s_star, g = crossing.s_star, crossing.g
    left = optimize.brentq(lambda s: gap_at(model, s) - 2 * g, 0.0, s_star, xtol=1e-10)
    right = optimize.brentq(lambda s: gap_at(model, s) - 2 * g, s_star, 1.0, xtol=1e-10)
    w = max(s_star - left, right - s_star)
    wlo = max(s_star - 6 * w, 0.0)
    whi = min(s_star + 6 * w, 1.0)
    sl = _flank_slope(model, wlo, max(s_star - 2 * w, wlo + 1e-6))
    sr = _flank_slope(model, min(s_star + 2 * w, whi - 1e-6), whi)
    return sl, sr


def test_cubic_crossing_is_asymmetric(cubic30_trace):
    cr = locate_crossing(cubic30_trace)
    assert cr.kind == "avoided"
    sl, sr = flank_slopes(cubic30_trace, cr)
    assert abs(abs(sl) - abs(sr)) > 0.2 * max(abs(sl), abs(sr))


def test_rho_endpoints_nobarrier(nobarrier1_trace):
    rho0, rho1 = rho_endpoints(nobarrier1_trace)
    assert abs(rho0) == pytest.approx(0.5, abs=1e-10)
    assert abs(rho1) == pytest.approx(0.5, abs=1e-10)
    # gauge-invariant product
    assert rho0 * rho1 == pytest.approx(0.25, abs=1e-10)


def test_rho_endpoints_grover_symmetric(grover64):
    tr = gap_trace(grover64, n_points=201)
    rho0, rho1 = rho_endpoints(tr)
    assert rho0 == pytest.approx(rho1, rel=1e-8)


def adiabatic_time_estimate(trace):
    """Folklore adiabatic time: integral of |gamma(s)| / Delta(s)**2."""
    spl = interpolate.CubicSpline(trace.s, np.abs(trace.gamma) / trace.delta**2)
    return float(spl.integrate(0.0, 1.0))


def test_adiabatic_time_estimate_nobarrier(nobarrier1_trace):
    # closed form: int mu/(2 Delta^3) ds = 1 exactly at mu = 1
    oracle, _ = quad(lambda s: 0.5 * (1 - 2 * s + 2 * s**2) ** -1.5, 0, 1,
                     epsabs=1e-13)
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert adiabatic_time_estimate(nobarrier1_trace) == pytest.approx(1.0, abs=1e-4)


def test_adiabatic_time_estimate_scales_linearly(nobarrier1_trace):
    import dataclasses
    tr = nobarrier1_trace
    doubled = dataclasses.replace(tr, gamma=2 * tr.gamma.copy(),
                                  rho=2 * tr.rho.copy())
    assert adiabatic_time_estimate(doubled) == pytest.approx(
        2 * adiabatic_time_estimate(tr), rel=1e-12)
    assert adiabatic_time_estimate(tr) >= 0


def test_hellmann_feynman_cross_check(barrier84):
    # gamma from the matrix element vs Delta * <phi0|d/ds phi1> by
    # finite-differencing the eigenvectors
    from annealosc.spectrum import _two_lowest
    dense = reference.barrier(84, 1.0, 0.3, 0.5)
    delta_s = 1e-5
    for s in [0.2, 0.37, 0.8]:
        vals, vecs = _two_lowest(barrier84, s)
        _, vp = _two_lowest(barrier84, s + delta_s)
        _, vm = _two_lowest(barrier84, s - delta_s)
        for j in range(2):
            if vp[:, j] @ vecs[:, j] < 0:
                vp[:, j] = -vp[:, j]
            if vm[:, j] @ vecs[:, j] < 0:
                vm[:, j] = -vm[:, j]
        dphi1 = (vp[:, 1] - vm[:, 1]) / (2 * delta_s)
        gap = vals[1] - vals[0]
        assert vecs[:, 0] @ dense.dh(s) @ vecs[:, 1] == pytest.approx(
            gap * (vecs[:, 0] @ dphi1), abs=1e-4)


def test_gauge_invariance_of_observables(barrier84):
    # |gamma| does not depend on eigenvector sign choices
    from annealosc.spectrum import _two_lowest
    dense = reference.barrier(84, 1.0, 0.3, 0.5)
    rng = np.random.default_rng(7)
    for s in [0.1, 0.37, 0.9]:
        _, vecs = _two_lowest(barrier84, s)
        flipped = vecs * rng.choice([-1.0, 1.0], size=2)
        assert abs(vecs[:, 0] @ dense.dh(s) @ vecs[:, 1]) == pytest.approx(
            abs(flipped[:, 0] @ dense.dh(s) @ flipped[:, 1]), rel=1e-12)
    # endpoint product rho(0) rho(1) is fixed under a consistent global flip
    tr = gap_trace(barrier84, n_points=101)
    assert (-tr.rho[0]) * (-tr.rho[-1]) == tr.rho[0] * tr.rho[-1]


def test_degenerate_gap_rejected():
    # two disconnected levels crossing at s = 1/2
    import annealosc.models as am
    h0 = np.diag([0.0, 1.0])
    h1 = np.diag([1.0, 0.0])
    model = am.ReducedHamiltonian(
        h0=h0, h1=h1, schedule=lambda s: s, schedule_deriv=lambda s: 1.0, label="crossing")
    with pytest.raises(DegenerateGroundStateError):
        gap_trace(model, n_points=65)


def test_gap_at_matches_trace(barrier84, barrier84_trace):
    i = len(barrier84_trace.s) // 3
    s = barrier84_trace.s[i]
    assert gap_at(barrier84, s) == pytest.approx(barrier84_trace.delta[i],
                                                 abs=1e-12)


@pytest.mark.parametrize("spec", [
    # a trace takes only the lowest pairs: every model, at any dimension,
    # from _lowest_tridiagonal
    dict(kind="barrier", n=24, mu=1.0, alpha=0.3, beta=0.5),
    dict(kind="barrier", n=40, mu=1.0, alpha=0.3, beta=0.5),
    dict(kind="cubic", n=30),
    dict(kind="grover", big_n=64, big_m=1),
    dict(kind="nobarrier", n=1, mu=1.0),
], ids=lambda d: f"{d['kind']}{d.get('n') or d.get('big_n')}")
def test_trace_matches_per_point_reference(spec):
    spec = ModelSpec(**spec)
    model = build_model(spec)
    tr, ref = gap_trace(model), gap_trace_reference(spec)
    assert np.array_equal(tr.s, ref.s)
    for name in ("lambda0", "lambda1", "delta"):
        assert np.abs(getattr(tr, name) - getattr(ref, name)).max() <= 1e-13, name
    for name, rel in (("gamma", 1e-12), ("rho", 1e-11)):
        want = getattr(ref, name)
        assert np.abs(getattr(tr, name) - want).max() <= rel * np.abs(want).max(), name
    for name in ("vec0", "vec1"):
        assert np.abs(getattr(tr, name) - getattr(ref, name)).max() <= 1e-12, name
    assert tr.gauge_continuous == ref.gauge_continuous
    cr = locate_crossing(tr)
    want = locate_crossing(dataclasses.replace(ref, model=model))
    assert cr.kind == want.kind
    for name in ("s_star", "g", "omega_minus", "omega_plus"):
        assert getattr(cr, name) == pytest.approx(getattr(want, name), abs=1e-9,
                                                  nan_ok=True), name


def _lowest_by_dense_eigh(diag, off, m, vectors=True):
    # a stand-in for _lowest_tridiagonal: the same bands through numpy's eigh,
    # whose eigenvector signs need not be the kernel's
    i = np.arange(diag.shape[1])
    h = np.zeros(diag.shape + i.shape)
    h[:, i, i] = diag
    h[:, i[:-1], i[1:]] = h[:, i[1:], i[:-1]] = off
    w, v = np.linalg.eigh(h)
    return w[:, :m], (v[..., :m] if vectors else None)


def test_trace_signs_do_not_depend_on_eigensolver(monkeypatch):
    model = build_model(ModelSpec(kind="barrier", n=16, mu=1.0, alpha=0.3, beta=0.5))
    banded = gap_trace(model)
    monkeypatch.setattr(spectrum, "_lowest_tridiagonal", _lowest_by_dense_eigh)
    dense = gap_trace(model)
    assert np.array_equal(dense.s, banded.s)
    for name in ("lambda0", "lambda1", "delta", "gamma", "rho", "vec0", "vec1"):
        assert np.abs(getattr(dense, name) - getattr(banded, name)).max() <= 1e-12, name
    assert dense.gamma[0] >= 0 and banded.gamma[0] >= 0


def test_gauge_continuity_flag():
    # a 64-point grid turns the ground state by up to 82 degrees per cell
    # near the 0-1 crossing (min |overlap| 0.14); the default refined grid
    # resolves it (0.999) but not the 1-2 crossing near s = 0.45, where the
    # first excited state turns by 76 degrees (0.24); 801 points resolve both
    model = build_model(ModelSpec(kind="barrier", n=40, mu=1.0, alpha=0.5, beta=0.8))
    coarse = gap_trace(model, grid=np.linspace(0.0, 1.0, 64))  # used as given
    assert len(coarse.s) == 64 and not coarse.gauge_continuous
    assert not gap_trace(model).gauge_continuous
    assert gap_trace(model, n_points=801).gauge_continuous


def test_scalar_spectrum_validates_s(barrier84, grover64):
    for model in (barrier84, grover64):
        for bad in (1.5, math.nan):
            with pytest.raises(ValueError):
                gap_at(model, bad)
        with pytest.raises(ValueError):
            ground_state(model, -0.1)


# ------------------------------------------------ lowest-pair tridiagonal kernel

def _split_end_model():
    # h1 is diagonal, as for every qubit model: at s = 1 each off-diagonal is
    # exactly 0, dstebz splits the matrix into 1x1 blocks and returns the two
    # lowest values in block order, [1, 0]
    off = np.array([0.5, 0.4, 0.3])
    return ReducedHamiltonian(
        h0=np.diag(off, 1) + np.diag(off, -1), h1=np.diag([3.0, 1.0, 2.0, 0.0]),
        schedule=lambda s: s, schedule_deriv=lambda s: np.ones_like(s), label="split")


def _assert_lowest_pairs_match_dense(model, g, w, v):
    for k, gk in enumerate(g):
        want_w, want_v = np.linalg.eigh(model.h0 + gk * (model.h1 - model.h0))
        assert np.abs(w[k] - want_w[:2]).max() <= 1e-13
        signs = np.sign(np.einsum("im,im->m", v[k], want_v[:, :2]))
        assert np.abs(v[k] * signs - want_v[:, :2]).max() <= 1e-12


def _assert_values_only_bitwise(model, g, w):
    w_only, v_none = spectrum._eigs(model, g, 2, vectors=False)
    assert v_none is None and np.array_equal(w_only, w)


def test_lowest_pairs_ascending_on_split_matrix():
    model = _split_end_model()
    w, v = spectrum._eigs(model, [1.0], 2)
    assert w[0].tolist() == [0.0, 1.0]
    _assert_lowest_pairs_match_dense(model, [1.0], w, v)
    assert ground_state(model, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]
    # values alone come in the same ascending order, on the split and on the
    # unsplit matrix
    _assert_values_only_bitwise(model, [0.3, 1.0], spectrum._eigs(model, [0.3, 1.0], 2)[0])


@pytest.mark.parametrize("spec", [
    dict(kind="barrier", n=40, mu=1.0, alpha=0.3, beta=0.5),
    dict(kind="cubic", n=30),
    dict(kind="nobarrier", n=24, mu=1.0),
    dict(kind="grover", big_n=64, big_m=1),
], ids=lambda d: f"{d['kind']}{d.get('n') or d.get('big_n')}")
def test_lowest_pairs_match_dense_eigh(spec):
    model = build_model(ModelSpec(**spec))
    s = np.concatenate([[0.0, 1.0], np.random.default_rng(5).uniform(0, 1, 8)])
    g = model.schedule(s)
    w, v = spectrum._eigs(model, g, 2)
    _assert_lowest_pairs_match_dense(model, g, w, v)
    _assert_values_only_bitwise(model, g, w)


def test_search_trace_from_tridiagonal_kernel(monkeypatch, grover64):
    # the 2x2 search model is tridiagonal too: its trace takes one bisection
    # per point, like every qubit model's
    calls = []
    real = spectrum._STEBZ
    monkeypatch.setattr(spectrum, "_STEBZ", lambda *a: calls.append(1) or real(*a))
    tr = gap_trace(grover64)
    assert len(calls) == len(tr.s)


def test_lowest_pairs_residual_checked(monkeypatch, barrier84):
    real = spectrum._STEIN

    def perturbed(*args):
        z, info = real(*args)
        z[0, 1] += 1e-6
        return z, info
    monkeypatch.setattr(spectrum, "_STEIN", perturbed)
    with pytest.raises(RuntimeError, match="residual"):
        gap_at(barrier84, 0.3)


@pytest.mark.parametrize("routine", ["_STEBZ", "_STEIN"])
def test_lowest_pairs_lapack_failure_raises(monkeypatch, barrier84, routine):
    real = getattr(spectrum, routine)
    monkeypatch.setattr(spectrum, routine,
                        lambda *args: (*real(*args)[:-1], 1))  # info = 1
    with pytest.raises(np.linalg.LinAlgError):
        gap_at(barrier84, 0.3)


def test_values_only_lapack_failure_raises(monkeypatch):
    # a monotone gap: locate_crossing decomposes only Gauss-Kronrod nodes,
    # all of them values only, so the dstebz check alone must catch it
    _, trace = _crossing_model("nobarrier_mu40")
    stein = []
    real_stein = spectrum._STEIN
    monkeypatch.setattr(spectrum, "_STEIN", lambda *a: stein.append(1) or real_stein(*a))
    real = spectrum._STEBZ
    monkeypatch.setattr(spectrum, "_STEBZ", lambda *args: (*real(*args)[:-1], 1))  # info = 1
    with pytest.raises(np.linalg.LinAlgError):
        locate_crossing(trace)
    assert not stein


@pytest.mark.parametrize("spec", [
    dict(kind="barrier", n=84, mu=1.0, alpha=0.3, beta=0.5),
    dict(kind="barrier", n=100, mu=1.0, alpha=0.1, beta=0.1),
    dict(kind="cubic", n=40),
], ids=lambda d: f"{d['kind']}{d['n']}")
def test_full_tridiagonal_spectra_match_eigh_tridiagonal(spec):
    # above _DENSE_EIGH_MAX_DIM, _eigs calls dstevd, the routine scipy's
    # eigh_tridiagonal runs for a full spectrum, without scipy's wrapper
    model = build_model(ModelSpec(**spec))
    assert model.dim > spectrum._DENSE_EIGH_MAX_DIM
    g = np.concatenate([[0.0, 1.0], np.random.default_rng(7).uniform(0, 1, 6)])
    w, v = spectrum._eigs(model, g)
    for k in range(len(g)):
        h = model.h0 + g[k] * (model.h1 - model.h0)  # the bands _eigs forms
        want_w, want_v = eigh_tridiagonal(h.diagonal(), h.diagonal(1))
        assert np.array_equal(w[k], want_w) and np.array_equal(v[k], want_v)


def test_full_spectrum_lapack_failure_raises(monkeypatch, barrier84, tmp_path):
    real = spectrum._STEVD
    monkeypatch.setattr(spectrum, "_STEVD", lambda *args: (*real(*args)[:-1], 1))  # info = 1
    with pytest.raises(np.linalg.LinAlgError):
        spectrum._eigs(barrier84, [0.5])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "sweep", "model": dict(kind="barrier", n=40, mu=1.0, alpha=0.3, beta=0.5),
        "tau_grid": {"min": 20.0, "max": 30.0, "count": 2}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_values_only_needs_lowest(barrier84):
    with pytest.raises(ValueError, match="lowest"):
        spectrum._eigs(barrier84, [0.5], vectors=False)


def test_eigs_rejects_non_finite_schedule(barrier84):
    with pytest.raises(ValueError, match="finite"):
        spectrum._eigs(barrier84, [0.5, math.nan], 2)
