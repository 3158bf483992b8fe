import dataclasses
import math

import numpy as np
import pytest
from scipy import interpolate, optimize
from scipy.integrate import quad

from annealosc import (ModelSpec, build_model, gap_trace, ground_state,
                       locate_crossing, nobarrier_gap, rho_endpoints)
from annealosc import spectrum
from annealosc.models import ReducedHamiltonian, hamiltonian_at
from annealosc.spectrum import DegenerateGroundStateError, gap_at

from oracles import (eigensystem_lowest, full_qubit_hamiltonians, gamma_at,
                     gap_trace_reference, symmetric_sector_eigenvalues)

# analytic antiderivative of sqrt(1 - 2s + 2s^2): with u = s - 1/2,
# int sqrt(2u^2 + 1/2) du = (u/2) sqrt(2u^2 + 1/2)
#                           + (1/(4 sqrt(2))) asinh(2u), giving
OMEGA_NB_MU1 = 0.5 + math.asinh(1.0) / (2 * math.sqrt(2))


def test_frozen_omega_value_against_quadrature():
    num, _ = quad(lambda s: math.sqrt(1 - 2 * s + 2 * s**2), 0, 1, epsabs=1e-13)
    assert num == pytest.approx(OMEGA_NB_MU1, abs=1e-12)


def test_eigensystem_lowest_diagonal():
    vals, vecs = eigensystem_lowest(np.diag([0.0, 1.0, 2.0]), 2)
    assert np.allclose(vals, [0.0, 1.0], atol=1e-14)
    assert np.allclose(np.abs(vecs.T @ vecs), np.eye(2), atol=1e-12)


def test_eigensystem_lowest_pauli_x_structure():
    vals, _ = eigensystem_lowest(np.array([[0.0, -1.0], [-1.0, 0.0]]), 2)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eigensystem_lowest_validates_k():
    with pytest.raises(ValueError):
        eigensystem_lowest(np.eye(3), 0)
    with pytest.raises(ValueError):
        eigensystem_lowest(np.eye(3), 4)


def test_eigensystem_matches_full_space_oracle():
    n = 8
    spec = ModelSpec(kind="barrier", n=n, mu=1.0, alpha=0.3, beta=0.5)
    model = build_model(spec)
    f = np.diag(model.h1)
    full_h0, full_h1 = full_qubit_hamiltonians(n, lambda k: f[k])
    vals, _ = eigensystem_lowest(hamiltonian_at(model, 0.5), 3)
    oracle = symmetric_sector_eigenvalues(n, 0.5 * full_h0 + 0.5 * full_h1)
    assert np.allclose(vals, oracle, atol=1e-10)


def test_nobarrier_gap_closed_form_values():
    assert nobarrier_gap(0.0, 2.0) == 1.0
    assert nobarrier_gap(1.0, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert nobarrier_gap(0.5, 1.0) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    with pytest.raises(ValueError):
        nobarrier_gap(0.5, -1.0)
    with pytest.raises(ValueError):
        nobarrier_gap(1.5, 1.0)


def test_trace_matches_closed_form_mu1(nobarrier1_trace):
    tr = nobarrier1_trace
    assert np.allclose(tr.delta, nobarrier_gap(tr.s, 1.0), atol=1e-10)


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
    fresh = gap_trace(model, grid=trace.s, refine=False)
    for name in ("lambda0", "lambda1", "delta", "gamma", "rho", "vec0", "vec1"):
        assert np.array_equal(getattr(trace, name), getattr(fresh, name)), name


def test_monotone_gap_reports_no_crossing():
    # mu large enough that the decoupled gap only grows
    model = build_model(ModelSpec(kind="nobarrier", n=1, mu=9.0))
    tr = gap_trace(model, n_points=101)
    cr = locate_crossing(tr)
    if cr.kind == "none":
        assert math.isnan(cr.s_star)
        assert cr.omega > 0


def test_quadrature_grid_consistency(barrier84, barrier84_crossing):
    finer = locate_crossing(gap_trace(barrier84, n_points=401))
    assert finer.omega_minus == pytest.approx(barrier84_crossing.omega_minus, abs=1e-9)
    assert finer.omega_plus == pytest.approx(barrier84_crossing.omega_plus, abs=1e-9)


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
        assert gamma_at(barrier84, s, vecs) == pytest.approx(
            gap * (vecs[:, 0] @ dphi1), abs=1e-4)


def test_gauge_invariance_of_observables(barrier84):
    # |gamma| does not depend on eigenvector sign choices
    from annealosc.spectrum import _two_lowest
    rng = np.random.default_rng(7)
    for s in [0.1, 0.37, 0.9]:
        _, vecs = _two_lowest(barrier84, s)
        flipped = vecs * rng.choice([-1.0, 1.0], size=2)
        assert abs(gamma_at(barrier84, s, vecs)) == pytest.approx(
            abs(gamma_at(barrier84, s, flipped)), rel=1e-12)
    # endpoint product rho(0) rho(1) is fixed under a consistent global flip
    tr = gap_trace(barrier84, n_points=101)
    assert (-tr.rho[0]) * (-tr.rho[-1]) == tr.rho[0] * tr.rho[-1]


def test_degenerate_gap_rejected():
    # two disconnected levels crossing at s = 1/2
    import annealosc.models as am
    h0 = np.diag([0.0, 1.0])
    h1 = np.diag([1.0, 0.0])
    model = am.ReducedHamiltonian(
        dim=2, h0=h0, h1=h1, schedule=lambda s: s,
        schedule_deriv=lambda s: 1.0, tridiagonal=False, label="crossing")
    with pytest.raises(DegenerateGroundStateError):
        gap_trace(model, n_points=65)


def test_gap_at_matches_trace(barrier84, barrier84_trace):
    i = len(barrier84_trace.s) // 3
    s = barrier84_trace.s[i]
    assert gap_at(barrier84, s) == pytest.approx(barrier84_trace.delta[i],
                                                 abs=1e-12)


@pytest.mark.parametrize("spec", [
    dict(kind="barrier", n=24, mu=1.0, alpha=0.3, beta=0.5),  # batched eigh
    dict(kind="barrier", n=40, mu=1.0, alpha=0.3, beta=0.5),  # eigh_tridiagonal
    dict(kind="cubic", n=30),
    dict(kind="grover", big_n=64, big_m=1),  # dense model
    dict(kind="nobarrier", n=1, mu=1.0),
], ids=lambda d: f"{d['kind']}{d.get('n') or d.get('big_n')}")
def test_trace_matches_per_point_reference(spec):
    model = build_model(ModelSpec(**spec))
    tr, ref = gap_trace(model), gap_trace_reference(model)
    assert np.array_equal(tr.s, ref.s)
    for name in ("lambda0", "lambda1", "delta"):
        assert np.abs(getattr(tr, name) - getattr(ref, name)).max() <= 1e-13, name
    for name, rel in (("gamma", 1e-12), ("rho", 1e-11)):
        want = getattr(ref, name)
        assert np.abs(getattr(tr, name) - want).max() <= rel * np.abs(want).max(), name
    for name in ("vec0", "vec1"):
        assert np.abs(getattr(tr, name) - getattr(ref, name)).max() <= 1e-12, name
    assert tr.gauge_continuous == ref.gauge_continuous
    cr, want = locate_crossing(tr), locate_crossing(ref)
    assert cr.kind == want.kind
    for name in ("s_star", "g", "omega_minus", "omega_plus"):
        assert getattr(cr, name) == pytest.approx(getattr(want, name), abs=1e-9,
                                                  nan_ok=True), name


def test_trace_signs_do_not_depend_on_eigensolver():
    # the same matrices, marked dense, go through batched eigh instead of
    # the tridiagonal kernel
    model = build_model(ModelSpec(kind="barrier", n=16, mu=1.0, alpha=0.3, beta=0.5))
    banded = gap_trace(model)
    dense = gap_trace(dataclasses.replace(model, tridiagonal=False))
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
    assert not gap_trace(model, n_points=64, refine=False).gauge_continuous
    assert not gap_trace(model).gauge_continuous
    assert gap_trace(model, n_points=801).gauge_continuous


def test_scalar_spectrum_validates_s(barrier84, grover64):
    for model in (barrier84, grover64):
        with pytest.raises(ValueError):
            gap_at(model, 1.5)
        with pytest.raises(ValueError):
            ground_state(model, -0.1)


# ------------------------------------------------ lowest-pair tridiagonal kernel

def _split_end_model():
    # h1 is diagonal, as for every qubit model: at s = 1 each off-diagonal is
    # exactly 0, dstebz splits the matrix into 1x1 blocks and returns the two
    # lowest values in block order, [1, 0]
    off = np.array([0.5, 0.4, 0.3])
    return ReducedHamiltonian(
        dim=4, h0=np.diag(off, 1) + np.diag(off, -1), h1=np.diag([3.0, 1.0, 2.0, 0.0]),
        schedule=lambda s: s, schedule_deriv=lambda s: np.ones_like(s),
        tridiagonal=True, label="split")


def _assert_lowest_pairs_match_dense(model, g, w, v):
    for k, gk in enumerate(g):
        want_w, want_v = np.linalg.eigh(model.h0 + gk * (model.h1 - model.h0))
        assert np.abs(w[k] - want_w[:2]).max() <= 1e-13
        signs = np.sign(np.einsum("im,im->m", v[k], want_v[:, :2]))
        assert np.abs(v[k] * signs - want_v[:, :2]).max() <= 1e-12


def test_lowest_pairs_ascending_on_split_matrix():
    model = _split_end_model()
    w, v = spectrum._eigs(model, [1.0], 2)
    assert w[0].tolist() == [0.0, 1.0]
    _assert_lowest_pairs_match_dense(model, [1.0], w, v)
    assert ground_state(model, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("spec", [
    dict(kind="barrier", n=40, mu=1.0, alpha=0.3, beta=0.5),
    dict(kind="cubic", n=30),
    dict(kind="nobarrier", n=24, mu=1.0),
], ids=lambda d: f"{d['kind']}{d['n']}")
def test_lowest_pairs_match_dense_eigh(spec):
    model = build_model(ModelSpec(**spec))
    s = np.concatenate([[0.0, 1.0], np.random.default_rng(5).uniform(0, 1, 8)])
    g = model.schedule(s)
    w, v = spectrum._eigs(model, g, 2)
    _assert_lowest_pairs_match_dense(model, g, w, v)


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


def test_eigs_rejects_non_finite_schedule(barrier84):
    with pytest.raises(ValueError, match="finite"):
        spectrum._eigs(barrier84, [0.5, math.nan], 2)
