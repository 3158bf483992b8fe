import math
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from annealosc import (LargeGapParams, ModelSpec, SplitParams, build_model,
                       gap_trace, predict_grover, predict_large_gap,
                       predict_split)
from annealosc.predict import (amplitude_integral, grover_omega, grover_rho,
                               landau_zener_amplitude, split_params_from_crossing)
from annealosc.spectrum import CrossingParams

import reference
from oracles import evolve_two_level, grover_gamma, grover_gap
from test_spectrum import OMEGA_NB_MU1

GROVER_OMEGA_64_1 = 0.2394257806110935  # frozen from the closed form


# ---------------------------------------------------------------- amplitude

def test_amplitude_integral_zero_coupling(nobarrier1_trace):
    import dataclasses
    tr = dataclasses.replace(nobarrier1_trace,
                             gamma=np.zeros_like(nobarrier1_trace.gamma))
    assert amplitude_integral(tr, 40.0) == 0.0


def test_amplitude_integral_matches_two_level_ode(nobarrier1_trace):
    # the first-order (C0 ~ 1) integral vs the exact two-level solution;
    # the neglected back-reaction contributes a few 1e-6 at tau = 50 and
    # falls off faster than tau^-2
    for tau, tol in [(50.0, 5e-6), (200.0, 1e-6)]:
        amp = amplitude_integral(nobarrier1_trace, tau)
        ode = evolve_two_level(nobarrier1_trace, tau)
        assert abs(amp) ** 2 == pytest.approx(ode.p_leak, abs=tol)


def test_amplitude_integral_large_tau_asymptote(nobarrier1_trace):
    # stationary-free oscillatory integral -> boundary contributions
    # (rho1 - rho0 e^{-i tau omega}) / (i tau) with an O(tau^-2) remainder
    tr = nobarrier1_trace
    rho0, rho1 = tr.rho[0], tr.rho[-1]
    for tau in (100.0, 400.0):
        asym = (rho1 - rho0 * np.exp(-1j * tau * OMEGA_NB_MU1)) / (1j * tau)
        assert abs(amplitude_integral(tr, tau) - asym) <= 5.0 / tau**2


def test_amplitude_integral_rejects_bad_tau(nobarrier1_trace):
    with pytest.raises(ValueError):
        amplitude_integral(nobarrier1_trace, 0.0)


def test_amplitude_squared_consistent_with_large_gap(nobarrier1_trace):
    tr = nobarrier1_trace
    p = LargeGapParams(rho0=tr.rho[0], rho1=tr.rho[-1], omega=OMEGA_NB_MU1)
    for tau in (80.0, 250.0):
        amp2 = abs(amplitude_integral(tr, tau)) ** 2
        assert abs(amp2 - predict_large_gap(p, tau)) <= 5.0 / tau**3


# ---------------------------------------------------------------- large gap

def test_large_gap_equal_rho_reduces_to_sine():
    p = LargeGapParams(rho0=0.5, rho1=0.5, omega=2.0, m=3)
    taus = np.linspace(5.0, 60.0, 300)
    expected = (4 * 3 * 0.25 / taus**2) * np.sin(2.0 * taus / 2) ** 2
    assert np.allclose(predict_large_gap(p, taus), expected, atol=1e-15)
    k = 4
    assert predict_large_gap(p, 2 * math.pi * k / 2.0) == pytest.approx(0.0, abs=1e-14)


def test_large_gap_point_value():
    p = LargeGapParams(rho0=0.5, rho1=0.5, omega=0.811617)
    tau = math.pi / 0.811617
    assert predict_large_gap(p, tau) == pytest.approx(1.0 / tau**2, abs=1e-12)
    assert predict_large_gap(p, tau) == pytest.approx(0.06675, abs=5e-5)


@settings(deadline=None, max_examples=60)
@given(rho0=st.floats(-2.0, 2.0), rho1=st.floats(-2.0, 2.0),
       omega=st.floats(0.05, 5.0), tau=st.floats(0.5, 500.0))
def test_large_gap_nonnegative(rho0, rho1, omega, tau):
    p = LargeGapParams(rho0=rho0, rho1=rho1, omega=omega)
    assert predict_large_gap(p, tau) >= -1e-15


def test_large_gap_validation():
    with pytest.raises(ValueError):
        LargeGapParams(rho0=0.5, rho1=0.5, omega=-1.0)
    with pytest.raises(ValueError):
        LargeGapParams(rho0=0.5, rho1=0.5, omega=1.0, m=0)
    # NaN passes every comparison, and a float or bool m would scale P
    for bad in ({"omega": math.nan}, {"omega": math.inf}, {"rho0": math.nan},
                {"rho1": math.nan}, {"rho1": -math.inf}, {"m": 2.5}, {"m": True}):
        with pytest.raises(ValueError):
            LargeGapParams(**({"rho0": 0.5, "rho1": 0.5, "omega": 1.0} | bad))
    p = LargeGapParams(rho0=0.5, rho1=0.5, omega=1.0)
    with pytest.raises(ValueError):
        predict_large_gap(p, -3.0)


# ----------------------------------------------------------- split ansatz

def test_landau_zener_amplitude_limits():
    assert landau_zener_amplitude(1.0, 0.3, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-10)
    # squared amplitude equals A^2 times the standard transition probability
    g, v, tau = 0.25, 0.8, 40.0
    lz = math.exp(-2 * math.pi * (g**2 / (4 * v)) * tau / 2)
    assert landau_zener_amplitude(0.7, g, v, tau) ** 2 == pytest.approx(
        0.49 * lz**2, rel=1e-12)
    # doubling v halves the decay exponent
    a1 = landau_zener_amplitude(1.0, g, v, tau)
    a2 = landau_zener_amplitude(1.0, g, 2 * v, tau)
    assert a2 == pytest.approx(math.sqrt(a1), rel=1e-12)
    for args in [(1.0, -0.1, 1.0), (math.nan, 0.3, 1.0), (math.inf, 0.3, 1.0),
                 (1.0, math.nan, 1.0), (1.0, 0.3, math.nan), (1.0, 0.3, math.inf)]:
        with pytest.raises(ValueError):
            landau_zener_amplitude(*args, 10.0)


def _split(a=0.2, v=0.5, m=1):
    return SplitParams(rho0=0.5, rho1=1.0, omega_minus=0.3, omega_plus=0.5,
                       g=0.25, v=v, A=a, m=m)


def test_split_reduces_to_large_gap_at_zero_a():
    p = _split(a=0.0)
    lg = LargeGapParams(rho0=p.rho0, rho1=p.rho1,
                        omega=p.omega_minus + p.omega_plus)
    taus = np.linspace(10.0, 200.0, 400)
    assert np.allclose(predict_split(p, taus), predict_large_gap(lg, taus),
                       atol=1e-16)


def test_split_approaches_large_gap_at_large_tau():
    p = _split(a=0.5)
    lg = LargeGapParams(rho0=p.rho0, rho1=p.rho1,
                        omega=p.omega_minus + p.omega_plus)
    tau = 2000.0  # g^2 tau / v >> 1
    assert predict_split(p, tau) == pytest.approx(predict_large_gap(lg, tau),
                                                  rel=1e-6)


def test_split_requires_a():
    p = replace(_split(), A=None)
    with pytest.raises(ValueError):
        predict_split(p, 30.0)


def test_split_degeneracy_scaling():
    taus = np.linspace(20.0, 80.0, 50)
    assert np.allclose(predict_split(_split(m=2), taus),
                       2 * predict_split(_split(m=1), taus), atol=1e-16)


def test_split_params_from_crossing_roundtrip():
    cr = CrossingParams(kind="avoided", s_star=0.4, g=0.2, v=1.3,
                        omega_minus=0.3, omega_plus=0.6)
    p = split_params_from_crossing(cr, rho0=0.5, rho1=0.7, A=0.1)
    assert (p.g, p.v, p.omega_minus, p.omega_plus) == (0.2, 1.3, 0.3, 0.6)
    q = split_params_from_crossing(cr, rho0=0.5, rho1=0.7, v=2.0)
    assert q.v == 2.0 and q.A is None


def test_split_validation():
    with pytest.raises(ValueError):
        replace(_split(), g=-0.1)
    with pytest.raises(ValueError):
        replace(_split(), omega_minus=0.0)
    for m in (0, -1, 2.5, True):
        with pytest.raises(ValueError):
            _split(m=m)
    # v is required: predict_split would compare it with 0
    with pytest.raises(ValueError, match="v must be positive"):
        _split(v=None)
    for name in ("g", "omega_minus", "omega_plus", "rho0", "rho1"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                replace(_split(), **{name: value})


@pytest.fixture
def ten_second_alarm():
    """Turn a call that would hang into a test failure after 10 s."""
    def _timeout(signum, frame):
        raise TimeoutError("call did not return within 10 s")
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["evolve_two_level", "amplitude_integral",
                                   "predict_large_gap", "predict_split",
                                   "landau_zener_amplitude", "predict_grover"])
def test_non_finite_tau_rejected(nobarrier1_trace, ten_second_alarm, entry, tau):
    calls = {
        "evolve_two_level": lambda: evolve_two_level(nobarrier1_trace, tau),
        "amplitude_integral": lambda: amplitude_integral(nobarrier1_trace, tau),
        "predict_large_gap": lambda: predict_large_gap(
            LargeGapParams(rho0=0.5, rho1=0.5, omega=1.0), tau),
        "predict_split": lambda: predict_split(_split(), tau),
        "landau_zener_amplitude": lambda: landau_zener_amplitude(1.0, 0.3, 1.0, tau),
        "predict_grover": lambda: predict_grover(64, 1, tau),
    }
    with pytest.raises(ValueError, match="positive and finite"):
        calls[entry]()


# ------------------------------------------------------------------ grover

def test_grover_omega_frozen_value():
    assert grover_omega(64, 1) == pytest.approx(GROVER_OMEGA_64_1, abs=1e-15)
    expected = math.sqrt(1 / 64) * math.atanh(math.sqrt(63 / 64)) / math.atan(
        math.sqrt(63))
    assert grover_omega(64, 1) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        grover_omega(8, 8)
    with pytest.raises(ValueError):
        grover_omega(8, 0)
    # a float N or M would be read as a search-space size or target count
    for big_n, big_m in [(64.5, 1), (64, 1.5), (64, True)]:
        with pytest.raises(ValueError):
            predict_grover(big_n, big_m, 10.0)


@pytest.mark.parametrize("big_n,big_m", [(16, 1), (64, 1), (64, 4), (256, 1)])
def test_grover_omega_matches_trace_quadrature(big_n, big_m):
    model = build_model(ModelSpec(kind="grover", big_n=big_n, big_m=big_m))
    tr = gap_trace(model, n_points=801)
    quad = CubicSpline(tr.s, tr.delta).integrate(0.0, 1.0)
    assert grover_omega(big_n, big_m) == pytest.approx(float(quad), abs=1e-8)


def test_grover_period_asymptote():
    # pi sqrt(N) / ln(4N) is the large-N form of 1/omega, not of the period
    big_n = 10**6
    t = 1.0 / grover_omega(big_n, 1)
    asym = math.pi * math.sqrt(big_n) / (2 * math.log(2) + math.log(big_n))
    assert abs(t - asym) / t < 0.05


def test_grover_period_spaces_prediction_minima():
    taus = np.linspace(100.0, 500.0, 400_001)
    p = predict_grover(64, 1, taus)
    minima = taus[1:-1][(p[1:-1] < p[:-2]) & (p[1:-1] <= p[2:])]
    assert len(minima) >= 10
    # sin^2(omega tau / 2) repeats with period 2 pi / omega in tau
    assert np.diff(minima) == pytest.approx(2.0 * math.pi / grover_omega(64, 1), rel=1e-3)


def test_grover_gap_closed_form(grover64):
    from annealosc.spectrum import gap_at
    for s in np.linspace(0.0, 1.0, 17):
        assert grover_gap(64, 1, s) == pytest.approx(gap_at(grover64, s),
                                                     abs=1e-12)
    assert grover_gap(64, 1, 0.5) == pytest.approx(math.sqrt(1 / 64), abs=1e-15)
    for args in [(4, 4, 0.5), (4, 0, 0.5), (4, 5, 0.5), (64, 1, 1.5), (64, 1, math.nan)]:
        with pytest.raises(ValueError):
            grover_gap(*args)


def test_grover_gamma_symmetry_and_endpoints(grover64):
    s = np.linspace(0.0, 1.0, 101)
    gam = grover_gamma(64, 1, s)
    assert np.allclose(gam, gam[::-1], atol=1e-10)
    theta = math.atan(math.sqrt(63))
    assert grover_gamma(64, 1, 0.0) == pytest.approx(theta, abs=1e-12)
    assert grover_gamma(64, 1, 1.0) == pytest.approx(theta, abs=1e-12)
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError):
            grover_gamma(64, 1, bad)


def test_grover_gamma_matches_matrix_element(grover64):
    from annealosc.spectrum import _two_lowest
    dense = reference.search(64, 1)
    for s in [0.0, 0.25, 0.5, 0.75, 1.0]:
        _, vecs = _two_lowest(grover64, s)
        assert abs(vecs[:, 0] @ dense.dh(s) @ vecs[:, 1]) == pytest.approx(
            grover_gamma(64, 1, s), abs=1e-8)


def test_predict_grover_structure():
    om = grover_omega(64, 1)
    rho = grover_rho(64, 1)
    # the closed form is the endpoint of the s-dependent coupling, Delta(0) = 1
    assert rho == reference.search_rho(64, 1)
    assert rho == pytest.approx(grover_gamma(64, 1, 0.0), abs=1e-12)
    for k in (1, 3, 7):
        assert predict_grover(64, 1, 2 * math.pi * k / om) == pytest.approx(
            0.0, abs=1e-25)
    taus = np.linspace(100.0, 500.0, 2000)
    p = predict_grover(64, 1, taus)
    assert np.all(p <= 4 * rho**2 / taus**2 + 1e-18)
    # envelope is attained at the sin^2 maxima
    tau_peak = (2 * 7 + 1) * math.pi / om
    assert predict_grover(64, 1, tau_peak) == pytest.approx(
        4 * rho**2 / tau_peak**2, rel=1e-12)
