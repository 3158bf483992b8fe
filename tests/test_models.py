import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealosc import ModelSpec, build_model, hamiltonian_at
from annealosc.models import barrier_profile, grover_schedule, tridiagonal_bands

import reference
from oracles import (central_difference, dense_reference, full_grover_hamiltonian,
                     full_qubit_hamiltonians, symmetric_sector_eigenvalues)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="barrier", n=0, alpha=0.3, beta=0.5)
    with pytest.raises(ValueError):
        ModelSpec(kind="nobarrier", n=4, mu=-1.0)
    with pytest.raises(ValueError):
        ModelSpec(kind="grover", big_n=4, big_m=4)
    with pytest.raises(ValueError):
        ModelSpec(kind="grover", big_n=4, big_m=0)
    with pytest.raises(ValueError):
        ModelSpec(kind="unknown")
    # sizes are integers: a float or bool is not truncated
    for name, bad in [("big_n", dict(kind="grover", big_n=64.5, big_m=1)),
                      ("big_m", dict(kind="grover", big_n=64, big_m=1.5)),
                      ("big_m", dict(kind="grover", big_n=64, big_m=True)),
                      ("n", dict(kind="cubic", n=True)),
                      ("n", dict(kind="cubic", n="4")),
                      ("n", dict(kind="barrier", n=16.5, alpha=0.3, beta=0.5))]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ModelSpec(**bad)
    assert ModelSpec(kind="cubic", n=np.int64(4)).n == 4
    # a peak height n**beta beyond the float range is a ValueError, not an OverflowError
    for n in (16, np.int64(16)):
        with pytest.raises(ValueError, match="^beta must give a finite peak height"):
            ModelSpec(kind="barrier", n=n, alpha=0.3, beta=400.0)


def test_nobarrier_diagonal_n4():
    m = build_model(ModelSpec(kind="nobarrier", n=4, mu=1.0))
    assert np.allclose(np.diag(m.h1), [0, 1, 2, 3, 4])
    assert np.allclose(np.diag(m.h0), 0.0)


def test_h0_entry_n4_against_full_space():
    m = build_model(ModelSpec(kind="nobarrier", n=4, mu=1.0))
    assert m.h0[0, 1] == pytest.approx(math.sqrt(1 * 4) / 2, abs=1e-15)
    full_h0, _ = full_qubit_hamiltonians(4, lambda k: 0.0)
    from oracles import symmetric_sector_matrix
    assert np.allclose(symmetric_sector_matrix(4, full_h0), m.h0, atol=1e-12)


@pytest.mark.parametrize("kind,kwargs", [
    ("barrier", {"alpha": 0.3, "beta": 0.5}),
    ("nobarrier", {}),
    ("cubic", {}),
])
def test_reduced_spectrum_matches_full_space_n8(kind, kwargs):
    n = 8
    spec = ModelSpec(kind=kind, n=n, mu=1.0, **kwargs)
    model = build_model(spec)
    f = np.diag(dense_reference(spec).h1)
    full_h0, full_h1 = full_qubit_hamiltonians(n, lambda k: f[k])
    for s in [0.0, 0.25, 0.5, 0.75, 1.0]:
        reduced = np.linalg.eigvalsh(hamiltonian_at(model, s))[:3]
        full = symmetric_sector_eigenvalues(n, (1 - s) * full_h0 + s * full_h1)
        assert np.allclose(reduced, full, atol=1e-10)


@pytest.mark.parametrize("spec", [
    dict(kind="barrier", n=84, mu=1.0, alpha=0.3, beta=0.5),
    dict(kind="barrier", n=100, mu=1.0, alpha=0.1, beta=0.1),
    dict(kind="barrier", n=40, mu=1.0, alpha=0.5, beta=0.8),
    dict(kind="cubic", n=30),
    dict(kind="nobarrier", n=1, mu=40.0),
    dict(kind="grover", big_n=64, big_m=1),
    dict(kind="grover", big_n=12, big_m=3),
    dict(kind="grover", big_n=4, big_m=1),
], ids=lambda d: "-".join(str(v) for v in d.values()))
def test_model_equals_reference_bitwise(spec):
    # perfbench/reference.py builds every model from its formulas, sharing no
    # code with build_model; the tests' reference H(s) relies on this equality
    spec = ModelSpec(**spec)
    model, dense = build_model(spec), dense_reference(spec)
    assert np.array_equal(model.h0, dense.h0)
    assert np.array_equal(model.h1, dense.h1)
    s = np.linspace(0.0, 1.0, 101).tolist()
    assert [model.schedule(x) for x in s] == [dense.g(x) for x in s]
    assert [model.schedule_deriv(x) for x in s] == [dense.dg(x) for x in s]


def test_nobarrier_equals_barrier_with_zero_bump():
    # zero-height barrier profile reproduces the nobarrier matrices exactly
    spec = ModelSpec(kind="barrier", n=6, mu=1.5, alpha=0.3, beta=0.5)
    b = build_model(spec)
    nb = build_model(ModelSpec(kind="nobarrier", n=6, mu=1.5))
    bump = barrier_profile(6, 0.3, 0.5)
    assert np.array_equal(b.h1 - np.diag(bump), nb.h1)
    assert np.array_equal(b.h0, nb.h0)


def test_barrier_profile_shape():
    b = barrier_profile(84, 0.3, 0.5)
    assert b.max() == pytest.approx(84**0.5)
    assert np.argmax(b) == math.ceil(84 / 4)
    assert np.count_nonzero(b) == 5  # width 4, inclusive support


def test_barrier_support_validation():
    # center ceil(n/4) with a huge width exponent spills out of [0, n]
    with pytest.raises(ValueError):
        barrier_profile(4, 1.9, 0.5)


def test_cubic_endpoints():
    m = build_model(ModelSpec(kind="cubic", n=6))
    f = np.diag(m.h1)
    assert f[0] == pytest.approx(-6)
    assert f[6] == pytest.approx(6)
    assert f[3] == pytest.approx(0.0)
    assert np.linalg.eigvalsh(hamiltonian_at(m, 1.0))[0] == pytest.approx(-6)


def test_grover_schedule_endpoints():
    g, _ = grover_schedule(64, 1)
    assert g(0.0) == pytest.approx(0.0, abs=1e-14)
    assert g(0.5) == pytest.approx(0.5, abs=1e-14)
    assert g(1.0) == pytest.approx(1.0, abs=1e-14)


def test_grover_reduced_matches_full_space():
    for big_n, big_m in [(4, 1), (12, 3), (9, 2)]:
        spec = ModelSpec(kind="grover", big_n=big_n, big_m=big_m)
        model = build_model(spec)
        g = reference.search(big_n, big_m).g
        # basis of the invariant subspace: uniform target / non-target states
        basis = np.zeros((big_n, 2))
        basis[:big_m, 0] = 1.0 / math.sqrt(big_m)
        basis[big_m:, 1] = 1.0 / math.sqrt(big_n - big_m)
        for s in np.linspace(0, 1, 20):
            reduced = np.linalg.eigvalsh(hamiltonian_at(model, s))
            full = full_grover_hamiltonian(big_n, big_m, g(s))
            subspace = np.linalg.eigvalsh(basis.T @ full @ basis)
            assert np.allclose(reduced, subspace, atol=1e-12)
            if big_m == 1:
                # with a single target the subspace levels are the global
                # lowest two of the full spectrum
                assert np.allclose(reduced, np.linalg.eigvalsh(full)[:2],
                                   atol=1e-12)


def test_grover_min_gap():
    model = build_model(ModelSpec(kind="grover", big_n=64, big_m=4))
    vals = np.linalg.eigvalsh(hamiltonian_at(model, 0.5))
    assert vals[1] - vals[0] == pytest.approx(math.sqrt(4 / 64), abs=1e-12)


def test_hamiltonian_endpoints_and_midpoint(nobarrier1, grover64):
    for m in (nobarrier1, grover64):
        assert np.allclose(hamiltonian_at(m, 0.0), m.h0, atol=1e-15)
        assert np.allclose(hamiltonian_at(m, 1.0), m.h1, atol=1e-15)
        assert np.allclose(hamiltonian_at(m, 0.5), (m.h0 + m.h1) / 2, atol=1e-14)


def test_hamiltonian_rejects_out_of_range(nobarrier1):
    with pytest.raises(ValueError):
        hamiltonian_at(nobarrier1, -0.01)
    with pytest.raises(ValueError):
        hamiltonian_at(nobarrier1, 1.01)
    with pytest.raises(ValueError):
        hamiltonian_at(nobarrier1, math.nan)
    with pytest.raises(ValueError):
        tridiagonal_bands(nobarrier1, math.nan)


def test_dh_ds_constant_for_linear_schedule(nobarrier1):
    dh = reference.nobarrier(1, 1.0).dh
    assert np.array_equal(dh(0.1), dh(0.9))
    assert np.allclose(dh(0.3), nobarrier1.h1 - nobarrier1.h0, atol=1e-15)


def test_dh_ds_grover_finite_difference(grover64):
    dh = reference.search(64, 1).dh
    for s in [0.2, 0.5, 0.8]:
        fd = central_difference(lambda x: hamiltonian_at(grover64, x), s)
        assert np.allclose(fd, dh(s), atol=1e-7)
    # schedule odd about s = 1/2 -> derivative norms symmetric
    assert np.linalg.norm(dh(0.3)) == pytest.approx(np.linalg.norm(dh(0.7)), rel=1e-12)


def test_tridiagonal_bands_consistent(barrier84):
    diag, off = tridiagonal_bands(barrier84, 0.37)
    dense = hamiltonian_at(barrier84, 0.37)
    assert np.allclose(diag, np.diag(dense), atol=1e-15)
    assert np.allclose(off, np.diag(dense, 1), atol=1e-15)


@settings(deadline=None, max_examples=30)
@given(s=st.floats(0.0, 1.0),
       n=st.integers(1, 12),
       mu=st.floats(0.1, 5.0),
       kind=st.sampled_from(["nobarrier", "cubic"]))
def test_hamiltonian_always_symmetric(s, n, mu, kind):
    model = build_model(ModelSpec(kind=kind, n=n, mu=mu))
    h = hamiltonian_at(model, s)
    assert np.array_equal(h, h.T)


def test_from_dict_roundtrip():
    spec = ModelSpec.from_dict({"kind": "grover", "big_n": 64, "big_m": 1})
    assert spec.big_n == 64
    with pytest.raises(ValueError):
        ModelSpec.from_dict({"kind": "grover", "big_n": 64, "big_m": 1, "junk": 2})
