"""Model construction: Hamiltonian parts, ground state, closed-form spectrum."""

import math
import pickle

import numpy as np
import pytest

from minqet import qmath
from minqet.model import (
    InvalidParams,
    ModelParams,
    build_hamiltonian,
    ground_state,
    params_row,
    spectrum_closed,
)


def test_params_reject_nonpositive():
    with pytest.raises(InvalidParams):
        ModelParams(h=0.0, k=1.0)
    with pytest.raises(InvalidParams):
        ModelParams(h=1.0, k=-2.0)


def test_params_derived_quantities():
    p = ModelParams(h=3.0, k=4.0)
    assert abs(p.eps - 5.0) <= 1e-15
    assert abs(p.cos_sigma - 0.6) <= 1e-15
    assert abs(p.sin_sigma - 0.8) <= 1e-15
    assert abs(p.cos_sigma**2 + p.sin_sigma**2 - 1.0) <= 1e-14


def test_params_derived_quantities_are_cached():
    p, fresh = ModelParams(h=0.3, k=2.7), ModelParams(h=0.3, k=2.7)
    assert p.eps is p.eps and p.cos_sigma is p.cos_sigma and p.sin_sigma is p.sin_sigma
    assert (p.eps, p.cos_sigma, p.sin_sigma) == (
        math.hypot(0.3, 2.7), 0.3 / math.hypot(0.3, 2.7), 2.7 / math.hypot(0.3, 2.7)
    )
    assert params_row(0.3, 2.7) == (p.h, p.k, p.eps, p.cos_sigma, p.sin_sigma)
    # a cached value changes neither equality nor hashing, and survives pickling
    assert p == fresh and hash(p) == hash(fresh)
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and copy.eps == p.eps and copy.sin_sigma == p.sin_sigma


def test_parts_sum_exactly():
    parts = build_hamiltonian(ModelParams(h=1.3, k=0.7))
    assert np.max(np.abs(parts.h_a + parts.h_b + parts.v - parts.total)) <= 1e-14
    for m in (parts.h_a, parts.h_b, parts.v, parts.total):
        assert qmath.hermiticity_defect(m) <= 1e-14


def test_spectrum_unit_point():
    params = ModelParams(h=1.0, k=1.0)
    vals, _ = qmath.hermitian_eig(build_hamiltonian(params).total)
    root2 = math.sqrt(2.0)
    assert np.allclose(vals, [0.0, 2 * root2 - 2, 2 * root2 + 2, 4 * root2], atol=1e-10)
    assert np.allclose(spectrum_closed(params), vals, atol=1e-10)


def test_hamiltonian_nonnegative():
    for h, k in [(0.3, 2.0), (1.0, 1.0), (5.0, 0.4)]:
        vals, _ = qmath.hermitian_eig(build_hamiltonian(ModelParams(h=h, k=k)).total)
        assert vals[0] >= -1e-10
        assert abs(vals[0]) <= 1e-10


def test_hb_alone_has_negative_eigenvalue():
    # h sigma_z + h^2/eps has eigenvalues h^2/eps -/+ h; at h=k=1 the lower
    # one is 1/sqrt(2) - 1.
    parts = build_hamiltonian(ModelParams(h=1.0, k=1.0))
    vals, _ = qmath.hermitian_eig(parts.h_b)
    assert abs(vals[0] - (1.0 / math.sqrt(2.0) - 1.0)) <= 1e-12
    assert abs(vals[0] - (-0.292893)) <= 1e-6


def test_ground_state_unit_point_amplitudes():
    g = ground_state(ModelParams(h=1.0, k=1.0))
    c = 1.0 / math.sqrt(2.0)
    expected = np.array(
        [math.sqrt((1 - c) / 2), 0.0, 0.0, -math.sqrt((1 + c) / 2)]
    )
    assert np.allclose(g, expected, atol=1e-12)
    assert np.allclose(g, [0.382683, 0.0, 0.0, -0.923880], atol=1e-6)


def test_ground_state_annihilated():
    for h, k in [(0.1, 10.0), (1.0, 1.0), (7.3, 0.2)]:
        params = ModelParams(h=h, k=k)
        parts = build_hamiltonian(params)
        g = ground_state(params)
        assert float(np.linalg.norm(parts.total @ g)) <= 1e-9 * max(1.0, 4 * params.eps)
        assert abs(qmath.expectation(g, parts.total)) <= 1e-10 * max(1.0, params.eps)


def test_ground_state_decoupled_limit():
    g = ground_state(ModelParams(h=1.0, k=1e-6))
    assert np.allclose(g, [0.0, 0.0, 0.0, -1.0], atol=1e-6)


def test_ground_state_scale_invariance():
    base = ground_state(ModelParams(h=1.4, k=0.6))
    for c in (0.5, 2.0, 7.0):
        assert np.allclose(ground_state(ModelParams(h=1.4 * c, k=0.6 * c)), base, atol=1e-12)


def test_grid_ground_state_and_spectrum():
    # small version of the acceptance grid: closed spectrum vs eigensolver and
    # vanishing part-wise ground expectations
    for h in np.geomspace(0.1, 10.0, 5):
        for k in np.geomspace(0.1, 10.0, 5):
            params = ModelParams(h=float(h), k=float(k))
            parts = build_hamiltonian(params)
            g = ground_state(params)
            scale = max(1.0, 4.0 * params.eps)
            assert float(np.linalg.norm(parts.total @ g)) <= 1e-9 * scale
            for op in (parts.h_a, parts.h_b, parts.v):
                assert abs(qmath.expectation(g, op)) <= 1e-9 * scale
            vals, _ = qmath.hermitian_eig(parts.total)
            assert np.allclose(spectrum_closed(params), vals, atol=1e-9 * scale)


def test_energy_observables_accessor():
    params = ModelParams(h=1.0, k=1.0)
    parts = build_hamiltonian(params)
    g = ground_state(params)
    plus_plus = np.zeros(4)
    plus_plus[0] = 1.0
    assert abs(qmath.expectation(g, parts.h_b)) <= 1e-10
    assert abs(qmath.expectation(g, parts.v)) <= 1e-10
    assert abs(qmath.expectation(plus_plus, parts.h_a) - (1 + 1 / math.sqrt(2))) <= 1e-12
