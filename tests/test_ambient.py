import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightcone.ambient import (ETA, SIGNS, Motion, gram_matrix,
                               gram_wedge_inner, inner, projective_distance)
from lightcone.errors import MotionNotOrthogonal, ZeroRepresentative

import oracles
from helpers import (apply, compose, inverse, motion_from_generator,
                     plane_rotation)

RNG = np.random.default_rng(20260816)


def _vec(n=1):
    return RNG.standard_normal((n, 6)).squeeze()


finite_floats = st.floats(min_value=-10, max_value=10,
                          allow_nan=False, allow_infinity=False)
vec6 = st.lists(finite_floats, min_size=6, max_size=6).map(np.array)


def test_signature_layout():
    assert np.array_equal(SIGNS, [1, 1, 1, 1, -1, -1])
    basis = np.eye(6)
    diag = [inner(basis[i], basis[i]) for i in range(6)]
    assert np.array_equal(diag, SIGNS)


def test_inner_matches_oracle_convention():
    x = _vec()
    y = _vec()
    assert inner(x, y) == pytest.approx(oracles.inner(x, y), abs=1e-14)


@given(vec6, vec6, finite_floats)
@settings(max_examples=50, deadline=None)
def test_inner_bilinear_symmetric(x, y, c):
    assert inner(x, y) == pytest.approx(inner(y, x), abs=1e-9)
    assert inner(c * x, y) == pytest.approx(c * inner(x, y), abs=1e-7)


def test_inner_is_bilinear_not_sesquilinear():
    x = np.zeros(6, dtype=complex)
    x[0] = 1j
    assert inner(x, x) == pytest.approx(-1.0)


def test_inner_batched_shapes():
    x = RNG.standard_normal((4, 3, 6))
    y = RNG.standard_normal((3, 6))
    out = inner(x, y)
    assert out.shape == (4, 3)
    assert out[2, 1] == pytest.approx(inner(x[2, 1], y[1]))


def test_gram_matrix():
    a = RNG.standard_normal((3, 6))
    b = RNG.standard_normal((2, 6))
    g = gram_matrix(a, b)
    assert g.shape == (3, 2)
    assert g[1, 0] == pytest.approx(inner(a[1], b[0]))


def test_gram_wedge_inner_basis_planes():
    e = np.eye(6)
    assert gram_wedge_inner(e[[0, 1]], e[[0, 1]]) == pytest.approx(1.0)
    assert gram_wedge_inner(e[[0, 4]], e[[0, 4]]) == pytest.approx(-1.0)
    assert gram_wedge_inner(e[[4, 5]], e[[4, 5]]) == pytest.approx(1.0)
    assert gram_wedge_inner(e[[0, 1]], e[[2, 3]]) == pytest.approx(0.0)


def test_gram_wedge_inner_antisymmetry():
    a = RNG.standard_normal((2, 6))
    b = RNG.standard_normal((2, 6))
    swapped = a[[1, 0]]
    assert gram_wedge_inner(a, b) == pytest.approx(-gram_wedge_inner(swapped, b))


def test_projective_distance_scale_and_sign_invariant():
    p = _vec()
    assert projective_distance(p, 3.7 * p) == pytest.approx(0.0, abs=1e-12)
    assert projective_distance(p, -0.2 * p) == pytest.approx(0.0, abs=1e-12)
    q = _vec()
    assert projective_distance(p, q) == projective_distance(q, p)


def test_projective_distance_zero_rep_raises():
    with pytest.raises(ZeroRepresentative):
        projective_distance(np.zeros(6), np.ones(6))


def test_projective_point_wrapper():
    p = np.array([1.0, 0, 0, 0, 1.0, 0])
    q = np.array([-2.0, 0, 0, 0, -2.0, 0])
    assert projective_distance(p, q) == pytest.approx(0.0, abs=1e-12)


def test_motion_validates():
    with pytest.raises(MotionNotOrthogonal):
        Motion(np.eye(6) * 1.001)
    Motion(np.eye(6))  # fine


def test_motion_rotation_and_boost_preserve_inner():
    rot = plane_rotation(4, 5, 0.83)
    boost = plane_rotation(0, 4, 0.41)
    x = _vec()
    y = _vec()
    for m in (rot, boost, compose(rot, boost)):
        assert inner(apply(m, x), apply(m, y)) == pytest.approx(
            inner(x, y), abs=1e-10)


def test_motion_from_generator_orthogonal():
    s = RNG.standard_normal((6, 6))
    s = 0.3 * (s - s.T)
    m = motion_from_generator(s)  # constructor re-validates
    x = _vec()
    assert inner(apply(m, x), apply(m, x)) == pytest.approx(inner(x, x),
                                                          abs=1e-9)


def test_motion_inverse():
    s = RNG.standard_normal((6, 6))
    m = motion_from_generator(0.2 * (s - s.T))
    x = _vec()
    assert np.allclose(apply(inverse(m), apply(m, x)), x, atol=1e-12)


def test_apply_motion_row_convention():
    m = plane_rotation(0, 1, 0.5)
    x = np.eye(6)[0]
    assert np.allclose(apply(m, x), x @ m.matrix)


def test_eta_matches_signs():
    assert np.array_equal(ETA, np.diag(SIGNS))
