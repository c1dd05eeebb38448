import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symabs.errors import BadRange, DimensionMismatch, NonFinite, Overflow
from symabs.lattice import LatticeParams, quantize_batch


def nearest_multiple(x, spacing):
    """Scalar reference quantizer: nearest multiple, ties away from zero."""
    t = x / spacing
    k = math.floor(abs(t) + 0.5)
    return math.copysign(k, t)


def test_spacing_formula():
    params = LatticeParams(n=2, eta=0.15)
    assert params.spacing == pytest.approx(2.0 * 0.15 / math.sqrt(2.0), abs=0.0)


def test_quantize_known_point():
    # oracle: spacing = 0.3/sqrt(2); 0.12/spacing ~ 0.566 -> 1,
    # -0.25/spacing ~ -1.179 -> -1
    params = LatticeParams(n=2, eta=0.15)
    spacing = params.spacing
    assert nearest_multiple(0.12, spacing) == 1.0
    assert nearest_multiple(-0.25, spacing) == -1.0
    indices, coords = quantize_batch([[0.12, -0.25]], params)
    assert indices.tolist() == [[1, -1]]
    assert coords.tolist() == [[spacing, -spacing]]


def test_tie_breaks_away_from_zero():
    # n=1 makes spacing = 2*eta; the half-point 0.25 is exactly
    # representable, so the tie is genuine.
    params = LatticeParams(n=1, eta=0.25)
    indices, _ = quantize_batch([[0.25], [-0.25], [0.75]], params)
    assert indices[:, 0].tolist() == [1, -1, 2]


def test_origin_is_fixed():
    params = LatticeParams(n=3, eta=0.7)
    indices, coords = quantize_batch([[0.0, 0.0, 0.0]], params)
    assert indices.tolist() == [[0, 0, 0]]
    assert coords.tolist() == [[0.0, 0.0, 0.0]]


@given(
    n=st.integers(min_value=1, max_value=3),
    eta=st.sampled_from([0.05, 0.15, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_quantization_error_within_radius(n, eta, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-50.0, 50.0, size=(64, n))
    _, coords = quantize_batch(pts, LatticeParams(n=n, eta=eta))
    err = np.linalg.norm(pts - coords, axis=1)
    assert np.all(err <= eta * (1.0 + 1e-12))


@given(
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_quantize_idempotent(n, seed):
    rng = np.random.default_rng(seed)
    params = LatticeParams(n=n, eta=0.3)
    x = rng.uniform(-10.0, 10.0, size=(1, n))
    once = quantize_batch(x, params)
    twice = quantize_batch(once[1], params)
    assert np.array_equal(once[0], twice[0])
    assert np.array_equal(once[1], twice[1])


def test_batch_matches_single():
    params = LatticeParams(n=2, eta=0.15)
    pts = np.array([[0.12, -0.25], [1.0, 1.0], [-0.3, 0.49]])
    indices, coords = quantize_batch(pts, params)
    for row in range(pts.shape[0]):
        single = quantize_batch(pts[row : row + 1], params)
        assert np.array_equal(indices[row], single[0][0])
        assert np.array_equal(coords[row], single[1][0])
        ref = [nearest_multiple(x, params.spacing) for x in pts[row]]
        assert indices[row].tolist() == ref


def test_indices_are_int64():
    params = LatticeParams(n=1, eta=0.5)
    indices, _ = quantize_batch([[1234.5]], params)
    assert indices.dtype == np.int64


def test_overflow_detected():
    params = LatticeParams(n=1, eta=1e-6)
    with pytest.raises(Overflow):
        quantize_batch([[1e300]], params)


def test_rejects_non_finite_points():
    params = LatticeParams(n=2, eta=0.1)
    with pytest.raises(NonFinite):
        quantize_batch([[np.nan, 0.0]], params)


def test_rejects_wrong_dimension():
    params = LatticeParams(n=2, eta=0.1)
    with pytest.raises(DimensionMismatch):
        quantize_batch([1.0, 2.0], params)
    with pytest.raises(DimensionMismatch):
        quantize_batch(np.zeros((4, 3)), params)


def test_rejects_bad_params():
    with pytest.raises(BadRange):
        LatticeParams(n=0, eta=0.1)
    with pytest.raises(BadRange):
        LatticeParams(n=2, eta=0.0)
    with pytest.raises(BadRange):
        LatticeParams(n=2, eta=float("inf"))
