import numpy as np
import pytest

from symabs.errors import BadRange, DimensionMismatch, EmptyResult, NonFinite
from symabs.interface import (
    ALL_SPACE,
    BoxInputSet,
    input_margin,
    shrink_box,
)


def test_margin_on_demo_numbers():
    # ||(-5 I)|| = 5; 5 * (K1 + 1) * 0.15 with K1 from the demo data
    K1 = 2.3109041039770077
    r = input_margin(-5.0 * np.eye(2), K1, 0.15)
    assert r == pytest.approx(5.0 * (K1 + 1.0) * 0.15, abs=1e-12)
    assert r == pytest.approx(2.4831780779827555, abs=1e-9)


def test_margin_edge_values():
    assert input_margin(np.eye(2), 0.0, 0.0) == 0.0
    with pytest.raises(BadRange):
        input_margin(np.eye(2), -1.0, 0.1)
    with pytest.raises(BadRange):
        input_margin(np.eye(2), 1.0, -0.1)


def test_box_membership_boundary_inclusive():
    box = BoxInputSet(lower=np.array([-1.0, -2.0]), upper=np.array([1.0, 2.0]))
    assert box.dim == 2
    assert box.contains([1.0, 2.0])
    assert box.contains([-1.0, -2.0])
    assert not box.contains([1.0 + 1e-12, 0.0])
    with pytest.raises(DimensionMismatch):
        box.contains([0.0])


def test_box_validation():
    with pytest.raises(BadRange):
        BoxInputSet(lower=np.array([1.0]), upper=np.array([0.0]))
    with pytest.raises(NonFinite):
        BoxInputSet(lower=np.array([-np.inf]), upper=np.array([0.0]))
    with pytest.raises(DimensionMismatch):
        BoxInputSet(lower=np.array([0.0]), upper=np.array([1.0, 2.0]))


def test_shrink_box_demo_numbers():
    box = BoxInputSet(lower=np.array([-3.0, -3.0]), upper=np.array([3.0, 3.0]))
    shrunk = shrink_box(box, 2.4831780779827555)
    expected = 3.0 - 2.4831780779827555
    assert shrunk.lower.tolist() == [-expected, -expected]
    assert shrunk.upper.tolist() == [expected, expected]


def test_shrink_box_degenerate_and_empty():
    box = BoxInputSet(lower=np.array([-1.0]), upper=np.array([1.0]))
    exact = shrink_box(box, 1.0)
    assert exact.lower.tolist() == [0.0]
    assert exact.upper.tolist() == [0.0]
    with pytest.raises(EmptyResult):
        shrink_box(box, 1.0 + 1e-9)
    assert shrink_box(box, 0.0) == box


def test_shrink_all_space_passthrough():
    assert shrink_box(ALL_SPACE, 100.0) is ALL_SPACE
    assert ALL_SPACE.contains([1e300, -1e300])
