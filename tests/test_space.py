import numpy as np
import pytest

from dirichletforms import MeasureSpace, ParameterError, StructuralError, lattice_ops
from dirichletforms.space import weighted_lp_norm


def test_construction_and_lookup():
    space = MeasureSpace(("a", "b", "c"), np.array([1.0, 2.0, 0.5]))
    assert space.n == 3
    assert space.index("b") == 1
    assert space.indicator({"a", "c"}).tolist() == [True, False, True]
    assert not space.indicator(()).any()
    assert space.total_mass() == pytest.approx(3.5)


def test_duplicate_points_rejected():
    with pytest.raises(StructuralError):
        MeasureSpace(("a", "a"), np.array([1.0, 1.0]))


def test_nonpositive_measure_rejected():
    with pytest.raises(StructuralError):
        MeasureSpace(("a", "b"), np.array([1.0, 0.0]))


def test_unknown_point_rejected():
    space = MeasureSpace(("a",), np.array([1.0]))
    with pytest.raises(StructuralError):
        space.index("z")
    with pytest.raises(StructuralError):
        space.indicator(["a", "z"])


def test_check_field_shape():
    space = MeasureSpace(("a", "b"), np.array([1.0, 1.0]))
    with pytest.raises(StructuralError):
        space.check_field([1.0, 2.0, 3.0])


def test_field_from_mapping_and_scalar():
    space = MeasureSpace(("a", "b"), np.array([1.0, 1.0]))
    f = space.field({"a": 2.0, "b": -1.0})
    assert np.allclose(f, [2.0, -1.0])
    assert np.allclose(space.field(3.0), [3.0, 3.0])
    assert space.as_dict(f) == {"a": 2.0, "b": -1.0}


def test_inner_and_norms():
    space = MeasureSpace(("a", "b"), np.array([2.0, 3.0]))
    f = np.array([1.0, -1.0])
    g = np.array([2.0, 2.0])
    assert space.inner(f, g) == pytest.approx(2 * 2 - 3 * 2)
    assert space.norm(f) == pytest.approx(np.sqrt(5.0))
    assert space.l1_norm(f) == pytest.approx(5.0)


def test_lattice_ops():
    lo, hi = lattice_ops([1.0, 4.0], [3.0, 2.0])
    assert np.allclose(lo, [1.0, 2.0])
    assert np.allclose(hi, [3.0, 4.0])


def test_weighted_lp_norm():
    space = MeasureSpace(("a", "b"), np.array([1.0, 2.0]))
    f = np.array([1.0, -2.0])
    w = np.array([1.0, 0.5])
    expected = (1.0 * 1.0 * 1.0 + 2.0 * 0.5 * 8.0) ** (1.0 / 3.0)
    assert weighted_lp_norm(space, f, 3.0, w) == pytest.approx(expected)
    with pytest.raises(ParameterError):
        weighted_lp_norm(space, f, 0.5, w)
    with pytest.raises(ParameterError):
        weighted_lp_norm(space, f, 2.0, np.array([1.0, -1.0]))
