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


def test_field_reads_a_large_mapping_and_names_its_first_bad_entry():
    n = 5000
    space = MeasureSpace(tuple(f"p{i}" for i in range(n)), np.ones(n))
    values = {f"p{i}": 0.5 * i for i in range(0, n, 2)}
    values["p1"] = 3  # ints are numbers
    want = np.zeros(n)
    want[::2] = 0.5 * np.arange(0, n, 2)
    want[1] = 3.0
    assert np.array_equal(space.field(values), want)
    # numpy scalars and numeric strings still read, as float() reads them
    assert np.array_equal(space.field({"p0": np.float64(1.5), "p2": "2.5"})[:3], [1.5, 0.0, 2.5])
    for bad, message in (
        ({"p4001": True}, "field value True is not a number"),
        ({"p4001": None}, "field value None is not a number"),
        ({"p4001": [1.0]}, r"field value \[1.0\] is not a number"),
        ({"q": 1.0}, "unknown point 'q'"),
        ({"q": "x"}, "field value 'x' is not a number"),  # the value is read first
        ({"p4001": "x", "q": 1.0}, "field value 'x' is not a number"),
        ({"p4001": 1.0, "q": "x"}, "field value 'x' is not a number"),
        ({"q": 1.0, "p4001": "x"}, "unknown point 'q'"),
    ):
        with pytest.raises(StructuralError, match=message):
            space.field({**values, **bad})


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
