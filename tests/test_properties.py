"""Property tests for the homogeneity laws of the Luxemburg seminorm and K-tilde,
for the problem-file parser's error contract and for the bytes of its normal
form.

Specs come from the ``conftest`` path, grid and random generators with at
most 200 points; the hypothesis profile registered in ``conftest`` makes
every run draw the same examples.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dirichletforms import (
    LuxemburgQuery,
    hardy_optimal_constant,
    luxemburg_family_check,
    luxemburg_norm,
)
from dirichletforms.errors import StructuralError
from dirichletforms.problemio import ProblemFile, parse_problem, serialize_problem
from conftest import grid_spec, path_spec, random_connected_spec, serialize_oracle
from test_cli import PROBLEM

exponents = st.floats(1.5, 3.5)


@st.composite
def specs(draw, max_points=200, subcritical=False, one_exponent=False, p_values=exponents):
    """A path, grid or random spec; random specs may mix exponents."""
    family = draw(st.sampled_from(["path", "grid", "random"]))
    seed = draw(st.integers(0, 2**16))
    p = draw(p_values)
    n_kill = draw(st.integers(1 if subcritical else 0, 2))
    if family == "path":
        n_edges = draw(st.integers(1, max_points - 1))
        return path_spec(n_edges, p, dirichlet_right=subcritical or draw(st.booleans()))
    if family == "grid":
        side = draw(st.integers(2, int(max_points**0.5)))
        return grid_spec(side, seed, p, n_kill=n_kill, n_boundary=draw(st.integers(0, 2)))
    p_range = (p, p) if one_exponent else tuple(sorted((p, draw(exponents))))
    n_boundary = draw(st.integers(0, 2))
    n = draw(st.integers(2, max_points - n_boundary))
    return random_connected_spec(n, seed, p_range, n_kill=n_kill, n_boundary=n_boundary)


def _field(spec, seed):
    return spec.project_feasible(np.random.default_rng(seed).normal(size=spec.space.n))


@given(specs(), st.integers(0, 2**16), st.floats(1e-3, 1e3), st.booleans(), st.floats(0.1, 10.0))
def test_luxemburg_norm_is_absolutely_homogeneous(spec, seed, t, negate, r):
    # ||t f||_{L,r} = |t| ||f||_{L,r}
    f = _field(spec, seed)
    t = -t if negate else t
    q = LuxemburgQuery(r=r)
    assert luxemburg_norm(spec, t * f, q) == pytest.approx(
        abs(t) * luxemburg_norm(spec, f, q), rel=1e-12
    )


@given(specs(), st.integers(0, 2**16), st.floats(0.1, 10.0), st.floats(0.01, 1.0))
def test_luxemburg_family_sandwich(spec, seed, r, ratio):
    # ||f||_{L,r} <= ||f||_{L,s} <= (r/s) ||f||_{L,r} for r >= s
    ok, details = luxemburg_family_check(spec, _field(spec, seed), r, ratio * r)
    assert ok, details


# K_of runs the alpha -> 0 Green schedule, which stops on an absolute step
# of 1e-9.  It runs out of steps at p < 2 (path_spec(11, 1.5), w = 1) and on
# longer paths (path_spec(24), w about 2), and it loses relative accuracy on
# small weights; so this law is drawn only where K_of is reliable: at most
# 12 points, p >= 2 and t near 1
@settings(max_examples=25)
@given(
    specs(max_points=12, subcritical=True, one_exponent=True, p_values=st.floats(2.0, 3.5)),
    st.integers(0, 2**16),
    st.floats(0.5, 2.0),
)
def test_one_exponent_K_tilde_is_homogeneous(spec, seed, t):
    # K(t w) = t^{p/(p-1)} K(w), so K-tilde(t w) = t K-tilde(w)
    w = spec.project_feasible(np.random.default_rng(seed).uniform(0.1, 1.0, spec.space.n))
    base = hardy_optimal_constant(spec, w, search_budget=0)["K_tilde"]
    scaled = hardy_optimal_constant(spec, t * w, search_budget=0)["K_tilde"]
    assert scaled == pytest.approx(t * base, rel=1e-8)


def _value_paths(node, path=()):
    """The path of every value in a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _value_paths(child, path + (key,))


# any JSON value, with the document's point names, NaN, the infinities and an
# int past the float range among the leaves
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.sampled_from(["a", "b", "c", "z"]) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300)
@given(st.sampled_from(list(_value_paths(PROBLEM))), json_values)
def test_a_replaced_value_parses_or_is_a_structural_error(path, value):
    doc = json.loads(json.dumps(PROBLEM))
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        problem = parse_problem(json.dumps(doc))
    except StructuralError:
        return
    assert isinstance(problem, ProblemFile)


# point names the encoder escapes; numbers whose tokens are easy to get wrong
point_names = st.sampled_from(['"', "\\", '", "', "\u00e9", "\u6f22", "\x00", "\n", "\x1f"]) | st.text(
    max_size=4
)
edge_cases = st.sampled_from([1, 2, 5e-324, 1e-05, 1e16, 1e300])
positive = edge_cases | st.integers(1, 10**20) | st.floats(5e-324, 1e300)
exponents_above_1 = st.sampled_from([2, 3, 1.5, 1e16, 1e300]) | st.floats(1.0, 1e300, exclude_min=True)
kappas = st.sampled_from([0, -0.0]) | edge_cases | st.floats(0.0, 1e300)


@st.composite
def problem_docs(draw):
    """A valid problem document; any key with a default may be left out."""
    points = draw(st.lists(point_names, unique=True, max_size=5))
    maybe = lambda: draw(st.booleans())
    mu = {p: draw(positive) for p in points if maybe()}
    doc = {"space": {"points": points, "mu": mu}}
    if maybe():
        doc["version"] = draw(point_names)
    if len(points) >= 2:
        pairs = st.lists(st.sampled_from(points), min_size=2, max_size=2, unique=True)
        doc["edges"] = []
        for u, v in draw(st.lists(pairs, max_size=4)):
            edge = {"u": u, "v": v}
            if maybe():
                edge["weight"] = draw(positive)
            if maybe():
                edge["exponent"] = draw(exponents_above_1)
            doc["edges"].append(edge)
    if points:
        doc["kill"] = []
        for point in draw(st.lists(st.sampled_from(points), max_size=3)):
            term = {"point": point}
            if maybe():
                term["kappa"] = draw(kappas)
            if maybe():
                term["exponent"] = draw(exponents_above_1)
            doc["kill"].append(term)
        doc["boundary"] = draw(st.lists(st.sampled_from(points), max_size=3))
    if maybe():
        doc["defaults"] = {"tol": draw(positive), "max_iterations": draw(st.integers(0, 100))}
    return doc


def _as_floats(node):
    """The document with every number a float: 1 and 1.0 must digest alike."""
    if isinstance(node, dict):
        return {k: v if k == "defaults" else _as_floats(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_as_floats(v) for v in node]
    return float(node) if type(node) is int else node


@settings(max_examples=300)
@given(problem_docs())
def test_the_normal_form_is_the_indented_encoding(doc):
    problem = parse_problem(json.dumps(doc))
    text = serialize_problem(problem)
    assert text == serialize_oracle(problem)
    assert serialize_problem(parse_problem(text)) == text
    assert serialize_problem(parse_problem(json.dumps(_as_floats(doc)))) == text


def test_a_failing_property_is_reported_as_one_failure(tmp_path):
    # reporting a failing example makes hypothesis import libcst, whose
    # deprecation warning the "error" warning filter must not turn into an
    # INTERNALERROR that aborts the session
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(n):
            assert n < 10
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
