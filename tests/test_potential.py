import itertools
import math

import numpy as np
import pytest

from dirichletforms import (
    Edge,
    EnergySpec,
    InfeasibleError,
    MeasureSpace,
    ParameterError,
    capacity,
    capacity_zero_property,
    choquet_suite,
    energy,
    equilibrium_potential,
    excessive_envelope,
    exhaustion_capacity_profile,
    green_on_nonneg,
    is_excessive,
)
from dirichletforms.potential import _constrained_minimize
from dirichletforms.resolvent import ProxConfig
from conftest import path_spec, random_connected_spec


def test_constant_is_excessive_without_kill():
    spec = random_connected_spec(5, seed=0)
    ok, margins = is_excessive(spec, np.ones(5))
    assert ok, margins


def test_green_potential_is_excessive():
    spec = random_connected_spec(5, seed=1, n_kill=2)
    rng = np.random.default_rng(1)
    psi = rng.uniform(0.1, 1.0, size=spec.space.n)
    h = green_on_nonneg(spec, psi)
    assert np.all(np.isfinite(h))
    ok, margins = is_excessive(spec, h)
    assert ok, margins


def test_is_excessive_rejects_negative():
    spec = path_spec(2)
    with pytest.raises(ParameterError):
        is_excessive(spec, np.array([1.0, -1.0, 0.0]))


def test_excessive_envelope_path_closed_form():
    # path 0-1-2 with Dirichlet at 2, obstacle f(0) >= 1: linear decay
    spec = path_spec(2)
    env, _ = excessive_envelope(spec, np.ones(3), {"0"})
    assert np.allclose(env, [1.0, 0.5, 0.0], atol=1e-7)
    assert energy(spec, env) == pytest.approx(0.25, abs=1e-8)


def test_excessive_envelope_infeasible_on_boundary():
    spec = path_spec(2)
    with pytest.raises(InfeasibleError):
        excessive_envelope(spec, np.ones(3), {"2"})


def test_equilibrium_potential_properties():
    spec = random_connected_spec(5, seed=2, n_kill=2)
    h = np.ones(5)
    res = equilibrium_potential(spec, {"v0", "v2"}, h)
    e = res.equilibrium
    assert np.all(e >= -1e-8) and np.all(e <= h + 1e-8)
    assert e[0] == pytest.approx(1.0, abs=1e-8)
    assert e[2] == pytest.approx(1.0, abs=1e-8)
    assert res.value == pytest.approx(energy(spec, e))
    ok, margins = is_excessive(spec, np.maximum(e, 0.0))
    assert ok, margins


def test_empty_set_has_zero_capacity():
    spec = random_connected_spec(4, seed=3, n_kill=1)
    res = capacity(spec, frozenset(), np.ones(4))
    assert res.value == 0.0


def test_capacity_formulations_agree():
    spec = random_connected_spec(5, seed=4, n_kill=2, p_range=(1.8, 3.0))
    res = capacity(spec, {"v1"}, np.ones(5))
    alt = res.report.extras["alternative_value"]
    assert alt == pytest.approx(res.value, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_capacity_report_converged_agrees_with_residual(seed):
    spec = random_connected_spec(6, seed=seed, n_kill=2, p_range=(1.8, 3.0))
    cfg = ProxConfig()
    res = capacity(spec, {"v1", "v3"}, np.ones(6), cfg)
    assert res.report.converged == (res.report.residual <= cfg.residual_tolerance)


def test_constrained_minimize_reports_unconverged_polish():
    spec = random_connected_spec(6, seed=1, n_kill=2, p_range=(1.8, 3.0))
    lower = np.full(6, -np.inf)
    lower[1] = 1.0
    cfg = ProxConfig(residual_tolerance=1e-300)
    _, report = _constrained_minimize(spec, lower, None, cfg, np.ones(6), max_polish=0)
    assert report.residual > cfg.residual_tolerance
    assert report.converged is False


def test_capacity_monotone_in_obstacle():
    spec = random_connected_spec(5, seed=5, n_kill=2)
    a = capacity(spec, {"v0"}, 0.5 * np.ones(5), cross_check=False).value
    b = capacity(spec, {"v0"}, np.ones(5), cross_check=False).value
    assert a <= b + 1e-9


def test_choquet_axioms_small_family():
    spec = random_connected_spec(4, seed=6, n_kill=1)
    pts = spec.space.points
    family = [frozenset(s) for k in range(3) for s in itertools.combinations(pts, k)]
    report = choquet_suite(spec, np.ones(4), family)
    assert report["pass"], report


def test_capacity_zero_property():
    spec = random_connected_spec(4, seed=7, n_kill=2)
    ok, values = capacity_zero_property(spec, np.ones(4))
    assert ok
    assert all(v > 0 for v in values.values())
    crit = random_connected_spec(4, seed=7)
    with pytest.raises(ParameterError):
        capacity_zero_property(crit, np.ones(4))


def test_path_capacity_series_resistance():
    for n in (2, 5, 16):
        spec = path_spec(n)
        res = capacity(spec, {"0"}, np.ones(n + 1), cross_check=False)
        assert res.value == pytest.approx(1.0 / (2.0 * n), abs=1e-8)


def _binary_tree_spec(depth: int) -> tuple[EnergySpec, frozenset]:
    pts = ["root"]
    edges = []
    level = ["root"]
    for d in range(1, depth + 1):
        new = []
        for parent in level:
            for side in "lr":
                child = side if parent == "root" else parent + side
                new.append(child)
                pts.append(child)
                edges.append(Edge(parent, child, 1.0, 2.0))
        level = new
    space = MeasureSpace(tuple(pts), np.ones(len(pts)))
    boundary = frozenset(level)
    return EnergySpec(space, tuple(edges), (), boundary), boundary


def test_binary_tree_capacity_oracle():
    # Dirichlet leaves at depth d: effective resistance sum(2^-k, k=1..d),
    # cap({root}) = (1/2) / R_d
    for depth in (1, 2, 3, 4):
        spec, _ = _binary_tree_spec(depth)
        R = sum(2.0**-k for k in range(1, depth + 1))
        res = capacity(spec, {"root"}, np.ones(spec.space.n), cross_check=False)
        assert res.value == pytest.approx(0.5 / R, abs=1e-8)


def test_exhaustion_profile_decays():
    family = []
    for n in (2, 4, 8, 16):
        spec = path_spec(n)
        family.append((float(n), spec, {"0"}))
    profile = exhaustion_capacity_profile(family)
    values = [v for _, v in profile]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0 / 32.0, abs=1e-8)
