import math

import numpy as np
import pytest

from dirichletforms import (
    Edge,
    EnergySpec,
    K_of,
    MeasureSpace,
    ParameterError,
    Verdict,
    classify,
    hardy_from_green,
    hardy_optimal_constant,
    hardy_upper_check,
    invariant_set_check,
    synthesize_hardy_weight,
    weak_hardy_profile,
    weak_poincare_profile,
)
from dirichletforms.criticality import _nontrivial_invariant_set
from conftest import (
    path_spec,
    random_connected_spec,
    single_vertex_spec,
    sparse_random_spec,
)


def test_K_single_vertex_closed_form():
    # E(x) = x^2/2, G w = w, so K(w) = w^2
    spec = single_vertex_spec(kappa=1.0)
    assert K_of(spec, np.array([1.0])) == pytest.approx(1.0, abs=1e-6)
    assert K_of(spec, np.array([0.5])) == pytest.approx(0.25, abs=1e-6)
    with pytest.raises(ParameterError):
        K_of(spec, np.array([-1.0]))


def test_K_infinite_on_kernel_support():
    spec = EnergySpec(MeasureSpace(("a",), np.ones(1)))
    assert math.isinf(K_of(spec, np.array([1.0])))
    assert K_of(spec, np.array([0.0])) == 0.0  # convention 0 * inf = 0


def test_hardy_upper_bound():
    spec = single_vertex_spec(kappa=1.0)
    rng = np.random.default_rng(0)
    battery = [rng.normal(size=1) for _ in range(10)]
    ok, worst = hardy_upper_check(spec, np.array([1.0]), battery)
    assert ok and worst >= 0.0


def test_hardy_optimal_constant_single_vertex():
    # bilinear: mu_hat = sqrt(2 K(w)) = sqrt(2), K_tilde = 1
    spec = single_vertex_spec(kappa=1.0)
    out = hardy_optimal_constant(spec, np.array([1.0]), search_budget=100, seed=0)
    assert out["pass"]
    assert out["mu_hat"] == pytest.approx(math.sqrt(2.0), rel=1e-3)
    assert out["K_tilde"] == pytest.approx(1.0, rel=1e-3)
    assert out["mu_hat"] <= 2.0 * out["K_tilde"] + 1e-6


def test_hardy_from_green_bound():
    spec = random_connected_spec(5, seed=1, n_kill=2)
    rng = np.random.default_rng(1)
    g = rng.uniform(0.1, 1.0, size=spec.space.n)
    w = hardy_from_green(spec, g)
    assert np.all(w >= 0)
    assert K_of(spec, w) <= spec.space.l1_norm(g) + 1e-6


def test_synthesize_hardy_weight_positive_with_small_K():
    spec = random_connected_spec(5, seed=2, n_kill=2)
    seed_w = np.ones(spec.space.n) / spec.space.total_mass()
    W = synthesize_hardy_weight(spec, seed_w)
    assert np.all(W > 0)
    assert K_of(spec, W) < math.inf
    with pytest.raises(ParameterError):
        synthesize_hardy_weight(spec, np.zeros(spec.space.n))
    with pytest.raises(ParameterError):
        synthesize_hardy_weight(spec, 10.0 * np.ones(spec.space.n))


def test_invariant_set_detection():
    space = MeasureSpace(("a", "b", "c", "d"), np.ones(4))
    spec = EnergySpec(space, (Edge("a", "b", 1.0, 2.0), Edge("c", "d", 1.0, 2.0)))
    check = invariant_set_check(spec, {"a", "b"})
    assert check["invariant"] and check["numeric"]
    check2 = invariant_set_check(spec, {"a", "c"})
    assert not check2["invariant"]


@pytest.mark.parametrize("seed", range(40))
def test_nontrivial_invariant_set_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    spec = sparse_random_spec(seed)
    G = nx.Graph()
    G.add_nodes_from(p for p in spec.space.points if p not in spec.boundary)
    G.add_edges_from(
        (e.u, e.v) for e in spec.edges if e.u in G and e.v in G
    )
    comps = sorted(
        (sorted(c, key=spec.space.index) for c in nx.connected_components(G)),
        key=lambda c: spec.space.index(c[0]),
    )
    # smallest component, ties to the one holding the smallest point index
    want = frozenset(min(comps, key=len)) if len(comps) > 1 else None
    assert _nontrivial_invariant_set(spec) == want


def test_invariance_modulo_boundary():
    # edge into the Dirichlet boundary is inert: {a} stays invariant
    space = MeasureSpace(("a", "b"), np.ones(2))
    spec = EnergySpec(space, (Edge("a", "b", 1.0, 2.0),), boundary=frozenset({"b"}))
    check = invariant_set_check(spec, {"a"})
    assert check["invariant"] and check["numeric"]


def test_classify_critical():
    spec = random_connected_spec(6, seed=3)
    report = classify(spec)
    assert report.verdict is Verdict.CRITICAL
    assert report.kernel_scales is not None
    assert all(e == 0.0 for e in report.diagnostics["kernel_energies"])


def test_classify_subcritical_with_sound_witness():
    spec = random_connected_spec(6, seed=4, n_kill=2)
    report = classify(spec)
    assert report.verdict is Verdict.SUBCRITICAL
    assert not report.witness_pending
    W = report.hardy_weight
    assert np.all(W > 0)
    assert K_of(spec, W) <= 1.0 + 1e-6


def test_classify_reducible():
    space = MeasureSpace(("a", "b", "c", "d"), np.ones(4))
    spec = EnergySpec(space, (Edge("a", "b", 1.0, 2.0), Edge("c", "d", 1.0, 2.0)))
    report = classify(spec)
    assert report.verdict is Verdict.REDUCIBLE
    assert report.invariant_set in ({"a", "b"}, {"c", "d"}, frozenset("ab"), frozenset("cd"))


def test_dichotomy_is_stable_under_perturbation():
    # adding any positive kill to a critical spec makes it subcritical
    spec = random_connected_spec(5, seed=5)
    assert classify(spec).verdict is Verdict.CRITICAL
    from dirichletforms.energy import perturb

    pert = perturb(spec, 0.1 * np.ones(spec.space.n))
    assert classify(pert).verdict is Verdict.SUBCRITICAL


def test_weak_hardy_profile_closed_form():
    # single killed vertex, w = 1, p = 1: alpha(r) = sqrt(2) max(0, 1 - r)
    spec = single_vertex_spec(kappa=1.0)
    r_grid = [0.0, 0.5, 1.0, 2.0]
    profile = weak_hardy_profile(spec, np.array([1.0]), 1.0, r_grid, seed=0)
    expected = [math.sqrt(2.0) * max(0.0, 1.0 - r) for r in r_grid]
    for got, want in zip(profile.alpha_of_r, expected):
        assert got == pytest.approx(want, abs=1e-6)
    # monotone nonincreasing with certificates where positive
    assert all(b <= a + 1e-12 for a, b in zip(profile.alpha_of_r, profile.alpha_of_r[1:]))
    assert profile.certificates[0] is not None


def test_weak_hardy_profile_preconditions():
    crit = random_connected_spec(4, seed=6)
    with pytest.raises(ParameterError):
        weak_hardy_profile(crit, np.ones(4), 1.0, [0.1])
    sub = random_connected_spec(4, seed=6, n_kill=1)
    with pytest.raises(ParameterError):
        weak_hardy_profile(sub, np.zeros(4), 1.0, [0.1])
    with pytest.raises(ParameterError):
        weak_hardy_profile(sub, np.ones(4), 0.5, [0.1])


def test_weak_poincare_profile_runs_on_critical():
    spec = random_connected_spec(5, seed=7)
    profile = weak_poincare_profile(spec, np.ones(5), 2.0, [0.1, 0.5, 1.0], seed=0)
    assert all(a >= 0.0 for a in profile.alpha_of_r)
    assert all(
        b <= a + 1e-12 for a, b in zip(profile.alpha_of_r, profile.alpha_of_r[1:])
    )
    # kernel contains more than the constants on a subcritical spec
    with pytest.raises(ParameterError):
        weak_poincare_profile(path_spec(3), np.ones(4), 2.0, [0.1])
