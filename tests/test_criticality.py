import math

import numpy as np
import pytest

from dirichletforms import (
    Edge,
    EnergySpec,
    InconclusiveError,
    InternalCheckError,
    K_of,
    MeasureSpace,
    NonConvergenceError,
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
from dirichletforms import criticality
from dirichletforms.criticality import _nontrivial_invariant_set
from conftest import (
    disjoint_union,
    path_spec,
    random_connected_spec,
    single_vertex_spec,
    sparse_random_spec,
    weak_edge_spec,
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


def test_K_is_finite_past_any_magnitude():
    # K(1_a) = (G 1_a)_a = 1e9 on the weak edge: finite, or no verdict
    try:
        K = K_of(weak_edge_spec(1e-9), np.array([1.0, 0.0]))
    except InconclusiveError:
        return
    assert K == pytest.approx(1e9, rel=1e-6)


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


def _count_K_of(monkeypatch) -> list:
    calls = []
    real = criticality.K_of

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(criticality, "K_of", counting)
    return calls


def _bisect_K_tilde(spec, w):
    """Reference: bisection on K(w / C) <= 1, to 1e-10 relative."""
    lo = hi = 1.0
    while K_of(spec, w / hi) > 1.0:
        hi *= 2.0
    while K_of(spec, w / lo) <= 1.0:
        lo /= 2.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if K_of(spec, w / mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _mixed_spec_and_weight(seed):
    spec = random_connected_spec(8, seed=seed, p_range=(1.5, 3.5), n_kill=2, n_boundary=1)
    w = spec.project_feasible(np.random.default_rng(seed).uniform(0.1, 1.0, spec.space.n))
    return spec, w


@pytest.mark.parametrize("seed", range(6))
def test_exponent_range_brackets_K_tilde(seed):
    # log K(w / C) has slope in [-p_lo/(p_lo-1), -p_hi/(p_hi-1)] in log C,
    # so K(w / C) = 1 between K^{(p_lo-1)/p_lo} and K^{(p_hi-1)/p_hi}
    spec, w = _mixed_spec_and_weight(seed)
    assert spec.min_exponent < spec.max_exponent
    K = K_of(spec, w)
    ends = [K ** ((p - 1.0) / p) for p in (spec.min_exponent, spec.max_exponent)]
    levels = [K_of(spec, w / c) for c in ends]
    assert min(levels) <= 1.0 + 1e-8 and max(levels) >= 1.0 - 1e-8


@pytest.mark.parametrize("seed", range(2))
def test_mixed_exponent_K_tilde_matches_bisection(seed):
    spec, w = _mixed_spec_and_weight(seed)
    out = hardy_optimal_constant(spec, w, search_budget=0, seed=seed)
    assert out["K_tilde"] == pytest.approx(_bisect_K_tilde(spec, w), rel=1e-8)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_one_exponent_K_tilde_is_the_closed_form(p, monkeypatch):
    spec = random_connected_spec(8, seed=int(10 * p), p_range=(p, p), n_kill=2)
    w = np.random.default_rng(int(10 * p)).uniform(0.1, 1.0, spec.space.n)
    calls = _count_K_of(monkeypatch)
    out = hardy_optimal_constant(spec, w, search_budget=0)
    assert out["K_tilde"] == pytest.approx(out["K"] ** ((p - 1.0) / p), rel=1e-14)
    # K(w / mu_hat) for the pass test; K(w) pairs the Gw of the battery,
    # and K-tilde needs none
    assert len(calls) == 1


def test_one_exponent_classify_rescale_is_the_closed_form(monkeypatch):
    # a series witness with K(W) > 1 is rescaled by K(W)^{(p-1)/p}
    spec = random_connected_spec(6, seed=4, p_range=(3.0, 3.0), n_kill=2)
    real = criticality.synthesize_hardy_weight
    monkeypatch.setattr(
        criticality, "synthesize_hardy_weight", lambda *a, **kw: 50.0 * real(*a, **kw)
    )
    calls = _count_K_of(monkeypatch)
    report = classify(spec)
    K_raw = report.diagnostics["K_raw"]
    assert K_raw > 1.0
    assert report.diagnostics["rescale"] == pytest.approx(K_raw ** (2.0 / 3.0), rel=1e-14)
    assert report.diagnostics["K_witness"] == pytest.approx(1.0, rel=1e-8)
    # K(W) and K(W / rescale); none for the rescale itself
    assert len(calls) == 2


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


def test_classify_reuses_K_raw_without_a_rescale(monkeypatch):
    # K(W) <= 1 needs no rescale, so the witness's K is K_raw, not a second
    # Green value; and a subcritical spec evaluates no kernel energies
    spec = random_connected_spec(6, seed=4, n_kill=2)
    real, on_spec = criticality.green, []

    def counting(s, *args, **kwargs):
        on_spec.append(s is spec)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(criticality, "green", counting)
    report = classify(spec)
    assert report.verdict is Verdict.SUBCRITICAL
    assert report.diagnostics["K_raw"] <= 1.0 and "rescale" not in report.diagnostics
    assert report.diagnostics["K_witness"] == report.diagnostics["K_raw"]
    assert "kernel_energies" not in report.diagnostics
    # the series terms solve on perturbed specs; K(W) is the one Green value on spec
    assert sum(on_spec) == 1


def test_classify_free_component_beside_an_isolated_boundary_point():
    # a-b is a free component and c a boundary point with no edge: E vanishes
    # on 1_{a,b}, so the spec is critical (not subcritical with W = 0)
    space = MeasureSpace(("a", "b", "c"), np.ones(3))
    spec = EnergySpec(space, (Edge("a", "b", 1.0, 2.0),), boundary=frozenset({"c"}))
    report = classify(spec)
    assert report.verdict is Verdict.CRITICAL
    assert report.hardy_weight is None
    assert report.kernel_scales == [2.0**k for k in range(17)]
    assert all(e == 0.0 for e in report.diagnostics["kernel_energies"])


def test_classify_reducible():
    space = MeasureSpace(("a", "b", "c", "d"), np.ones(4))
    spec = EnergySpec(space, (Edge("a", "b", 1.0, 2.0), Edge("c", "d", 1.0, 2.0)))
    report = classify(spec)
    assert report.verdict is Verdict.REDUCIBLE
    assert report.invariant_set in ({"a", "b"}, {"c", "d"}, frozenset("ab"), frozenset("cd"))


def _networkx_inner_components(spec):
    """Components of the graph off the boundary by networkx, as sorted index
    lists in order of their smallest index."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(np.flatnonzero(spec.free_mask).tolist())
    ends = ((spec.space.index(e.u), spec.space.index(e.v)) for e in spec.edges)
    G.add_edges_from((u, v) for u, v in ends if u in G and v in G)
    return sorted(sorted(c) for c in nx.connected_components(G))


def test_reducible_verdict_at_1e3_points_matches_networkx():
    # a killed part of 600 points beside a part of 400 with a boundary leaf
    spec = disjoint_union({
        "A": random_connected_spec(600, seed=1, n_kill=2),
        "B": random_connected_spec(400, seed=2, n_boundary=1),
    })
    want = _networkx_inner_components(spec)
    assert [c.tolist() for c in spec.inner_components] == want and len(want) == 2
    report = classify(spec)
    assert report.verdict is Verdict.REDUCIBLE
    smallest = min(want, key=len)
    assert report.invariant_set == frozenset(spec.space.points[i] for i in smallest)
    assert report.diagnostics["invariant_check"]["invariant"]


def test_critical_verdict_at_1e3_points_matches_networkx():
    spec = random_connected_spec(1000, seed=3)
    assert [c.tolist() for c in spec.inner_components] == _networkx_inner_components(spec)
    assert [c.tolist() for c in spec.free_components] == [list(range(1000))]
    assert classify(spec).verdict is Verdict.CRITICAL


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


def test_profile_battery_raises_solver_defects(monkeypatch):
    spec = random_connected_spec(6, seed=0, n_kill=1)

    def defect(*args, **kwargs):
        raise InternalCheckError("one-sided optimality failed (ascent direction)")

    monkeypatch.setattr(criticality, "capacity", defect)
    with pytest.raises(InternalCheckError, match="ascent direction"):
        weak_hardy_profile(spec, np.ones(6), 2.0, [0.1, 1.0])


def test_profile_battery_ends_early_on_a_missed_tolerance(monkeypatch):
    spec = random_connected_spec(6, seed=0, n_kill=1)

    def unconverged(*args, **kwargs):
        raise NonConvergenceError("obstacle solve did not reach residual 1e-09")

    monkeypatch.setattr(criticality, "capacity", unconverged)
    profile = weak_hardy_profile(spec, np.ones(6), 2.0, [0.1, 1.0])
    assert all(a > 0 for a in profile.alpha_of_r)


def test_weak_hardy_profile_preconditions():
    crit = random_connected_spec(4, seed=6)
    with pytest.raises(ParameterError):
        weak_hardy_profile(crit, np.ones(4), 1.0, [0.1])
    sub = random_connected_spec(4, seed=6, n_kill=1)
    with pytest.raises(ParameterError):
        weak_hardy_profile(sub, np.zeros(4), 1.0, [0.1])
    with pytest.raises(ParameterError):
        weak_hardy_profile(sub, np.ones(4), 0.5, [0.1])


def test_weak_poincare_profile_screens_out_constant_potentials():
    # on a critical spec every equilibrium potential with h = 1 is the
    # constant 1, a kernel field; it must not reach the profile as a
    # certificate through solver error
    spec = random_connected_spec(8, seed=4, p_range=(1.5, 3.0))
    w = np.random.default_rng(0).uniform(0.5, 1.0, 8)
    profile = weak_poincare_profile(spec, w, 2.0, [0.1, 0.5, 1.0], search_budget=12)
    for cert in profile.certificates:
        assert np.max(cert) - np.min(cert) > 1e-3
    assert profile.alpha_of_r[2] == pytest.approx(0.16299622443726355, rel=1e-9)


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
