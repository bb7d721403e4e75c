import json
import math
import warnings

import numpy as np
import pytest

from dirichletforms import (
    DirichletFormError,
    Edge,
    EnergySpec,
    KillTerm,
    MeasureSpace,
    NormalContraction,
    ParameterError,
    ProxConfig,
    StructuralError,
    bd1_check,
    bd2_check,
    capacity,
    contraction_battery,
    energy,
    energy_gradient,
    fuzz_scalar_inequalities,
    luxemburg_norm,
    perturb,
    prox,
)
from dirichletforms.problemio import parse_problem
from dirichletforms.resolvent import energy_hessian
from conftest import (
    box_spec,
    central_difference_gradient,
    grid_spec,
    grounded_twin,
    path_spec,
    random_connected_spec,
    single_vertex_spec,
    sparse_random_spec,
    tree_spec,
    two_vertex_spec,
)


def test_two_vertex_closed_form():
    spec = two_vertex_spec(w=2.0, p=3.0)
    f = np.array([1.5, -0.5])
    assert energy(spec, f) == pytest.approx((2.0 / 3.0) * 2.0**3)


def test_kill_closed_form():
    spec = single_vertex_spec(kappa=3.0, q=4.0, mu=2.0)
    assert energy(spec, np.array([2.0])) == pytest.approx((3.0 / 4.0) * 2.0 * 16.0)


def test_boundary_extends_by_inf():
    spec = EnergySpec(
        MeasureSpace(("a", "b"), np.ones(2)),
        (Edge("a", "b", 1.0, 2.0),),
        boundary=frozenset({"b"}),
    )
    assert math.isinf(energy(spec, np.array([0.0, 1.0])))
    assert energy(spec, np.array([1.0, 0.0])) == pytest.approx(0.5)
    assert not spec.is_feasible(np.array([0.0, 1e-14]))
    assert spec.is_feasible(spec.project_feasible(np.array([3.0, 1.0])))


def _columns(edges, kill):
    """The columns of edge and kill records, as ``EnergySpec.from_columns``
    takes them."""
    return ([[getattr(e, key) for e in edges] for key in ("u", "v", "weight", "exponent")],
            [[getattr(k, key) for k in kill] for key in ("point", "kappa", "exponent")])


def _rejection(space, edges=(), kill=(), boundary=frozenset()):
    """The error of building the spec from the records, after checking that
    building it from their columns raises the same type and message."""
    errors = []
    for build in (EnergySpec, lambda s, e, k, b: EnergySpec.from_columns(s, *_columns(e, k), b)):
        with pytest.raises(DirichletFormError) as info:
            build(space, edges, kill, boundary)
        errors.append(info.value)
    by_records, by_columns = errors
    assert (type(by_columns), str(by_columns)) == (type(by_records), str(by_records))
    return by_records


def test_invalid_parameters_rejected():
    space = MeasureSpace(("a", "b"), np.ones(2))
    assert isinstance(_rejection(space, (Edge("a", "a", 1.0, 2.0),)), StructuralError)
    assert isinstance(_rejection(space, (Edge("a", "b", -1.0, 2.0),)), ParameterError)
    assert isinstance(_rejection(space, (Edge("a", "b", 1.0, 1.0),)), ParameterError)
    assert isinstance(_rejection(space, (), (KillTerm("a", -1.0, 2.0),)), ParameterError)
    assert isinstance(_rejection(space, (), (KillTerm("a", 1.0, math.inf),)), ParameterError)
    for value in (math.inf, math.nan):
        error = _rejection(space, (Edge("a", "b", value, 2.0),))
        assert isinstance(error, ParameterError)
        assert "weight must be > 0 and finite" in str(error)
        error = _rejection(space, (), (KillTerm("a", value, 2.0),))
        assert isinstance(error, ParameterError)
        assert "kappa must be >= 0 and finite" in str(error)


def test_the_first_bad_record_is_named():
    # the checks run over whole arrays; each names the lowest bad index
    space = MeasureSpace(("a", "b", "c"), np.ones(3))
    ok = Edge("a", "b", 1.0, 2.0)
    cases = [
        ((ok, Edge("a", "y", 1.0, 2.0), Edge("x", "b", 1.0, 2.0)), (), "edge 1: unknown point 'y'"),
        ((ok, Edge("x", "y", 1.0, 2.0)), (), "edge 1: unknown point 'x'"),
        ((ok, ok, Edge("c", "c", 1.0, 2.0), Edge("b", "b", 1.0, 2.0)), (),
         "edge 2: self-loops are not allowed"),
        ((ok, Edge("a", "b", 0.0, 2.0), Edge("a", "b", -1.0, 2.0)), (), "edge 1: weight"),
        ((Edge("b", "c", 1.0, 1.0), ok, Edge("a", "c", 1.0, 0.5)), (), "edge 0: exponent"),
        ((), (KillTerm("a", 1.0, 2.0), KillTerm("z", 1.0, 2.0)), "kill 1: unknown point 'z'"),
        ((), (KillTerm("a", 1.0, 2.0), KillTerm("b", 1.0, 2.0), KillTerm("c", -1.0, 2.0)),
         "kill 2: kappa"),
    ]
    for edges, kill, message in cases:
        error = _rejection(space, edges, kill)
        assert isinstance(error, (ParameterError, StructuralError))
        assert str(error).startswith(message)
    error = _rejection(space, (ok,), (), frozenset({"a", "q"}))
    assert isinstance(error, StructuralError)
    assert str(error) == "boundary names unknown point 'q'"
    with pytest.raises(StructuralError, match=r"space.mu\['b'\]: measure weight must be > 0"):
        MeasureSpace(("a", "b", "c"), np.array([1.0, 0.0, math.nan]))


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_central_difference(seed):
    spec = random_connected_spec(
        6, seed=seed, p_range=(1.7, 3.5), n_kill=2, n_boundary=1
    )
    rng = np.random.default_rng(seed)
    f = spec.project_feasible(rng.normal(size=spec.space.n) + 0.5)
    grad = energy_gradient(spec, f)
    fd = central_difference_gradient(lambda x: energy(spec, spec.project_feasible(x)), f)
    # the gradient is the mu-representer, the finite difference the Euclidean one
    assert np.allclose(grad * spec.space.mu, fd, rtol=1e-5, atol=1e-6)


def test_homogeneity_constant_exponent():
    spec = random_connected_spec(5, seed=3, p_range=(3.0, 3.0), n_kill=1, q_range=(3.0, 3.0))
    rng = np.random.default_rng(0)
    f = rng.normal(size=spec.space.n)
    assert energy(spec, 2.0 * f) == pytest.approx(2.0**3 * energy(spec, f), rel=1e-12)


def test_perturb_additivity():
    spec = random_connected_spec(5, seed=1, p_range=(1.5, 4.0), n_kill=1)
    rng = np.random.default_rng(1)
    w = rng.uniform(0.1, 1.0, size=spec.space.n)
    f = rng.normal(size=spec.space.n)
    extra = 0.5 * float(np.sum(spec.space.mu * w * f**2))
    assert energy(perturb(spec, w), f) == pytest.approx(energy(spec, f) + extra, rel=1e-10)
    with pytest.raises(ParameterError):
        perturb(spec, -w)


@pytest.mark.parametrize("fn", [energy, energy_gradient])
def test_energy_and_gradient_check_their_field_once(fn, check_calls):
    spec = random_connected_spec(8, seed=2, n_kill=1, n_boundary=1)
    f = spec.project_feasible(np.linspace(-1.0, 2.0, spec.space.n))
    check_calls.clear()
    fn(spec, f)
    assert len(check_calls) == 1


def test_kernel_basis_free_components():
    # two components: one free, one killed; the free one spans the kernel
    space = MeasureSpace(("a", "b", "c", "d"), np.ones(4))
    spec = EnergySpec(
        space,
        (Edge("a", "b", 1.0, 2.0), Edge("c", "d", 1.0, 2.0)),
        (KillTerm("c", 1.0, 2.0),),
    )
    comps = spec.free_components
    assert [c.tolist() for c in comps] == [[0, 1]]
    assert energy(spec, 7.0 * space.indicator(("a", "b"))) == 0.0


@pytest.mark.parametrize("seed", range(40))
def test_components_match_networkx(seed):
    # the components off the boundary, and the free ones among the
    # components of the whole graph: no positive kill, no boundary point
    nx = pytest.importorskip("networkx")
    base = sparse_random_spec(seed)
    w = (np.random.default_rng(seed).random(base.space.n) < 0.1).astype(float)
    spec = perturb(base, w)
    boundary = {spec.space.index(p) for p in spec.boundary}
    G = nx.MultiGraph()
    G.add_nodes_from(range(spec.space.n))
    G.add_edges_from((spec.space.index(e.u), spec.space.index(e.v)) for e in spec.edges)

    def ordered(comps):
        return sorted((sorted(c) for c in comps), key=lambda c: c[0])

    inner = nx.connected_components(G.subgraph(set(G) - boundary))
    assert [c.tolist() for c in spec.inner_components] == ordered(inner)
    tied = boundary | set(np.flatnonzero(w))
    free = (c for c in nx.connected_components(G) if not c & tied)
    assert [c.tolist() for c in spec.free_components] == ordered(free)


def test_contraction_battery_valid():
    # C(0) = 0 and |C(a) - C(b)| <= |a - b|, spot-checked on random pairs
    battery = contraction_battery(seed=0)
    assert len(battery) == 31
    rng = np.random.default_rng(0)
    a, b = rng.normal(scale=10.0, size=(2, 200))
    for C in battery:
        assert C(0.0) == 0.0, C
        assert np.all(np.abs(C(a) - C(b)) <= np.abs(a - b) + 1e-12), C


def test_contraction_constructor_validation():
    with pytest.raises(ParameterError):
        NormalContraction.scale(1.5)
    with pytest.raises(ParameterError):
        NormalContraction.clamp(-1.0)
    with pytest.raises(ParameterError):
        NormalContraction.piecewise_linear([0.0], [2.0, 0.0])
    with pytest.raises(ParameterError):
        NormalContraction.piecewise_linear([1.0, 0.0], [0.5, 0.5, 0.5])
    # a knot at infinity would put inf - inf = nan into the table
    with pytest.raises(ParameterError):
        NormalContraction.clamp(math.inf)
    with pytest.raises(ParameterError):
        NormalContraction.scale(math.nan)


def test_named_contractions_are_their_closed_forms():
    # each slope table equals the closed form bit for bit, near 0 and at
    # radii up to the largest float
    t = np.random.default_rng(0).normal(scale=10.0, size=1000)
    t = np.concatenate((t, 1e-300 * t, 1e300 * t))
    for r in (0.0, 0.5, 10.0, 1e308):
        assert np.array_equal(NormalContraction.clamp(r)(t), np.clip(t, -r, r)), r
        assert np.array_equal(NormalContraction.deadzone(r)(t),
                              np.sign(t) * np.maximum(np.abs(t) - r, 0.0)), r
    assert np.array_equal(NormalContraction.abs()(t), np.abs(t))
    for lam in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert np.array_equal(NormalContraction.scale(lam)(t), lam * t), lam


def test_piecewise_linear_scalar_and_anchor():
    C = NormalContraction.piecewise_linear([-1.0, 1.0], [0.5, -1.0, 0.25])
    assert C(0.0) == pytest.approx(0.0)
    assert np.ndim(C(2.0)) == 0
    assert np.allclose(C([0.5, -0.5]), [-0.5, 0.5])


def _step_integral(knots, slopes, t):
    """integral from 0 to t of the step function with ``slopes`` between
    ``knots``, interval by interval."""
    ends = np.concatenate(([-np.inf], knots, [np.inf]))
    return sum(
        s * (np.clip(t, a, b) - np.clip(0.0, a, b))
        for s, a, b in zip(slopes, ends[:-1], ends[1:])
    )


def test_piecewise_linear_is_the_integral_of_its_slopes():
    rng = np.random.default_rng(2024)
    for draw in range(500):
        knots = np.sort(rng.uniform(-3.0, 3.0, size=int(rng.integers(0, 7))))
        if draw % 2:  # repeated knots and knots at 0
            knots = np.round(knots)
        slopes = rng.uniform(-1.0, 1.0, size=len(knots) + 1)
        t = np.concatenate((rng.uniform(-6.0, 6.0, size=20), knots, [0.0]))
        C = NormalContraction.piecewise_linear(knots, slopes)
        np.testing.assert_allclose(
            C(t), _step_integral(knots, slopes, t), rtol=1e-12, atol=1e-12
        )
        assert C(0.0) == 0.0


def test_bd1_bd2_on_random_specs():
    battery = contraction_battery(seed=7)
    for seed in range(4):
        spec = random_connected_spec(
            5, seed=seed, p_range=(1.5, 4.0), n_kill=1, n_boundary=1
        )
        rng = np.random.default_rng(seed)
        f = spec.project_feasible(rng.normal(size=spec.space.n))
        g = spec.project_feasible(rng.normal(size=spec.space.n))
        ok, _ = bd1_check(spec, f, g)
        assert ok
        for C in battery[:8]:
            ok, _ = bd2_check(spec, f, g, C)
            assert ok


def test_fuzz_scalar_inequalities():
    ok, worst = fuzz_scalar_inequalities(20_000, seed=11)
    assert ok, worst
    with pytest.raises(ParameterError):
        fuzz_scalar_inequalities(0)


def _with_inert_and_boundary_kills(spec: EnergySpec, q) -> EnergySpec:
    """``spec`` with a kill term on its first boundary point (if any), one with
    kappa = 0 and one with kappa > 0 at free points; exponents from ``q``."""
    points = spec.space.points
    free = [points[i] for i in np.flatnonzero(spec.free_mask)]
    extra = [KillTerm(free[0], 0.0, q[0]), KillTerm(free[-1], 0.7, q[1])]
    extra += [KillTerm(p, 1.3, q[2]) for p in sorted(spec.boundary)[:1]]
    return EnergySpec(spec.space, spec.edges, spec.kill + tuple(extra), spec.boundary)


def _twin_cases():
    for p in (1.5, 2.0, 3.0, "mixed"):
        one = 2.0 if p == "mixed" else p
        q = (1.5, 3.0, 2.5) if p == "mixed" else (p, p, p)
        p_range = (1.5, 3.0) if p == "mixed" else (p, p)
        yield pytest.param(path_spec(7, one), q, id=f"path-{p}")
        yield pytest.param(grid_spec(4, 3, one, n_kill=2, n_boundary=2), q, id=f"grid-{p}")
        yield pytest.param(
            random_connected_spec(12, 5, p_range, n_kill=3, n_boundary=2), q, id=f"random-{p}"
        )


@pytest.mark.parametrize("base, q", list(_twin_cases()))
def test_kill_terms_are_edges_to_a_grounded_point(base, q):
    # E, its derivatives, its kernel and every solve on it are those of the
    # twin, where each kill term is an edge of weight kappa mu_x to one
    # fresh boundary point
    spec = _with_inert_and_boundary_kills(base, q)
    twin = grounded_twin(spec)
    n = spec.space.n
    free = spec.free_mask
    f = spec.project_feasible(np.random.default_rng(7).normal(size=n))
    ft = np.append(f, 0.0)

    def same(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * float(np.max(np.abs(b))))

    same(energy(spec, f), energy(twin, ft))
    same(energy_gradient(spec, f), energy_gradient(twin, ft)[:n])
    block = np.ix_(free, free)
    same(energy_hessian(spec, f)[block], energy_hessian(twin, ft)[:n, :n][block])
    assert [c.tolist() for c in spec.free_components] == [c.tolist() for c in twin.free_components]
    same(luxemburg_norm(spec, f), luxemburg_norm(twin, ft))
    # solved past the default residual, which bounds the error only by 1e-9
    cfg = ProxConfig(residual_tolerance=1e-13)
    same(prox(spec, 1.0, f, cfg)[0], prox(twin, 1.0, ft, cfg)[0][:n])
    x = spec.space.points[int(np.flatnonzero(free)[0])]
    same(capacity(spec, {x}, np.ones(n)).value, capacity(twin, {x}, np.ones(n + 1)).value)


def test_a_kill_term_whose_kappa_mu_overflows_builds_and_evaluates():
    # kappa mu_x is past the largest float, kappa / 2 mu_x is not
    space = MeasureSpace(("a", "b"), np.array([1e16, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kill = (KillTerm("a", 1.7976931348623159e292, 2.0),)
        spec = EnergySpec(space, (Edge("a", "b", 1.0, 2.0),), kill)
        assert energy(spec, np.zeros(2)) == 0.0
        assert energy(spec, np.array([1.0, 0.0])) == 8.98846567431158e307


@pytest.mark.parametrize("extra, boundary", [
    # kappa = 0 sets the exponent range but ties no component
    (KillTerm("a", 0.0, 1.5), frozenset()),
    # a kill term on a boundary point is inert
    (KillTerm("e", 2.0, 3.0), frozenset({"e"})),
])
def test_inert_kill_terms_change_no_energy_and_no_component(extra, boundary):
    space = MeasureSpace(("a", "b", "c", "d", "e"), np.array([1.0, 2.0, 0.5, 1.5, 1.0]))
    edges = (Edge("a", "b", 1.0, 2.0), Edge("c", "d", 1.0, 2.0), Edge("d", "e", 1.0, 2.0))
    kill = (KillTerm("c", 1.0, 2.0),)
    base = EnergySpec(space, edges, kill, boundary)
    spec = EnergySpec(space, edges, kill + (extra,), boundary)
    f = spec.project_feasible(np.array([0.3, -1.2, 0.8, 2.0, -0.4]))
    assert energy(spec, f) == pytest.approx(energy(base, f), rel=1e-15)
    # nor any curvature, also where the term's own difference vanishes, so
    # no Newton step of a solve
    (g, report), (g_base, report_base) = prox(spec, 1.0, f), prox(base, 1.0, f)
    assert report.iterations == report_base.iterations
    np.testing.assert_array_equal(g, g_base)
    f[space.index(extra.point)] = 0.0
    np.testing.assert_array_equal(energy_hessian(spec, f), energy_hessian(base, f))
    assert [c.tolist() for c in spec.free_components] == [c.tolist() for c in base.free_components]
    assert [c.tolist() for c in spec.free_components] == [[0, 1]]
    assert spec.min_exponent == min(2.0, extra.exponent)


def _family_cases():
    for p, q in ((1.5, (1.5, 1.5, 1.5)), (3.0, (3.0, 3.0, 3.0)), ("mixed", (1.5, 3.0, 2.5))):
        one = 2.0 if p == "mixed" else p
        p_range = (1.5, 3.0) if p == "mixed" else (p, p)
        yield pytest.param(path_spec(7, one), q, id=f"path-{p}")
        yield pytest.param(grid_spec(4, 3, one, n_kill=2, n_boundary=2), q, id=f"grid-{p}")
        yield pytest.param(
            random_connected_spec(12, 5, p_range, n_kill=3, n_boundary=2), q, id=f"random-{p}"
        )
        yield pytest.param(box_spec(2, 2, one), q, id=f"box-{p}")
        yield pytest.param(tree_spec(2, 3, one), q, id=f"tree-{p}")


@pytest.mark.parametrize("base, q", list(_family_cases()))
def test_columns_rebuild_the_spec_of_their_records(base, q):
    spec = _with_inert_and_boundary_kills(base, q)
    again = EnergySpec.from_columns(spec.space, *_columns(spec.edges, spec.kill), spec.boundary)
    assert (again.edges, again.kill, again.boundary) == (spec.edges, spec.kill, spec.boundary)
    assert (again.min_exponent, again.max_exponent) == (spec.min_exponent, spec.max_exponent)
    assert [c.tolist() for c in again.free_components] == [c.tolist() for c in spec.free_components]
    f = spec.project_feasible(np.random.default_rng(3).normal(size=spec.space.n))
    assert energy(again, f) == energy(spec, f)
    np.testing.assert_array_equal(energy_gradient(again, f), energy_gradient(spec, f))


def test_records_are_a_read_only_view_of_the_table():
    space = MeasureSpace(("a", "b", "c"), np.ones(3))
    edges = (Edge("b", "c", 2.0, 3.0), Edge("a", "b", 1, 2))
    kill = (KillTerm("c", 0.5, 1.5), KillTerm("a", 0.0, 2.0))
    spec = EnergySpec(space, iter(edges), iter(kill), iter(["c"]))
    assert (spec.edges, spec.kill, spec.boundary) == (edges, kill, frozenset({"c"}))
    for name in ("space", "boundary", "boundary_mask", "_terms"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)


@pytest.mark.parametrize("seed", range(3))
def test_perturb_appends_quadratic_kill_rows(seed):
    spec = _with_inert_and_boundary_kills(
        random_connected_spec(15, seed, (1.5, 3.0), n_kill=2, n_boundary=2), (1.5, 3.0, 2.5))
    rng = np.random.default_rng(seed)
    w = np.where(rng.random(spec.space.n) < 0.5, rng.uniform(0.1, 2.0, spec.space.n), 0.0)
    added = tuple(KillTerm(spec.space.points[i], float(w[i]), 2.0) for i in np.flatnonzero(w))
    records = EnergySpec(spec.space, spec.edges, spec.kill + added, spec.boundary)
    perturbed = perturb(spec, w)
    assert perturbed.kill == spec.kill + added
    assert perturbed.edges == spec.edges
    f = spec.project_feasible(rng.normal(size=spec.space.n))
    assert energy(perturbed, f) == energy(records, f)
    np.testing.assert_array_equal(energy_gradient(perturbed, f), energy_gradient(records, f))
    np.testing.assert_array_equal(prox(perturbed, 1.0, f)[0], prox(records, 1.0, f)[0])
    kept = perturb(spec, np.zeros(spec.space.n))
    for column, same in zip(kept._terms, spec._terms):
        np.testing.assert_array_equal(column, same)


def test_perturb_ties_the_free_component_of_a_critical_spec():
    # the parent's cached kernel must not carry over to the perturbed spec
    spec = path_spec(6, 2.0, dirichlet_right=False)
    assert [c.tolist() for c in spec.free_components] == [list(range(7))]
    assert spec.min_exponent == spec.max_exponent == 2.0
    perturbed = perturb(spec, spec.space.indicator({"3"}))
    assert perturbed.free_components == []
    assert [c.tolist() for c in spec.free_components] == [list(range(7))]


def test_no_records_are_built_from_a_problem_file_or_by_perturb(monkeypatch):
    spec = random_connected_spec(1000, seed=4, n_kill=5, n_boundary=3)
    text = json.dumps({
        "space": {"points": list(spec.space.points),
                  "mu": dict(zip(spec.space.points, spec.space.mu.tolist()))},
        "edges": [{"u": e.u, "v": e.v, "weight": e.weight} for e in spec.edges],
        "kill": [{"point": k.point, "kappa": k.kappa} for k in spec.kill],
        "boundary": sorted(spec.boundary),
    })
    assert len(spec.edges) >= 1000
    built = []
    for record in (Edge, KillTerm):
        init = record.__init__
        monkeypatch.setattr(record, "__init__",
                            lambda self, *args, init=init: built.append(args) or init(self, *args))
    problem = parse_problem(text)
    problem.to_energy_spec()
    perturb(problem.spec, np.ones(problem.spec.space.n))
    assert built == []
    kill = problem.spec.kill  # the views build records when read
    assert len(built) == len(kill) == len(spec.kill)
