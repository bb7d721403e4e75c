"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dirichletforms import Edge, EnergySpec, KillTerm, MeasureSpace

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no per-example deadline: a slow
    # shared machine must not turn a passing property into a failure
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")


def random_connected_spec(
    n: int,
    seed: int,
    p_range=(2.0, 2.0),
    extra_edges: int | None = None,
    n_kill: int = 0,
    n_boundary: int = 0,
    q_range=None,
    mu_range=(0.5, 2.0),
    w_range=(0.5, 2.0),
    kappa_range=(0.5, 2.0),
) -> EnergySpec:
    """Random spec whose non-boundary subgraph is connected.

    Built from a random spanning tree plus extra edges; boundary points are
    attached as extra leaves so removing them never disconnects the rest.
    """
    rng = np.random.default_rng(seed)
    q_range = p_range if q_range is None else q_range
    pts = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append(
            Edge(pts[i], pts[j], float(rng.uniform(*w_range)), float(rng.uniform(*p_range)))
        )
    extra = n if extra_edges is None else extra_edges
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append(
                Edge(
                    pts[int(i)],
                    pts[int(j)],
                    float(rng.uniform(*w_range)),
                    float(rng.uniform(*p_range)),
                )
            )
    boundary = []
    for b in range(n_boundary):
        name = f"b{b}"
        pts.append(name)
        j = int(rng.integers(0, n))
        edges.append(
            Edge(name, pts[j], float(rng.uniform(*w_range)), float(rng.uniform(*p_range)))
        )
        boundary.append(name)
    kill = tuple(
        KillTerm(
            pts[int(i)],
            float(rng.uniform(*kappa_range)),
            float(rng.uniform(*q_range)),
        )
        for i in rng.choice(n, size=min(n_kill, n), replace=False)
    )
    space = MeasureSpace(tuple(pts), rng.uniform(*mu_range, size=len(pts)))
    return EnergySpec(space, tuple(edges), kill, frozenset(boundary))


def path_spec(n_edges: int, p: float = 2.0, dirichlet_right: bool = True) -> EnergySpec:
    """Unit-weight path with n_edges edges, optional Dirichlet right end."""
    pts = tuple(str(i) for i in range(n_edges + 1))
    space = MeasureSpace(pts, np.ones(n_edges + 1))
    edges = tuple(Edge(str(i), str(i + 1), 1.0, p) for i in range(n_edges))
    boundary = frozenset({str(n_edges)}) if dirichlet_right else frozenset()
    return EnergySpec(space, edges, (), boundary)


def grid_spec(
    side: int, seed: int, p: float = 2.0, n_kill: int = 0, n_boundary: int = 0
) -> EnergySpec:
    """side x side grid with random weights and measure; the first
    ``n_boundary`` points in a seeded shuffle are Dirichlet points."""
    rng = np.random.default_rng(seed)
    pts = [f"g{i}_{j}" for i in range(side) for j in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            k = i * side + j
            if j + 1 < side:
                edges.append(Edge(pts[k], pts[k + 1], float(rng.uniform(0.5, 2.0)), p))
            if i + 1 < side:
                edges.append(Edge(pts[k], pts[k + side], float(rng.uniform(0.5, 2.0)), p))
    chosen = rng.permutation(len(pts))
    boundary = frozenset(pts[int(i)] for i in chosen[:n_boundary])
    kill = tuple(
        KillTerm(pts[int(i)], float(rng.uniform(0.5, 2.0)), p)
        for i in chosen[n_boundary : n_boundary + n_kill]
    )
    space = MeasureSpace(tuple(pts), rng.uniform(0.5, 2.0, size=len(pts)))
    return EnergySpec(space, tuple(edges), kill, boundary)


def box_spec(d: int, R: int, p: float = 2.0) -> EnergySpec:
    """The box {-R, ..., R}^d of the lattice Z^d with unit weights, unit
    measure and exponent p, its outer sphere (some |x_i| = R) on the
    Dirichlet boundary.  Points are named by their coordinates: "0,0" is
    the origin of Z^2."""
    side = 2 * R + 1
    coords = np.indices((side,) * d).reshape(d, -1).T
    flat = np.arange(side**d)
    # one step up axis k is side^(d-1-k) places on in the flat order
    u = [flat[coords[:, k] < side - 1] for k in range(d)]
    v = [u[k] + side ** (d - 1 - k) for k in range(d)]
    names = [",".join(map(str, c)) for c in (coords - R).tolist()]
    pairs = zip(np.concatenate(u).tolist(), np.concatenate(v).tolist())
    edges = tuple(Edge(names[a], names[b], 1.0, p) for a, b in pairs)
    outer = np.flatnonzero(np.any((coords == 0) | (coords == side - 1), axis=1))
    boundary = frozenset(names[i] for i in outer.tolist())
    return EnergySpec(MeasureSpace(tuple(names), np.ones(len(names))), edges, (), boundary)


def tree_spec(b: int, depth: int, p: float = 2.0) -> EnergySpec:
    """The b-ary tree of the given depth with unit weights, unit measure and
    exponent p, its leaves on the Dirichlet boundary.  Points are named by
    their heap index: "0" is the root, and i has children b i + 1, ...,
    b i + b."""
    n = (b ** (depth + 1) - 1) // (b - 1)
    child = np.arange(1, n)
    names = [str(i) for i in range(n)]
    pairs = zip(((child - 1) // b).tolist(), child.tolist())
    edges = tuple(Edge(names[u], names[v], 1.0, p) for u, v in pairs)
    boundary = frozenset(names[(b**depth - 1) // (b - 1) :])
    return EnergySpec(MeasureSpace(tuple(names), np.ones(n)), edges, (), boundary)


def sparse_random_spec(seed: int) -> EnergySpec:
    """Random, often disconnected graph with repeated edges and a few
    Dirichlet points, for structural tests."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    pts = tuple(f"v{i}" for i in range(n))
    edges = []
    for _ in range(int(rng.integers(0, n + 3))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append(Edge(pts[int(i)], pts[int(j)], 1.0, 2.0))
    boundary = frozenset(p for p in pts if rng.random() < 0.15)
    return EnergySpec(MeasureSpace(pts, np.ones(n)), tuple(edges), (), boundary)


def single_vertex_spec(kappa: float = 1.0, q: float = 2.0, mu: float = 1.0) -> EnergySpec:
    space = MeasureSpace(("x",), np.array([mu]))
    return EnergySpec(space, (), (KillTerm("x", kappa, q),))


def two_vertex_spec(w: float = 1.0, p: float = 2.0, mu=(1.0, 1.0)) -> EnergySpec:
    space = MeasureSpace(("a", "b"), np.asarray(mu, dtype=float))
    return EnergySpec(space, (Edge("a", "b", w, p),))


def weak_edge_spec(w: float = 1e-9) -> EnergySpec:
    """Two unit-mass points joined by one p = 2 edge of weight w, with b on
    the Dirichlet boundary: G 1_a = (1/w, 0), finite however small w is."""
    space = MeasureSpace(("a", "b"), np.ones(2))
    return EnergySpec(space, (Edge("a", "b", w, 2.0),), (), frozenset({"b"}))


def disjoint_union(parts: dict[str, EnergySpec]) -> EnergySpec:
    """The specs side by side, each point renamed to its part's key plus
    its own name, in the order of ``parts``."""
    points, mu, edges, kill, boundary = [], [], [], [], set()
    for key, spec in parts.items():
        points += [key + p for p in spec.space.points]
        mu.append(spec.space.mu)
        edges += [Edge(key + e.u, key + e.v, e.weight, e.exponent) for e in spec.edges]
        kill += [KillTerm(key + k.point, k.kappa, k.exponent) for k in spec.kill]
        boundary |= {key + p for p in spec.boundary}
    space = MeasureSpace(tuple(points), np.concatenate(mu))
    return EnergySpec(space, tuple(edges), tuple(kill), frozenset(boundary))


def grounded_twin(spec: EnergySpec) -> EnergySpec:
    """The spec with each kill term (kappa / q) mu_x |f(x)|^q rewritten as an
    edge x - "ground" of weight kappa mu_x and exponent q, where "ground" is
    one fresh boundary point of unit measure, the last point of the space.
    Terms with kappa = 0 are dropped, since an edge weight must be positive."""
    space = spec.space
    mu = dict(zip(space.points, space.mu.tolist()))
    grounded = tuple(
        Edge(k.point, "ground", k.kappa * mu[k.point], k.exponent) for k in spec.kill if k.kappa > 0
    )
    twin_space = MeasureSpace(space.points + ("ground",), np.append(space.mu, 1.0))
    return EnergySpec(twin_space, spec.edges + grounded, (), spec.boundary | {"ground"})


# -- quadratic oracles (independent of the iterative solvers) --------------


def quadratic_matrix(spec: EnergySpec) -> np.ndarray:
    """Euclidean gradient matrix A with grad E(g) = A g / mu (all exponents 2)."""
    n = spec.space.n
    A = np.zeros((n, n))
    for e in spec.edges:
        assert e.exponent == 2.0
        i, j = spec.space.index(e.u), spec.space.index(e.v)
        A[i, i] += e.weight
        A[j, j] += e.weight
        A[i, j] -= e.weight
        A[j, i] -= e.weight
    for k in spec.kill:
        assert k.exponent == 2.0
        i = spec.space.index(k.point)
        A[i, i] += k.kappa * spec.space.mu[i]
    return A


def prox_oracle(spec: EnergySpec, alpha: float, f) -> np.ndarray:
    """Direct linear solve of the quadratic prox optimality system."""
    A = quadratic_matrix(spec)
    mu = spec.space.mu
    free = spec.free_mask
    g = np.zeros(spec.space.n)
    M = A + alpha * np.diag(mu)
    g[free] = np.linalg.solve(M[np.ix_(free, free)], (mu * f)[free])
    return g


def green_oracle(spec: EnergySpec, f) -> np.ndarray:
    """Direct solve of the quadratic Green system A g = mu f (subcritical)."""
    A = quadratic_matrix(spec)
    free = spec.free_mask
    g = np.zeros(spec.space.n)
    g[free] = np.linalg.solve(A[np.ix_(free, free)], (spec.space.mu * f)[free])
    return g


def one_sided_derivatives(spec: EnergySpec, f, sign: float = 1.0) -> np.ndarray:
    """d+E(f, sign * 1_x) at every point x off the boundary (nan on it),
    summed term by term over ``spec.edges`` and ``spec.kill``."""
    f = np.asarray(f, dtype=float)
    index = spec.space.index
    out = np.full(spec.space.n, np.nan)
    for x in range(spec.space.n):
        if spec.space.points[x] in spec.boundary:
            continue
        total = 0.0
        for e in spec.edges:
            u, v = index(e.u), index(e.v)
            dg = sign * ((u == x) - (v == x))
            if dg:
                df = f[u] - f[v]
                total += e.weight * abs(df) ** (e.exponent - 1.0) * np.sign(df) * dg
        for k in spec.kill:
            if index(k.point) == x:
                fx = f[x]
                total += k.kappa * spec.space.mu[x] * abs(fx) ** (k.exponent - 1.0) * np.sign(fx) * sign
        out[x] = total
    return out


def central_difference_gradient(fn, f, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(f)
    for i in range(len(f)):
        e = np.zeros_like(f)
        e[i] = h
        g[i] = (fn(f + e) - fn(f - e)) / (2 * h)
    return g


# -- problem-file layout ---------------------------------------------------


def serialize_oracle(problem) -> str:
    """A parsed problem file as ``json.dumps(..., indent=2)`` writes it, with
    every default filled, from the spec that parsing built: a second layout
    of the same problem, which must share its ``input_digest``."""
    spec = problem.spec
    points = list(spec.space.points)
    doc = {
        "version": problem.version,
        "space": {"points": points, "mu": dict(zip(points, spec.space.mu.tolist()))},
        "edges": [
            {"u": e.u, "v": e.v, "weight": e.weight, "exponent": e.exponent} for e in spec.edges
        ],
        "kill": [{"point": k.point, "kappa": k.kappa, "exponent": k.exponent} for k in spec.kill],
        "boundary": [p for p in points if p in spec.boundary],
        "defaults": problem.defaults,
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def check_calls(monkeypatch):
    """Record every ``MeasureSpace.check_field`` call: one entry per call."""
    calls = []
    check = MeasureSpace.check_field

    def counting(self, f):
        calls.append(f)
        return check(self, f)

    monkeypatch.setattr(MeasureSpace, "check_field", counting)
    return calls
