"""Seeded graph generators for the benchmark's inputs.

A ``Graph`` is plain arrays, owned by the benchmark.  The program under test
only ever receives what ``to_spec`` or ``to_problem`` makes of it, and the
oracles in ``oracles.py`` read the ``Graph`` itself, never the program's
objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    points: tuple[str, ...]
    mu: np.ndarray
    eu: np.ndarray  # edge endpoints, indices into points
    ev: np.ndarray
    ew: np.ndarray  # edge weights
    ep: np.ndarray  # edge exponents
    ki: np.ndarray  # killed points
    kk: np.ndarray  # kill rates kappa
    kq: np.ndarray  # kill exponents
    boundary: np.ndarray  # bool mask of Dirichlet points

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def free(self) -> np.ndarray:
        return ~self.boundary

    def exponents(self) -> set[float]:
        return set(self.ep.tolist()) | set(self.kq.tolist())


def _graph(points, mu, edges, kill=((), (), ()), boundary=()) -> Graph:
    """Build a Graph from edge columns (u, v, w, p) and kill columns (i, kappa, q)."""
    mask = np.zeros(len(points), dtype=bool)
    mask[np.asarray(boundary, dtype=int)] = True
    eu, ev, ew, ep = edges
    ki, kk, kq = kill
    return Graph(
        points=tuple(points),
        mu=np.asarray(mu, dtype=float),
        eu=np.asarray(eu, dtype=int),
        ev=np.asarray(ev, dtype=int),
        ew=np.asarray(ew, dtype=float),
        ep=np.asarray(ep, dtype=float),
        ki=np.asarray(ki, dtype=int),
        kk=np.asarray(kk, dtype=float),
        kq=np.asarray(kq, dtype=float),
        boundary=mask,
    )


def unit_path(n_edges: int, p: float) -> Graph:
    """Points 0..n_edges, unit weights and measure, Dirichlet right end."""
    pts = [str(i) for i in range(n_edges + 1)]
    u = np.arange(n_edges)
    edges = (u, u + 1, np.ones(n_edges), np.full(n_edges, p))
    return _graph(pts, np.ones(n_edges + 1), edges, boundary=[n_edges])


def path(n_edges: int, p: float, rng) -> Graph:
    """Weighted path with random measure, one kill and a Dirichlet right end."""
    pts = [f"p{i}" for i in range(n_edges + 1)]
    u = np.arange(n_edges)
    edges = (u, u + 1, rng.uniform(0.5, 2.0, n_edges), np.full(n_edges, p))
    kill = (rng.integers(0, n_edges, size=1), rng.uniform(0.5, 2.0, 1), [p])
    return _graph(pts, rng.uniform(0.5, 2.0, n_edges + 1), edges, kill, [n_edges])


def grid(side: int, p: float, rng, n_kill: int = 2, n_boundary: int = 2) -> Graph:
    """side x side grid; weights, measure, kill and boundary drawn from rng."""
    pts = [f"g{i}_{j}" for i in range(side) for j in range(side)]
    ids = np.arange(side * side).reshape(side, side)
    eu = np.concatenate([ids[:-1, :].ravel(), ids[:, :-1].ravel()])
    ev = np.concatenate([ids[1:, :].ravel(), ids[:, 1:].ravel()])
    edges = (eu, ev, rng.uniform(0.5, 2.0, len(eu)), np.full(len(eu), p))
    chosen = rng.choice(len(pts), size=n_kill + n_boundary, replace=False)
    kill = (chosen[:n_kill], rng.uniform(0.5, 2.0, n_kill), np.full(n_kill, p))
    return _graph(pts, rng.uniform(0.5, 2.0, len(pts)), edges, kill, chosen[n_kill:])


def random_sparse(
    n: int,
    rng,
    exponents=(2.0,),
    extra: float = 1.0,
    n_kill: int = 2,
    n_boundary: int = 1,
) -> Graph:
    """Random spanning tree plus ``extra * n`` chords, boundary as leaves.

    Each edge and kill term takes an exponent drawn from ``exponents``.  The
    boundary points hang off the tree as leaves, so the non-boundary
    subgraph stays connected.
    """
    pts = [f"v{i}" for i in range(n)] + [f"b{b}" for b in range(n_boundary)]
    child = np.arange(1, n)
    ci, cj = rng.integers(0, n, size=(2, int(extra * n)))
    chord = ci != cj
    boundary = np.arange(n, n + n_boundary)
    eu = np.concatenate([child, ci[chord], boundary])
    ev = np.concatenate([rng.integers(0, child), cj[chord], rng.integers(0, n, size=n_boundary)])
    edges = (eu, ev, rng.uniform(0.5, 2.0, len(eu)), rng.choice(exponents, size=len(eu)))
    kill = (
        rng.choice(n, size=n_kill, replace=False),
        rng.uniform(0.5, 2.0, n_kill),
        rng.choice(exponents, size=n_kill),
    )
    return _graph(pts, rng.uniform(0.5, 2.0, len(pts)), edges, kill, boundary)


def split(a: Graph, b: Graph) -> Graph:
    """Disjoint union of a and b joined only through one new boundary point.

    Edges into the Dirichlet boundary are inert, so the non-boundary
    subgraph has (at least) two components: the spec is reducible.
    """
    off = a.n
    hub = a.n + b.n
    points = tuple(f"a{p}" for p in a.points) + tuple(f"b{p}" for p in b.points) + ("hub",)
    return Graph(
        points=points,
        mu=np.concatenate([a.mu, b.mu, [1.0]]),
        eu=np.concatenate([a.eu, b.eu + off, [0, off]]).astype(int),
        ev=np.concatenate([a.ev, b.ev + off, [hub, hub]]).astype(int),
        ew=np.concatenate([a.ew, b.ew, [1.0, 1.0]]),
        ep=np.concatenate([a.ep, b.ep, [2.0, 2.0]]),
        ki=np.concatenate([a.ki, b.ki + off]).astype(int),
        kk=np.concatenate([a.kk, b.kk]),
        kq=np.concatenate([a.kq, b.kq]),
        boundary=np.concatenate([a.boundary, b.boundary, [True]]),
    )


def feasible_field(g: Graph, rng) -> np.ndarray:
    """Standard normal field, zero on the Dirichlet boundary."""
    f = rng.normal(size=g.n)
    f[g.boundary] = 0.0
    return f


# -- conversions into the program's inputs ----------------------------------


def to_spec(g: Graph):
    from dirichletforms import Edge, EnergySpec, KillTerm, MeasureSpace

    pts = g.points
    cols = lambda *arrays: zip(*(a.tolist() for a in arrays))
    return EnergySpec(
        MeasureSpace(pts, g.mu.copy()),
        tuple(Edge(pts[u], pts[v], w, p) for u, v, w, p in cols(g.eu, g.ev, g.ew, g.ep)),
        tuple(KillTerm(pts[i], k, q) for i, k, q in cols(g.ki, g.kk, g.kq)),
        frozenset(pts[i] for i in np.flatnonzero(g.boundary)),
    )


def to_problem(g: Graph) -> dict:
    """The graph as a ``dform`` problem-file document."""
    pts = g.points
    cols = lambda *arrays: zip(*(a.tolist() for a in arrays))
    return {
        "version": "1",
        "space": {"points": list(pts), "mu": dict(zip(pts, g.mu.tolist()))},
        "edges": [
            {"u": pts[u], "v": pts[v], "weight": w, "exponent": p}
            for u, v, w, p in cols(g.eu, g.ev, g.ew, g.ep)
        ],
        "kill": [
            {"point": pts[i], "kappa": k, "exponent": q} for i, k, q in cols(g.ki, g.kk, g.kq)
        ],
        "boundary": [pts[i] for i in np.flatnonzero(g.boundary)],
        "defaults": {},
    }
