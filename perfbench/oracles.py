"""Reference computations made apart from the program under test.

Every function here reads a ``graphs.Graph`` and uses only numpy and
scipy.sparse: no solver of ``dirichletforms`` is called.  The p = 2 oracles
are sparse direct solves of the quadratic form's linear systems; the unit
path has closed forms for any exponent.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve

from graphs import Graph


def _phi(t, p):
    return np.sign(t) * np.abs(t) ** (p - 1.0)


def energy(g: Graph, f) -> float:
    """E(f); +inf when f is nonzero on the Dirichlet boundary."""
    f = np.asarray(f, dtype=float)
    if np.any(f[g.boundary] != 0.0):
        return math.inf
    d = np.abs(f[g.eu] - f[g.ev])
    total = float(np.dot(g.ew / g.ep, d**g.ep))
    return total + float(np.dot(g.kk / g.kq * g.mu[g.ki], np.abs(f[g.ki]) ** g.kq))


def gradient(g: Graph, f) -> np.ndarray:
    """mu-representation of grad E at f, zero on the boundary."""
    t = g.ew * _phi(f[g.eu] - f[g.ev], g.ep)
    out = (np.bincount(g.eu, t, g.n) - np.bincount(g.ev, t, g.n)) / g.mu
    out += np.bincount(g.ki, g.kk * _phi(f[g.ki], g.kq), g.n)
    out[g.boundary] = 0.0
    return out


def mu_norm(g: Graph, f) -> float:
    return math.sqrt(float(np.sum(g.mu * f * f)))


def prox_residual(g: Graph, alpha: float, f, x) -> float:
    """Optimality residual ||grad E(x) + alpha x - f||_mu over free points."""
    r = gradient(g, x) + alpha * x - f
    r[g.boundary] = 0.0
    return mu_norm(g, r)


# -- p = 2: sparse direct solves -------------------------------------------


def stiffness(g: Graph) -> sparse.csr_matrix:
    """A with E(f) = f.A f / 2 when every exponent is 2."""
    if g.exponents() - {2.0}:
        raise ValueError("stiffness needs every exponent equal to 2")
    rows = np.concatenate([g.eu, g.ev, g.eu, g.ev, g.ki])
    cols = np.concatenate([g.eu, g.ev, g.ev, g.eu, g.ki])
    vals = np.concatenate([g.ew, g.ew, -g.ew, -g.ew, g.kk * g.mu[g.ki]])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


def _solve_free(g: Graph, M, rhs) -> np.ndarray:
    free = np.flatnonzero(g.free)
    out = np.zeros(g.n)
    out[free] = spsolve(M[free][:, free].tocsc(), rhs[free])
    return out


def prox2(g: Graph, alpha: float, f) -> np.ndarray:
    """G_alpha f: (A + alpha M) x = M f on the free points."""
    M = stiffness(g) + alpha * sparse.diags(g.mu)
    return _solve_free(g, M.tocsr(), g.mu * f)


def green2(g: Graph, f) -> np.ndarray:
    """G f: A x = M f on the free points (A must be invertible there)."""
    return _solve_free(g, stiffness(g), g.mu * f)


def K2(g: Graph, w) -> float:
    """K(w) = sum_x mu_x w_x (G w)_x."""
    return float(np.sum(g.mu * w * green2(g, w)))


def capacity2(g: Graph, target: np.ndarray) -> tuple[float, np.ndarray]:
    """cap_1(A) and its equilibrium potential for h = 1.

    With h constant the obstacle is active exactly on A (maximum
    principle), so the minimizer is the harmonic extension of 1_A.
    """
    A = stiffness(g)
    u = target.astype(float)
    inner = np.flatnonzero(g.free & ~target)
    rhs = -(A @ u)[inner]
    u[inner] = spsolve(A[inner][:, inner].tocsc(), rhs)
    return 0.5 * float(u @ (A @ u)), u


# -- unit path with a Dirichlet right end, any p ----------------------------


def path_green(n_edges: int, p: float) -> np.ndarray:
    """G 1 on the unit path: g(k) = sum_{j=k}^{n-1} (j+1)^{1/(p-1)}, g(n) = 0."""
    steps = np.arange(1, n_edges + 1, dtype=float) ** (1.0 / (p - 1.0))
    return np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])


def path_K(n_edges: int, p: float) -> float:
    """K(1) = sum_k g(k) on the unit path."""
    return float(np.sum(path_green(n_edges, p)))


# -- structure ---------------------------------------------------------------


def verdict(g: Graph) -> tuple[str, list[set[int]]]:
    """Criticality verdict read off the graph, with the non-boundary components.

    Reducible when the non-boundary subgraph splits; critical when the whole
    graph is connected with no positive kill and no boundary; subcritical
    otherwise.
    """
    keep = (g.free[g.eu]) & (g.free[g.ev])
    adj = sparse.coo_matrix(
        (np.ones(int(keep.sum())), (g.eu[keep], g.ev[keep])), shape=(g.n, g.n)
    )
    _, labels = csgraph.connected_components(adj, directed=False)
    free = np.flatnonzero(g.free)
    comps = [set(free[labels[free] == c].tolist()) for c in np.unique(labels[free])]
    if len(comps) > 1:
        return "Reducible", comps
    if not g.boundary.any() and not np.any(g.kk > 0):
        return "Critical", comps
    return "Subcritical", comps


# -- Luxemburg seminorm -----------------------------------------------------


def luxemburg_ok(g: Graph, f, lam: float, r: float, rel: float = 1e-8) -> str | None:
    """None when lam brackets E(f / lam) = r, else the reason it does not.

    With a single exponent p the seminorm is (E(f)/r)^{1/p} exactly.
    """
    if not (lam > 0 and math.isfinite(lam)):
        return f"norm {lam!r} is not a positive finite number"
    if energy(g, f / lam) > r * (1.0 + 1e-12):
        return f"E(f/lam) = {energy(g, f / lam)!r} exceeds r = {r}"
    if energy(g, f / (lam * (1.0 - rel))) < r:
        return f"lam = {lam!r} is not the smallest level-{r} scale"
    exps = g.exponents()
    if len(exps) == 1:
        (p,) = exps
        exact = (energy(g, f) / r) ** (1.0 / p)
        if abs(lam - exact) > rel * exact:
            return f"norm {lam!r} differs from the closed form {exact!r}"
    return None
