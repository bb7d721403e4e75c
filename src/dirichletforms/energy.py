"""Convex graph energies with variable exponents, killing and Dirichlet boundary.

The energy of a field f is one sum over terms (u, v, w, p) with mass m,

    E(f) = sum_t m_t (w_t / p_t) |f(u_t) - f(v_t)|^{p_t},

extended by +inf whenever f is nonzero on the Dirichlet boundary.  An edge
is a term with m = 1; a kill term (kappa / q) mu_x |f(x)|^q is the term
(x, n, kappa, q) with m = mu_x, an edge to one grounded point n held at 0
like the boundary (Keller, Lenz & Wojciechowski, Graphs and Discrete
Dirichlet Spaces, 2021).  All exponents live in (1, inf), which keeps the
functional differentiable and proximal solutions unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InfeasibleError, ParameterError, StructuralError
from .space import MeasureSpace, lattice_ops

# Margin tolerance for all inequality checks, scaled by max(1, |RHS|).
INEQ_TOL = 1e-9

SCALAR_TOL = 1e-12  # of the relative violations in ``fuzz_scalar_inequalities``

# A Hessian pattern of m points is wide when its reverse Cuthill-McKee
# bandwidth exceeds this multiple of sqrt(m): there a sparse LU fills in, and
# ``resolvent._newton_direction`` runs CG.  Paths have bandwidth 1, 2-D grids
# about sqrt(m), and random sparse graphs 6-42 sqrt(m) at 200-10^4 points,
# where CG is level with the LU at 200 points and faster above (see
# ROADMAP.md, item 4).
_WIDE_BANDWIDTH = 2.0

_CURVATURE_CAP = 1e12  # exponents below 2 have unbounded curvature at zero


@dataclass(frozen=True)
class Edge:
    u: str
    v: str
    weight: float
    exponent: float


@dataclass(frozen=True)
class KillTerm:
    point: str
    kappa: float
    exponent: float


@dataclass(frozen=True)
class HessianPattern:
    """Nonzero positions of the energy Hessian plus a diagonal shift, on the
    block of the points off the Dirichlet boundary.

    ``rows`` and ``cols`` list the distinct positions in that block's own
    numbering, sorted by column, then row, as in compressed sparse column
    storage.
    """

    slot: np.ndarray  # raw entry -> its position, or len(rows) off the block
    rows: np.ndarray
    cols: np.ndarray

    def fill(self, values, diagonal) -> np.ndarray:
        """Values at the distinct positions, for curvatures ``values`` per
        term (as ``_curvatures`` gives them) plus ``diagonal``."""
        raw = np.concatenate((values, values, -values, -values, diagonal))
        return np.bincount(self.slot, weights=raw, minlength=len(self.rows) + 1)[:-1]


def _lookup(index: dict, columns, where) -> list[np.ndarray]:
    """The indices of the names in each of ``columns``; the first unknown name,
    by record and then by column, is a StructuralError that ``where(record)``
    places."""
    idx = [np.fromiter(map(index.get, c, repeat(-1)), dtype=int, count=len(c)) for c in columns]
    bad = np.flatnonzero(np.any([i < 0 for i in idx], axis=0))
    if len(bad):
        name = next(c[bad[0]] for c, i in zip(columns, idx) if i[bad[0]] < 0)
        raise StructuralError(f"{where(bad[0])} unknown point {name!r}")
    return idx


@dataclass(frozen=True, init=False, eq=False)
class EnergySpec:
    """Immutable graph energy: one term table, of which ``edges`` and ``kill`` are views."""

    space: MeasureSpace
    boundary: frozenset[str]

    def __init__(self, space: MeasureSpace, edges=(), kill=(), boundary=frozenset()):
        """The spec of ``Edge`` and ``KillTerm`` records: ``from_columns`` of their columns."""
        edges, kill = tuple(edges), tuple(kill)
        spec = EnergySpec.from_columns(
            space, [list(map(attrgetter(k), edges)) for k in ("u", "v", "weight", "exponent")],
            [list(map(attrgetter(k), kill)) for k in ("point", "kappa", "exponent")], boundary)
        vars(self).update(vars(spec))

    @classmethod
    def from_columns(cls, space: MeasureSpace, edges, kill, boundary=frozenset()):
        """The spec of the columns ``edges = (u, v, weight, exponent)`` and ``kill =
        (point, kappa, exponent)`` of point names and numbers.  Every value is checked
        once, by array tests over the columns that name the first bad record by its
        index (``edge 2: ...``)."""
        boundary, index = frozenset(boundary), space._index
        eu, ev = _lookup(index, edges[:2], lambda i: f"edge {i}:")
        ki, = _lookup(index, kill[:1], lambda i: f"kill {i}:")
        bi, = _lookup(index, [sorted(boundary, key=repr)], lambda _: "boundary names")
        ew, ep, kk, kq = (np.array(c, dtype=float) for c in (*edges[2:], *kill[1:]))
        for error, where, ok, message in (
            (StructuralError, "edge", eu != ev, "self-loops are not allowed"),
            (ParameterError, "edge", (0 < ew) & (ew < np.inf), "weight must be > 0 and finite"),
            (ParameterError, "edge", (1 < ep) & (ep < np.inf),
             "exponent must exceed 1 and be finite"),
            (ParameterError, "kill", (0 <= kk) & (kk < np.inf), "kappa must be >= 0 and finite"),
            (ParameterError, "kill", (1 < kq) & (kq < np.inf),
             "exponent must exceed 1 and be finite"),
        ):
            bad = np.flatnonzero(~ok)
            if len(bad):
                raise error(f"{where} {bad[0]}: {message}")
        # the term table (u, v, w, p, m): the edges, then each kill term as an
        # edge to the grounded point n; m apart from w, as kappa mu_x may overflow
        columns = ((eu, ki), (ev, np.full(len(ki), space.n)), (ew, kk), (ep, kq),
                   (np.ones(len(ew)), space.mu[ki]))
        held = np.zeros(space.n + 1, dtype=bool)  # the boundary and the grounded point
        held[np.append(bi, space.n)] = True
        return cls._of_table(space, tuple(map(np.concatenate, columns)), len(ew), boundary, held)

    @classmethod
    def _of_table(cls, space, terms, edge_count, boundary, held):
        """The spec of a checked term table whose first ``edge_count`` rows are edges."""
        spec = object.__new__(cls)
        vars(spec).update(space=space, boundary=boundary, _terms=terms, _edge_count=edge_count,
                          _held=held, boundary_mask=held[:space.n])
        return spec

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        points, k = self.space.points, self._edge_count
        u, v, w, p = (c[:k].tolist() for c in self._terms[:4])
        return tuple(map(Edge, map(points.__getitem__, u), map(points.__getitem__, v), w, p))

    @cached_property
    def kill(self) -> tuple[KillTerm, ...]:
        points, k = self.space.points, self._edge_count
        x, w, p = (self._terms[i][k:].tolist() for i in (0, 2, 3))
        return tuple(map(KillTerm, map(points.__getitem__, x), w, p))

    @cached_property
    def free_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @cached_property
    def max_exponent(self) -> float:
        p = self._terms[3]
        return float(p.max()) if len(p) else 2.0

    @cached_property
    def min_exponent(self) -> float:
        p = self._terms[3]
        return float(p.min()) if len(p) else 2.0

    @cached_property
    def _hessian_pattern(self) -> HessianPattern:
        free = ~self._held
        m = int(np.count_nonzero(free))
        local = np.cumsum(free) - 1
        u, v = self._terms[:2]
        diag = np.arange(self.space.n)
        # raw entries in ``HessianPattern.fill`` order
        rows = np.concatenate((u, v, u, v, diag))
        cols = np.concatenate((u, v, v, u, diag))
        inner = free[rows] & free[cols]
        keys, inner_slot = np.unique(
            local[cols[inner]] * m + local[rows[inner]], return_inverse=True
        )
        slot = np.full(len(rows), len(keys))
        slot[inner] = inner_slot
        return HessianPattern(slot, keys % m, keys // m)

    @cached_property
    def _hessian_is_wide(self) -> bool:
        """Whether ``_hessian_pattern`` is wide (see ``_WIDE_BANDWIDTH``)."""
        pattern = self._hessian_pattern
        m = int(np.count_nonzero(self.free_mask))
        rows, cols = pattern.rows, pattern.cols
        A = sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(m, m))
        position = np.empty(m, dtype=int)
        position[csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)] = np.arange(m)
        bandwidth = int(np.max(np.abs(position[rows] - position[cols])))
        return bandwidth > _WIDE_BANDWIDTH * math.sqrt(m)

    @cached_property
    def inner_components(self) -> list[np.ndarray]:
        """Components of the graph on the points off the Dirichlet boundary.

        Terms into a held point (the boundary or the grounded point) are
        inert, since feasible fields vanish there.  Each component is a
        sorted index array; components come in order of their smallest
        index.  The invariant sets are exactly the unions of these
        components.
        """
        free = ~self._held
        u, v = self._terms[:2]
        inner = free[u] & free[v]
        n = self.space.n
        graph = sparse.coo_array((np.ones(np.count_nonzero(inner)), (u[inner], v[inner])),
                                 shape=(n, n))
        _, labels = csgraph.connected_components(graph, directed=False)
        members = np.argsort(labels, kind="stable")
        comps = np.split(members, np.cumsum(np.bincount(labels))[:-1])
        # drop each boundary point, a component of its own here, and the
        # one empty piece that a space with no points splits into
        return sorted((c for c in comps if len(c) and free[c[0]]), key=lambda c: c[0])

    @cached_property
    def free_components(self) -> list[np.ndarray]:
        """Inner components with no positive-weight term into a held point:
        no positive kill and no edge into the boundary.

        Indicators of these components span the kernel of the energy: they
        are exactly the directions along which E vanishes at every scale.
        """
        u, v, w = self._terms[:3]
        cross = (self._held[u] != self._held[v]) & (w > 0)
        tied = np.zeros(self.space.n + 1, dtype=bool)
        tied[np.concatenate((u[cross], v[cross]))] = True
        return [c for c in self.inner_components if not tied[c].any()]

    # -- feasibility: exactly zero on the boundary --------------------------

    def is_feasible(self, f) -> bool:
        return not self.space.check_field(f)[self.boundary_mask].any()

    def require_feasible(self, f) -> np.ndarray:
        f = self.space.check_field(f)
        if f[self.boundary_mask].any():
            raise InfeasibleError("field is nonzero on the Dirichlet boundary")
        return f

    def project_feasible(self, f) -> np.ndarray:
        f = self.space.check_field(f).copy()
        f[self.boundary_mask] = 0.0
        return f


def _phi(t, p):
    """Odd power map |t|^(p-1) sign(t), vectorized over t and p."""
    return np.sign(t) * np.abs(t) ** (p - 1.0)


def _differences(spec: EnergySpec, f) -> np.ndarray:
    """The term differences f(u_t) - f(v_t), with f held at 0 on the
    grounded point."""
    u, v = spec._terms[:2]
    f = np.append(f, 0.0)
    return f[u] - f[v]


def _energy_differences(spec: EnergySpec, f) -> np.ndarray:
    """``_differences`` with 0 on the weight-0 terms, which carry no energy:
    E(lambda f) = 0 for every lambda exactly when these are all 0."""
    return np.where(spec._terms[2] > 0, _differences(spec, f), 0.0)


def _term_sum(spec: EnergySpec, d) -> float:
    """E of a field with term differences ``d``."""
    _, _, w, p, m = spec._terms
    return float(np.sum(w / p * m * np.abs(d) ** p))


def energy(spec: EnergySpec, f) -> float:
    """Evaluate E(f); +inf iff f violates the boundary constraint."""
    f = spec.space.check_field(f)
    if f[spec.boundary_mask].any():
        return math.inf
    return _term_sum(spec, _differences(spec, f))


def energy_gradient(spec: EnergySpec, f) -> np.ndarray:
    """Gradient of E at a feasible f, represented against the mu-inner product.

    Boundary coordinates are reported as 0 (the energy is restricted there).
    """
    return _gradient(spec, spec.require_feasible(f))


def _gradient(spec: EnergySpec, f) -> np.ndarray:
    """``energy_gradient`` of a checked, feasible f."""
    u, v, w, p, m = spec._terms
    t = m * w * _phi(_differences(spec, f), p)
    g = np.zeros(spec.space.n + 1)
    np.add.at(g, u, t)
    np.add.at(g, v, -t)
    g = g[:-1] / spec.space.mu
    g[spec.boundary_mask] = 0.0
    return g


def _curvatures(spec: EnergySpec, g) -> np.ndarray:
    """Second derivatives of the terms at g, one per term, capped at
    ``_CURVATURE_CAP``: at exponents below 2 they blow up where a term
    difference vanishes."""
    _, _, w, p, m = spec._terms
    with np.errstate(divide="ignore", invalid="ignore"):
        c = w * (p - 1.0) * m * np.abs(_differences(spec, g)) ** (p - 2.0)
    c[w == 0] = 0.0  # a weight-0 term has none: not the nan of 0 times inf
    return np.fmin(c, _CURVATURE_CAP)


def perturb(spec: EnergySpec, w) -> EnergySpec:
    """Energy E_w = E + (1/2) int |f|^2 w dmu: the row (x, n, w_x, 2, mu_x)
    appended to the term table for each w_x > 0, as a kill term."""
    w = spec.space.check_field(w)
    if np.any(w < 0):
        raise ParameterError("perturbation weight must be >= 0")
    x = np.flatnonzero(w)
    rows = (x, np.full(len(x), spec.space.n), w[x], np.full(len(x), 2.0), spec.space.mu[x])
    return EnergySpec._of_table(spec.space, tuple(map(np.concatenate, zip(spec._terms, rows))),
                                spec._edge_count, spec.boundary, spec._held)


# -- normal contractions ---------------------------------------------------


class NormalContraction:
    """A 1-Lipschitz map R -> R through 0, applied pointwise to fields.

    It is one slope table: C(t) = integral from 0 to t of a step function in
    [-1, 1] with ``slopes`` on the intervals between the sorted ``knots``
    (one slope more than knots).  Integrating from 0 makes C(0) = 0 and the
    Lipschitz bound hold by construction.
    """

    def __init__(self, kind: str, knots, slopes):
        knots = np.asarray(knots, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        if len(slopes) != len(knots) + 1:
            raise ParameterError("need one slope per interval (len(knots)+1)")
        if not np.all(np.abs(slopes) <= 1):
            raise ParameterError("slopes must lie in [-1, 1]")
        if not np.all(np.isfinite(knots)):
            raise ParameterError("knots must be finite")
        if np.any(knots[1:] < knots[:-1]):
            raise ParameterError("knots must be sorted")
        # no interval of the grid spans 0, so no width overflows
        grid = np.unique(np.concatenate((knots, [0.0])))
        width = np.diff(grid)
        # the slope on each interval of the grid is the one at its midpoint
        inner = slopes[np.searchsorted(knots, grid[:-1] + 0.5 * width, side="right")]
        # C on the grid, integrated outward from grid[z] = 0
        rise, z = inner * width, int(np.searchsorted(grid, 0.0))
        vals = np.concatenate((-np.cumsum(rise[:z][::-1])[::-1], [0.0], np.cumsum(rise[z:])))
        self.kind = kind
        # one slope per interval, the two unbounded ones included
        self._table = grid, vals, np.concatenate((slopes[:1], inner, slopes[-1:])), z

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        grid, vals, slopes, z = self._table
        # on interval i, (grid[i - 1], grid[i]), C is linear from the end
        # nearer 0: the identity and the zero map of a slope 1 or 0 that
        # runs through 0 come out exact
        i = np.searchsorted(grid, t)
        end = np.where(i <= z, i, i - 1)
        return vals[end] + slopes[i] * (t - grid[end])

    def __repr__(self):
        return f"NormalContraction({self.kind})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def abs(cls):
        return cls("abs", [0.0], [-1.0, 1.0])

    @classmethod
    def clamp(cls, r: float):
        if r < 0:
            raise ParameterError("clamp radius must be >= 0")
        return cls(f"clamp({r})", [-r, r], [0.0, 1.0, 0.0])

    @classmethod
    def deadzone(cls, eps: float):
        if eps < 0:
            raise ParameterError("deadzone width must be >= 0")
        return cls(f"deadzone({eps})", [-eps, eps], [1.0, 0.0, 1.0])

    @classmethod
    def scale(cls, lam: float):
        if abs(lam) > 1:
            raise ParameterError("scale factor must satisfy |lam| <= 1")
        return cls(f"scale({lam})", [], [lam])

    @classmethod
    def piecewise_linear(cls, knots, slopes):
        """The contraction of the slope table ``knots``, ``slopes``."""
        return cls(f"pwl({len(knots)} knots)", knots, slopes)

    @classmethod
    def random_piecewise_linear(cls, rng, n_knots=5):
        knots = np.sort(rng.uniform(-3.0, 3.0, size=n_knots))
        slopes = rng.uniform(-1.0, 1.0, size=n_knots + 1)
        return cls.piecewise_linear(knots, slopes)


def contraction_battery(seed: int = 0) -> list[NormalContraction]:
    """The fixed test battery of normal contractions.

    Deterministic: the random piecewise-linear members are drawn from the
    given seed.
    """
    rng = np.random.default_rng(seed)
    battery = [NormalContraction.abs()]
    battery += [NormalContraction.clamp(r) for r in (0.1, 1.0, 10.0)]
    battery += [NormalContraction.deadzone(e) for e in (0.01, 0.5)]
    battery += [NormalContraction.scale(l) for l in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    battery += [
        NormalContraction.random_piecewise_linear(rng, n_knots=5) for _ in range(20)
    ]
    return battery


# -- Beurling-Deny style checks --------------------------------------------


def _margin_ok(lhs: float, rhs: float):
    """Pass/fail with margin for lhs <= rhs, tolerance scaled by the RHS."""
    if math.isinf(rhs):
        return True, math.inf
    margin = rhs - lhs
    return margin >= -INEQ_TOL * max(1.0, abs(rhs)), margin


def bd1_check(spec: EnergySpec, f, g):
    """First criterion: E(f ^ g) + E(f v g) <= E(f) + E(g), to ``INEQ_TOL``."""
    fg_min, fg_max = lattice_ops(f, g)
    lhs = energy(spec, fg_min) + energy(spec, fg_max)
    rhs = energy(spec, f) + energy(spec, g)
    return _margin_ok(lhs, rhs)


def bd2_check(spec: EnergySpec, f, g, C: NormalContraction):
    """Second criterion: E(f + Cg) + E(f - Cg) <= E(f + g) + E(f - g), to
    ``INEQ_TOL``."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    cg = C(g)
    lhs = energy(spec, f + cg) + energy(spec, f - cg)
    rhs = energy(spec, f + g) + energy(spec, f - g)
    return _margin_ok(lhs, rhs)


def fuzz_scalar_inequalities(samples: int, seed: int = 0):
    """Random checks of the two scalar inequalities behind the second criterion.

    For |lam| <= 1 and p >= 1:
        |x + lam y|^p + |x - lam y|^p <= |x + y|^p + |x - y|^p
    and for |c| <= ab:
        (a^2 + 2 lam c + lam^2 b^2)^(p/2) + (a^2 - 2 lam c + lam^2 b^2)^(p/2)
            <= (a^2 + 2c + b^2)^(p/2) + (a^2 - 2c + b^2)^(p/2)

    Returns (ok, worst_relative_violation); ok when the worst relative
    violation is at most ``SCALAR_TOL``.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=samples)
    y = rng.normal(scale=3.0, size=samples)
    lam = rng.uniform(-1.0, 1.0, size=samples)
    p = rng.uniform(1.0, 8.0, size=samples)

    lhs = np.abs(x + lam * y) ** p + np.abs(x - lam * y) ** p
    rhs = np.abs(x + y) ** p + np.abs(x - y) ** p
    viol1 = (lhs - rhs) / np.maximum(1.0, np.abs(rhs))

    a = np.abs(rng.normal(scale=3.0, size=samples))
    b = np.abs(rng.normal(scale=3.0, size=samples))
    c = rng.uniform(-1.0, 1.0, size=samples) * a * b
    lam2 = rng.uniform(-1.0, 1.0, size=samples)
    lhs2 = (a**2 + 2 * lam2 * c + lam2**2 * b**2) ** (p / 2) + (
        a**2 - 2 * lam2 * c + lam2**2 * b**2
    ) ** (p / 2)
    rhs2 = (a**2 + 2 * c + b**2) ** (p / 2) + (a**2 - 2 * c + b**2) ** (p / 2)
    viol2 = (lhs2 - rhs2) / np.maximum(1.0, np.abs(rhs2))

    worst = float(max(viol1.max(initial=-math.inf), viol2.max(initial=-math.inf)))
    return worst <= SCALAR_TOL, worst
