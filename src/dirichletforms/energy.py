"""Convex graph energies with variable exponents, killing and Dirichlet boundary.

The energy of a field f is

    E(f) = sum_e (w_e / p_e) |f(u_e) - f(v_e)|^{p_e}
         + sum_k (kappa_k / q_k) mu_x |f(x_k)|^{q_k}

extended by +inf whenever f is nonzero on the Dirichlet boundary.  All
exponents live in (1, inf), which keeps the functional differentiable and
proximal solutions unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InfeasibleError, ParameterError, StructuralError
from .space import MeasureSpace, lattice_ops

FEASIBILITY_TOL = 0.0  # boundary values must be exactly zero

# Margin tolerance for all inequality checks, scaled by max(1, |RHS|).
INEQ_TOL = 1e-9


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

    def fill(self, edge_values, kill_values, diagonal) -> np.ndarray:
        """Values at the distinct positions, for curvatures ``edge_values``
        per edge and ``kill_values`` per kill term plus ``diagonal``."""
        raw = np.concatenate(
            (edge_values, edge_values, -edge_values, -edge_values, kill_values, diagonal)
        )
        return np.bincount(self.slot, weights=raw, minlength=len(self.rows) + 1)[:-1]


def connected_components(n: int, u: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """Components of the graph on 0..n-1 with edges (u[i], v[i]).

    Each component is a sorted index array; components come in order of
    their smallest index.
    """
    if n == 0:
        return []
    adjacency = sparse.coo_array((np.ones(len(u)), (u, v)), shape=(n, n))
    _, labels = csgraph.connected_components(adjacency, directed=False)
    members = np.argsort(labels, kind="stable")
    comps = np.split(members, np.cumsum(np.bincount(labels))[:-1])
    comps.sort(key=lambda c: c[0])
    return comps


@dataclass(frozen=True)
class EnergySpec:
    """Immutable description of a graph energy functional."""

    space: MeasureSpace
    edges: tuple[Edge, ...] = ()
    kill: tuple[KillTerm, ...] = ()
    boundary: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "kill", tuple(self.kill))
        object.__setattr__(self, "boundary", frozenset(self.boundary))
        for e in self.edges:
            if e.u == e.v:
                raise StructuralError(f"self-loop edge at {e.u!r}")
            self.space.index(e.u)
            self.space.index(e.v)
            if not e.weight > 0:
                raise ParameterError(f"edge ({e.u},{e.v}): weight must be > 0")
            if not 1 < e.exponent < math.inf:
                raise ParameterError(
                    f"edge ({e.u},{e.v}): exponent must exceed 1 and be finite"
                )
        for k in self.kill:
            self.space.index(k.point)
            if k.kappa < 0:
                raise ParameterError(f"kill at {k.point!r}: kappa must be >= 0")
            if not 1 < k.exponent < math.inf:
                raise ParameterError(
                    f"kill at {k.point!r}: exponent must exceed 1 and be finite"
                )
        for p in self.boundary:
            self.space.index(p)

    # -- cached index arrays -----------------------------------------------

    @cached_property
    def _edge_arrays(self):
        eu = np.array([self.space.index(e.u) for e in self.edges], dtype=int)
        ev = np.array([self.space.index(e.v) for e in self.edges], dtype=int)
        ew = np.array([e.weight for e in self.edges], dtype=float)
        ep = np.array([e.exponent for e in self.edges], dtype=float)
        return eu, ev, ew, ep

    @cached_property
    def _kill_arrays(self):
        ki = np.array([self.space.index(k.point) for k in self.kill], dtype=int)
        kk = np.array([k.kappa for k in self.kill], dtype=float)
        kq = np.array([k.exponent for k in self.kill], dtype=float)
        return ki, kk, kq

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.space.n, dtype=bool)
        for p in self.boundary:
            mask[self.space.index(p)] = True
        return mask

    @cached_property
    def free_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @cached_property
    def max_exponent(self) -> float:
        exps = [e.exponent for e in self.edges] + [k.exponent for k in self.kill]
        return max(exps, default=2.0)

    @cached_property
    def _hessian_pattern(self) -> HessianPattern:
        free = self.free_mask
        m = int(np.count_nonzero(free))
        local = np.cumsum(free) - 1
        eu, ev, _, _ = self._edge_arrays
        ki = self._kill_arrays[0]
        diag = np.arange(self.space.n)
        # raw entries in ``HessianPattern.fill`` order
        rows = np.concatenate((eu, ev, eu, ev, ki, diag))
        cols = np.concatenate((eu, ev, ev, eu, ki, diag))
        inner = free[rows] & free[cols]
        keys, inner_slot = np.unique(
            local[cols[inner]] * m + local[rows[inner]], return_inverse=True
        )
        slot = np.full(len(rows), len(keys))
        slot[inner] = inner_slot
        return HessianPattern(slot, keys % m, keys // m)

    @cached_property
    def components(self) -> list[np.ndarray]:
        """Connected components of the full graph, as index arrays."""
        eu, ev, _, _ = self._edge_arrays
        return connected_components(self.space.n, eu, ev)

    @cached_property
    def free_components(self) -> list[np.ndarray]:
        """Components with no positive kill and no boundary point.

        Indicators of these components span the kernel of the energy: they
        are exactly the directions along which E vanishes at every scale.
        """
        ki, kk, _ = self._kill_arrays
        killed = np.zeros(self.space.n, dtype=bool)
        if len(ki):
            np.add.at(killed, ki[kk > 0], True)
        out = []
        for comp in self.components:
            if not killed[comp].any() and not self.boundary_mask[comp].any():
                out.append(comp)
        return out

    @cached_property
    def kernel_basis(self) -> list[np.ndarray]:
        basis = []
        for comp in self.free_components:
            v = np.zeros(self.space.n)
            v[comp] = 1.0
            basis.append(v)
        return basis

    # -- feasibility -------------------------------------------------------

    def is_feasible(self, f) -> bool:
        f = self.space.check_field(f)
        return bool(np.all(np.abs(f[self.boundary_mask]) <= FEASIBILITY_TOL))

    def require_feasible(self, f) -> np.ndarray:
        f = self.space.check_field(f)
        if not self.is_feasible(f):
            raise InfeasibleError("field is nonzero on the Dirichlet boundary")
        return f

    def project_feasible(self, f) -> np.ndarray:
        f = self.space.check_field(f).copy()
        f[self.boundary_mask] = 0.0
        return f


def _phi(t, p):
    """Odd power map |t|^(p-1) sign(t), vectorized over t and p."""
    return np.sign(t) * np.abs(t) ** (p - 1.0)


def energy(spec: EnergySpec, f) -> float:
    """Evaluate E(f); +inf iff f violates the boundary constraint."""
    f = spec.space.check_field(f)
    if not spec.is_feasible(f):
        return math.inf
    eu, ev, ew, ep = spec._edge_arrays
    total = 0.0
    if len(eu):
        d = np.abs(f[eu] - f[ev])
        total += float(np.sum(ew / ep * d**ep))
    ki, kk, kq = spec._kill_arrays
    if len(ki):
        total += float(np.sum(kk / kq * spec.space.mu[ki] * np.abs(f[ki]) ** kq))
    return total


def energy_gradient(spec: EnergySpec, f) -> np.ndarray:
    """Gradient of E at a feasible f, represented against the mu-inner product.

    Boundary coordinates are reported as 0 (the energy is restricted there).
    """
    f = spec.require_feasible(f)
    g = np.zeros(spec.space.n)
    eu, ev, ew, ep = spec._edge_arrays
    if len(eu):
        t = ew * _phi(f[eu] - f[ev], ep)
        np.add.at(g, eu, t)
        np.add.at(g, ev, -t)
    g /= spec.space.mu
    ki, kk, kq = spec._kill_arrays
    if len(ki):
        np.add.at(g, ki, kk * _phi(f[ki], kq))
    g[spec.boundary_mask] = 0.0
    return g


def perturb(spec: EnergySpec, w) -> EnergySpec:
    """Energy E_w = E + (1/2) int |f|^2 w dmu, realized as quadratic kill terms."""
    w = spec.space.check_field(w)
    if np.any(w < 0):
        raise ParameterError("perturbation weight must be >= 0")
    extra = tuple(
        KillTerm(spec.space.points[i], float(w[i]), 2.0)
        for i in range(spec.space.n)
        if w[i] > 0
    )
    return EnergySpec(spec.space, spec.edges, spec.kill + extra, spec.boundary)


# -- normal contractions ---------------------------------------------------


class NormalContraction:
    """A 1-Lipschitz map R -> R through 0, applied pointwise to fields."""

    def __init__(self, kind: str, fn):
        self.kind = kind
        self._fn = fn

    def __call__(self, t):
        return self._fn(np.asarray(t, dtype=float))

    def __repr__(self):
        return f"NormalContraction({self.kind})"

    def validate(self, rng=None, samples=200, tol=1e-12) -> None:
        """Spot-check C(0)=0 and the Lipschitz bound on random pairs."""
        rng = np.random.default_rng(rng)
        if abs(float(self._fn(np.array(0.0)))) > tol:
            raise ParameterError(f"{self!r}: C(0) != 0")
        a = rng.normal(scale=10.0, size=samples)
        b = rng.normal(scale=10.0, size=samples)
        lhs = np.abs(self._fn(a) - self._fn(b))
        if np.any(lhs > np.abs(a - b) + tol):
            raise ParameterError(f"{self!r}: Lipschitz bound violated")

    # -- constructors ------------------------------------------------------

    @classmethod
    def abs(cls):
        return cls("abs", np.abs)

    @classmethod
    def clamp(cls, r: float):
        if r < 0:
            raise ParameterError("clamp radius must be >= 0")
        return cls(f"clamp({r})", lambda t: np.clip(t, -r, r))

    @classmethod
    def deadzone(cls, eps: float):
        if eps < 0:
            raise ParameterError("deadzone width must be >= 0")
        return cls(
            f"deadzone({eps})",
            lambda t: np.sign(t) * np.maximum(np.abs(t) - eps, 0.0),
        )

    @classmethod
    def scale(cls, lam: float):
        if abs(lam) > 1:
            raise ParameterError("scale factor must satisfy |lam| <= 1")
        return cls(f"scale({lam})", lambda t: lam * t)

    @classmethod
    def piecewise_linear(cls, knots, slopes):
        """C(t) = integral from 0 to t of a slope step function in [-1, 1].

        ``knots`` are sorted breakpoints; ``slopes`` has one entry more than
        ``knots`` (slope on each interval).  Integrating from 0 guarantees
        C(0) = 0 and the Lipschitz bound.
        """
        knots = np.asarray(knots, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        if len(slopes) != len(knots) + 1:
            raise ParameterError("need one slope per interval (len(knots)+1)")
        if np.any(np.abs(slopes) > 1):
            raise ParameterError("slopes must lie in [-1, 1]")
        if np.any(np.diff(knots) < 0):
            raise ParameterError("knots must be sorted")
        grid_sorted = np.sort(np.unique(np.concatenate((knots, [0.0]))))

        def slope_at(t):
            return slopes[np.searchsorted(knots, t, side="right")]

        # cumulative values at grid points, anchored at C(0)=0
        vals = np.zeros_like(grid_sorted)
        zero_pos = int(np.searchsorted(grid_sorted, 0.0))
        for i in range(zero_pos + 1, len(grid_sorted)):
            mid = 0.5 * (grid_sorted[i - 1] + grid_sorted[i])
            vals[i] = vals[i - 1] + slope_at(mid) * (
                grid_sorted[i] - grid_sorted[i - 1]
            )
        for i in range(zero_pos - 1, -1, -1):
            mid = 0.5 * (grid_sorted[i] + grid_sorted[i + 1])
            vals[i] = vals[i + 1] - slope_at(mid) * (
                grid_sorted[i + 1] - grid_sorted[i]
            )

        def fn(t):
            # piecewise-linear interpolation with linear extension at the ends
            scalar = np.ndim(t) == 0
            t = np.atleast_1d(np.asarray(t, dtype=float))
            lo = t < grid_sorted[0]
            hi = t > grid_sorted[-1]
            inner = ~(lo | hi)
            out = np.empty_like(t)
            if inner.any():
                ti = t[inner]
                ii = np.clip(
                    np.searchsorted(grid_sorted, ti, side="right") - 1,
                    0,
                    len(grid_sorted) - 2,
                )
                mids = 0.5 * (grid_sorted[ii] + grid_sorted[ii + 1])
                out[inner] = vals[ii] + slope_at(mids) * (ti - grid_sorted[ii])
            if lo.any():
                out[lo] = vals[0] + slopes[0] * (t[lo] - grid_sorted[0])
            if hi.any():
                out[hi] = vals[-1] + slopes[-1] * (t[hi] - grid_sorted[-1])
            return out[0] if scalar else out

        return cls(f"pwl({len(knots)} knots)", fn)

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


def _margin_ok(lhs: float, rhs: float, tol: float = INEQ_TOL):
    """Pass/fail with margin for lhs <= rhs, tolerance scaled by the RHS."""
    if math.isinf(rhs):
        return True, math.inf
    margin = rhs - lhs
    return margin >= -tol * max(1.0, abs(rhs)), margin


def bd1_check(spec: EnergySpec, f, g, tol: float = INEQ_TOL):
    """First criterion: E(f ^ g) + E(f v g) <= E(f) + E(g)."""
    fg_min, fg_max = lattice_ops(f, g)
    lhs = energy(spec, fg_min) + energy(spec, fg_max)
    rhs = energy(spec, f) + energy(spec, g)
    return _margin_ok(lhs, rhs, tol)


def bd2_check(spec: EnergySpec, f, g, C: NormalContraction, tol: float = INEQ_TOL):
    """Second criterion: E(f + Cg) + E(f - Cg) <= E(f + g) + E(f - g)."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    cg = C(g)
    lhs = energy(spec, f + cg) + energy(spec, f - cg)
    rhs = energy(spec, f + g) + energy(spec, f - g)
    return _margin_ok(lhs, rhs, tol)


def fuzz_scalar_inequalities(samples: int, seed: int = 0, rel_tol: float = 1e-12):
    """Random checks of the two scalar inequalities behind the second criterion.

    For |lam| <= 1 and p >= 1:
        |x + lam y|^p + |x - lam y|^p <= |x + y|^p + |x - y|^p
    and for |c| <= ab:
        (a^2 + 2 lam c + lam^2 b^2)^(p/2) + (a^2 - 2 lam c + lam^2 b^2)^(p/2)
            <= (a^2 + 2c + b^2)^(p/2) + (a^2 - 2c + b^2)^(p/2)

    Returns (ok, worst_relative_violation).
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
    return worst <= rel_tol, worst
