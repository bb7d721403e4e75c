"""Proximal resolvents, perturbed resolvents, and the Green operator.

The resolvent G_alpha f is the unique minimizer of

    g  |->  E(g) + (alpha/2) ||g - f/alpha||^2_mu,

an alpha-strongly-convex problem.  It is solved by damped Newton with
backtracking on the optimality residual ||grad E(g) + alpha g - f||_mu
(boundary coordinates pinned at 0).  Each Newton direction solves the
Hessian system on the free coordinates: densely below a measured size,
above it by a sparse LU of the Hessian assembled from a pattern cached on
the spec.  When Newton stalls, L-BFGS-B takes over and Newton then polishes
its result down to the configured tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse
from scipy.sparse.linalg import splu

from .energy import EnergySpec, energy, energy_gradient, perturb
from .errors import (
    InconclusiveError,
    InternalCheckError,
    NonConvergenceError,
    ParameterError,
)


@dataclass(frozen=True)
class ProxConfig:
    residual_tolerance: float = 1e-9
    max_iterations: int = 20_000
    shrink: float = 0.5
    armijo: float = 1e-4

    def __post_init__(self):
        if not self.residual_tolerance > 0:
            raise ParameterError("residual_tolerance must be > 0")
        if not 0 < self.shrink < 1 or not 0 < self.armijo < 1:
            raise ParameterError("backtracking constants must lie in (0, 1)")


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    diverged: bool = False
    extras: dict = field(default_factory=dict)


_CURVATURE_CAP = 1e12  # exponents below 2 have unbounded curvature at zero

# Free points from which a Newton direction is found by sparse LU instead of
# a dense solve.  Measured on paths, grids and random sparse graphs with one
# BLAS thread: the dense solve is faster up to 100-300 points depending on
# the graph (see CHANGES.md).
_DENSE_MAX = 200


def _curvatures(spec: EnergySpec, g) -> tuple[np.ndarray, np.ndarray]:
    """Second derivatives of the edge terms and of the kill terms at g.

    Capped: for exponents below 2 they blow up where an edge difference
    (or a killed value) vanishes.
    """
    eu, ev, ew, ep = spec._edge_arrays
    ki, kk, kq = spec._kill_arrays
    with np.errstate(divide="ignore", invalid="ignore"):
        ce = ew * (ep - 1.0) * np.abs(g[eu] - g[ev]) ** (ep - 2.0)
        ck = kk * (kq - 1.0) * spec.space.mu[ki] * np.abs(g[ki]) ** (kq - 2.0)
    # fmin also maps the nan of a zero kappa times an infinite power to the cap
    return np.fmin(ce, _CURVATURE_CAP), np.fmin(ck, _CURVATURE_CAP)


def energy_hessian(spec: EnergySpec, g, alpha: float = 0.0) -> np.ndarray:
    """Euclidean Hessian of E(g) + (alpha/2)||g - c||^2_mu (dense).

    The solvers assemble it sparsely in ``_newton_direction``; this dense
    form is the reference for tests.
    """
    n = spec.space.n
    H = np.zeros((n, n))
    eu, ev, _, _ = spec._edge_arrays
    ki = spec._kill_arrays[0]
    ce, ck = _curvatures(spec, g)
    np.add.at(H, (eu, eu), ce)
    np.add.at(H, (ev, ev), ce)
    np.add.at(H, (eu, ev), -ce)
    np.add.at(H, (ev, eu), -ce)
    np.add.at(H, (ki, ki), ck)
    if alpha:
        H[np.diag_indices(n)] += alpha * spec.space.mu
    return H


def _newton_direction(spec: EnergySpec, g, alpha: float, free, rhs):
    """Solve (H + alpha M) delta = rhs on the coordinates in ``free``.

    H is the energy Hessian at g and M = diag(mu); ``free`` lies inside
    ``spec.free_mask`` and delta is 0 off it.  Returns None when the block
    is singular.
    """
    pattern = spec._hessian_pattern
    data = pattern.fill(*_curvatures(spec, g), alpha * spec.space.mu)
    rows, cols = pattern.rows, pattern.cols
    inside = free[spec.free_mask]
    m = int(np.count_nonzero(inside))
    if m < len(inside):
        local = np.cumsum(inside) - 1
        keep = inside[rows] & inside[cols]
        data, rows, cols = data[keep], local[rows[keep]], local[cols[keep]]
    delta = np.zeros(spec.space.n)
    if m < _DENSE_MAX:
        H = np.zeros((m, m))
        H[rows, cols] = data
        try:
            delta[free] = np.linalg.solve(H, rhs[free])
        except np.linalg.LinAlgError:
            return None
    else:
        indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=m))))
        A = sparse.csc_array((data, rows, indptr), shape=(m, m))
        try:
            lu = splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            return None
        delta[free] = lu.solve(rhs[free])
    return delta


def _prox_objective(spec: EnergySpec, alpha: float, f: np.ndarray):
    mu = spec.space.mu
    target = f / alpha

    def value(g):
        return energy(spec, g) + 0.5 * alpha * float(np.sum(mu * (g - target) ** 2))

    def residual(g):
        # mu-representation of the objective gradient, zero on boundary
        r = energy_gradient(spec, g) + alpha * g - f
        r[spec.boundary_mask] = 0.0
        return r

    return value, residual


def prox(
    spec: EnergySpec,
    alpha: float,
    f,
    cfg: ProxConfig = ProxConfig(),
    x0=None,
) -> tuple[np.ndarray, SolveReport]:
    """Resolvent G_alpha f with certified optimality residual."""
    if not alpha > 0:
        raise ParameterError("alpha must be > 0")
    f = spec.space.check_field(f)
    mu = spec.space.mu
    value, residual = _prox_objective(spec, alpha, f)

    if x0 is None:
        x0 = np.zeros(spec.space.n)
    g = spec.project_feasible(x0)

    def newton(g, budget):
        # damped Newton with backtracking on the optimality residual
        free = spec.free_mask
        r = residual(g)
        rnorm = math.sqrt(float(np.sum(mu * r * r)))
        it = 0
        while rnorm > cfg.residual_tolerance and it < budget:
            delta = _newton_direction(spec, g, alpha, free, -(mu * r))
            if delta is None:
                delta = np.where(free, -r / alpha, 0.0)
            t = 1.0
            accepted = False
            while t > 1e-12:
                g_new = spec.project_feasible(g + t * delta)
                r_new = residual(g_new)
                rnorm_new = math.sqrt(float(np.sum(mu * r_new * r_new)))
                if rnorm_new < rnorm * (1.0 - cfg.armijo * t):
                    accepted = True
                    break
                t *= cfg.shrink
            if not accepted:
                break
            g, r, rnorm = g_new, r_new, rnorm_new
            it += 1
        return g, rnorm, it

    g, rnorm, it = newton(g, min(60, cfg.max_iterations))

    if rnorm > cfg.residual_tolerance:
        bounds = [(0.0, 0.0) if b else (None, None) for b in spec.boundary_mask]

        def fun(x):
            return value(x), mu * residual(x)

        res = optimize.minimize(
            fun,
            g,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={
                "maxiter": min(2000, cfg.max_iterations),
                "ftol": 1e-18,
                "gtol": 1e-14,
            },
        )
        it += int(getattr(res, "nit", 0))
        g, rnorm, it2 = newton(spec.project_feasible(res.x), cfg.max_iterations)
        it += it2

    report = SolveReport(
        iterations=it,
        residual=rnorm,
        converged=rnorm <= cfg.residual_tolerance,
    )
    if not report.converged:
        raise NonConvergenceError(
            f"prox did not reach residual {cfg.residual_tolerance} "
            f"(got {rnorm:.3e} after {it} iterations)",
            best=g,
            report=report,
        )
    return g, report


def resolvent_identity_check(
    spec: EnergySpec, alpha: float, beta: float, f, cfg: ProxConfig = ProxConfig()
):
    """Residual of G_alpha f = G_beta(f + (beta - alpha) G_alpha f)."""
    if not (alpha > 0 and beta > 0):
        raise ParameterError("alpha and beta must be > 0")
    f = spec.space.check_field(f)
    ga, _ = prox(spec, alpha, f, cfg)
    gb, _ = prox(spec, beta, f + (beta - alpha) * ga, cfg, x0=ga)
    residual = spec.space.norm(ga - gb)
    return residual <= 10 * cfg.residual_tolerance, residual


def markov_property_checks(
    spec: EnergySpec,
    alpha: float,
    sample_pairs,
    cfg: ProxConfig = ProxConfig(),
    tol: float = 1e-7,
):
    """Order preservation plus L-infinity and L1 contraction of alpha G_alpha.

    Each sample pair (f, g) is used twice: the ordered pair (f v g, f ^ g)
    drives the order-preservation check, the raw pair the two contraction
    bounds.  Returns a dict report with the worst margins.
    """
    worst = {"order": math.inf, "sup": math.inf, "l1": math.inf}
    mu = spec.space.mu
    for f, g in sample_pairs:
        f = spec.space.check_field(f)
        g = spec.space.check_field(g)
        hi, lo = np.maximum(f, g), np.minimum(f, g)
        ghi, _ = prox(spec, alpha, hi, cfg)
        glo, _ = prox(spec, alpha, lo, cfg, x0=ghi)
        worst["order"] = min(worst["order"], float(np.min(ghi - glo)))

        gf, _ = prox(spec, alpha, f, cfg)
        gg, _ = prox(spec, alpha, g, cfg, x0=gf)
        d = alpha * (gf - gg)
        worst["sup"] = min(
            worst["sup"],
            float(np.max(np.abs(f - g)) - np.max(np.abs(d))),
        )
        worst["l1"] = min(
            worst["l1"],
            float(np.sum(mu * np.abs(f - g)) - np.sum(mu * np.abs(d))),
        )
    passed = all(v >= -tol for v in worst.values())
    return {"pass": passed, "margins": worst}


def perturbed_prox(
    spec: EnergySpec,
    w,
    alpha: float,
    f,
    cfg: ProxConfig = ProxConfig(),
    second_weight=None,
) -> tuple[np.ndarray, SolveReport]:
    """Resolvent of the perturbed energy E + (1/2) int |.|^2 w dmu.

    Post-verifies the fixed-point relation
    G^w_a f = G_a(f - w G^w_a f), and when ``second_weight`` is given also
    G^w_a f = G^{w~}_a(f + (w~ - w) G^w_a f).  The residuals are attached to
    the report extras.
    """
    w = spec.space.check_field(w)
    f = spec.space.check_field(f)
    pspec = perturb(spec, w)
    g, report = prox(pspec, alpha, f, cfg)

    ref, _ = prox(spec, alpha, f - w * g, cfg, x0=g)
    report.extras["fixed_point_residual"] = spec.space.norm(g - ref)
    if second_weight is not None:
        w2 = spec.space.check_field(second_weight)
        pspec2 = perturb(spec, w2)
        ref2, _ = prox(pspec2, alpha, f + (w2 - w) * g, cfg, x0=g)
        report.extras["exchange_residual"] = spec.space.norm(g - ref2)
    return g, report


@dataclass
class GreenResult:
    finite: bool
    value: np.ndarray | None
    scale_at_exit: float | None
    alpha_trace: list[tuple[float, float]]


def green(
    spec: EnergySpec,
    f,
    cfg: ProxConfig = ProxConfig(),
    alpha0: float = 1.0,
    depth: int = 40,
    divergence_threshold: float = 1e8,
    stop_tolerance: float | None = None,
) -> GreenResult:
    """Green operator G f = lim_{alpha -> 0+} G_alpha f on nonnegative f.

    Walks the schedule alpha0 * 2^-k with warm starts.  Finite when two
    consecutive iterates agree in sup-norm, divergent when the sup-norm
    crosses the threshold; raises InconclusiveError if the schedule runs
    out first.
    """
    f = spec.space.check_field(f)
    if np.any(f < 0):
        raise ParameterError("green requires f >= 0")
    stop = cfg.residual_tolerance if stop_tolerance is None else stop_tolerance
    trace: list[tuple[float, float]] = []
    prev = None
    warm = None
    for k in range(depth + 1):
        alpha = alpha0 * 2.0**-k
        g, _ = prox(spec, alpha, f, cfg, x0=warm)
        sup = float(np.max(np.abs(g), initial=0.0))
        trace.append((alpha, sup))
        if sup > divergence_threshold:
            return GreenResult(False, None, sup, trace)
        if prev is not None:
            # G_alpha f grows as alpha shrinks (f >= 0), so the sup trace
            # must be nondecreasing along the schedule
            if sup < trace[-2][1] - 1e-6 * max(1.0, trace[-2][1]):
                raise InternalCheckError(
                    f"green trace decreased along the schedule (alpha={alpha:g})"
                )
            if float(np.max(np.abs(g - prev))) < stop:
                return GreenResult(True, g, None, trace)
        prev = g
        warm = g
    raise InconclusiveError(
        "green schedule exhausted without a verdict", trace=trace
    )


def _restrict(spec: EnergySpec, comp: np.ndarray) -> tuple[EnergySpec, np.ndarray]:
    """Sub-spec induced on a component (index array into spec.space)."""
    from .space import MeasureSpace

    pts = tuple(spec.space.points[i] for i in comp)
    keep = set(pts)
    sub = MeasureSpace(pts, spec.space.mu[comp])
    edges = tuple(e for e in spec.edges if e.u in keep and e.v in keep)
    kill = tuple(k for k in spec.kill if k.point in keep)
    boundary = frozenset(p for p in spec.boundary if p in keep)
    return EnergySpec(sub, edges, kill, boundary), comp


def green_on_nonneg(
    spec: EnergySpec,
    f,
    cfg: ProxConfig = ProxConfig(),
    alpha0: float = 1.0,
    depth: int = 40,
    divergence_threshold: float = 1e8,
) -> np.ndarray:
    """Coordinatewise extended Green value of f >= 0 (entries may be +inf).

    The energy decouples over connected components.  A component with no
    kill and no boundary carries the constants in its kernel: there G f is
    identically +inf unless f vanishes on the component.  On the remaining
    components the limit is computed numerically.
    """
    f = spec.space.check_field(f)
    if np.any(f < 0):
        raise ParameterError("green_on_nonneg requires f >= 0")
    out = np.zeros(spec.space.n)
    free_index = np.zeros(spec.space.n, dtype=bool)
    for c in spec.free_components:
        free_index[c] = True
    for comp in spec.components:
        if free_index[comp[0]]:
            if np.any(f[comp] > 0):
                out[comp] = math.inf
            else:
                out[comp] = 0.0
            continue
        sub, idx = _restrict(spec, comp)
        result = green(
            sub,
            f[idx],
            cfg,
            alpha0=alpha0,
            depth=depth,
            divergence_threshold=divergence_threshold,
        )
        if result.finite:
            out[idx] = result.value
        else:
            # threshold crossed on a component with kill or boundary;
            # treat as genuinely divergent coordinates
            out[idx] = math.inf
    return out
