"""Proximal resolvents, perturbed resolvents, and the Green operator.

Every solve in the package is one problem,

    minimize  E(g) + (alpha/2) ||g||^2_mu - <f, g>_mu  over  lo <= g <= hi

(boundary coordinates pinned at 0), and one private core solves it:
``_solve_shifted``.  The resolvent G_alpha f is its unboxed case with
alpha > 0; the obstacle problems of ``potential`` and the convex conjugate
of ``modular`` are cases with alpha = 0.  The core is a projected damped
Newton method with an active set: backtracking on the optimality residual
||grad E(g) + alpha g - f||_mu, zeroed where a bound holds the coordinate.
Each Newton direction solves the Hessian system on the free coordinates:
densely below a measured size; above it, on the sparse Hessian assembled
from a pattern cached on the spec, by Jacobi-preconditioned conjugate
gradients where that pattern is wide (a random sparse graph, on which a
sparse LU fills in) and by a sparse LU where it is narrow (paths, grids),
or where CG cannot finish: at an iterate with a capped curvature, or past
its iteration cap.  Where E is not twice
differentiable no step may cut the residual, and the same loop backtracks
on the objective instead.  For alpha > 0 the residual bounds the error by
residual / alpha; at alpha = 0 it bounds nothing where E is flat (near
constants, or at p > 2), so there the last Newton step must be below the
tolerance too.

The Green operator G f = lim_{alpha -> 0+} G_alpha f is +inf exactly where
f charges a component with no kill and no boundary; ``green`` decides that
from the spec, walks one alpha -> 0 schedule of core solves for the rest,
and returns the extended array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg, splu

from .energy import (_CURVATURE_CAP, EnergySpec, _curvatures, _differences, _gradient, _term_sum,
                     perturb)
from .errors import (
    InconclusiveError,
    InfeasibleError,
    InternalCheckError,
    NonConvergenceError,
    ParameterError,
)


@dataclass(frozen=True)
class ProxConfig:
    residual_tolerance: float = 1e-9
    max_iterations: int = 20_000

    def __post_init__(self):
        if not 0 < self.residual_tolerance < math.inf:
            raise ParameterError("residual_tolerance must be > 0 and finite")
        if self.max_iterations < 0:
            raise ParameterError("max_iterations must be >= 0")


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    extras: dict = field(default_factory=dict)


# backtracking: each rejected step is shrunk by _SHRINK, and a step of
# length t is accepted when it cuts the residual by the factor 1 - _ARMIJO t
# (or the objective by _ARMIJO times its slope, down to _EPS-sized steps)
_SHRINK = 0.5
_ARMIJO = 1e-4
_EPS = np.finfo(float).eps

# Free points from which a Newton direction is found by a sparse solve (LU
# or CG) instead of a dense one.  Measured on paths, grids and random sparse graphs with one
# BLAS thread: the dense solve is faster up to 100-300 points depending on
# the graph (see CHANGES.md).
_DENSE_MAX = 200

# CG on a wide pattern stops at this residual relative to the right-hand
# side; at 1e-10 its directions came as close as 9.4e-11 to the 1e-10
# relative error that a direction may have.  Past this many iterations it
# gives the block to the sparse LU: random sparse graphs of 800-3000 points
# take 25-110 at shifts 1 and 1e-14 (see ROADMAP.md, item 4).
_CG_RTOL = 1e-11
_CG_MAX_ITER = 500

# the linear solves of one ``_solve_shifted`` call, in its report's extras
_LINEAR_TALLY = ("dense", "splu", "cg", "cg_iterations", "cg_fallbacks")

MARKOV_TOL = 1e-7  # of the margins of ``markov_property_checks``


def energy_hessian(spec: EnergySpec, g, alpha: float = 0.0) -> np.ndarray:
    """Euclidean Hessian of E(g) + (alpha/2)||g - c||^2_mu (dense).

    The solvers assemble it sparsely in ``_newton_direction``; this dense
    form is the reference for tests.
    """
    n = spec.space.n
    H = np.zeros((n + 1, n + 1))
    u, v = spec._terms[:2]
    c = _curvatures(spec, g)
    np.add.at(H, (u, u), c)
    np.add.at(H, (v, v), c)
    np.add.at(H, (u, v), -c)
    np.add.at(H, (v, u), -c)
    if alpha:
        H[np.diag_indices(n)] += alpha * spec.space.mu
    return H[:n, :n]  # without the grounded point


def _newton_direction(spec: EnergySpec, g, alpha: float, free, rhs, tally=None):
    """Solve (H + alpha M) delta = rhs on the coordinates in ``free``.

    H is the energy Hessian at g and M = diag(mu); ``free`` lies inside
    ``spec.free_mask`` and delta is 0 off it.  Below ``_DENSE_MAX`` free
    points the block is solved densely.  Above, a wide Hessian pattern
    (``EnergySpec._hessian_is_wide``) is solved by Jacobi-preconditioned CG
    to ``_CG_RTOL``, unless a curvature sits at ``_CURVATURE_CAP`` (CG then
    stalls); a narrow pattern, a capped iterate and a CG solve that is not
    done after ``_CG_MAX_ITER`` iterations are factored by a sparse LU.
    Returns None when the block is singular.  ``tally`` (a dict keyed by
    ``_LINEAR_TALLY``) counts the solves.
    """
    if tally is None:
        tally = dict.fromkeys(_LINEAR_TALLY, 0)
    pattern = spec._hessian_pattern
    c = _curvatures(spec, g)
    data = pattern.fill(c, alpha * spec.space.mu)
    rows, cols = pattern.rows, pattern.cols
    inside = free[spec.free_mask]
    m = int(np.count_nonzero(inside))
    if m < len(inside):
        local = np.cumsum(inside) - 1
        keep = inside[rows] & inside[cols]
        data, rows, cols = data[keep], local[rows[keep]], local[cols[keep]]
    delta = np.zeros(spec.space.n)
    if m < _DENSE_MAX:
        tally["dense"] += 1
        H = np.zeros((m, m))
        H[rows, cols] = data
        try:
            delta[free] = np.linalg.solve(H, rhs[free])
        except np.linalg.LinAlgError:
            return None
        return delta
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=m))))
    A = sparse.csc_array((data, rows, indptr), shape=(m, m))
    capped = c.max(initial=0.0) >= _CURVATURE_CAP
    diagonal = A.diagonal()
    # CG stalls at a capped curvature, and a zero diagonal entry is a zero
    # row: a singular block, for the LU to report
    if spec._hessian_is_wide and not capped and diagonal.all():
        steps = itertools.count()
        x, info = cg(
            A, rhs[free], rtol=_CG_RTOL, maxiter=_CG_MAX_ITER,
            M=LinearOperator(A.shape, matvec=lambda r: r / diagonal, dtype=float),
            callback=lambda _: next(steps),
        )
        tally["cg_iterations"] += next(steps)
        if info == 0:
            tally["cg"] += 1
            delta[free] = x
            return delta
        tally["cg_fallbacks"] += 1
    tally["splu"] += 1
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return None
    delta[free] = lu.solve(rhs[free])
    return delta


def _solve_shifted(
    spec: EnergySpec, alpha: float, f, lo, hi, x0, cfg: ProxConfig
) -> tuple[np.ndarray, SolveReport]:
    """Minimize E(g) + (alpha/2)||g||^2_mu - <f, g>_mu over lo <= g <= hi.

    ``lo`` / ``hi`` are per-coordinate bounds (None: unbounded); boundary
    coordinates are pinned at 0, and ``x0`` (None: 0) is clipped into the
    box.  One projected Newton loop of at most ``cfg.max_iterations`` steps
    on the projected residual r = grad E + alpha g - f, zeroed where a bound
    holds the coordinate, over the free set: the non-boundary coordinates
    off their bounds or with a nonzero r.  Each step backtracks on the
    residual, or, if that fails above the tolerance, by the Armijo rule on
    the objective (Bertsekas, SIAM J. Control Optim. 20, 1982), along the
    Newton direction or else along -r; if none accepts a step the loop
    stops.  The report's ``converged`` compares the mu-norm of r with the
    tolerance; at alpha = 0 the loop also goes on until its last step is
    below the tolerance.  ``f`` and ``x0`` are checked fields: the core
    validates nothing.  The report's ``extras["linear"]`` counts the Newton
    directions solved densely, by sparse LU and by CG, the CG iterations and
    the CG solves that fell back to the LU.
    """
    n = spec.space.n
    mu = spec.space.mu
    lo = np.full(n, -np.inf) if lo is None else np.array(lo, dtype=float)
    hi = np.full(n, np.inf) if hi is None else np.array(hi, dtype=float)
    lo[spec.boundary_mask] = 0.0
    hi[spec.boundary_mask] = 0.0
    if np.any(lo > hi):
        raise InfeasibleError("constraint box is empty on the boundary")
    # with no bound off the boundary, projection and clipping change nothing
    free_mask = spec.free_mask
    boxed = bool(np.isfinite(lo[free_mask]).any() or np.isfinite(hi[free_mask]).any())
    # at alpha = 0 a tiny shift keeps flat directions of E solvable
    shift = alpha if alpha > 0 else 1e-14
    tol = cfg.residual_tolerance
    linear = dict.fromkeys(_LINEAR_TALLY, 0)

    def projected(g):
        # mu-representation of the objective gradient, zero on the boundary
        # and where a bound holds the coordinate (every iterate is clipped,
        # so a held coordinate sits exactly on its bound)
        r = _gradient(spec, g) + alpha * g - f
        r[spec.boundary_mask] = 0.0
        if boxed:
            r[((g <= lo) & (r > 0)) | ((g >= hi) & (r < 0))] = 0.0
        return r, math.sqrt(float(np.sum(mu * r * r)))

    def objective(g):
        shift_terms = float(np.sum(mu * g * (0.5 * alpha * g - f)))
        return _term_sum(spec, _differences(spec, g)) + shift_terms

    def descend(g, r, delta):
        # Armijo on the objective along delta, whose slope is <mu r, step>;
        # None once the step is rounding-sized against g
        value, floor = objective(g), _EPS * math.sqrt(float(np.sum(mu * g * g)))
        t = 1.0
        while True:
            g_new = g + t * delta
            if boxed:
                np.clip(g_new, lo, hi, out=g_new)
            d = g_new - g
            if math.sqrt(float(np.sum(mu * d * d))) <= floor:
                return None
            if objective(g_new) <= value + _ARMIJO * float(np.sum(mu * r * d)):
                return g_new
            t *= _SHRINK

    g = np.clip(np.zeros(n) if x0 is None else x0, lo, hi)
    r, rnorm = projected(g)
    it, step, last = 0, math.inf, None
    # for alpha > 0 the residual bounds the error by rnorm / alpha; at alpha
    # = 0 it bounds nothing where E is flat (near constants, or at p > 2), so
    # the last step, which estimates the error, must be below the tolerance
    while it < cfg.max_iterations and (rnorm > tol or (alpha <= 0 and step > tol)):
        free = free_mask
        if boxed:
            free = free & ((r != 0) | ((g > lo) & (g < hi)))
        delta = _newton_direction(spec, g, shift, free, -(mu * r), linear)
        if delta is None or not np.isfinite(delta).all():
            # a singular or overflowed block: the shift's own Newton step
            delta = np.where(free, -r / (alpha or 1.0), 0.0)
        t = 1.0
        while True:
            g_new = g + t * delta
            if boxed:
                np.clip(g_new, lo, hi, out=g_new)
            r_new, rnorm_new = projected(g_new)
            if rnorm_new < rnorm * (1.0 - _ARMIJO * t):
                break
            t *= _SHRINK
            # below the tolerance only full steps refine the iterate
            if t <= 1e-12 or rnorm <= tol:
                g_new = None
                break
        if g_new is None and rnorm > tol:
            # where E is not twice differentiable (p < 2, or zero differences
            # at p > 2) the objective still falls along delta.  Else a step
            # along -r frees points the curvature cap holds at a zero
            # difference; only from below where the last one started, so it
            # cannot cycle with the residual search
            g_new = descend(g, r, delta)
            if g_new is None and (last is None or objective(g) < objective(last)):
                g_new, last = descend(g, r, np.where(free, -r, 0.0)), g
            if g_new is not None:
                r_new, rnorm_new = projected(g_new)
        if g_new is None:
            break
        step = math.sqrt(float(np.sum(mu * (g_new - g) ** 2)))
        g, r, rnorm = g_new, r_new, rnorm_new
        it += 1

    return g, SolveReport(it, rnorm, rnorm <= tol, {"linear": linear})


def _require_converged(what: str, g, report: SolveReport, cfg: ProxConfig):
    if not report.converged:
        raise NonConvergenceError(
            f"{what} did not reach residual {cfg.residual_tolerance} "
            f"(got {report.residual:.3e} after {report.iterations} iterations)",
            best=g,
            report=report,
        )


def prox(
    spec: EnergySpec,
    alpha: float,
    f,
    cfg: ProxConfig = ProxConfig(),
    x0=None,
) -> tuple[np.ndarray, SolveReport]:
    """Resolvent G_alpha f with certified optimality residual."""
    if not 0 < alpha < math.inf:
        raise ParameterError("alpha must be > 0 and finite")
    f = spec.space.check_field(f)
    x0 = None if x0 is None else spec.space.check_field(x0)
    g, report = _solve_shifted(spec, alpha, f, None, None, x0, cfg)
    _require_converged("prox", g, report, cfg)
    return g, report


def resolvent_identity_check(
    spec: EnergySpec, alpha: float, beta: float, f, cfg: ProxConfig = ProxConfig()
):
    """Residual of G_alpha f = G_beta(f + (beta - alpha) G_alpha f)."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ParameterError("alpha and beta must be > 0 and finite")
    f = spec.space.check_field(f)
    ga, _ = prox(spec, alpha, f, cfg)
    gb, _ = prox(spec, beta, f + (beta - alpha) * ga, cfg, x0=ga)
    residual = spec.space.norm(ga - gb)
    return residual <= 10 * cfg.residual_tolerance, residual


def markov_property_checks(
    spec: EnergySpec, alpha: float, sample_pairs, cfg: ProxConfig = ProxConfig()
):
    """Order preservation plus L-infinity and L1 contraction of alpha G_alpha.

    Each sample pair (f, g) is used twice: the ordered pair (f v g, f ^ g)
    drives the order-preservation check, the raw pair the two contraction
    bounds.  Returns a dict report with the worst margins; it passes when
    none is below -``MARKOV_TOL``.
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
    passed = all(v >= -MARKOV_TOL for v in worst.values())
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
    value: np.ndarray
    alpha_trace: list[tuple[float, float]]


def green(
    spec: EnergySpec,
    f,
    cfg: ProxConfig = ProxConfig(),
    alpha0: float = 1.0,
    depth: int = 40,
) -> GreenResult:
    """Extended Green value G f = lim_{alpha -> 0+} G_alpha f of f >= 0.

    On a free component (no kill, no boundary) the constants lie in the
    kernel of E, so G f is +inf there if f charges it and 0 if not,
    decided from the spec.  Elsewhere E is coercive: with f set to 0 on the
    free components, the schedule alpha0 * 2^-k is walked with warm starts
    until two consecutive iterates agree in sup-norm; InconclusiveError if
    it runs out first.  ``finite``: no entry of ``value`` is +inf.
    """
    if not 0 < alpha0 < math.inf:
        raise ParameterError("alpha0 must be > 0 and finite")
    if depth < 0:
        raise ParameterError("depth must be >= 0")
    f = spec.space.check_field(f)
    if np.any(f < 0):
        raise ParameterError("green requires f >= 0")
    f = f.copy()
    divergent = np.zeros(spec.space.n, dtype=bool)
    for comp in spec.free_components:
        divergent[comp] = np.any(f[comp] > 0)
        f[comp] = 0.0
    trace: list[tuple[float, float]] = []
    prev = None
    for k in range(depth + 1):
        alpha = alpha0 * 2.0**-k
        g, report = _solve_shifted(spec, alpha, f, None, None, prev, cfg)
        _require_converged("green", g, report, cfg)
        sup = float(np.max(np.abs(g), initial=0.0))
        trace.append((alpha, sup))
        if prev is not None:
            # G_alpha f grows as alpha shrinks (f >= 0), so the sup trace
            # must be nondecreasing along the schedule
            if sup < trace[-2][1] - 1e-6 * max(1.0, trace[-2][1]):
                raise InternalCheckError(
                    f"green trace decreased along the schedule (alpha={alpha:g})"
                )
            if float(np.max(np.abs(g - prev))) < cfg.residual_tolerance:
                g[divergent] = math.inf
                return GreenResult(not divergent.any(), g, trace)
        prev = g
    raise InconclusiveError(
        "green schedule exhausted without a verdict", trace=trace
    )
