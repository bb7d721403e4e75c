"""Excessive functions, equilibrium potentials, and Choquet capacities.

With the discrete topology every subset of a finite point set is open, so
the capacity of A relative to an excessive reference h reduces to the
obstacle problem

    cap_h(A) = min{ E(f) : f >= h on A },

whose minimizer, truncated at h, is the equilibrium potential e_A with
E(e_A) = cap_h(A).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .energy import EnergySpec, energy, energy_gradient
from .errors import InfeasibleError, InternalCheckError, ParameterError
from .modular import directional_derivative
from .resolvent import ProxConfig, SolveReport, _newton_direction, prox

CONSTRAINT_TOL = 1e-8
VALUE_TOL = 1e-6
DERIVATIVE_TOL = 1e-7


def is_excessive(
    spec: EnergySpec,
    h,
    cfg: ProxConfig = ProxConfig(),
    alphas=(0.5, 2.0),
    battery=None,
    seed: int = 0,
    tol: float = 1e-7,
):
    """Three-way excessivity test for h >= 0.

    (1) resolvent: G_alpha(alpha h) <= h for each alpha;
    (2) lattice: E(f ^ h) <= E(f) over the battery;
    (3) derivative (only when E(h) < inf): d+E(h, e_x) >= 0 for every
        nonnegative coordinate direction.
    Returns (passed, margins).
    """
    h = spec.space.check_field(h)
    if np.any(h < 0):
        raise ParameterError("is_excessive requires h >= 0")
    margins: dict = {}

    worst_res = math.inf
    for alpha in alphas:
        g, _ = prox(spec, alpha, alpha * h, cfg)
        worst_res = min(worst_res, float(np.min(h - g)))
    margins["resolvent"] = worst_res

    rng = np.random.default_rng(seed)
    if battery is None:
        scale = max(1.0, float(np.max(h, initial=0.0)))
        battery = [
            spec.project_feasible(scale * rng.normal(size=spec.space.n))
            for _ in range(10)
        ]
    worst_lattice = math.inf
    for f in battery:
        f = spec.project_feasible(f)
        rhs = energy(spec, f)
        if math.isinf(rhs):
            continue
        worst_lattice = min(worst_lattice, rhs - energy(spec, np.minimum(f, h)))
    margins["lattice"] = worst_lattice

    worst_dd = math.inf
    if energy(spec, h) < math.inf:
        for i in range(spec.space.n):
            if spec.boundary_mask[i]:
                continue
            e_i = np.zeros(spec.space.n)
            e_i[i] = 1.0
            worst_dd = min(worst_dd, directional_derivative(spec, h, e_i))
    margins["derivative"] = worst_dd

    passed = (
        worst_res >= -tol
        and worst_lattice >= -tol
        and worst_dd >= -DERIVATIVE_TOL
    )
    return passed, margins


def _constrained_minimize(
    spec: EnergySpec,
    lower: np.ndarray | None,
    upper: np.ndarray | None,
    cfg: ProxConfig,
    x0: np.ndarray,
    eps_stages=(1e-4, 1e-6, 0.0),
    max_polish: int = 20_000,
):
    """Minimize E over a box, with Tikhonov continuation for flat directions.

    ``lower`` / ``upper`` are per-coordinate bounds (-inf/+inf where free);
    boundary coordinates are always pinned to 0.
    """
    n = spec.space.n
    mu = spec.space.mu
    lo = np.full(n, -np.inf) if lower is None else lower.copy()
    hi = np.full(n, np.inf) if upper is None else upper.copy()
    lo[spec.boundary_mask] = 0.0
    hi[spec.boundary_mask] = 0.0
    if np.any(lo > hi):
        raise InfeasibleError("constraint box is empty on the boundary")
    bounds = list(zip(np.where(np.isinf(lo), None, lo), np.where(np.isinf(hi), None, hi)))

    def clip(x):
        return np.clip(x, lo, hi)

    x = clip(x0)
    total_iters = 0
    for eps in eps_stages:
        def fun(z, eps=eps):
            val = energy(spec, z) + 0.5 * eps * float(np.sum(mu * z**2))
            grad = mu * (energy_gradient(spec, z) + eps * z)
            return val, grad

        res = optimize.minimize(
            fun,
            x,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 4000, "ftol": 1e-18, "gtol": 1e-14},
        )
        x = clip(res.x)
        # scipy omits nit when every variable is pinned by equal bounds
        total_iters += int(getattr(res, "nit", 0))

    # active-set Newton polish at eps = 0
    bound_tol = 1e-12

    def projected_residual(z):
        r = energy_gradient(spec, z).copy()
        r[spec.boundary_mask] = 0.0
        at_lo = (z <= lo + bound_tol) & (r > 0)
        at_hi = (z >= hi - bound_tol) & (r < 0)
        r[at_lo] = 0.0
        r[at_hi] = 0.0
        return r

    x = clip(x)
    r = projected_residual(x)
    rnorm = math.sqrt(float(np.sum(mu * r * r)))
    it = 0
    while rnorm > cfg.residual_tolerance and it < max_polish:
        inactive = (np.abs(r) > 0) | (
            (x > lo + bound_tol) & (x < hi - bound_tol) & ~spec.boundary_mask
        )
        inactive &= ~spec.boundary_mask
        if not inactive.any():
            break
        grad = mu * energy_gradient(spec, x)
        delta = _newton_direction(spec, x, 1e-14, inactive, -grad)
        if delta is None:
            delta = np.where(inactive, -r, 0.0)
        t = 1.0
        accepted = False
        while t > 1e-14:
            x_new = clip(x + t * delta)
            r_new = projected_residual(x_new)
            rnorm_new = math.sqrt(float(np.sum(mu * r_new * r_new)))
            if rnorm_new < rnorm * (1.0 - cfg.armijo * t) or (
                energy(spec, x_new) < energy(spec, x) and rnorm_new < rnorm
            ):
                accepted = True
                break
            t *= cfg.shrink
        if not accepted:
            # projected-gradient fallback step
            t = 1e-2
            x_new = clip(x - t * r)
            r_new = projected_residual(x_new)
            rnorm_new = math.sqrt(float(np.sum(mu * r_new * r_new)))
            if rnorm_new >= rnorm:
                break
        x, r, rnorm = x_new, r_new, rnorm_new
        it += 1
    total_iters += it
    report = SolveReport(
        iterations=total_iters,
        residual=rnorm,
        converged=rnorm <= cfg.residual_tolerance,
    )
    return x, report


def excessive_envelope(
    spec: EnergySpec, g, A, cfg: ProxConfig = ProxConfig()
) -> tuple[np.ndarray, SolveReport]:
    """Energy minimizer over {f : f >= g on A}; an excessive function."""
    g = spec.space.check_field(g)
    A = frozenset(A)
    mask = np.zeros(spec.space.n, dtype=bool)
    for p in A:
        mask[spec.space.index(p)] = True
    if np.any(mask & spec.boundary_mask & (g > 0)):
        raise InfeasibleError(
            "obstacle is positive on a Dirichlet boundary point"
        )
    lower = np.full(spec.space.n, -np.inf)
    lower[mask] = g[mask]
    trial = spec.project_feasible(np.maximum(g, 0.0) * mask)
    if math.isinf(energy(spec, np.clip(trial, lower, np.inf))):
        raise InfeasibleError("no finite-energy field dominates the obstacle")
    x0 = np.maximum(trial, 0.0)
    return _constrained_minimize(spec, lower, None, cfg, x0)


@dataclass
class CapacityResult:
    value: float
    equilibrium: np.ndarray
    report: SolveReport
    h_ref: np.ndarray


def equilibrium_potential(
    spec: EnergySpec, O, h, cfg: ProxConfig = ProxConfig()
) -> CapacityResult:
    """Equilibrium potential e_O and its energy cap_h(O).

    e_O is the truncation at h of the obstacle-problem minimizer, satisfies
    0 <= e_O <= h, e_O = h on O, and the one-sided optimality test
    d+E(e_O, phi) >= 0 for feasible directions phi.
    """
    h = spec.space.check_field(h)
    if np.any(h < 0):
        raise ParameterError("reference h must be >= 0")
    O = frozenset(O)
    mask = np.zeros(spec.space.n, dtype=bool)
    for p in O:
        mask[spec.space.index(p)] = True
    if not O:
        zero = np.zeros(spec.space.n)
        return CapacityResult(0.0, zero, SolveReport(0, 0.0, True), h)

    envelope, report = excessive_envelope(spec, h, O, cfg)
    e = np.minimum(envelope, h)
    value = energy(spec, e)

    if np.any(e < -CONSTRAINT_TOL) or np.any(e > h + CONSTRAINT_TOL):
        raise InternalCheckError("equilibrium potential left [0, h]")
    if np.any(np.abs(e[mask] - h[mask]) > CONSTRAINT_TOL):
        raise InternalCheckError("equilibrium potential != h on the target set")
    for i in range(spec.space.n):
        if spec.boundary_mask[i]:
            continue
        e_i = np.zeros(spec.space.n)
        e_i[i] = 1.0
        if directional_derivative(spec, e, e_i) < -DERIVATIVE_TOL:
            raise InternalCheckError("one-sided optimality failed (ascent direction)")
        if not mask[i] and directional_derivative(spec, e, -e_i) < -DERIVATIVE_TOL:
            raise InternalCheckError("one-sided optimality failed off the target set")
    return CapacityResult(float(value), e, report, h)


def capacity(
    spec: EnergySpec, A, h, cfg: ProxConfig = ProxConfig(), cross_check: bool = True
) -> CapacityResult:
    """cap_h(A), cross-checked against the complementary formulation.

    The alternative formula minimizes E(h - g) over g vanishing on A, i.e.
    E(u) over {u = h on A}; both values must agree within tolerance.
    """
    result = equilibrium_potential(spec, A, h, cfg)
    if cross_check and A:
        h = spec.space.check_field(h)
        mask = np.zeros(spec.space.n, dtype=bool)
        for p in frozenset(A):
            mask[spec.space.index(p)] = True
        lower = np.full(spec.space.n, -np.inf)
        upper = np.full(spec.space.n, np.inf)
        lower[mask] = h[mask]
        upper[mask] = h[mask]
        x0 = np.where(mask, h, 0.0)
        if np.any(mask & spec.boundary_mask & (np.abs(h) > 0)):
            raise InfeasibleError("alternative formulation infeasible on boundary")
        alt, _ = _constrained_minimize(spec, lower, upper, cfg, x0)
        alt_value = energy(spec, alt)
        result.report.extras["alternative_value"] = float(alt_value)
        if abs(alt_value - result.value) > VALUE_TOL * max(1.0, result.value):
            raise InternalCheckError(
                f"capacity formulations disagree: {result.value} vs {alt_value}"
            )
    return result


def choquet_suite(
    spec: EnergySpec, h, family, cfg: ProxConfig = ProxConfig(), tol: float = 1e-6
):
    """Choquet axioms on a family of subsets: monotone, strongly
    subadditive, continuous from below.  Returns a report dict."""
    h = spec.space.check_field(h)
    family = [frozenset(A) for A in family]
    cache: dict[frozenset, float] = {}

    def cap(A: frozenset) -> float:
        if A not in cache:
            cache[A] = capacity(spec, A, h, cfg, cross_check=False).value
        return cache[A]

    worst_mono = math.inf
    worst_subadd = math.inf
    failures = []
    for A, B in itertools.combinations(family, 2):
        try:
            ca, cb = cap(A), cap(B)
            if A <= B:
                worst_mono = min(worst_mono, cb - ca)
            if B <= A:
                worst_mono = min(worst_mono, ca - cb)
            lhs = cap(A & B) + cap(A | B)
            worst_subadd = min(worst_subadd, ca + cb - lhs)
        except Exception as exc:  # solver failure on a pair is reported, not fatal
            failures.append((sorted(A), sorted(B), str(exc)))

    # continuity from below along an increasing chain through the family
    chain = sorted(family, key=len)
    incr = []
    for A in chain:
        if not incr or incr[-1] < A:
            incr.append(A)
    worst_chain = math.inf
    if len(incr) >= 2:
        caps = [cap(A) for A in incr]
        # the chain stabilizes at its last element, so sup cap must match
        worst_chain = -abs(cap(incr[-1]) - max(caps))

    passed = (
        worst_mono >= -tol
        and worst_subadd >= -tol
        and (worst_chain == math.inf or worst_chain >= -tol)
        and not failures
    )
    return {
        "pass": passed,
        "monotonicity_margin": worst_mono,
        "strong_subadditivity_margin": worst_subadd,
        "continuity_margin": worst_chain,
        "failures": failures,
    }


def capacity_zero_property(
    spec: EnergySpec, h, cfg: ProxConfig = ProxConfig(), tol: float = 1e-8
):
    """At finite scale only the empty set is exceptional: cap of the empty
    set is 0 and every singleton has strictly positive capacity."""
    h = spec.space.check_field(h)
    if not np.all(h > 0):
        raise ParameterError("capacity_zero_property requires h > 0")
    if spec.free_components:
        raise ParameterError("capacity_zero_property requires a subcritical spec")
    if capacity(spec, frozenset(), h, cfg).value != 0.0:
        return False, {}
    values = {}
    for p in spec.space.points:
        values[p] = capacity(spec, {p}, h, cfg, cross_check=False).value
    ok = all(v > tol for v in values.values())
    return ok, values


def exhaustion_capacity_profile(
    family, h=1.0, cfg: ProxConfig = ProxConfig()
) -> list[tuple[float, float]]:
    """Capacity of a fixed inner set along a growing family of specs.

    ``family`` is a sequence of (radius, spec, inner_set) triples; ``h`` is
    a constant reference broadcast on each spec.  Decay of the profile
    toward 0 is evidence of recurrence of the limit object.
    """
    out = []
    for radius, spec, A in family:
        h_field = np.full(spec.space.n, float(h))
        res = capacity(spec, A, h_field, cfg, cross_check=False)
        out.append((float(radius), res.value))
    return out
