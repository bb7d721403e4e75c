"""Luxemburg seminorms, directional derivatives, convex conjugates.

The level-r Luxemburg seminorm of a convex energy E is the Minkowski
functional of the sublevel set {E <= r}:

    ||f||_{L,r} = inf{ lambda > 0 : E(f / lambda) <= r }.

On the graph family the kernel of the seminorm is known in closed form
(constants on components without kill or boundary), so kernel membership is
decided analytically and bisection is only used off the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .energy import EnergySpec, energy, energy_gradient, _phi
from .errors import InfeasibleError, InternalCheckError, ParameterError
from .resolvent import ProxConfig, prox


@dataclass(frozen=True)
class LuxemburgQuery:
    r: float = 1.0
    lambda_tolerance: float = 1e-9
    kernel_probe_cap: float = 2.0**16

    def __post_init__(self):
        if not self.r > 0 or not self.lambda_tolerance > 0:
            raise ParameterError("r and lambda_tolerance must be > 0")


def in_kernel(spec: EnergySpec, f, tol: float = 1e-12) -> bool:
    """Whether E(lambda f) = 0 for every lambda.

    For the graph family this means: f vanishes outside the free components
    and is constant on each of them.
    """
    f = spec.space.check_field(f)
    scale = max(1.0, float(np.max(np.abs(f), initial=0.0)))
    free = np.zeros(spec.space.n, dtype=bool)
    for comp in spec.free_components:
        free[comp] = True
        if np.ptp(f[comp]) > tol * scale:
            return False
    return bool(np.all(np.abs(f[~free]) <= tol * scale))


def luxemburg_norm(
    spec: EnergySpec, f, query: LuxemburgQuery = LuxemburgQuery()
) -> float:
    """||f||_{L,r}; 0 on the kernel, +inf off the feasible set."""
    f = spec.space.check_field(f)
    if not spec.is_feasible(f):
        return math.inf
    if in_kernel(spec, f):
        return 0.0
    r = query.r
    e_f = energy(spec, f)
    # bracket from the sublevel bound: E(f) >= r implies ||f|| <= E(f)/r
    lam_hi = 2.0 * max(1.0, e_f / r)
    lam_lo = 1e-12 * max(1.0, float(np.max(np.abs(f))))
    if energy(spec, f / lam_lo) <= r:
        return 0.0  # numerically indistinguishable from the kernel
    for _ in range(200):
        if lam_hi - lam_lo <= query.lambda_tolerance * lam_hi:
            break
        mid = 0.5 * (lam_lo + lam_hi)
        if energy(spec, f / mid) <= r:
            lam_hi = mid
        else:
            lam_lo = mid
    return lam_hi


def luxemburg_family_check(
    spec: EnergySpec, f, r: float, s: float, tol: float = 1e-7
):
    """Sandwich and level-set laws relating the seminorms at levels r >= s.

        ||f||_{L,r} <= ||f||_{L,s} <= (r/s) ||f||_{L,r}
        E(f) <= r  <=>  ||f||_{L,r} <= 1

    Returns (ok, details).
    """
    if not 0 < s <= r:
        raise ParameterError("need 0 < s <= r")
    n_r = luxemburg_norm(spec, f, LuxemburgQuery(r=r))
    n_s = luxemburg_norm(spec, f, LuxemburgQuery(r=s))
    details = {"norm_r": n_r, "norm_s": n_s}
    if math.isinf(n_r) or math.isinf(n_s):
        ok = math.isinf(n_r) and math.isinf(n_s)
        return ok, details
    scale = max(1.0, n_s)
    sandwich = n_r <= n_s + tol * scale and n_s <= (r / s) * n_r + tol * scale
    e_f = energy(spec, f)
    level_set = (e_f <= r) == (n_r <= 1 + tol)
    # near the boundary of the level set both sides are tolerance-limited
    if abs(e_f - r) <= tol * max(1.0, r) or abs(n_r - 1) <= tol:
        level_set = True
    details.update(energy=e_f, sandwich=sandwich, level_set=level_set)
    return sandwich and level_set, details


def delta2_constant(
    spec: EnergySpec, battery_size: int = 100, seed: int = 0, tol: float = 1e-9
) -> float:
    """Doubling constant K with E(2f) <= K E(f), verified on random fields."""
    K = 2.0**spec.max_exponent
    rng = np.random.default_rng(seed)
    for _ in range(battery_size):
        f = spec.project_feasible(rng.normal(size=spec.space.n))
        e1 = energy(spec, f)
        e2 = energy(spec, 2.0 * f)
        if e2 > K * e1 + tol * max(1.0, K * e1):
            raise InternalCheckError(
                f"doubling constant {K} violated: E(2f)={e2}, K*E(f)={K * e1}"
            )
    return K


def directional_derivative(spec: EnergySpec, f, g) -> float:
    """One-sided derivative d+E(f, g) at a feasible f.

    Analytic for the graph family; +inf when the direction leaves the
    feasible set (nonzero on the boundary).
    """
    f = spec.space.check_field(f)
    if not spec.is_feasible(f):
        raise InfeasibleError("directional_derivative requires feasible f")
    g = spec.space.check_field(g)
    if not spec.is_feasible(g):
        return math.inf
    eu, ev, ew, ep = spec._edge_arrays
    total = 0.0
    if len(eu):
        df = f[eu] - f[ev]
        dg = g[eu] - g[ev]
        total += float(np.sum(ew * _phi(df, ep) * dg))
    ki, kk, kq = spec._kill_arrays
    if len(ki):
        total += float(np.sum(kk * spec.space.mu[ki] * _phi(f[ki], kq) * g[ki]))
    return total


@dataclass
class ConjugateResult:
    value: float
    maximizer: np.ndarray | None
    diverged: bool


def convex_conjugate(
    spec: EnergySpec,
    phi,
    budget: int = 2000,
    x0=None,
    magnitude_threshold: float = 1e8,
    polish_tol: float = 1e-10,
) -> ConjugateResult:
    """E*(phi) = sup_x <phi, x>_mu - E(x).

    Divergence (+inf) happens exactly when phi pairs nontrivially with the
    kernel of E; for the graph family that is checked analytically, with
    the iterate-magnitude threshold kept as a safety net.
    """
    phi = spec.space.check_field(phi)
    mu = spec.space.mu
    scale = max(1.0, float(np.max(np.abs(phi), initial=0.0)))
    for k in spec.kernel_basis:
        if abs(spec.space.inner(phi, k)) > 1e-12 * scale * spec.space.total_mass():
            return ConjugateResult(math.inf, None, True)

    bounds = [(0.0, 0.0) if b else (None, None) for b in spec.boundary_mask]

    def fun(x):
        val = spec.space.inner(phi, x) - energy(spec, x)
        grad = mu * (phi - energy_gradient(spec, x))
        return -val, -grad

    x0 = np.zeros(spec.space.n) if x0 is None else spec.project_feasible(x0)
    res = optimize.minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": budget, "ftol": 1e-18, "gtol": 1e-14},
    )
    x = spec.project_feasible(res.x)
    if float(np.max(np.abs(x), initial=0.0)) > magnitude_threshold:
        return ConjugateResult(math.inf, None, True)

    # ascent polish in the mu-metric to tighten the maximizer
    def grad_mu(x):
        g = phi - energy_gradient(spec, x)
        g[spec.boundary_mask] = 0.0
        return g

    val = spec.space.inner(phi, x) - energy(spec, x)
    g = grad_mu(x)
    step = 1.0
    for _ in range(budget):
        gnorm2 = float(np.sum(mu * g * g))
        if math.sqrt(gnorm2) <= polish_tol:
            break
        t = step
        improved = False
        while t > 1e-18:
            x_new = spec.project_feasible(x + t * g)
            v_new = spec.space.inner(phi, x_new) - energy(spec, x_new)
            if v_new >= val + 1e-4 * t * gnorm2:
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        x, val = x_new, v_new
        step = min(t * 2.0, 1e6)
        g = grad_mu(x)
    return ConjugateResult(float(val), x, False)


def duality_recover(
    spec: EnergySpec,
    f,
    lambda_schedule,
    cfg: ProxConfig = ProxConfig(),
):
    """Recover E(f) through the conjugate along shrinking proximal scales.

    For each lambda: J = G_{1/lambda}(f / lambda), g = (f - J) / lambda, and
    the reported value is <g, f>_mu - E*(g), which approaches E(f) as
    lambda -> 0+.  Each record also carries the duality-gap residual
    |<g, J>_mu - (E(J) + E*(g))|.
    """
    f = spec.space.check_field(f)
    if not spec.is_feasible(f):
        raise InfeasibleError("duality_recover requires feasible f")
    records = []
    warm = None
    for lam in lambda_schedule:
        if not lam > 0:
            raise ParameterError("lambda schedule must be positive")
        alpha = 1.0 / lam
        J, report = prox(spec, alpha, f * alpha, cfg, x0=warm)
        warm = J
        g = (f - J) / lam
        conj = convex_conjugate(spec, g, x0=J)
        value = spec.space.inner(g, f) - conj.value
        gap = abs(spec.space.inner(g, J) - (energy(spec, J) + conj.value))
        records.append(
            {
                "lambda": lam,
                "value": value,
                "gap_residual": gap,
                "iterations": report.iterations,
            }
        )
    return records
