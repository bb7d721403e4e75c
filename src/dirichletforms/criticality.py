"""Hardy inequalities, Hardy-weight synthesis, and criticality classification.

The central quantity is K(w) = int_X w Gw dmu (convention 0 * inf = 0).  A
finite K(w) certifies the Hardy bound int |f| w dmu <= (1 + K(w)) ||f||_L,
and a strictly positive weight W with K(W) <= 1 is the witness that a spec
is subcritical.  ``classify`` takes W = g / (Gg v 1) with g = 1 / mu(X):
G is order preserving and W <= g, so GW <= Gg and
K(W) <= sum mu g Gg / (Gg v 1) <= ||g||_1 = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergySpec, energy
from .errors import InconclusiveError, InternalCheckError, NonConvergenceError, ParameterError
from .modular import _luxemburg, _scale_root
from .potential import capacity
from .resolvent import ProxConfig, green, perturb, prox
from .space import weighted_lp_norm

HARDY_TOL = 1e-7  # of the bound in ``hardy_upper_check``, relative to max(1, RHS)
K_TOL = 1e-6  # of the bounds on K in ``hardy_optimal_constant`` and ``hardy_from_green``
SERIES_TOL = 1e-7  # of [0, 1] for the terms of ``synthesize_hardy_weight``
INVARIANCE_TOL = 1e-7  # of the numeric evidence in ``invariant_set_check``


def _pairing(spec: EnergySpec, w, gw) -> float:
    """sum_x mu_x w_x gw_x with the convention 0 * inf = 0."""
    pos = w > 0
    if np.any(np.isinf(gw[pos])):
        return math.inf
    return float(np.sum(spec.space.mu[pos] * w[pos] * gw[pos]))


def K_of(spec: EnergySpec, w, cfg: ProxConfig = ProxConfig()) -> float:
    """K(w) = sum_x mu_x w_x (Gw)_x with the convention 0 * inf = 0."""
    w = spec.space.check_field(w)
    if np.any(w < 0):
        raise ParameterError("K_of requires w >= 0")
    return _pairing(spec, w, green(spec, w, cfg).value)


def hardy_upper_check(spec: EnergySpec, w, battery, cfg: ProxConfig = ProxConfig()):
    """int |f| w dmu <= (1 + K(w)) ||f||_L for every battery field, to
    ``HARDY_TOL`` relative to max(1, RHS)."""
    K = K_of(spec, w, cfg)
    if math.isinf(K):
        raise ParameterError("hardy_upper_check requires K(w) < inf")
    worst = math.inf
    for f in battery:
        f = spec.space.check_field(f)
        lhs = float(np.sum(spec.space.mu * np.abs(f) * w))
        rhs = (1.0 + K) * _luxemburg(spec, f, 1.0)
        margin = rhs - lhs
        worst = min(worst, margin if not math.isinf(rhs) else math.inf)
        if not math.isinf(rhs) and margin < -HARDY_TOL * max(1.0, rhs):
            return False, worst
    return True, worst


def _local_ascent_ratio(spec, w, f0, evals, rng):
    """Hill-climb the Hardy ratio int |f| w dmu / ||f||_L from f0."""
    def ratio(f):
        nl = _luxemburg(spec, f, 1.0)
        if not 0.0 < nl < math.inf:  # on the kernel or off the feasible set
            return -math.inf
        return float(np.sum(spec.space.mu * np.abs(f) * w)) / nl

    best_f = f0
    best = ratio(f0)
    sigma = 0.3
    for _ in range(evals):
        cand = best_f * (1.0 + sigma * rng.normal(size=spec.space.n))
        cand += 0.05 * sigma * rng.normal(size=spec.space.n)
        cand[spec.boundary_mask] = 0.0
        r = ratio(cand)
        if r > best:
            best, best_f = r, cand
        else:
            sigma *= 0.97
    return best, best_f


def _unit_K_scale(spec: EnergySpec, w, K: float, cfg: ProxConfig) -> float:
    """K-tilde = inf{C : K(w / C) <= 1}, from K = K(w) in (0, inf).

    log K(w / C) falls in log C with slope in [-p_lo/(p_lo-1), -p_hi/(p_hi-1)],
    so with one exponent p, K-tilde = K^{(p-1)/p}.
    """
    rates = sorted(p / (p - 1.0) for p in (spec.min_exponent, spec.max_exponent))
    return _scale_root(lambda c: K_of(spec, w / c, cfg), K, rates, 1e-9)


def hardy_optimal_constant(
    spec: EnergySpec,
    w,
    cfg: ProxConfig = ProxConfig(),
    search_budget: int = 200,
    seed: int = 0,
):
    """Lower bound mu_hat on the optimal Hardy constant, and K-tilde.

    mu_hat maximizes int |f| w dmu / ||f||_L over a battery seeded with Gw
    (exact maximizer in the bilinear case) plus random fields and local
    ascent.  K_tilde = inf{C : K(w/C) <= 1} from K(w).  Passing requires
    K(w / mu_hat) <= 1 + K_TOL and mu_hat <= 2 K_tilde + K_TOL.
    """
    w = spec.space.check_field(w)
    if np.any(w < 0):
        raise ParameterError("hardy_optimal_constant requires w >= 0")
    if not np.any(w > 0):
        return {"mu_hat": 0.0, "K_tilde": 0.0, "pass": True, "witness": None}
    gw = green(spec, w, cfg).value
    K = _pairing(spec, w, gw)
    if math.isinf(K):
        raise ParameterError("hardy_optimal_constant requires K(w) < inf")

    rng = np.random.default_rng(seed)
    battery = [spec.project_feasible(gw)]
    battery += [
        spec.project_feasible(rng.normal(size=spec.space.n)) for _ in range(10)
    ]
    battery += [spec.project_feasible(np.abs(b)) for b in battery[1:6]]

    mu_hat, witness = -math.inf, None
    for f in battery:
        r, f_best = _local_ascent_ratio(spec, w, f, search_budget // len(battery), rng)
        if r > mu_hat:
            mu_hat, witness = r, f_best
    if not math.isfinite(mu_hat) or mu_hat <= 0:
        return {"mu_hat": 0.0, "K_tilde": None, "pass": False, "witness": None}

    K_tilde = _unit_K_scale(spec, w, K, cfg)

    ok_a = K_of(spec, w / mu_hat, cfg) <= 1.0 + K_TOL
    ok_b = mu_hat <= 2.0 * K_tilde + K_TOL
    return {
        "mu_hat": mu_hat,
        "K_tilde": K_tilde,
        "pass": bool(ok_a and ok_b),
        "witness": witness,
        "K": K,
    }


def _green_weight(spec: EnergySpec, g, cfg: ProxConfig) -> tuple[np.ndarray, float]:
    """w = g / (Gg v 1) and K(w) from a checked g >= 0; K(w) <= ||g||_1 holds
    by the module docstring's proof, and a breach beyond ``K_TOL`` is a defect."""
    gg = green(spec, g, cfg).value
    if np.any(np.isinf(gg[g > 0])):
        raise ParameterError("hardy_from_green requires a finite Green value on {g > 0}")
    gg = np.where(np.isinf(gg), 0.0, gg)  # irrelevant where g = 0
    w = g / np.maximum(gg, 1.0)
    K = K_of(spec, w, cfg)
    bound = spec.space.l1_norm(g)
    if K > bound + K_TOL * max(1.0, bound):
        raise InternalCheckError(f"K(w)={K} exceeds ||g||_1={bound}")
    return w, K


def hardy_from_green(spec: EnergySpec, g, cfg: ProxConfig = ProxConfig()) -> np.ndarray:
    """Hardy weight w = g / (Gg v 1) from a function with finite Green value.

    Checks K(w) <= ||g||_1 to ``K_TOL`` relative to max(1, ||g||_1).
    """
    g = spec.space.check_field(g)
    if np.any(g < 0):
        raise ParameterError("hardy_from_green requires g >= 0")
    return _green_weight(spec, g, cfg)[0]


def synthesize_hardy_weight(
    spec: EnergySpec,
    seed_w,
    n_terms: int = 20,
    cfg: ProxConfig = ProxConfig(),
) -> np.ndarray:
    """Partial sum of the Hardy-weight series from a seed weight.

    W = sum_n 2^-n w_n (1 - G^{w_n} w_n) with w_n = seed / n.  Each
    perturbed Green value lies in [0, 1] (checked to ``SERIES_TOL``); on
    subcritical specs the partial sums are strictly positive pointwise once
    enough terms accumulate.
    """
    if n_terms < 1:
        raise ParameterError("n_terms must be >= 1")
    seed_w = spec.space.check_field(seed_w)
    if not np.all(seed_w > 0):
        raise ParameterError("seed weight must be > 0 pointwise")
    if spec.space.l1_norm(seed_w) > 1.0 + 1e-12:
        raise ParameterError("seed weight must have L1(mu) norm <= 1")
    W = np.zeros(spec.space.n)
    for n in range(1, n_terms + 1):
        w_n = seed_w / n
        pspec = perturb(spec, w_n)
        # pspec kills at every point, so its Green value is finite
        gwn = green(pspec, w_n, cfg).value
        if np.any(gwn < -SERIES_TOL) or np.any(gwn > 1.0 + SERIES_TOL):
            raise InternalCheckError("perturbed Green value left [0, 1]")
        gwn = np.clip(gwn, 0.0, 1.0)
        W = W + 2.0**-n * w_n * (1.0 - gwn)
        if n >= 2 and np.all(W > 0):
            break
    return W


class Verdict(enum.Enum):
    CRITICAL = "Critical"
    SUBCRITICAL = "Subcritical"
    REDUCIBLE = "Reducible"


@dataclass
class CriticalityReport:
    verdict: Verdict
    hardy_weight: np.ndarray | None = None
    invariant_set: frozenset[str] | None = None
    kernel_scales: list[float] | None = None
    witness_pending: bool = False
    diagnostics: dict = field(default_factory=dict)


def invariant_set_check(spec: EnergySpec, A, cfg: ProxConfig = ProxConfig(), seed: int = 0):
    """Decide invariance of a point set and cross-check numerically.

    Ground truth for the graph family: A is invariant iff its indicator is
    constant on each component of the graph off the Dirichlet boundary
    (``EnergySpec.inner_components``; edges into the boundary are inert).
    The numeric evidence, to ``INVARIANCE_TOL``, is the energy inequality
    E(1_A f) <= E(f) on 8 random fields drawn from ``seed`` and on 1_A, and
    the resolvent identity G_a(1_A f) = 1_A G_a(1_A f).
    """
    mask = spec.space.indicator(A)
    analytic = all(mask[c].all() or not mask[c].any() for c in spec.inner_components)

    rng = np.random.default_rng(seed)
    battery = [spec.project_feasible(rng.normal(size=spec.space.n)) for _ in range(8)]
    battery.append(spec.project_feasible(mask.astype(float)))

    worst_energy = math.inf
    for f in battery:
        lhs = energy(spec, f * mask)
        rhs = energy(spec, f)
        if math.isinf(rhs):
            continue
        worst_energy = min(worst_energy, rhs - lhs)
    energy_ok = worst_energy >= -INVARIANCE_TOL * max(1.0, abs(worst_energy))

    worst_res = 0.0
    for alpha in (0.7, 1.3):
        f = spec.project_feasible(rng.normal(size=spec.space.n)) * mask
        g, _ = prox(spec, alpha, f, cfg)
        worst_res = max(worst_res, float(np.max(np.abs(g - mask * g), initial=0.0)))
    resolvent_ok = worst_res <= max(INVARIANCE_TOL, 100 * cfg.residual_tolerance)

    numeric = energy_ok and resolvent_ok
    if analytic and not numeric:
        raise InternalCheckError(
            "analytic invariance contradicted numerically "
            f"(energy margin {worst_energy:.3e}, resolvent residual {worst_res:.3e})"
        )
    return {
        "invariant": analytic,
        "numeric": numeric,
        "energy_margin": worst_energy,
        "resolvent_residual": worst_res,
    }


def _nontrivial_invariant_set(spec: EnergySpec) -> frozenset[str] | None:
    """Smallest component of the non-boundary subgraph, if more than one.

    Ties go to the component with the smallest point index.
    """
    comps = spec.inner_components
    if len(comps) < 2:
        return None
    return frozenset(spec.space.points[i] for i in min(comps, key=len))


def classify(
    spec: EnergySpec,
    cfg: ProxConfig = ProxConfig(),
    seed: int = 0,
) -> CriticalityReport:
    """Critical / Subcritical / Reducible with a matching witness.

    Reducible: a nontrivial invariant set among the non-boundary points.
    Critical: those points form a free component (no kill, no boundary),
    whose indicator spans the kernel of E, reported with the scales
    lambda = 1, 2, 4, ..., 2^16 of lambda * 1_kernel.  Otherwise
    subcritical, witnessed by the Hardy weight W = g / (Gg v 1) with
    g = 1 / mu(X): W > 0, and G is order preserving with W <= g, so
    K(W) <= sum mu g Gg / (Gg v 1) <= ||g||_1 = 1.  The diagnostics keep
    K_witness = K(W); a Green schedule that runs out leaves the witness
    pending.
    """
    diagnostics: dict = {}
    A = _nontrivial_invariant_set(spec)
    if A is not None:
        check = invariant_set_check(spec, A, cfg=cfg, seed=seed)
        diagnostics["invariant_check"] = check
        return CriticalityReport(
            Verdict.REDUCIBLE, invariant_set=A, diagnostics=diagnostics
        )

    # the non-boundary points are connected here, so a free component, if
    # there is one, is all of them: the kernel is spanned by the free mask
    if spec.free_components:
        return CriticalityReport(Verdict.CRITICAL, kernel_scales=[2.0**k for k in range(17)])

    # subcritical: no free component, so Gg is finite for g = 1 / mu(X)
    g = np.ones(spec.space.n) / spec.space.total_mass()
    try:
        W, diagnostics["K_witness"] = _green_weight(spec, g, cfg)
    except InconclusiveError as exc:
        diagnostics["witness_error"] = str(exc)
        return CriticalityReport(
            Verdict.SUBCRITICAL, witness_pending=True, diagnostics=diagnostics
        )
    return CriticalityReport(Verdict.SUBCRITICAL, hardy_weight=W, diagnostics=diagnostics)


@dataclass
class HardyProfile:
    r_grid: list[float]
    alpha_of_r: list[float]
    estimation_method: str
    certificates: list[np.ndarray | None] = field(default_factory=list)


def _profile_battery(spec: EnergySpec, rng, budget: int):
    battery = [
        spec.project_feasible(rng.normal(size=spec.space.n))
        for _ in range(max(4, budget // 4))
    ]
    for _ in range(max(4, budget // 4)):
        mask = rng.random(spec.space.n) < rng.uniform(0.2, 0.8)
        battery.append(spec.project_feasible(mask.astype(float) * rng.uniform(0.5, 2.0)))
    # equilibrium potentials make good near-extremal plateaus
    ones = np.ones(spec.space.n)
    if spec.is_feasible(ones):
        pts = list(spec.space.points)
        for _ in range(2):
            k = rng.integers(1, max(2, len(pts)))
            O = set(rng.choice(pts, size=int(k), replace=False))
            try:
                res = capacity(spec, O, ones)
            except NonConvergenceError:  # the battery only ends early
                break
            battery.append(res.equilibrium)
    return battery


def _battery_profile(spec: EnergySpec, r_grid, search_budget, seed, terms):
    """alpha(r) = max over the battery of (numerator - r * penalty) / ||f||_L.

    ``terms(f)`` returns the numerator and the penalty scale of a field.
    The profile is made nonincreasing in r, and each value keeps the field
    that achieved it as its certificate.
    """
    r_grid = [float(r) for r in r_grid]
    if not all(math.isfinite(r) for r in r_grid):
        raise ParameterError("every r of the grid must be finite")
    battery = _profile_battery(spec, np.random.default_rng(seed), search_budget)
    alphas = [0.0] * len(r_grid)
    certs: list[np.ndarray | None] = [None] * len(r_grid)
    for f in battery:
        nl = _luxemburg(spec, f, 1.0)
        if not 0.0 < nl < math.inf:  # on the kernel or off the feasible set
            continue
        num, penalty = terms(f)
        for i, r in enumerate(r_grid):
            val = (num - r * penalty) / nl
            if val > alphas[i]:
                alphas[i] = val
                certs[i] = f
    running = math.inf
    for i, a in enumerate(alphas):
        running = a if i == 0 else min(running, a)
        alphas[i] = running
    return HardyProfile(r_grid, alphas, "battery+certificates", certs)


def weak_hardy_profile(
    spec: EnergySpec,
    w,
    p: float,
    r_grid,
    search_budget: int = 40,
    seed: int = 0,
) -> HardyProfile:
    """Lower-bound profile alpha(r) for the weak Hardy inequality

        ||f||_{Lp(w)} <= alpha(r) ||f||_L + r ||f||_inf.

    Requires a trivial seminorm kernel (subcritical, irreducible).  Each
    reported value is achieved by a stored certificate field.
    """
    if not 1 <= p < math.inf:
        raise ParameterError("p must be >= 1 and finite")
    w = spec.space.check_field(w)
    if not np.all(w > 0):
        raise ParameterError("weak_hardy_profile requires w > 0")
    if spec.free_components:
        raise ParameterError(
            "weak_hardy_profile requires a trivial seminorm kernel"
        )

    def terms(f):
        return weighted_lp_norm(spec.space, f, p, w), float(np.max(np.abs(f)))

    return _battery_profile(spec, r_grid, search_budget, seed, terms)


def weak_poincare_profile(
    spec: EnergySpec,
    w,
    p: float,
    r_grid,
    search_budget: int = 40,
    seed: int = 0,
) -> HardyProfile:
    """Lower-bound profile for the weak Poincare inequality

        ||f - fbar||_{Lp(w)} <= alpha(r) ||f||_L + r (max f - min f)

    with fbar the w-mean.  Requires the kernel to be exactly the constants
    (critical irreducible case).
    """
    if not 1 <= p < math.inf:
        raise ParameterError("p must be >= 1 and finite")
    w = spec.space.check_field(w)
    if not np.all(w > 0):
        raise ParameterError("weak_poincare_profile requires w > 0")
    fc = spec.free_components
    if len(fc) != 1 or len(fc[0]) != spec.space.n:
        raise ParameterError(
            "weak_poincare_profile requires kernel = span{1} (critical irreducible)"
        )
    w_mass = float(np.sum(spec.space.mu * w))

    def terms(f):
        fbar = float(np.sum(spec.space.mu * w * f)) / w_mass
        num = weighted_lp_norm(spec.space, f - fbar, p, w)
        return num, float(np.max(f) - np.min(f))

    return _battery_profile(spec, r_grid, search_budget, seed, terms)
