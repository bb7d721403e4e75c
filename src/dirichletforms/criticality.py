"""Hardy inequalities, Hardy-weight synthesis, and criticality classification.

The central quantity is K(w) = int_X w Gw dmu (convention 0 * inf = 0).  A
finite K(w) certifies the Hardy bound int |f| w dmu <= (1 + K(w)) ||f||_L,
and a strictly positive weight W with K(W) <= 1 is the witness that a spec
is subcritical.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergySpec, connected_components, energy
from .errors import InconclusiveError, InternalCheckError, ParameterError
from .modular import LuxemburgQuery, luxemburg_norm
from .resolvent import ProxConfig, green, green_on_nonneg, perturb, prox
from .space import weighted_lp_norm


def K_of(spec: EnergySpec, w, cfg: ProxConfig = ProxConfig(), **green_kw) -> float:
    """K(w) = sum_x mu_x w_x (Gw)_x with the convention 0 * inf = 0."""
    w = spec.space.check_field(w)
    if np.any(w < 0):
        raise ParameterError("K_of requires w >= 0")
    gw = green_on_nonneg(spec, w, cfg, **green_kw)
    pos = w > 0
    if np.any(np.isinf(gw[pos])):
        return math.inf
    return float(np.sum(spec.space.mu[pos] * w[pos] * gw[pos]))


def hardy_upper_check(
    spec: EnergySpec,
    w,
    battery,
    cfg: ProxConfig = ProxConfig(),
    tol: float = 1e-7,
):
    """int |f| w dmu <= (1 + K(w)) ||f||_L for every battery field."""
    K = K_of(spec, w, cfg)
    if math.isinf(K):
        raise ParameterError("hardy_upper_check requires K(w) < inf")
    worst = math.inf
    for f in battery:
        f = spec.space.check_field(f)
        lhs = float(np.sum(spec.space.mu * np.abs(f) * w))
        rhs = (1.0 + K) * luxemburg_norm(spec, f)
        margin = rhs - lhs
        worst = min(worst, margin if not math.isinf(rhs) else math.inf)
        if not math.isinf(rhs) and margin < -tol * max(1.0, rhs):
            return False, worst
    return True, worst


def _local_ascent_ratio(spec, w, f0, evals, rng, lux_tol=1e-10):
    """Hill-climb the Hardy ratio int |f| w dmu / ||f||_L from f0."""
    def ratio(f):
        nl = luxemburg_norm(spec, f, LuxemburgQuery(lambda_tolerance=1e-10))
        if nl <= lux_tol or math.isinf(nl):
            return -math.inf
        return float(np.sum(spec.space.mu * np.abs(f) * w)) / nl

    best_f = f0
    best = ratio(f0)
    sigma = 0.3
    for _ in range(evals):
        cand = spec.project_feasible(
            best_f * (1.0 + sigma * rng.normal(size=spec.space.n))
            + 0.05 * sigma * rng.normal(size=spec.space.n)
        )
        r = ratio(cand)
        if r > best:
            best, best_f = r, cand
        else:
            sigma *= 0.97
    return best, best_f


def hardy_optimal_constant(
    spec: EnergySpec,
    w,
    cfg: ProxConfig = ProxConfig(),
    search_budget: int = 200,
    seed: int = 0,
    tol: float = 1e-6,
):
    """Lower bound mu_hat on the optimal Hardy constant, and K-tilde.

    mu_hat maximizes int |f| w dmu / ||f||_L over a battery seeded with Gw
    (exact maximizer in the bilinear case) plus random fields and local
    ascent.  K_tilde = inf{C : K(w/C) <= 1} by bisection.  Passing requires
    K(w / mu_hat) <= 1 + tol and mu_hat <= 2 K_tilde + tol.
    """
    w = spec.space.check_field(w)
    if np.any(w < 0):
        raise ParameterError("hardy_optimal_constant requires w >= 0")
    if not np.any(w > 0):
        return {"mu_hat": 0.0, "K_tilde": 0.0, "pass": True, "witness": None}
    K = K_of(spec, w, cfg)
    if math.isinf(K):
        raise ParameterError("hardy_optimal_constant requires K(w) < inf")

    rng = np.random.default_rng(seed)
    gw = green_on_nonneg(spec, w, cfg)
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

    # K(w/C) is monotone decreasing in C; bisect for K_tilde
    c_hi = max(mu_hat, 1e-6)
    while K_of(spec, w / c_hi, cfg) > 1.0 and c_hi < 1e12:
        c_hi *= 2.0
    c_lo = c_hi
    while c_lo > 1e-12 and K_of(spec, w / c_lo, cfg) <= 1.0:
        c_lo /= 2.0
    for _ in range(60):
        if c_hi - c_lo <= 1e-9 * c_hi:
            break
        mid = 0.5 * (c_lo + c_hi)
        if K_of(spec, w / mid, cfg) <= 1.0:
            c_hi = mid
        else:
            c_lo = mid
    K_tilde = c_hi

    ok_a = K_of(spec, w / mu_hat, cfg) <= 1.0 + tol
    ok_b = mu_hat <= 2.0 * K_tilde + tol
    return {
        "mu_hat": mu_hat,
        "K_tilde": K_tilde,
        "pass": bool(ok_a and ok_b),
        "witness": witness,
        "K": K,
    }


def hardy_from_green(
    spec: EnergySpec, g, cfg: ProxConfig = ProxConfig(), tol: float = 1e-6
) -> np.ndarray:
    """Hardy weight w = g / (Gg v 1) from a function with finite Green value."""
    g = spec.space.check_field(g)
    if np.any(g < 0):
        raise ParameterError("hardy_from_green requires g >= 0")
    gg = green_on_nonneg(spec, g, cfg)
    if np.any(np.isinf(gg[g > 0])):
        raise ParameterError("hardy_from_green requires a finite Green value on {g > 0}")
    gg = np.where(np.isinf(gg), 0.0, gg)  # irrelevant where g = 0
    w = g / np.maximum(gg, 1.0)
    K = K_of(spec, w, cfg)
    bound = spec.space.l1_norm(g)
    if K > bound + tol * max(1.0, bound):
        raise InternalCheckError(f"K(w)={K} exceeds ||g||_1={bound}")
    return w


def synthesize_hardy_weight(
    spec: EnergySpec,
    seed_w,
    n_terms: int = 20,
    cfg: ProxConfig = ProxConfig(),
    tol: float = 1e-7,
    early_exit: bool = True,
) -> np.ndarray:
    """Partial sum of the Hardy-weight series from a seed weight.

    W = sum_n 2^-n w_n (1 - G^{w_n} w_n) with w_n = seed / n.  Each
    perturbed Green value lies in [0, 1]; on subcritical specs the partial
    sums are strictly positive pointwise once enough terms accumulate.
    """
    seed_w = spec.space.check_field(seed_w)
    if not np.all(seed_w > 0):
        raise ParameterError("seed weight must be > 0 pointwise")
    if spec.space.l1_norm(seed_w) > 1.0 + 1e-12:
        raise ParameterError("seed weight must have L1(mu) norm <= 1")
    W = np.zeros(spec.space.n)
    for n in range(1, n_terms + 1):
        w_n = seed_w / n
        pspec = perturb(spec, w_n)
        result = green(pspec, w_n, cfg)
        if not result.finite:
            raise InconclusiveError("perturbed Green value diverged unexpectedly")
        gwn = result.value
        if np.any(gwn < -tol) or np.any(gwn > 1.0 + tol):
            raise InternalCheckError("perturbed Green value left [0, 1]")
        gwn = np.clip(gwn, 0.0, 1.0)
        W = W + 2.0**-n * w_n * (1.0 - gwn)
        if early_exit and n >= 2 and np.all(W > 0):
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


def invariant_set_check(
    spec: EnergySpec,
    A,
    battery=None,
    cfg: ProxConfig = ProxConfig(),
    tol: float = 1e-7,
    seed: int = 0,
):
    """Decide invariance of a point set and cross-check numerically.

    Ground truth for the graph family: A is invariant iff no edge joins a
    non-boundary point of A to a non-boundary point outside A (edges into
    the Dirichlet boundary are inert because feasible fields vanish there).
    The numeric evidence is the energy inequality E(1_A f) <= E(f) on the
    battery and the resolvent identity G_a(1_A f) = 1_A G_a(1_A f).
    """
    A = frozenset(A)
    for p in A:
        spec.space.index(p)
    mask = np.zeros(spec.space.n, dtype=bool)
    for p in A:
        mask[spec.space.index(p)] = True

    analytic = True
    for e in spec.edges:
        if e.u in spec.boundary or e.v in spec.boundary:
            continue
        if mask[spec.space.index(e.u)] != mask[spec.space.index(e.v)]:
            analytic = False
            break

    rng = np.random.default_rng(seed)
    if battery is None:
        battery = [
            spec.project_feasible(rng.normal(size=spec.space.n)) for _ in range(8)
        ]
    battery = list(battery) + [spec.project_feasible(mask.astype(float))]

    worst_energy = math.inf
    for f in battery:
        f = spec.project_feasible(f)
        lhs = energy(spec, f * mask)
        rhs = energy(spec, f)
        if math.isinf(rhs):
            continue
        worst_energy = min(worst_energy, rhs - lhs)
    energy_ok = worst_energy >= -tol * max(1.0, abs(worst_energy))

    resolvent_ok = True
    worst_res = 0.0
    for alpha in (0.7, 1.3):
        f = spec.project_feasible(rng.normal(size=spec.space.n)) * mask
        g, _ = prox(spec, alpha, f, cfg)
        worst_res = max(worst_res, float(np.max(np.abs(g - mask * g), initial=0.0)))
    resolvent_ok = worst_res <= max(tol, 100 * cfg.residual_tolerance)

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
    free = spec.free_mask
    m = int(np.count_nonzero(free))
    if m < 2:
        return None
    eu, ev, _, _ = spec._edge_arrays
    inner = free[eu] & free[ev]
    local = np.cumsum(free) - 1
    comps = connected_components(m, local[eu[inner]], local[ev[inner]])
    if len(comps) <= 1:
        return None
    points = np.flatnonzero(free)
    smallest = min(comps, key=len)
    return frozenset(spec.space.points[i] for i in points[smallest])


def classify(
    spec: EnergySpec,
    cfg: ProxConfig = ProxConfig(),
    n_terms: int = 20,
    seed: int = 0,
) -> CriticalityReport:
    """Critical / Subcritical / Reducible with a matching witness.

    Reducible: a nontrivial invariant set among the non-boundary points.
    Critical: E(lambda * 1) = 0 for lambda = 1, 2, 4, ..., 2^16 (exact for
    the graph family: connected, no kill, no boundary).  Otherwise
    subcritical, witnessed by a strictly positive Hardy weight W with
    K(W) <= 1.
    """
    diagnostics: dict = {}
    A = _nontrivial_invariant_set(spec)
    if A is not None:
        check = invariant_set_check(spec, A, cfg=cfg, seed=seed)
        diagnostics["invariant_check"] = check
        return CriticalityReport(
            Verdict.REDUCIBLE, invariant_set=A, diagnostics=diagnostics
        )

    ones = np.ones(spec.space.n)
    scales = [2.0**k for k in range(17)]
    energies = [energy(spec, lam * ones) for lam in scales]
    diagnostics["kernel_energies"] = energies
    if all(e == 0.0 for e in energies):
        return CriticalityReport(
            Verdict.CRITICAL, kernel_scales=scales, diagnostics=diagnostics
        )

    # subcritical: build the series witness, rescale to K(W) <= 1
    seed_w = ones / spec.space.total_mass()
    try:
        W = synthesize_hardy_weight(spec, seed_w, n_terms=n_terms, cfg=cfg)
        if not np.all(W > 0):
            W = hardy_from_green(spec, seed_w, cfg)
        K = K_of(spec, W, cfg)
        diagnostics["K_raw"] = K
        if K > 1.0:
            c_lo, c_hi = 1.0, max(2.0, 2.0 * K)
            while K_of(spec, W / c_hi, cfg) > 1.0 and c_hi < 1e12:
                c_hi *= 2.0
            for _ in range(60):
                if c_hi - c_lo <= 1e-6 * c_hi:
                    break
                mid = 0.5 * (c_lo + c_hi)
                if K_of(spec, W / mid, cfg) <= 1.0:
                    c_hi = mid
                else:
                    c_lo = mid
            W = W / c_hi
            diagnostics["rescale"] = c_hi
        diagnostics["K_witness"] = K_of(spec, W, cfg)
        return CriticalityReport(
            Verdict.SUBCRITICAL, hardy_weight=W, diagnostics=diagnostics
        )
    except InconclusiveError as exc:
        diagnostics["witness_error"] = str(exc)
        return CriticalityReport(
            Verdict.SUBCRITICAL, witness_pending=True, diagnostics=diagnostics
        )


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
    try:
        from .potential import equilibrium_potential

        ones = np.ones(spec.space.n)
        if spec.is_feasible(ones):
            pts = list(spec.space.points)
            for _ in range(2):
                k = rng.integers(1, max(2, len(pts)))
                O = set(rng.choice(pts, size=int(k), replace=False))
                res = equilibrium_potential(spec, O, ones)
                battery.append(res.equilibrium)
    except Exception:
        pass
    return battery


def weak_hardy_profile(
    spec: EnergySpec,
    w,
    p: float,
    r_grid,
    search_budget: int = 40,
    seed: int = 0,
    lux_tol: float = 1e-10,
) -> HardyProfile:
    """Lower-bound profile alpha(r) for the weak Hardy inequality

        ||f||_{Lp(w)} <= alpha(r) ||f||_L + r ||f||_inf.

    Requires a trivial seminorm kernel (subcritical, irreducible).  Each
    reported value is achieved by a stored certificate field.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    w = spec.space.check_field(w)
    if not np.all(w > 0):
        raise ParameterError("weak_hardy_profile requires w > 0")
    if spec.free_components:
        raise ParameterError(
            "weak_hardy_profile requires a trivial seminorm kernel"
        )
    rng = np.random.default_rng(seed)
    battery = _profile_battery(spec, rng, search_budget)
    r_grid = [float(r) for r in r_grid]
    alphas = [0.0] * len(r_grid)
    certs: list[np.ndarray | None] = [None] * len(r_grid)
    for f in battery:
        nl = luxemburg_norm(spec, f)
        if nl <= lux_tol or math.isinf(nl):
            continue
        num = weighted_lp_norm(spec.space, f, p, w)
        sup = float(np.max(np.abs(f)))
        for i, r in enumerate(r_grid):
            val = (num - r * sup) / nl
            if val > alphas[i]:
                alphas[i] = val
                certs[i] = f
    # enforce monotone nonincreasing in r
    running = math.inf
    for i, a in enumerate(alphas):
        running = a if i == 0 else min(running, a)
        alphas[i] = running
    return HardyProfile(r_grid, alphas, "battery+certificates", certs)


def weak_poincare_profile(
    spec: EnergySpec,
    w,
    p: float,
    r_grid,
    search_budget: int = 40,
    seed: int = 0,
    lux_tol: float = 1e-10,
) -> HardyProfile:
    """Lower-bound profile for the weak Poincare inequality

        ||f - fbar||_{Lp(w)} <= alpha(r) ||f||_L + r (max f - min f)

    with fbar the w-mean.  Requires the kernel to be exactly the constants
    (critical irreducible case).
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    w = spec.space.check_field(w)
    if not np.all(w > 0):
        raise ParameterError("weak_poincare_profile requires w > 0")
    kb = spec.kernel_basis
    if len(kb) != 1 or not np.all(kb[0] == 1.0):
        raise ParameterError(
            "weak_poincare_profile requires kernel = span{1} (critical irreducible)"
        )
    rng = np.random.default_rng(seed)
    w_mass = float(np.sum(spec.space.mu * w))
    battery = _profile_battery(spec, rng, search_budget)
    r_grid = [float(r) for r in r_grid]
    alphas = [0.0] * len(r_grid)
    certs: list[np.ndarray | None] = [None] * len(r_grid)
    for f in battery:
        nl = luxemburg_norm(spec, f)
        if nl <= lux_tol or math.isinf(nl):
            continue
        fbar = float(np.sum(spec.space.mu * w * f)) / w_mass
        num = weighted_lp_norm(spec.space, f - fbar, p, w)
        osc = float(np.max(f) - np.min(f))
        for i, r in enumerate(r_grid):
            val = (num - r * osc) / nl
            if val > alphas[i]:
                alphas[i] = val
                certs[i] = f
    running = math.inf
    for i, a in enumerate(alphas):
        running = a if i == 0 else min(running, a)
        alphas[i] = running
    return HardyProfile(r_grid, alphas, "battery+certificates", certs)
