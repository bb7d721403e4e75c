"""Luxemburg seminorms, directional derivatives, convex conjugates.

The level-r Luxemburg seminorm of a convex energy E is the Minkowski
functional of the sublevel set {E <= r}:

    ||f||_{L,r} = inf{ lambda > 0 : E(f / lambda) <= r }.

On the graph family the kernel of the seminorm is known exactly: the fields
whose term differences of positive weight are all 0 (constants on components
without kill or boundary).  Off it, E(f) and the exponent range alone bracket
the seminorm (Musielak, Orlicz Spaces and Modular Spaces, LNM 1034, 1983).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import INEQ_TOL, EnergySpec, _energy_differences, _term_sum, energy, energy_gradient
from .errors import InternalCheckError, ParameterError
from .resolvent import ProxConfig, _require_converged, _solve_shifted, prox

FAMILY_TOL = 1e-7  # of the laws in ``luxemburg_family_check``, relative to max(1, norm)
# ``delta2_constant`` tries this many random fields, drawn from this seed
DELTA2_FIELDS = 100
DELTA2_SEED = 0


@dataclass(frozen=True)
class LuxemburgQuery:
    r: float = 1.0

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ParameterError("r must be > 0 and finite")


def in_kernel(spec: EnergySpec, f) -> bool:
    """Whether E(lambda f) = 0 for every lambda: f is feasible and every term
    difference of positive weight is exactly 0, at any scale of f."""
    f = spec.space.check_field(f)
    return not f[spec.boundary_mask].any() and not _energy_differences(spec, f).any()


def _scale_root(modular, value: float, rates, rtol: float) -> float:
    """The t > 0 with modular(t) = 1, given value = modular(1) > 0 and a slope
    of log modular(t) in log t within [-rates[1], -rates[0]], so that log t is
    between log(value) / rates[1] and log(value) / rates[0]: value^{1/rate}
    with one rate, else a brentq root in log t to ``rtol``.
    """
    if rates[0] == rates[1]:
        return value ** (1.0 / rates[0])
    # imported here: loading it takes 0.2 s, and only mixed exponents need it
    from scipy import optimize

    a, b = sorted(math.log(value) / rate for rate in rates)

    def gap(u):
        return math.log(modular(math.exp(u)))

    try:
        return math.exp(optimize.brentq(gap, a, b, xtol=rtol))
    except ValueError:  # rounding in ``modular`` put the root just past an end
        return math.exp(a if gap(a) <= 0.0 else b)


def luxemburg_norm(
    spec: EnergySpec, f, query: LuxemburgQuery = LuxemburgQuery()
) -> float:
    """||f||_{L,r}; 0 on the kernel, +inf off the feasible set."""
    return _luxemburg(spec, spec.space.check_field(f), query.r)


def _luxemburg(spec: EnergySpec, f, r: float) -> float:
    """``luxemburg_norm`` at level r of a checked f."""
    if f[spec.boundary_mask].any():
        return math.inf
    # the term differences are taken from f once: E(f / lambda) scales them,
    # so an offset of f cannot cancel their digits.  ||f|| = s ||f / s||: the
    # largest difference of f / s is 1, so E cannot underflow where a term of
    # positive weight carries it; a weight-0 term carries none.  s = 0 is
    # the kernel
    d = _energy_differences(spec, f)
    s = float(np.max(np.abs(d), initial=0.0))
    if s == 0.0:
        return 0.0
    d = d / s
    return s * _scale_root(lambda t: _term_sum(spec, d / t) / r, _term_sum(spec, d) / r,
                           (spec.min_exponent, spec.max_exponent), 1e-15)


def luxemburg_family_check(spec: EnergySpec, f, r: float, s: float):
    """Sandwich and level-set laws relating the seminorms at levels r >= s.

        ||f||_{L,r} <= ||f||_{L,s} <= (r/s) ||f||_{L,r}
        E(f) <= r  <=>  ||f||_{L,r} <= 1

    each to ``FAMILY_TOL``.  Returns (ok, details).
    """
    if not 0 < s <= r:
        raise ParameterError("need 0 < s <= r")
    n_r = luxemburg_norm(spec, f, LuxemburgQuery(r=r))
    n_s = luxemburg_norm(spec, f, LuxemburgQuery(r=s))
    details = {"norm_r": n_r, "norm_s": n_s}
    if math.isinf(n_r) or math.isinf(n_s):
        ok = math.isinf(n_r) and math.isinf(n_s)
        return ok, details
    slack = FAMILY_TOL * max(1.0, n_s)
    sandwich = n_r <= n_s + slack and n_s <= (r / s) * n_r + slack
    e_f = energy(spec, f)
    level_set = (e_f <= r) == (n_r <= 1 + FAMILY_TOL)
    # near the boundary of the level set both sides are tolerance-limited
    if abs(e_f - r) <= FAMILY_TOL * max(1.0, r) or abs(n_r - 1) <= FAMILY_TOL:
        level_set = True
    details.update(energy=e_f, sandwich=sandwich, level_set=level_set)
    return sandwich and level_set, details


def delta2_constant(spec: EnergySpec) -> float:
    """Doubling constant K with E(2f) <= K E(f), verified to ``INEQ_TOL`` on
    ``DELTA2_FIELDS`` random fields."""
    K = 2.0**spec.max_exponent
    rng = np.random.default_rng(DELTA2_SEED)
    for _ in range(DELTA2_FIELDS):
        f = spec.project_feasible(rng.normal(size=spec.space.n))
        e1 = energy(spec, f)
        e2 = energy(spec, 2.0 * f)
        if e2 > K * e1 + INEQ_TOL * max(1.0, K * e1):
            raise InternalCheckError(
                f"doubling constant {K} violated: E(2f)={e2}, K*E(f)={K * e1}"
            )
    return K


def directional_derivative(spec: EnergySpec, f, g) -> float:
    """One-sided derivative d+E(f, g) = <E'(f), g>_mu at a feasible f.

    E is differentiable, so this is the pairing with ``energy_gradient``;
    +inf when the direction leaves the feasible set (nonzero on the
    boundary).
    """
    grad = energy_gradient(spec, f)  # raises on an infeasible f
    g = spec.space.check_field(g)
    if g[spec.boundary_mask].any():
        return math.inf
    return float(np.sum(spec.space.mu * grad * g))


@dataclass
class ConjugateResult:
    value: float
    maximizer: np.ndarray | None
    diverged: bool


# the maximizer is solved to 1e-10 in the mu-norm of phi - E'(x)
_CONJUGATE_CFG = ProxConfig(residual_tolerance=1e-10)


def convex_conjugate(spec: EnergySpec, phi, x0=None) -> ConjugateResult:
    """E*(phi) = sup_x <phi, x>_mu - E(x).

    Divergence (+inf) happens exactly when phi pairs nontrivially with the
    kernel of E, spanned by the indicators of the free components: when the
    mass of mu phi on one of them does not cancel, to 1e-12 of that mass's
    own size (rounding in a phi built to cancel, as in ``duality_recover``,
    stays below it).  Otherwise the maximizer solves E'(x) = phi: the
    shifted-energy core at alpha = 0, however large the maximizer is.
    """
    phi = spec.space.check_field(phi)
    x0 = None if x0 is None else spec.space.check_field(x0)
    for comp in spec.free_components:
        mass = spec.space.mu[comp] * phi[comp]
        pairing = abs(np.sum(mass))  # past any cancellation once it overflows
        if pairing == math.inf or pairing > 1e-12 * np.sum(np.abs(mass)):
            return ConjugateResult(math.inf, None, True)

    x, report = _solve_shifted(spec, 0.0, phi, None, None, x0, _CONJUGATE_CFG)
    _require_converged("conjugate maximizer", x, report, _CONJUGATE_CFG)
    value = spec.space.inner(phi, x) - energy(spec, x)
    return ConjugateResult(float(value), x, False)


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
    f = spec.require_feasible(f)
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
