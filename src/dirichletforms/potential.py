"""Excessive functions, equilibrium potentials, and Choquet capacities.

With the discrete topology every subset of a finite point set is open, so
the capacity of A relative to an excessive reference h reduces to the
obstacle problem

    cap_h(A) = min{ E(f) : f >= h on A },

whose minimizer, truncated at h, is the equilibrium potential e_A with
E(e_A) = cap_h(A).  Obstacle problems are solved by the shifted-energy core
of ``resolvent`` at alpha = 0: projected damped Newton on the active set,
backtracking on the objective where no step cuts the residual.

E is differentiable, so the one-sided derivative along a coordinate is
d+E(f, +-1_x) = +-mu_x E'(f)(x): the first-order tests of excessivity and
of the equilibrium variational inequality read one ``energy_gradient``.
The same gradient brackets the capacity from one solve.  e_A lies in the
box B = {0 <= y <= h, y = h on A}, and E is convex, so E(e_A) less the
largest fall of <E'(e_A), y - e_A>_mu over B (the Frank-Wolfe gap) is at
most min_B E, which is cap_h(A) when h is excessive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergySpec, energy, energy_gradient
from .errors import InfeasibleError, InternalCheckError, NonConvergenceError, ParameterError
from .resolvent import (
    ProxConfig,
    SolveReport,
    _require_converged,
    _solve_shifted,
    prox,
)

CONSTRAINT_TOL = 1e-8
VALUE_TOL = 1e-6  # of the certified gap of ``capacity``, relative to max(1, value)
DERIVATIVE_TOL = 1e-7

# ``is_excessive``: the resolvent scales, the seed of the random fields of
# the lattice test, and the slack of those two margins
EXCESSIVE_ALPHAS = (0.5, 2.0)
EXCESSIVE_SEED = 0
EXCESSIVE_TOL = 1e-7
CHOQUET_TOL = 1e-6  # of the three margins of ``choquet_suite``


def is_excessive(spec: EnergySpec, h, cfg: ProxConfig = ProxConfig()):
    """Three-way excessivity test for h >= 0.

    (1) resolvent: G_alpha(alpha h) <= h for each alpha in ``EXCESSIVE_ALPHAS``;
    (2) lattice: E(f ^ h) <= E(f) over 10 random fields drawn from
        ``EXCESSIVE_SEED``;
    (3) derivative (only when E(h) < inf): d+E(h, 1_x) >= 0 at every point x
        off the boundary, read from E'(h).
    (1) and (2) allow ``EXCESSIVE_TOL``, (3) ``DERIVATIVE_TOL``.  Returns
    (passed, margins).
    """
    h = spec.space.check_field(h)
    if np.any(h < 0):
        raise ParameterError("is_excessive requires h >= 0")
    margins: dict = {}

    worst_res = math.inf
    for alpha in EXCESSIVE_ALPHAS:
        g, _ = prox(spec, alpha, alpha * h, cfg)
        worst_res = min(worst_res, float(np.min(h - g)))
    margins["resolvent"] = worst_res

    rng = np.random.default_rng(EXCESSIVE_SEED)
    scale = max(1.0, float(np.max(h, initial=0.0)))
    worst_lattice = math.inf
    for _ in range(10):
        f = spec.project_feasible(scale * rng.normal(size=spec.space.n))
        rhs = energy(spec, f)
        if math.isinf(rhs):
            continue
        worst_lattice = min(worst_lattice, rhs - energy(spec, np.minimum(f, h)))
    margins["lattice"] = worst_lattice

    worst_dd = math.inf
    if energy(spec, h) < math.inf:
        d = spec.space.mu * energy_gradient(spec, h)
        worst_dd = float(np.min(d[spec.free_mask], initial=math.inf))
    margins["derivative"] = worst_dd

    passed = (
        worst_res >= -EXCESSIVE_TOL
        and worst_lattice >= -EXCESSIVE_TOL
        and worst_dd >= -DERIVATIVE_TOL
    )
    return passed, margins


def excessive_envelope(
    spec: EnergySpec, g, A, cfg: ProxConfig = ProxConfig()
) -> tuple[np.ndarray, SolveReport]:
    """Energy minimizer over {f : f >= g on A}; an excessive function."""
    g = spec.space.check_field(g)
    mask = spec.space.indicator(A)
    if np.any(mask & spec.boundary_mask & (g > 0)):
        raise InfeasibleError(
            "obstacle is positive on a Dirichlet boundary point"
        )
    lower = np.full(spec.space.n, -np.inf)
    lower[mask] = g[mask]
    # start at the obstacle: a plateau of E such as the constant h = 1 on a
    # critical spec is then optimal at once, not approached along flat
    # directions
    x0 = spec.project_feasible(np.maximum(g, 0.0))
    return _solve_shifted(spec, 0.0, np.zeros(spec.space.n), lower, None, x0, cfg)


@dataclass
class CapacityResult:
    value: float
    equilibrium: np.ndarray
    report: SolveReport
    lower_bound: float


def capacity(spec: EnergySpec, A, h, cfg: ProxConfig = ProxConfig()) -> CapacityResult:
    """cap_h(A), its equilibrium potential e_A and a certified lower bound.

    e_A is the truncation at h of the obstacle-problem minimizer, satisfies
    0 <= e_A <= h, e_A = h on A, and the one-sided optimality test
    d+E(e_A, phi) >= 0 for feasible directions phi: checked on the
    coordinate directions, +1_x at every point off the boundary and -1_x
    off A as well, with one ``energy_gradient``.  The same gradient gives
    ``lower_bound``, the value less the linearization gap over the box
    B = {0 <= y <= h, y = h on A}; it must be within ``VALUE_TOL``.
    """
    h = spec.space.check_field(h)
    if np.any(h < 0):
        raise ParameterError("reference h must be >= 0")
    A = frozenset(A)
    mask = spec.space.indicator(A)
    if not A:
        zero = np.zeros(spec.space.n)
        return CapacityResult(0.0, zero, SolveReport(0, 0.0, True), 0.0)

    envelope, report = excessive_envelope(spec, h, A, cfg)
    _require_converged("obstacle solve", envelope, report, cfg)
    e = np.minimum(envelope, h)
    value = float(energy(spec, e))

    if np.any(e < -CONSTRAINT_TOL) or np.any(e > h + CONSTRAINT_TOL):
        raise InternalCheckError("equilibrium potential left [0, h]")
    if np.any(np.abs(e[mask] - h[mask]) > CONSTRAINT_TOL):
        raise InternalCheckError("equilibrium potential != h on the target set")
    # d+E(e, +-1_x) = +-d[x]
    d = spec.space.mu * energy_gradient(spec, e)
    free = spec.free_mask
    if np.any(d[free] < -DERIVATIVE_TOL):
        raise InternalCheckError("one-sided optimality failed (ascent direction)")
    off = free & ~mask
    if np.any(d[off] > DERIVATIVE_TOL):
        raise InternalCheckError("one-sided optimality failed off the target set")
    # E(y) >= E(e) + <d, y - e> on B, and e = y on A and on the boundary, so
    # the fall of the linear term, least at a corner y_x in {0, h_x}, bounds
    # E(e) - min_B E
    gap = float(np.sum(np.maximum(d[off] * e[off], d[off] * (e[off] - h[off]))))
    if gap > VALUE_TOL * max(1.0, value):
        raise InternalCheckError(f"capacity gap {gap} exceeds its tolerance at {value}")
    return CapacityResult(value, e, report, value - gap)


def choquet_suite(spec: EnergySpec, h, family, cfg: ProxConfig = ProxConfig()):
    """Choquet axioms on a family of subsets: monotone, strongly
    subadditive, continuous from below, each to ``CHOQUET_TOL``.  Returns a
    report dict."""
    h = spec.space.check_field(h)
    family = [frozenset(A) for A in family]
    cache: dict[frozenset, float] = {}

    def cap(A: frozenset) -> float:
        if A not in cache:
            cache[A] = capacity(spec, A, h, cfg).value
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
        except (NonConvergenceError, InfeasibleError) as exc:  # reported, not fatal
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
        worst_mono >= -CHOQUET_TOL
        and worst_subadd >= -CHOQUET_TOL
        and (worst_chain == math.inf or worst_chain >= -CHOQUET_TOL)
        and not failures
    )
    return {
        "pass": passed,
        "monotonicity_margin": worst_mono,
        "strong_subadditivity_margin": worst_subadd,
        "continuity_margin": worst_chain,
        "failures": failures,
    }


def capacity_zero_property(spec: EnergySpec, h, cfg: ProxConfig = ProxConfig()):
    """At finite scale only the empty set is exceptional: every singleton has
    capacity > 0, at any scale of E, and cap of the empty set is 0 by
    construction."""
    h = spec.space.check_field(h)
    if not np.all(h > 0):
        raise ParameterError("capacity_zero_property requires h > 0")
    if spec.free_components:
        raise ParameterError("capacity_zero_property requires a subcritical spec")
    values = {}
    for p in spec.space.points:
        values[p] = capacity(spec, {p}, h, cfg).value
    ok = all(v > 0.0 for v in values.values())
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
        res = capacity(spec, A, h_field, cfg)
        out.append((float(radius), res.value))
    return out
