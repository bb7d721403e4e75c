"""Numerics for convex graph energies: proximal resolvents, Green operators,
Luxemburg seminorms, criticality classification and variational capacity on
finite weighted graphs."""

from .space import MeasureSpace, lattice_ops, weighted_lp_norm
from .energy import (
    Edge,
    EnergySpec,
    KillTerm,
    NormalContraction,
    bd1_check,
    bd2_check,
    contraction_battery,
    energy,
    energy_gradient,
    fuzz_scalar_inequalities,
    perturb,
)
from .modular import (
    ConjugateResult,
    LuxemburgQuery,
    convex_conjugate,
    delta2_constant,
    directional_derivative,
    duality_recover,
    in_kernel,
    luxemburg_family_check,
    luxemburg_norm,
)
from .resolvent import (
    GreenResult,
    ProxConfig,
    SolveReport,
    green,
    markov_property_checks,
    perturbed_prox,
    prox,
    resolvent_identity_check,
)
from .criticality import (
    CriticalityReport,
    HardyProfile,
    K_of,
    Verdict,
    classify,
    hardy_from_green,
    hardy_optimal_constant,
    hardy_upper_check,
    invariant_set_check,
    synthesize_hardy_weight,
    weak_hardy_profile,
    weak_poincare_profile,
)
from .potential import (
    CapacityResult,
    capacity,
    capacity_zero_property,
    choquet_suite,
    excessive_envelope,
    exhaustion_capacity_profile,
    is_excessive,
)
from .errors import (
    DirichletFormError,
    InconclusiveError,
    InfeasibleError,
    InternalCheckError,
    NonConvergenceError,
    ParameterError,
    StructuralError,
)

__version__ = "0.1.0"
