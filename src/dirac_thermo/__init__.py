"""Geometric simulation toolkit for simple thermodynamic systems.

A simple thermodynamic system is mechanics plus one entropy variable:
a Lagrangian L(q, v, S), a friction covector, and the nonlinear
constraint coupling entropy rate to dissipated power. The package
builds the induced constraint subspaces on four state arenas, moves
systems forward in time along three routes (velocity side, momentum
side, implicit full-arena), and verifies that all routes and all
formulation conditions agree.

Layout:

* duals        forward-mode differentiation (the only derivative engine)
* model        model record, arenas, the arena point type
* dirac        constraint residuals, induced subspaces, pairings
* legendre     fiber transforms, Hamiltonian side, energies
* dynamics     vector fields, integrators, diagnostics
* systems      shipped models: piston, membrane, reactions
* verify       cross-checks: routes, action stationarity, reduction
* cli          command-line front end
"""

from .dirac import (
    DEFAULT_MEMBERSHIP_TOL,
    DiracBasis,
    annihilator_residual,
    annihilator_row,
    canonical_one_form,
    condition_matrix,
    dirac_basis,
    dirac_membership,
    double_pairing,
    phenomenological_constraint_residual,
    presymplectic_pairing,
    variational_constraint_residual,
)
from .duals import (
    Dual,
    Jet,
    ScalarField,
    cos,
    exp,
    fd_check,
    grad,
    gradient,
    hessian,
    hessian_matrix,
    jet,
    log,
    second_directional,
    sin,
    sqrt,
    value,
)
from .dynamics import (
    DiagnosticsRecord,
    DiagnosticsReport,
    ExplicitField,
    Trajectory,
    hamilton_field_N,
    implicit_residual_P,
    integrate_explicit,
    integrate_implicit_P,
    lagrangian_field,
    monitor,
    solution_pair_M,
    solution_pair_N,
    solution_pair_N_hamiltonian,
    solution_pair_P,
    solution_pair_TstarQ,
    trajectory_rows,
    vector_field_N,
    vector_field_lagrangian,
)
from .errors import (
    ArenaError,
    BaseMismatchError,
    DegenerateLagrangianError,
    DimensionMismatchError,
    DiracThermoError,
    IntegrationError,
    ModelBuildError,
    NewtonError,
    TemperatureSignError,
)
from .legendre import (
    HamiltonianModel,
    HamiltonianPartials,
    build_hamiltonian_model,
    embed_jL,
    generalized_energy,
    hamiltonian,
    hamiltonian_partials,
    hamiltonian_S_derivative,
    inverse_partial_legendre,
    lift_M_to_P,
    momentum_map,
    partial_legendre,
    temperature_and_friction_N,
)
from .model import (
    ARENAS,
    ArenaPoint,
    DomainBox,
    PointN,
    SimpleThermoModel,
    TangentCovectorPair,
    arena_dim,
    arena_of_point,
    arena_slots,
    entropy_slope,
    external_value,
    friction_value,
    friction_velocity_jacobian,
    lagrangian_jet,
    lagrangian_partials,
    lagrangian_value,
    make_point,
    mixed_velocity_term,
    momentum_rate,
    point_from_vector,
    temperature,
    velocity_hessian,
)
from .systems import (
    GAS_CONSTANT,
    MembraneParams,
    PistonParams,
    ReactionParams,
    build_membrane,
    build_piston,
    build_reactions,
)
from .verify import (
    BatteryReport,
    CompareReport,
    FormulationMembership,
    MechanicsReductionReport,
    VariationField,
    action_variation_residual,
    admissible_variation,
    constraint_violating_variation,
    cross_formulation_compare,
    lagrangian_chart_initial,
    mechanics_reduction_check,
    formulation_equivalence_battery,
)

__version__ = "0.1.0"
