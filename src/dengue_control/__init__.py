"""Host-vector dengue transmission model with constant adulticide control.

Library surface: model right-hand side and domain types, adaptive
integration, equilibria with Newton refinement, next-generation-matrix
reproduction number, stability classification, and the minimum-control
threshold.  The ``dengue-control`` command wraps it all for scenario files.
"""

from .equilibria import (
    Equilibrium,
    EquilibriumKind,
    brdfe,
    endemic_closed_form,
    refine,
    refined_endemic,
    residual,
    trivial_equilibrium,
)
from .errors import (
    MosquitoCollapseError,
    NoEndemicEquilibrium,
    NumericalFailure,
    ScenarioError,
)
from .integrator import SolverConfig, StepStats, Trajectory, integrate, integrate_fixed_rk4
from .model import (
    ControlLevel,
    MetzlerForm,
    ModelParams,
    State7,
    State8,
    basic_offspring_number,
    component_scales,
    in_omega,
    metzler_decomposition,
    mosquito_viability,
    reconstruct_rh,
    rhs,
)
from .reproduction import NgmDecomposition, build_ngm, r0_closed_form, r0_factors, r0_spectral
from .scenario import Scenario, builtin_capeverde2009, load_scenario, parse_scenario
from .stability import Classification, StabilityReport, classify, eigenvalues, jacobian
from .threshold import (
    NoControlNeeded,
    ProfilePoint,
    ThresholdResult,
    collapse_control_bound,
    min_control,
    r0_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ControlLevel",
    "Equilibrium",
    "EquilibriumKind",
    "MetzlerForm",
    "ModelParams",
    "MosquitoCollapseError",
    "NgmDecomposition",
    "NoControlNeeded",
    "NoEndemicEquilibrium",
    "NumericalFailure",
    "ProfilePoint",
    "Scenario",
    "ScenarioError",
    "SolverConfig",
    "StabilityReport",
    "State7",
    "State8",
    "StepStats",
    "ThresholdResult",
    "Trajectory",
    "basic_offspring_number",
    "brdfe",
    "builtin_capeverde2009",
    "build_ngm",
    "classify",
    "collapse_control_bound",
    "component_scales",
    "eigenvalues",
    "endemic_closed_form",
    "in_omega",
    "integrate",
    "integrate_fixed_rk4",
    "jacobian",
    "load_scenario",
    "metzler_decomposition",
    "min_control",
    "mosquito_viability",
    "parse_scenario",
    "r0_closed_form",
    "r0_factors",
    "r0_profile",
    "r0_spectral",
    "reconstruct_rh",
    "refine",
    "refined_endemic",
    "residual",
    "rhs",
    "trivial_equilibrium",
]
