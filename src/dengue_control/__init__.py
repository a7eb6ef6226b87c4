"""Host-vector dengue transmission model with constant adulticide control.

Library surface: model right-hand side and domain types, adaptive
integration, equilibria in closed form (each endemic component the
double nearest its exact rational value), and the minimum-control
threshold, with ``stability`` reading the model's linearization twice:
the next-generation-matrix reproduction number and the stability
classification.  The ``dengue-control`` command wraps it all for scenario
files.  A spectrum is read where it is computed, and exactly, with no
eigensolver: ``r0_spectral`` returns the correctly rounded spectral radius
of the next-generation matrix and ``classify`` the exact sign of the
Jacobian's spectral abscissa as a label (MARGINAL where it is exactly 0),
so neither a spectrum nor the next-generation matrix is public.

Every public name is listed once, under its module, in the table below and
imported on first use (PEP 562), so ``import dengue_control`` loads no
submodule.  numpy is not a dependency: it is needed only by the array
views of a trajectory (``Trajectory.times``, ``as_array()``).  Everything
else runs on Python floats and integers; ``integrator`` and ``svgplot`` use
numpy only once it is loaded, so every subcommand of the ``dengue-control``
command starts without it.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "equilibria": ("Equilibrium", "EquilibriumKind", "brdfe", "endemic_closed_form",
                   "jacobian", "metzler_matrix", "refined_endemic", "residual",
                   "trivial_equilibrium"),
    "errors": ("MosquitoCollapseError", "NoEndemicEquilibrium", "NumericalFailure",
               "ScenarioError"),
    "integrator": ("StepStats", "Trajectory", "integrate", "integrate_fixed_rk4"),
    "model": ("ControlLevel", "ModelParams", "State7", "basic_offspring_number", "component_scales",
              "in_omega", "mosquito_viability", "r0_closed_form", "r0_factors", "rhs"),
    "scenario": ("Scenario", "SolverConfig", "builtin_capeverde2009", "load_scenario",
                 "parse_scenario"),
    "stability": ("Classification", "StabilityReport", "classify", "r0_spectral"),
    "threshold": ("NoControlNeeded", "ProfilePoint", "ThresholdResult",
                  "collapse_control_bound", "min_control", "r0_profile"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
