"""Exception types shared across the package.

The CLI maps these onto exit codes: scenario/config problems -> 2,
numerical failures -> 3, model-regime errors (collapsed mosquito
population, missing equilibria) -> 4.
"""

from __future__ import annotations


class ScenarioError(ValueError):
    """Malformed or inadmissible input from a scenario file, the built-in
    scenario, a CLI flag or the solver window; the CLI exits 2 on it."""


class NumericalFailure(RuntimeError):
    """A numerical procedure failed to converge or broke down.

    ``time`` is set by the integrator (day of breakdown).
    """

    def __init__(self, message: str, *, time: float | None = None):
        super().__init__(message)
        self.time = time


class MosquitoCollapseError(RuntimeError):
    """The vector population is not sustainable (viability margin <= 0), so
    there is no mosquito-bearing disease-free equilibrium to work with."""


class NoEndemicEquilibrium(RuntimeError):
    """The endemic-equilibrium hypotheses (viability margin > 0 and
    rho = R0^2*mu_m/(mu_m + c) > 1) do not hold."""
