"""Linearization and local stability classification of equilibria.

The linearization target is the reduced 7-dimensional system (recovered
humans eliminated); the eliminated direction contributes a known -mu_h
eigenvalue that is documented here rather than computed.  Classification
is by the spectral abscissa of the analytic Jacobian with a small margin
band, a fixed fraction of the Jacobian's spectral radius: eigenvalue
crossings cannot be resolved below the eigensolver's rounding, which
scales with the largest eigenvalue modulus, so abscissas inside the band
are reported as marginal instead of being forced to a side.

For the disease-free equilibrium the classification is verified
numerically from the eigenvalues themselves rather than inferred from the
reproduction-number threshold; the two agree (the Jacobian at a
disease-free state block-triangularizes into an always-stable
susceptible/vector block and an infected block whose stability flips
exactly where the reproduction number crosses one).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibria import Equilibrium, EquilibriumKind, _jacobian_array
from .errors import NumericalFailure
from .model import ControlLevel, ModelParams, State7, as_control, r0_closed_form

#: Classification margin as a fraction of the Jacobian's spectral radius.
MARGIN_FACTOR = 1e-9

#: Residual above which classify() warns that the input is not close
#: enough to a fixed point for its linearization to mean much.
RESIDUAL_WARN = 1e-6

_MAX_EIG_DIM = 16


class Classification(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: tuple[complex, ...]        # sorted by descending real part
    spectral_abscissa: float
    classification: Classification
    r0_at_point: float | None = None


def jacobian(p: ModelParams, c: ControlLevel | float, x: State7) -> np.ndarray:
    """Analytic 7x7 Jacobian of the right-hand side at x.

    Includes the quadratic logistic couplings, e.g. the derivative of the
    aquatic recruitment with respect to each adult class is
    mu_b*(1 - A_m/K).
    """
    if not x.is_finite():
        raise ValueError("state contains non-finite components")
    return _jacobian_array(p, as_control(c).c, x.as_array())


def eigenvalues(matrix: np.ndarray) -> tuple[complex, ...]:
    """Eigenvalues of a small dense real matrix, sorted by descending real
    part (ties by descending imaginary part) for deterministic output.

    Intended for matrices up to 16x16; raises NumericalFailure if the
    underlying QR iteration fails to converge.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > _MAX_EIG_DIM:
        raise ValueError(f"matrix dimension {a.shape[0]} exceeds {_MAX_EIG_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}") from exc
    ordered = sorted((complex(v) for v in vals), key=lambda z: (-z.real, -z.imag))
    return tuple(ordered)


def classify(p: ModelParams, c: ControlLevel | float, eq: Equilibrium) -> StabilityReport:
    """Local stability of an equilibrium from the Jacobian spectrum.

    For the mosquito-bearing disease-free equilibrium the report also
    carries the basic reproduction number at that point.  Raises
    NumericalFailure when the state or its Jacobian is not finite.
    """
    ctrl = as_control(c)
    if eq.residual_norm > RESIDUAL_WARN:
        warnings.warn(
            f"classifying a state with relative residual {eq.residual_norm:.3e}; "
            "it is not an exact fixed point of this flow",
            stacklevel=2)

    try:
        vals = eigenvalues(jacobian(p, ctrl, eq.state))
    except ValueError as exc:
        # the matrix is always 7x7, so only a non-finite state or entry gets here
        raise NumericalFailure(
            f"cannot classify the {eq.kind.value} state: {exc} "
            "(overflow at these parameters)") from exc
    abscissa = vals[0].real
    margin = MARGIN_FACTOR * max(abs(v) for v in vals)
    if abscissa < -margin:
        label = Classification.ASYMPTOTICALLY_STABLE
    elif abscissa > margin:
        label = Classification.UNSTABLE
    else:
        label = Classification.MARGINAL

    r0 = None
    if eq.kind is EquilibriumKind.BRDFE:
        r0 = r0_closed_form(p, ctrl)
    return StabilityReport(eigenvalues=vals, spectral_abscissa=float(abscissa),
                           classification=label, r0_at_point=r0)
