"""Local stability classification of equilibria from the Jacobian spectrum.

The linearization target is the reduced 7-dimensional system (recovered
humans eliminated); the eliminated direction contributes a known -mu_h
eigenvalue that is documented here rather than computed.  The analytic
Jacobian is ``equilibria.jacobian``, which takes the state as any sequence
of 7 floats (a ``State7`` included).  Classification is by the spectral
abscissa of that Jacobian with a small margin band, a fixed fraction of
the Jacobian's spectral radius: eigenvalue crossings cannot be resolved
below the eigensolver's rounding, which scales with the largest
eigenvalue modulus, so abscissas inside the band are reported as marginal
instead of being forced to a side.

For the disease-free equilibrium the classification is verified
numerically from the eigenvalues themselves rather than inferred from the
reproduction-number threshold; the two agree (the Jacobian at a
disease-free state block-triangularizes into an always-stable
susceptible/vector block and an infected block whose stability flips
exactly where the reproduction number crosses one).  ``sweep`` reads that
stability from R0 < 1 by this theorem; ``classify`` stays its numerical check.

A classification costs one analytic Jacobian and one ``np.linalg.eigvals``,
read for two numbers (the largest real part and the largest modulus) and
not kept: the spectrum is neither sorted nor returned.  ``r0_spectral``
reads its next-generation spectrum through the same private ``_spectrum``.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibria import Equilibrium, jacobian
from .errors import NumericalFailure
from .model import ControlLevel, ModelParams, _rate

#: Classification margin as a fraction of the Jacobian's spectral radius.
MARGIN_FACTOR = 1e-9

#: Residual above which classify() warns that the input is not close
#: enough to a fixed point for its linearization to mean much.
RESIDUAL_WARN = 1e-6


class Classification(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class StabilityReport:
    spectral_abscissa: float
    classification: Classification


def _spectrum(a: np.ndarray) -> list[complex]:
    """Eigenvalues of the small dense real matrix ``a``, in the order
    ``np.linalg.eigvals`` gives them.

    Raises ValueError if an entry is not finite and NumericalFailure if the
    QR iteration fails to converge.
    """
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    try:
        return np.linalg.eigvals(a).tolist()
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}") from exc


def classify(p: ModelParams, c: ControlLevel | float, eq: Equilibrium) -> StabilityReport:
    """Local stability of an equilibrium from the Jacobian spectrum.

    Raises NumericalFailure when the state or its Jacobian is not finite.
    """
    cc = _rate(c)
    if eq.residual_norm > RESIDUAL_WARN:
        warnings.warn(
            f"classifying a state with relative residual {eq.residual_norm:.3e}; "
            "it is not an exact fixed point of this flow",
            stacklevel=2)

    try:
        if not eq.state.is_finite():
            raise ValueError("state contains non-finite components")
        vals = _spectrum(jacobian(p, cc, eq.state))
    except ValueError as exc:
        # LinAlgError is mapped inside, so only a non-finite state or entry gets here
        raise NumericalFailure(
            f"cannot classify the {eq.kind.value} state: {exc} "
            "(overflow at these parameters)") from exc
    abscissa = max(v.real for v in vals)
    margin = MARGIN_FACTOR * max(map(abs, vals))
    if abscissa < -margin:
        label = Classification.ASYMPTOTICALLY_STABLE
    elif abscissa > margin:
        label = Classification.UNSTABLE
    else:
        label = Classification.MARGINAL
    return StabilityReport(spectral_abscissa=abscissa, classification=label)
