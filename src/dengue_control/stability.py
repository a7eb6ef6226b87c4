"""Readings of the model's linearization: local stability of an equilibrium
and the next-generation route to the basic reproduction number.

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

``r0_spectral`` builds the next-generation matrix F*V^-1 of the infected
subsystem (E_h, I_h, E_m, I_m), as in van den Driessche and Watmough
(Math. Biosci. 180, 2002), in place, and returns only its spectral radius.
F - V is the infected block of the same Jacobian at the disease-free point
S_h = N_h, S_m = K*M/(mu_b*mu_m) (``model._paper_dfe``, the point
``equilibria.brdfe`` returns), J = M(X) + (dM/dX)X on the Metzler form:
there the new-infection operator F is (dM/dX)X and the transition operator
V is -M(X), so neither is typed a second time.  Its independent
cross-check is ``model.r0_closed_form``,

    R0^2 = B^2 (K/N_h) beta_hm beta_mh eta_m nu_h M
           / (mu_b (eta_h+mu_h) mu_m (c+mu_m) (c+eta_m+mu_m) (mu_h+nu_h))

with M the mosquito viability margin and K the carrying capacity, exactly
the spectral radius at that point.  R0 itself (not its square) is the
canonical return value; a free-state reproduction number is deliberately
not exposed.

Each reading costs one analytic Jacobian and one ``np.linalg.eigvals``,
read for one or two numbers and not kept: the spectrum is neither sorted
nor returned.  ``_spectrum`` is the one place where a non-finite matrix or
a failed eigenvalue iteration becomes a NumericalFailure.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibria import Equilibrium, jacobian
from .errors import NumericalFailure
from .model import ControlLevel, ModelParams, _paper_dfe, _rate

#: Classification margin as a fraction of the Jacobian's spectral radius.
MARGIN_FACTOR = 1e-9

#: Residual above which classify() warns that the input is not close
#: enough to a fixed point for its linearization to mean much.
RESIDUAL_WARN = 1e-6

#: Rows and columns of the infected subsystem (E_h, I_h, E_m, I_m) in the state.
_INFECTED = np.ix_((1, 2, 5, 6), (1, 2, 5, 6))


class Classification(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class StabilityReport:
    spectral_abscissa: float
    classification: Classification


def _spectrum(a: np.ndarray, what: str) -> list[complex]:
    """Eigenvalues of the small dense real matrix ``a``, in the order
    ``np.linalg.eigvals`` gives them.

    Raises NumericalFailure if an entry is not finite (the message opens
    with ``what``, naming the matrix) or if the QR iteration fails to
    converge.
    """
    if not np.isfinite(a).all():
        raise NumericalFailure(
            f"{what} contains non-finite entries (overflow at these parameters)")
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

    what = f"cannot classify the {eq.kind.value} state"
    if not eq.state.is_finite():
        raise NumericalFailure(
            f"{what}: state contains non-finite components (overflow at these parameters)")
    vals = _spectrum(jacobian(p, cc, eq.state), f"{what}: matrix")
    abscissa = max(v.real for v in vals)
    margin = MARGIN_FACTOR * max(map(abs, vals))
    if abscissa < -margin:
        label = Classification.ASYMPTOTICALLY_STABLE
    elif abscissa > margin:
        label = Classification.UNSTABLE
    else:
        label = Classification.MARGINAL
    return StabilityReport(spectral_abscissa=abscissa, classification=label)


def r0_spectral(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Spectral radius of the next-generation matrix F*V^-1.

    F - V is the infected block of the model's Jacobian at the disease-free
    point; F keeps the block's two new-infection entries, so V is lower
    triangular with a positive diagonal.  The NGM has a two-cycle structure
    (humans infect mosquitoes infect humans), so its spectral radius is the
    square root of the product of the two transmission chains; it is
    computed here from the full 4x4 matrix, not from that shortcut, so it
    can cross-check the closed form.  Raises NumericalFailure when the
    matrix is not finite.
    """
    cc = _rate(c)
    block = jacobian(p, cc, _paper_dfe(p, cc))[_INFECTED]
    j_f = np.zeros((4, 4), dtype=float)
    j_f[0, 3] = block[0, 3]   # mosquito -> human: E_h gains from I_m
    j_f[2, 1] = block[2, 1]   # human -> mosquito: E_m gains from I_h
    vals = _spectrum(j_f @ np.linalg.inv(j_f - block),
                     "cannot compute the spectral R0 at the brdfe state: "
                     "next-generation matrix")
    return max(abs(v) for v in vals)
