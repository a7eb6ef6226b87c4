"""Next-generation-matrix route to the basic reproduction number.

Two independent routes are tested against each other:

* ``r0_spectral`` builds the next-generation matrix F*V^-1 of the
  infected subsystem (E_h, I_h, E_m, I_m), as in van den Driessche and
  Watmough (Math. Biosci. 180, 2002), in place, and returns only its
  spectral radius, taken numerically.  F - V is the infected block of the
  model's analytic Jacobian ``equilibria.jacobian`` (the one
  ``stability.classify`` uses), J = M(X) + (dM/dX)X on the Metzler form:
  there the new-infection operator F is (dM/dX)X and the transition
  operator V is -M(X), so neither is typed a second time;
* ``r0_closed_form`` (defined in ``model``, which needs no numpy, beside
  ``r0_factors``, its two-factor split R0^2 = R_hm*R_mh) evaluates the
  closed-form expression

      R0^2 = B^2 (K/N_h) beta_hm beta_mh eta_m nu_h M
             / (mu_b (eta_h+mu_h) mu_m (c+mu_m) (c+eta_m+mu_m) (mu_h+nu_h))

  with M the mosquito viability margin and K the carrying capacity.

Both are evaluated at the disease-free point S_h = N_h,
S_m = K*M/(mu_b*mu_m), read from ``model._paper_dfe``, the same point
``equilibria.brdfe`` returns; the Jacobian takes it as it takes any
sequence of 7 floats (a ``State7`` included).  The closed form above is
exactly the spectral radius at that point.  R0 itself (not its square) is
the canonical return value; a free-state reproduction number is
deliberately not exposed.
"""

from __future__ import annotations

import numpy as np

from .equilibria import jacobian
from .errors import NumericalFailure
from .model import ControlLevel, ModelParams, _paper_dfe, _rate
from .stability import _spectrum

#: Rows and columns of the infected subsystem (E_h, I_h, E_m, I_m) in the state.
_INFECTED = np.ix_((1, 2, 5, 6), (1, 2, 5, 6))


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
    try:
        block = jacobian(p, cc, _paper_dfe(p, cc))[_INFECTED]
        j_f = np.zeros((4, 4), dtype=float)
        j_f[0, 3] = block[0, 3]   # mosquito -> human: E_h gains from I_m
        j_f[2, 1] = block[2, 1]   # human -> mosquito: E_m gains from I_h
        vals = _spectrum(j_f @ np.linalg.inv(j_f - block))
    except ValueError as exc:
        # V is triangular with a positive diagonal: only a non-finite entry gets here
        raise NumericalFailure(
            "cannot compute the spectral R0 at the brdfe state: "
            f"next-generation {exc} (overflow at these parameters)") from exc
    return max(abs(v) for v in vals)
