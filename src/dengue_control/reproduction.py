"""Basic reproduction number at the disease-free equilibrium.

Two independent routes are provided and tested against each other:

* ``r0_spectral`` builds the next-generation matrix F*V^-1 of the
  infected subsystem (E_h, I_h, E_m, I_m), as in van den Driessche and
  Watmough (Math. Biosci. 180, 2002), and takes its spectral radius
  numerically.  F - V is the infected block of the model's analytic
  Jacobian (the one ``stability.classify`` uses), J = M(X) + (dM/dX)X on
  the Metzler form: there the new-infection operator F is (dM/dX)X and the
  transition operator V is -M(X), so neither is typed a second time;
* ``r0_closed_form`` (defined in ``model``, which needs no numpy)
  evaluates the closed-form expression

      R0^2 = B^2 (K/N_h) beta_hm beta_mh eta_m nu_h M
             / (mu_b (eta_h+mu_h) mu_m (c+mu_m) (c+eta_m+mu_m) (mu_h+nu_h))

  with M the mosquito viability margin and K the carrying capacity.

Both are evaluated at the disease-free point S_h = N_h,
S_m = K*M/(mu_b*mu_m), read from ``model._paper_dfe``, the same point
``equilibria.brdfe`` returns; the closed form above is exactly the spectral
radius at that point.  R0 itself (not its square) is the canonical return
value; a free-state reproduction number is deliberately not exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibria import _jacobian_array
from .errors import NumericalFailure
from .model import ControlLevel, ModelParams, as_control, _paper_dfe
from .model import r0_closed_form  # noqa: F401  (the second route, re-exported here)
from .stability import eigenvalues

#: Rows and columns of the infected subsystem (E_h, I_h, E_m, I_m) in the state.
_INFECTED = np.ix_((1, 2, 5, 6), (1, 2, 5, 6))


@dataclass(frozen=True)
class NgmDecomposition:
    """New-infection Jacobian, transition Jacobian, and their NGM product,
    all in the infected-subsystem order (E_h, I_h, E_m, I_m).

    ``j_v`` is lower triangular with positive diagonal (hence invertible);
    ``j_f`` has exactly two nonzero entries (the two cross-species infection
    terms); ``ngm`` is j_f @ inv(j_v) and every entry of it is nonnegative.
    """

    j_f: np.ndarray
    j_v: np.ndarray
    ngm: np.ndarray


def build_ngm(p: ModelParams, c: ControlLevel | float = 0.0) -> NgmDecomposition:
    """Next-generation decomposition of the infected subsystem at the
    disease-free equilibrium: F - V is the infected block of the model's
    Jacobian there, and F keeps the block's two new-infection entries."""
    ctrl = as_control(c)
    block = _jacobian_array(p, ctrl.c, _paper_dfe(p, ctrl).as_array())[_INFECTED]
    j_f = np.zeros((4, 4), dtype=float)
    j_f[0, 3] = block[0, 3]   # mosquito -> human: E_h gains from I_m
    j_f[2, 1] = block[2, 1]   # human -> mosquito: E_m gains from I_h
    j_v = j_f - block
    return NgmDecomposition(j_f=j_f, j_v=j_v, ngm=j_f @ np.linalg.inv(j_v))


def r0_spectral(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Spectral radius of the next-generation matrix.

    The NGM has a two-cycle structure (humans infect mosquitoes infect
    humans), so its spectral radius is the square root of the product of
    the two transmission chains; it is computed here from the full 4x4
    matrix, not from that shortcut, so it can cross-check the closed form.
    Raises NumericalFailure when the matrix is not finite.
    """
    try:
        vals = eigenvalues(build_ngm(p, c).ngm)
    except ValueError as exc:
        # the matrix is always 4x4, so only a non-finite value gets here
        raise NumericalFailure(
            "cannot compute the spectral R0 at the brdfe state: "
            f"next-generation {exc} (overflow at these parameters)") from exc
    return max(abs(v) for v in vals)


def r0_factors(p: ModelParams, c: ControlLevel | float = 0.0) -> tuple[float, float]:
    """Two-factor split R0^2 = R_hm * R_mh at the disease-free equilibrium.

    R_hm (human -> mosquito) bundles the bite rate against susceptible
    mosquitoes per human, the viraemic period 1/(eta_h+mu_h), and the
    fraction of humans surviving incubation nu_h/(mu_h+nu_h).  R_mh
    (mosquito -> human) bundles the bite rate against susceptible humans,
    the controlled mosquito lifespan 1/(c+mu_m), and the fraction of
    mosquitoes surviving incubation eta_m/(c+eta_m+mu_m).
    """
    ctrl = as_control(c)
    dfe = _paper_dfe(p, ctrl)
    cc = ctrl.c
    r_hm = (p.B * dfe.S_m * p.beta_hm * p.nu_h
            / (p.N_h * (p.eta_h + p.mu_h) * (p.mu_h + p.nu_h)))
    r_mh = (p.B * dfe.S_h * p.beta_mh * p.eta_m
            / (p.N_h * (cc + p.mu_m) * (cc + p.eta_m + p.mu_m)))
    return r_hm, r_mh
