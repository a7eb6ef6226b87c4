"""Fixed points of the host-vector system, in closed form.

Three equilibria matter:

* the trivial (mosquito-free) equilibrium (N_h, 0, ..., 0), a fixed point
  for every control level;
* the mosquito-bearing disease-free equilibrium, which exists when the
  vector viability margin is positive;
* an endemic interior equilibrium, which exists when additionally
  rho = R0^2*mu_m/(mu_m + c) exceeds one.

Both nontrivial equilibria have closed forms.  The disease-free point has
one home, ``model._paper_dfe``, which ``brdfe`` here and the
next-generation matrix of ``stability.r0_spectral`` both read.  It uses the
zero-control adult balance (eta_A*A*/mu_m), so for c > 0 it is not an
exact fixed point of the controlled flow; it is nevertheless the declared
evaluation point of the reproduction-number machinery.  The endemic closed
form is built from R0 and the right-hand side's own steady-state balances,
is rational in the rates and c, and is a root for every control level;
``endemic_closed_form`` evaluates it exactly, in integers, and rounds each
component once.  Nothing is silently "fixed": every constructed
equilibrium records its honest relative residual.

A practical consequence of the zero-control balance: the paper's
existence window "R0 > 1" for the endemic equilibrium is wider than the
true one.  The root's infected components are positive exactly when the
viability margin is positive and rho = R0^2*mu_m/(mu_m + c) > 1; rho is R0
squared at the controlled flow's disease-free state.
``endemic_closed_form`` decides both exactly and returns a state, every
component >= 0, only there.  On the built-in case study that holds for
c < 0.0837 per day, while R0 crosses one near 0.157.

This module also holds the model's array forms, as seven row tuples of
floats: the Metzler form dX/dt = M(X)X + F, with F = (mu_h*N_h, 0, ..., 0)
constant and M(X) (``metzler_matrix``) having nonnegative off-diagonal
entries on the admissible region, which keeps trajectories in the
nonnegative orthant, and the analytic ``jacobian``, placed from its one
home, the 19 structurally nonzero entries of ``_jacobian_entries`` that
``stability`` reads.  These follow the product rule J(X) = M(X) + (dM/dX)X:
J keeps M's diagonal and transfers, and (dM/dX)X adds the cross-infection
entries J_06, J_16, J_42, J_52 and the crowding -mu_b*A_m/K in J_34..J_36,
which ``metzler_matrix`` takes back out.  At the disease-free point the
infected blocks of the two parts are -V and F of the next-generation split.
Nothing here needs numpy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NoEndemicEquilibrium, NumericalFailure
from .model import (
    ControlLevel,
    ModelParams,
    State7,
    component_scales,
    _integer_form,
    _paper_dfe,
    _rate,
    _rhs_of,
)

#: Bound on the relative residual (max over components, scaled by the
#: natural compartment magnitudes) of a rounded endemic root.
REFINE_TOL = 1e-10


#: (row, column) of each entry that ``_jacobian_entries`` returns.
_ENTRY_AT = (*((i, i) for i in range(7)), (0, 6), (1, 0), (1, 6), (2, 1), (3, 4), (3, 5),
             (3, 6), (4, 2), (4, 3), (5, 2), (5, 4), (6, 5))


def _jacobian_entries(p: ModelParams, c: float, x) -> tuple[float, ...]:
    """The 19 structurally nonzero entries of the Jacobian at x, at a control
    rate already checked by ``_rate``: the diagonal d_0..d_6, then J_06,
    J_10, J_16, J_21, J_34, J_35, J_36, J_42, J_43, J_52, J_54 and J_65."""
    bite_mh, bite_hm, mu_b, mu_m = p.B * p.beta_mh, p.B * p.beta_hm, p.mu_b, p.mu_m
    foi_h, foi_m = bite_mh * x[6] / p.N_h, bite_hm * x[2] / p.N_h
    # (dM/dX)X: the cross-infection derivatives and the crowded recruitment
    cross_h, cross_m = bite_mh * x[0] / p.N_h, bite_hm * x[4] / p.N_h
    crowded = mu_b * (1.0 - x[3] / p.K)
    return (-foi_h - p.mu_h, -(p.nu_h + p.mu_h), -(p.eta_h + p.mu_h),
            -mu_b * (x[4] + x[5] + x[6]) / p.K - (p.eta_A + p.mu_A),
            -foi_m - mu_m - c, -(mu_m + p.eta_m + c), -(mu_m + c),
            -cross_h, foi_h, cross_h, p.nu_h, crowded, crowded, crowded,
            -cross_m, p.eta_A, cross_m, foi_m, p.eta_m)


def _place(entries) -> tuple[tuple[float, ...], ...]:
    """The 19 entries at ``_ENTRY_AT`` in seven row tuples of 0.0."""
    rows = [[0.0] * 7 for _ in range(7)]
    for (i, j), v in zip(_ENTRY_AT, entries):
        rows[i][j] = v
    return tuple(map(tuple, rows))


def metzler_matrix(p: ModelParams, c: ControlLevel | float, x) -> tuple[tuple[float, ...], ...]:
    """M(X) of the Metzler form dX/dt = M(X)X + F at x, any sequence of 7
    floats (a ``State7`` included), as seven row tuples, where
    F = (mu_h*N_h, 0, ..., 0) is the constant recruitment.

    The state-dependence sits on the diagonal (force-of-infection and
    logistic-crowding terms), so every off-diagonal entry is nonnegative
    whenever the state is admissible.
    """
    m = list(_jacobian_entries(p, _rate(c), x))
    m[7] = m[9] = m[14] = m[16] = 0.0            # J less (dM/dX)X
    m[11:14] = (p.mu_b,) * 3
    return _place(m)


def jacobian(p: ModelParams, c: ControlLevel | float, x) -> tuple[tuple[float, ...], ...]:
    """Analytic 7x7 Jacobian of the right-hand side at x, any sequence of 7
    floats (a ``State7`` included), as seven row tuples:
    J(X) = M(X) + (dM/dX)X."""
    return _place(_jacobian_entries(p, _rate(c), x))


class EquilibriumKind(enum.Enum):
    TRIVIAL = "trivial"
    BRDFE = "brdfe"          # mosquitoes persist, disease absent
    ENDEMIC = "endemic"


@dataclass(frozen=True)
class Equilibrium:
    """A classified fixed-point candidate with its measured residual."""

    kind: EquilibriumKind
    state: State7
    residual_norm: float


def _scaled_rhs(p: ModelParams, f, y) -> tuple[tuple[float, ...], float]:
    """f(y) as floats, for f the bound derivative ``_rhs_of(p, c)`` and y
    any sequence of 7 floats, and its max-norm scaled by the integrator's
    component scales.  The norm is NaN when any term is, as np.max gives; a
    scale that underflows to 0 gives the quotient numpy would (inf, or NaN
    for 0/0) rather than an exception."""
    r = f(y)
    q = [abs(v) / s if s else abs(v) * math.inf for v, s in zip(r, component_scales(p))]
    return r, (math.nan if any(map(math.isnan, q)) else max(q))


def residual(p: ModelParams, c: ControlLevel | float, x: State7) -> float:
    """max_i |rhs_i(x)| / scale_i with the integrator's component scales."""
    return float(_scaled_rhs(p, _rhs_of(p, _rate(c)), x)[1])


def trivial_equilibrium(p: ModelParams) -> Equilibrium:
    """Mosquito-free, disease-free state (N_h, 0, ..., 0).

    A fixed point for every control level: with no mosquitoes there is
    nothing for the adulticide to act on, and the human balance closes at
    S_h = N_h.
    """
    state = State7(p.N_h, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Equilibrium(kind=EquilibriumKind.TRIVIAL, state=state,
                       residual_norm=residual(p, 0.0, state))


def brdfe(p: ModelParams, c: ControlLevel | float = 0.0) -> Equilibrium:
    """Disease-free state with a sustained mosquito population:

        (N_h, 0, 0, K*M/(eta_A*mu_b), K*M/(mu_b*mu_m), 0, 0)

    where M is the viability margin and K the aquatic carrying capacity.
    Requires M > 0; otherwise the vector population collapses
    (MosquitoCollapseError) and only the trivial equilibrium exists.

    The adult component uses the zero-control balance (denominator
    mu_b*mu_m), so for c > 0 the state is not an exact fixed point of the
    controlled flow; residual_norm records the mismatch.  This is, by
    construction, the evaluation point of the reproduction-number and
    control-threshold computations.
    """
    cc = _rate(c)
    state = _paper_dfe(p, cc)
    return Equilibrium(kind=EquilibriumKind.BRDFE, state=state,
                       residual_norm=_scaled_rhs(p, _rhs_of(p, cc), state)[1])


def endemic_closed_form(p: ModelParams, c: ControlLevel | float = 0.0) -> Equilibrium:
    """Endemic equilibrium, each component the double nearest the exact
    value of its closed form.

    Exists exactly where the viability margin M is positive and
    rho = R0^2*mu_m/(mu_m + c), R0 squared at the controlled flow's own
    disease-free state, exceeds one; both are decided exactly, and
    NoEndemicEquilibrium is raised elsewhere.  The infected-human level
    solves an equation linear in rho:

        I_h = N_h*(rho - 1) / (rho*L + B*beta_hm/(mu_m + c)),
        L = (mu_h + nu_h)*(mu_h + eta_h)/(mu_h*nu_h);

    each other component follows from one balance of the right-hand side.
    Cleared of fractions, with r = mu_m + c, a = mu_h + nu_h,
    b = mu_h + eta_h, q = r + eta_m and

        G = B*beta_hm*B*beta_mh*K*eta_m*M,   H = N_h*mu_b*r^2*q,
        D = G*r + B*beta_hm*H*mu_h,   E = B*beta_hm*mu_h*nu_h + a*b*r,
        Z = G*nu_h - H*a*b   (the sign of rho - 1, rho = G*nu_h/(H*a*b)),

    the state is

        S_h = N_h*H*E/(nu_h*D),     E_h = N_h*mu_h*r*Z/(a*nu_h*D),
        I_h = N_h*mu_h*r*Z/(a*b*D), A_m = K*M/(eta_A*mu_b),
        S_m = a*b*D/(mu_b*r*B*beta_hm*B*beta_mh*eta_m*E),
        E_m = mu_h*Z/(mu_b*B*beta_mh*eta_m*q*E),
        I_m = mu_h*Z/(mu_b*B*beta_mh*r*q*E).

    Each numerator and denominator is taken exactly, in integers, from the
    inputs put over one power of two, and each quotient rounds once, so the
    state is the double nearest a root with exactly zero right-hand side.
    With M > 0 and Z > 0 every numerator and denominator is positive, so
    every component is >= 0.  Raises NumericalFailure where a component
    lies beyond the largest double.
    """
    cc = _rate(c)
    # the state is unchanged by a common factor on the rates and scales with
    # the counts, so each quotient below is a component times one = 2^s
    one, n_h, cap, bite_mh, bite_hm, mu_h, eta_h, mu_m, mu_b, mu_A, eta_A, eta_m, nu_h, c2 = \
        _integer_form(p, cc)
    m = eta_A * mu_b - c2 * (eta_A + mu_A) - mu_m * (mu_A + eta_A)
    if m <= 0:
        try:
            margin = m / one**4
        except OverflowError:
            margin = -math.inf
        raise NoEndemicEquilibrium("no endemic equilibrium in the admissible region: mosquito "
                                   f"population collapses (viability margin = {margin:.6g})")
    r, a, b = mu_m + c2, mu_h + nu_h, mu_h + eta_h
    q = r + eta_m
    g = bite_hm * bite_mh * cap * eta_m * m
    h = n_h * mu_b * r * r * q
    z = g * nu_h - h * a * b
    if z <= 0:
        raise NoEndemicEquilibrium(
            "no endemic equilibrium in the admissible region: "
            f"rho = R0^2*mu_m/(mu_m + c) = {g * nu_h / (h * a * b):.6g} <= 1")
    d = g * r + bite_hm * h * mu_h
    e = bite_hm * mu_h * nu_h + a * b * r
    infected = n_h * mu_h * r * z
    quotients = ((n_h * h * e, nu_h * d), (infected, a * nu_h * d), (infected, a * b * d),
                 (cap * m, eta_A * mu_b), (a * b * d, mu_b * r * bite_hm * bite_mh * eta_m * e),
                 (mu_h * z, mu_b * bite_mh * eta_m * q * e), (mu_h * z, mu_b * bite_mh * r * q * e))
    try:
        state = State7(*(num / (den * one) for num, den in quotients))
    except OverflowError:
        raise NumericalFailure("endemic closed form is not finite at these parameters") from None
    return Equilibrium(kind=EquilibriumKind.ENDEMIC, state=state,
                       residual_norm=_scaled_rhs(p, _rhs_of(p, cc), state)[1])


#: The name the benchmark harness in perfbench/ imports; the closed form is
#: the one endemic routine.
refined_endemic = endemic_closed_form
