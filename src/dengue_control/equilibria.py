"""Fixed points of the host-vector system: closed forms and Newton refinement.

Three equilibria matter:

* the trivial (mosquito-free) equilibrium (N_h, 0, ..., 0), a fixed point
  for every control level;
* the mosquito-bearing disease-free equilibrium, which exists when the
  vector viability margin is positive;
* an endemic interior equilibrium, which exists when additionally the
  basic reproduction number exceeds one.

Both nontrivial equilibria have closed forms.  The disease-free point has
one home, ``model._paper_dfe``, which ``brdfe`` here and the
next-generation matrix of ``stability.r0_spectral`` both read.  It uses the
zero-control adult balance (eta_A*A*/mu_m), so for c > 0 it is not an
exact fixed point of the controlled flow; it is nevertheless the declared
evaluation point of the reproduction-number machinery.  The endemic closed
form is built from R0 and the right-hand side's own steady-state balances
and is exact for every control level.  Nothing is silently "fixed": every
constructed equilibrium records its honest relative residual, and Newton
refinement of the endemic closed form cross-checks it.

A practical consequence of the zero-control balance: the existence window
"R0 > 1" for the endemic equilibrium is wider than the window where the
interior root actually has positive components.  The infected-human level
is positive exactly when rho = R0^2*mu_m/(mu_m + c) > 1; rho is R0 squared
at the controlled flow's disease-free state.  On the built-in case study
that holds for c < 0.0837 per day, while R0 crosses one near 0.157;
between the two the interior root carries a negative infected-human
component and sits outside the admissible region.  Callers that need a
biologically meaningful endemic state should check region membership on
the result.

This module also holds the model's array forms, as seven row tuples of
floats, used by Newton refinement and the stability analysis: the Metzler
form dX/dt = M(X)X + F, with F = (mu_h*N_h, 0, ..., 0) constant and M(X)
(``metzler_matrix``) having nonnegative off-diagonal entries on the
admissible region, which keeps trajectories in the nonnegative orthant.
The analytic ``jacobian`` is derived from M by the product rule,
J(X) = M(X) + (dM/dX)X; at the disease-free point the infected blocks of
the two parts are -V and F of the next-generation split.  Newton's linear
systems are solved on Python floats (``_solve``), so nothing here needs
numpy.
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
    mosquito_viability,
    r0_closed_form,
    _paper_dfe,
    _rate,
    _rhs_of,
)

#: Relative residual (max over components, scaled by the natural
#: compartment magnitudes) below which Newton refinement declares a root.
REFINE_TOL = 1e-10

_MAX_NEWTON_ITERATIONS = 100
_MAX_DAMPING_HALVINGS = 30


def _metzler_rows(p: ModelParams, c: float, x) -> list[list[float]]:
    """M(X) at x as seven row lists (see ``metzler_matrix``)."""
    foi_h = p.B * p.beta_mh * x[6] / p.N_h
    foi_m = p.B * p.beta_hm * x[2] / p.N_h
    adults = x[4] + x[5] + x[6]
    mu_b = p.mu_b
    return [
        [-foi_h - p.mu_h, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [foi_h, -(p.nu_h + p.mu_h), 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, p.nu_h, -(p.eta_h + p.mu_h), 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -mu_b * adults / p.K - (p.eta_A + p.mu_A), mu_b, mu_b, mu_b],
        [0.0, 0.0, 0.0, p.eta_A, -foi_m - p.mu_m - c, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, foi_m, -(p.mu_m + p.eta_m + c), 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, p.eta_m, -(p.mu_m + c)],
    ]


def metzler_matrix(p: ModelParams, c: ControlLevel | float, x) -> tuple[tuple[float, ...], ...]:
    """M(X) of the Metzler form dX/dt = M(X)X + F at x, any sequence of 7
    floats (a ``State7`` included), as seven row tuples, where
    F = (mu_h*N_h, 0, ..., 0) is the constant recruitment.

    The state-dependence sits on the diagonal (force-of-infection and
    logistic-crowding terms), so every off-diagonal entry is nonnegative
    whenever the state is admissible.
    """
    return tuple(map(tuple, _metzler_rows(p, _rate(c), x)))


def jacobian(p: ModelParams, c: ControlLevel | float, x) -> tuple[tuple[float, ...], ...]:
    """Analytic 7x7 Jacobian of the right-hand side at x, any sequence of 7
    floats (a ``State7`` included), as seven row tuples:
    J(X) = M(X) + (dM/dX)X."""
    jac = _metzler_rows(p, _rate(c), x)
    # (dM/dX)X: crowded recruitment and the cross-infection derivatives
    jac[3][4] = jac[3][5] = jac[3][6] = p.mu_b * (1.0 - x[3] / p.K)
    jac[1][6] = p.B * p.beta_mh * x[0] / p.N_h
    jac[0][6] = -jac[1][6]
    jac[5][2] = p.B * p.beta_hm * x[4] / p.N_h
    jac[4][2] = -jac[5][2]
    return tuple(map(tuple, jac))


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
    refined: bool = False


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
                       residual_norm=residual(p, cc, state))


def endemic_closed_form(p: ModelParams, c: ControlLevel | float = 0.0) -> Equilibrium:
    """Closed-form endemic equilibrium, flagged unrefined.

    Requires a positive viability margin and basic reproduction number
    above one.  The infected-human level solves an equation linear in
    rho = R0^2*mu_m/(mu_m + c):

        I_h = N_h*(rho - 1) / (rho*L + B*beta_hm/(mu_m + c)),
        L = (mu_h + nu_h)*(mu_h + eta_h)/(mu_h*nu_h);

    each other component follows from one balance of the right-hand side.
    Exact for every control level; ``refine`` on this output is the
    cross-check.  Raises NumericalFailure when mu_h*nu_h underflows, when
    the denominator of I_h or of S_m reaches 0, or when the formula
    overflows to a non-finite state (bite rates near the float range).  See
    the module docstring for the positivity window of the result under
    control.
    """
    cc = _rate(c)
    viability = mosquito_viability(p, cc)
    if viability <= 0.0:
        raise NoEndemicEquilibrium(
            "no endemic equilibrium in the admissible region: mosquito "
            f"population collapses (viability margin = {viability:.6g})")
    r0 = r0_closed_form(p, cc)
    if r0 <= 1.0:
        raise NoEndemicEquilibrium(
            "no endemic equilibrium in the admissible region: basic "
            f"reproduction number {r0:.6g} <= 1")

    removal = p.mu_m + cc                  # adult death plus adulticide
    rho = r0 * r0 * p.mu_m / removal       # R0^2 at the flow's disease-free state
    if p.mu_h * p.nu_h == 0.0:
        raise NumericalFailure("endemic closed form undefined: mu_h*nu_h underflows to 0")
    # the S_h, E_h and I_h balances give N_h - S_h = L*I_h
    L = (p.mu_h + p.nu_h) * (p.mu_h + p.eta_h) / (p.mu_h * p.nu_h)
    if (den := rho * L + p.B * p.beta_hm / removal) == 0.0:
        raise NumericalFailure(
            "endemic closed form undefined: rho*L + B*beta_hm/(mu_m + c) underflows to 0")
    i_h = p.N_h * (rho - 1.0) / den
    a_m = _paper_dfe(p, cc).A_m
    foi_m = p.B * p.beta_hm * i_h / p.N_h
    # I_h < 0 where rho < 1 < R0, and there the adult outflow can cancel
    if (outflow := foi_m + removal) == 0.0:
        raise NumericalFailure(
            "endemic closed form undefined: B*beta_hm*I_h/N_h + mu_m + c cancels to 0")
    s_m = p.eta_A * a_m / outflow
    e_m = foi_m * s_m / (p.mu_m + p.eta_m + cc)
    state = State7(p.N_h - L * i_h, (p.mu_h + p.eta_h) / p.nu_h * i_h, i_h,
                   a_m, s_m, e_m, p.eta_m * e_m / removal)
    if not state.is_finite():
        raise NumericalFailure("endemic closed form is not finite at these parameters")
    return Equilibrium(kind=EquilibriumKind.ENDEMIC, state=state,
                       residual_norm=residual(p, cc, state), refined=False)


def _classify_root(p: ModelParams, x) -> EquilibriumKind:
    scales = component_scales(p)
    infected = max(abs(x[1]) / scales[1], abs(x[2]) / scales[2],
                   abs(x[5]) / scales[5], abs(x[6]) / scales[6])
    if infected > 1e-8:
        return EquilibriumKind.ENDEMIC
    if abs(x[3]) / scales[3] > 1e-8 or abs(x[4]) / scales[4] > 1e-8:
        return EquilibriumKind.BRDFE
    return EquilibriumKind.TRIVIAL


def _solve(a, b) -> list[float]:
    """x with a x = b, for a a square sequence of row sequences and b a
    sequence, by Gaussian elimination with partial pivoting: in each column
    the first entry of largest magnitude is the pivot, the row LAPACK's
    getrf picks.  Only the pivot choice follows LAPACK; the multipliers
    (divided by the pivot) and the order of the updates round on their own,
    so on an ill-conditioned matrix the solution can differ from LAPACK's.
    Raises ZeroDivisionError on an exactly zero pivot, where LAPACK reports
    the matrix singular."""
    n = len(b)
    rows = [[*row, rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        col = [abs(row[k]) for row in rows[k:]]
        at = k + col.index(max(col))
        rows[k], rows[at] = rows[at], rows[k]
        pivot = rows[k]
        if pivot[k] == 0.0:
            raise ZeroDivisionError("zero pivot")
        for row in rows[k + 1:]:
            if (factor := row[k] / pivot[k]) != 0.0:
                for j in range(k + 1, n + 1):
                    row[j] -= factor * pivot[j]
    x = [0.0] * n
    for i in reversed(range(n)):
        row = rows[i]
        total = row[n]
        for j in range(i + 1, n):
            total -= row[j] * x[j]
        x[i] = total / row[i]
    return x


def refine(p: ModelParams, c: ControlLevel | float, guess: State7) -> Equilibrium:
    """Damped Newton iteration on rhs = 0 starting from ``guess``.

    Each step solves J(x) step = -rhs(x) by ``_solve`` on Python floats.
    The step is halved (up to 30 times) until the scaled residual
    decreases; convergence is declared below REFINE_TOL.  Raises
    NumericalFailure, carrying the last residual, after 100 iterations
    without convergence or on a singular Jacobian (an exactly zero pivot).
    """
    if not guess.is_finite():
        raise ValueError("refinement guess contains non-finite components")
    cc = _rate(c)
    f = _rhs_of(p, cc)
    x = guess
    r, res = _scaled_rhs(p, f, guess)
    for _ in range(_MAX_NEWTON_ITERATIONS):
        if res < REFINE_TOL:
            return Equilibrium(kind=_classify_root(p, x), state=State7.from_array(x),
                               residual_norm=res, refined=True)
        try:
            step = _solve(jacobian(p, cc, x), [-v for v in r])
        except ZeroDivisionError:
            raise NumericalFailure(
                f"singular Jacobian during refinement (residual {res:.3e})",
                residual=res) from None
        lam = 1.0
        for _ in range(_MAX_DAMPING_HALVINGS):
            x_new = [xi + lam * si for xi, si in zip(x, step)]
            r_new, res_new = _scaled_rhs(p, f, x_new)
            if all(map(math.isfinite, r_new)) and res_new < res:
                break
            lam *= 0.5
        else:
            raise NumericalFailure(
                f"refinement stalled: damping exhausted at residual {res:.3e}",
                residual=res)
        x, r, res = x_new, r_new, res_new
    raise NumericalFailure(
        f"refinement did not converge in {_MAX_NEWTON_ITERATIONS} iterations "
        f"(last residual {res:.3e})", residual=res)


def refined_endemic(p: ModelParams, c: ControlLevel | float = 0.0) -> Equilibrium:
    """Endemic equilibrium with the closed form as guess and Newton polish.

    The refined root is the authoritative value; the closed form is kept
    as the starting point and cross-check.
    """
    eq = refine(p, c, endemic_closed_form(p, c).state)
    if eq.kind is not EquilibriumKind.ENDEMIC:
        raise NoEndemicEquilibrium(
            "refinement of the endemic closed form collapsed to a "
            f"disease-free state ({eq.kind.value})")
    return eq
