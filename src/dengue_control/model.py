"""Host-vector dengue dynamics with constant adulticide control.

Humans move through susceptible/exposed/infected compartments (S_h, E_h,
I_h); the recovered class R_h is eliminated using the constant-population
identity R_h = N_h - S_h - E_h - I_h, leaving a 7-dimensional state.  The
mosquito population has an aquatic stage A_m (eggs, larvae, pupae) with
logistic recruitment, and adult females in S_m, E_m, I_m.  The adulticide
removes adults of every class at rate ``c`` and leaves the aquatic stage
untouched.

The reduced system, in the fixed component order
(S_h, E_h, I_h, A_m, S_m, E_m, I_m):

    dS_h/dt = mu_h*N_h - (B*beta_mh*I_m/N_h + mu_h)*S_h
    dE_h/dt = B*beta_mh*(I_m/N_h)*S_h - (nu_h + mu_h)*E_h
    dI_h/dt = nu_h*E_h - (eta_h + mu_h)*I_h
    dA_m/dt = mu_b*(1 - A_m/K)*(S_m + E_m + I_m) - (eta_A + mu_A)*A_m
    dS_m/dt = -(B*beta_hm*I_h/N_h + mu_m + c)*S_m + eta_A*A_m
    dE_m/dt = B*beta_hm*(I_h/N_h)*S_m - (mu_m + eta_m + c)*E_m
    dI_m/dt = eta_m*E_m - (mu_m + c)*I_m

Everything here works on Python floats; the array forms of the model live
in ``equilibria``, so importing this module does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import MosquitoCollapseError, NumericalFailure

#: Component order used by every array-facing routine in the package.
STATE_LABELS = ("S_h", "E_h", "I_h", "A_m", "S_m", "E_m", "I_m")


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological and entomological rates.

    N_h      total human population (persons)
    B        average daily bites per mosquito (1/day)
    beta_mh  transmission probability per bite, mosquito -> human
    beta_hm  transmission probability per bite, human -> mosquito
    mu_h     human mortality rate (1/day, = 1/average lifespan)
    eta_h    human recovery rate (1/day, = 1/viraemic period)
    mu_m     adult mosquito mortality rate (1/day)
    mu_b     eggs laid per adult female per day; zero models a
             non-recruiting (collapsing) vector population
    mu_A     aquatic-stage mortality rate (1/day)
    eta_A    maturation rate, aquatic -> adult (1/day)
    eta_m    1/extrinsic incubation period (1/day)
    nu_h     1/intrinsic incubation period (1/day)
    m        adult female mosquitoes per human
    k        aquatic individuals per human
    K        aquatic carrying capacity (count)
    """

    N_h: float
    B: float
    beta_mh: float
    beta_hm: float
    mu_h: float
    eta_h: float
    mu_m: float
    mu_b: float
    mu_A: float
    eta_A: float
    eta_m: float
    nu_h: float
    m: float
    k: float
    K: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _require_finite(f.name, getattr(self, f.name)))
        for name in ("B", "mu_h", "eta_h", "mu_m", "mu_A", "eta_A", "eta_m", "nu_h", "m", "k"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.mu_b < 0.0:
            raise ValueError(f"mu_b must be >= 0, got {self.mu_b}")
        for name in ("beta_mh", "beta_hm"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if self.N_h <= 0.0:
            raise ValueError(f"N_h must be > 0, got {self.N_h}")
        if self.K <= 0.0:
            raise ValueError(f"K must be > 0, got {self.K}")


@dataclass(frozen=True)
class ControlLevel:
    """Constant adulticide-induced removal rate c (1/day), c >= 0."""

    c: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", _require_finite("c", self.c))
        if self.c < 0.0:
            raise ValueError(f"c must be >= 0, got {self.c}")


def as_control(c: ControlLevel | float) -> ControlLevel:
    """Normalize a bare rate into a validated ControlLevel."""
    return c if isinstance(c, ControlLevel) else ControlLevel(float(c))


@dataclass(frozen=True)
class State7:
    """Reduced state: humans (S_h, E_h, I_h) and mosquitoes (A_m, S_m, E_m, I_m)."""

    S_h: float
    E_h: float
    I_h: float
    A_m: float
    S_m: float
    E_m: float
    I_m: float

    def as_array(self):
        """The components as a float ndarray (the one method needing numpy)."""
        import numpy as np
        return np.array(self.as_tuple(), dtype=float)

    @classmethod
    def from_array(cls, x) -> "State7":
        if len(x) != 7:
            raise ValueError(f"expected 7 components, got {len(x)}")
        return cls(*(float(v) for v in x))

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.as_tuple())

    def as_tuple(self) -> tuple[float, ...]:
        return (self.S_h, self.E_h, self.I_h, self.A_m, self.S_m, self.E_m, self.I_m)


@dataclass(frozen=True)
class State8:
    """Full state including the derived recovered class R_h."""

    S_h: float
    E_h: float
    I_h: float
    R_h: float
    A_m: float
    S_m: float
    E_m: float
    I_m: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.S_h, self.E_h, self.I_h, self.R_h, self.A_m, self.S_m, self.E_m, self.I_m)

    def drop_rh(self) -> State7:
        return State7(self.S_h, self.E_h, self.I_h, self.A_m, self.S_m, self.E_m, self.I_m)


def _component_scales(p: ModelParams) -> tuple[float, ...]:
    """Natural magnitude of each compartment: N_h for humans, k*N_h for the
    aquatic stage, m*N_h for adult mosquitoes.  Used for relative residuals,
    region bounds and integrator error weights."""
    n, kn, mn = p.N_h, p.k * p.N_h, p.m * p.N_h
    return (n, n, n, kn, mn, mn, mn)


def _rhs_floats(p: ModelParams, c: float, x) -> tuple[float, ...]:
    """Derivative of the 7-dim state given as any sequence of floats; the
    one copy of the model formula (hot path, no validation)."""
    s_h, e_h, i_h, a_m, s_m, e_m, i_m = x

    foi_h = p.B * p.beta_mh * i_m / p.N_h      # mosquito -> human force of infection
    foi_m = p.B * p.beta_hm * i_h / p.N_h      # human -> mosquito force of infection
    adults = s_m + e_m + i_m

    return (
        p.mu_h * p.N_h - (foi_h + p.mu_h) * s_h,
        foi_h * s_h - (p.nu_h + p.mu_h) * e_h,
        p.nu_h * e_h - (p.eta_h + p.mu_h) * i_h,
        p.mu_b * (1.0 - a_m / p.K) * adults - (p.eta_A + p.mu_A) * a_m,
        -(foi_m + p.mu_m + c) * s_m + p.eta_A * a_m,
        foi_m * s_m - (p.mu_m + p.eta_m + c) * e_m,
        p.eta_m * e_m - (p.mu_m + c) * i_m,
    )


def rhs(p: ModelParams, c: ControlLevel | float, x: State7) -> State7:
    """Time derivative of the reduced system (units 1/day per compartment).

    The aquatic equation carries no control term: the adulticide does not
    act on eggs, larvae or pupae.
    """
    if not x.is_finite():
        raise ValueError("state contains non-finite components")
    return State7.from_array(_rhs_floats(p, as_control(c).c, x.as_tuple()))


def _recovered(p: ModelParams, s_h, e_h, i_h):
    """R_h = N_h - S_h - E_h - I_h, subtracted in that order, for scalars or
    arrays alike (so rows and single states agree bit for bit)."""
    return p.N_h - s_h - e_h - i_h


def reconstruct_rh(p: ModelParams, x: State7) -> State8:
    """Recover R_h = N_h - S_h - E_h - I_h.  A negative R_h is reported as
    is; it signals departure from the admissible region, not an error."""
    r_h = _recovered(p, x.S_h, x.E_h, x.I_h)
    return State8(x.S_h, x.E_h, x.I_h, r_h, x.A_m, x.S_m, x.E_m, x.I_m)


def mosquito_viability(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Viability margin of the vector population:

        eta_A*mu_b - c*(eta_A + mu_A) - mu_m*(mu_A + eta_A)

    Positive iff the mosquito population is sustainable under control c;
    at or below zero the population collapses and only the mosquito-free
    equilibrium remains.
    """
    cc = as_control(c).c
    return p.eta_A * p.mu_b - cc * (p.eta_A + p.mu_A) - p.mu_m * (p.mu_A + p.eta_A)


def _paper_dfe(p: ModelParams, c: ControlLevel) -> State7:
    """The paper's mosquito-bearing disease-free point, where R0 and the
    control threshold are evaluated (formula and caveats at
    ``equilibria.brdfe``).  Raises MosquitoCollapseError when the viability
    margin is <= 0 and NumericalFailure when mu_b*mu_m underflows."""
    viability = mosquito_viability(p, c)
    if viability <= 0.0:
        raise MosquitoCollapseError(
            "mosquito population collapses; only trivial equilibrium exists "
            f"(viability margin = {viability:.6g})")
    # a positive margin keeps eta_A*mu_b > 0, but mu_b*mu_m can underflow
    if p.mu_b * p.mu_m == 0.0:
        raise NumericalFailure("disease-free state undefined: mu_b*mu_m underflows to 0")
    return State7(
        p.N_h, 0.0, 0.0,
        p.K * viability / (p.eta_A * p.mu_b),
        p.K * viability / (p.mu_b * p.mu_m),
        0.0, 0.0,
    )


def basic_offspring_number(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Threshold ratio (eta_A + mu_A)*(mu_m + c) / (mu_b*eta_A).

    Below one exactly when the viability margin is positive.  Note the
    orientation: this is the ratio whose *smallness* means a sustainable
    population; the conventional "offspring number" is its reciprocal.
    The ratio is returned as written here; the naming mismatch is
    documented rather than resolved.
    """
    recruitment = p.mu_b * p.eta_A
    if recruitment == 0.0:
        raise ValueError("basic offspring ratio undefined: mu_b*eta_A is 0 "
                         "(mu_b = 0, or the product underflows)")
    cc = as_control(c).c
    return (p.eta_A + p.mu_A) * (p.mu_m + cc) / recruitment


def r0_closed_form(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Closed-form basic reproduction number at the paper's disease-free
    point (the formula and its spectral cross-check are in ``reproduction``);
    raises MosquitoCollapseError when the viability margin is <= 0 and
    NumericalFailure when the denominator's product of rates underflows."""
    ctrl = as_control(c)
    viability = mosquito_viability(p, ctrl)
    if viability <= 0.0:
        raise MosquitoCollapseError(
            "basic reproduction number undefined: mosquito population "
            f"collapses (viability margin = {viability:.6g})")
    cc = ctrl.c
    denominator = (p.mu_b * (p.eta_h + p.mu_h) * p.mu_m * (cc + p.mu_m)
                   * (cc + p.eta_m + p.mu_m) * (p.mu_h + p.nu_h))
    if denominator == 0.0:
        raise NumericalFailure("basic reproduction number undefined: the product "
                               "of rates in its denominator underflows to 0")
    # B stays outside the root: B**2 overflows for B above about 1e154
    r0_sq_per_b_sq = (
        p.K / p.N_h * p.beta_hm * p.beta_mh * p.eta_m * p.nu_h * viability / denominator)
    return p.B * math.sqrt(r0_sq_per_b_sq)


#: Additive slack, as a fraction of each bound, used by the region test to
#: absorb floating-point drift from integration.
OMEGA_SLACK = 1e-9


def region_violation(p: ModelParams, x: State7, slack: float = OMEGA_SLACK) -> str | None:
    """First violated bound of the region of biological interest, named
    with the initial-condition keys (S_h0, ...), or None inside it.

    The region is closed, so boundary states count:

        all components >= 0,
        S_h + E_h + I_h <= N_h,
        A_m <= k*N_h,
        S_m + E_m + I_m <= m*N_h.

    Each inequality gets additive slack ``slack * bound``; the aquatic bound
    is k*N_h (not the carrying capacity K).  Non-finite states are outside.
    """
    for label, value, bound in zip(STATE_LABELS, x.as_tuple(), _component_scales(p)):
        if not value >= -slack * bound:
            return f"{label}0 = {value!r} violates {label}0 >= 0"
    n_h, kn, mn = p.N_h, p.k * p.N_h, p.m * p.N_h
    human = x.S_h + x.E_h + x.I_h
    if human > n_h * (1.0 + slack):
        return f"S_h0+E_h0+I_h0 = {human!r} exceeds N_h = {n_h!r}"
    if x.A_m > kn * (1.0 + slack):
        return f"A_m0 = {x.A_m!r} exceeds the aquatic bound k*N_h = {kn!r}"
    adults = x.S_m + x.E_m + x.I_m
    if adults > mn * (1.0 + slack):
        return f"S_m0+E_m0+I_m0 = {adults!r} exceeds the adult bound m*N_h = {mn!r}"
    return None


def in_omega(p: ModelParams, x: State7, slack: float = OMEGA_SLACK) -> bool:
    """Membership in the admissible region (see ``region_violation``)."""
    return region_violation(p, x, slack) is None
