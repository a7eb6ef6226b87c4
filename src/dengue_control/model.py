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

The formula has one home, ``_rhs_of(p, c)``, which takes the rate products
and sums that do not depend on the state once and returns the derivative
as a function of the state, any sequence of 7 floats (a ``State7``
included); the integrator binds it once per run.  The rule "c finite and
>= 0" has one home too, ``_rate(c)``, run once per public call; the private
helpers take its float.  The mosquito-collapse decision has one home as well:
each ``ModelParams`` holds its collapse bound, the least double c at which the
exact viability margin is <= 0, and every reader (the margin's sign, R0, the
disease-free state, the threshold, the endemic root) compares c with it.  The
formulas here work on Python floats, but the viability margin is exact in
sign; the exact routes of ``equilibria``, ``stability`` and ``threshold`` read
integers over one power of two (``_integer_rows``, ``_integer_form``) and
``_sqrt_ratio``.  The array forms live in ``equilibria``, so importing this
module does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import MosquitoCollapseError, NumericalFailure


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
        for name in ("N_h", "B", "mu_h", "eta_h", "mu_m", "mu_A", "eta_A", "eta_m", "nu_h",
                     "m", "k", "K"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.mu_b < 0.0:
            raise ValueError(f"mu_b must be >= 0, got {self.mu_b}")
        for name in ("beta_mh", "beta_hm"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        # set here, not on first read: an attribute added after __init__ slows every read
        object.__setattr__(self, "_collapse_bound", _least_collapsed(self))


@dataclass(frozen=True)
class ControlLevel:
    """Constant adulticide-induced removal rate c (1/day), c >= 0."""

    c: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", _rate(self.c))


def _rate(c: ControlLevel | float) -> float:
    """The control rate of c as a float: a ControlLevel's own ``c``, or a
    bare rate checked finite and >= 0 (ValueError otherwise)."""
    if isinstance(c, ControlLevel):
        return c.c
    c = _require_finite("c", c)
    if c < 0.0:
        raise ValueError(f"c must be >= 0, got {c}")
    return c


def _integer_rows(rows) -> list[list[int]]:
    """``rows`` of floats times 2^s as integers, for the least s that makes
    every entry one."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    scale = max(d for row in ratios for _, d in row)     # each d is a power of 2
    return [[n * (scale // d) for n, d in row] for row in ratios]


def _integer_form(p: ModelParams, c: float) -> tuple[int, ...]:
    """(one, N_h, K, B*beta_mh, B*beta_hm, mu_h, eta_h, mu_m, mu_b, mu_A, eta_A,
    eta_m, nu_h, c) as integers: one = 2^s for the least s that puts every input
    over 2^s, the counts times 2^s, the rates (B*beta too) times 2^2s."""
    n_h, cap, bite, beta_mh, beta_hm, one, *rates = _integer_rows([[
        p.N_h, p.K, p.B, p.beta_mh, p.beta_hm, 1.0,
        p.mu_h, p.eta_h, p.mu_m, p.mu_b, p.mu_A, p.eta_A, p.eta_m, p.nu_h, c]])[0]
    return (one, n_h, cap, bite * beta_mh, bite * beta_hm, *(v * one for v in rates))


def _least_collapsed(p: ModelParams) -> float:
    """The least double c at which the exact viability margin
    eta_A*mu_b - (c + mu_m)*(eta_A + mu_A) is <= 0 (negative where the
    margin is <= 0 uncontrolled); ``ModelParams`` holds it as ``_collapse_bound``."""
    one, _, _, _, _, _, _, mu_m, mu_b, mu_A, eta_A, *_ = _integer_form(p, 0.0)
    scale, recruit, alpha = one * one, eta_A * mu_b, eta_A + mu_A
    c = (recruit - mu_m * alpha) / (alpha * scale)      # the exact root, correctly rounded
    n, d = c.as_integer_ratio()
    return c if recruit * d <= (n * scale + mu_m * d) * alpha else math.nextafter(c, math.inf)


def _sqrt_ratio(n: int, d: int) -> float:
    """The double nearest sqrt(n/d) for integers n >= 0 and d > 0, ties to even.
    With e the exponent that puts the root's leading bit at 2^(e+52) (-1074 at
    least, the subnormal grid) and q = n/d scaled by 2^-2e, r = isqrt(floor(q))
    is floor(sqrt(q)), and the root rounds up to r + 1 iff sqrt(q) > r + 1/2, that
    is iff 4q > (2r+1)^2.  Raises OverflowError where it rounds beyond the largest double."""
    t = n.bit_length() - d.bit_length()
    log2 = t if (n >> t if t >= 0 else n << -t) >= d else t - 1    # floor(log2(n/d))
    e = max(log2 // 2 - 52, -1074)
    num, den = (n << -2 * e, d) if e < 0 else (n, d << 2 * e)
    r = math.isqrt(num // den)
    excess = 4 * num - (2 * r + 1) ** 2 * den
    if excess > 0 or (excess == 0 and r % 2):     # above r + 1/2, or a tie to even
        r += 1
    return math.ldexp(r, e)


class State7(NamedTuple):
    """Reduced state: humans (S_h, E_h, I_h) and mosquitoes (A_m, S_m, E_m,
    I_m), the 7-tuple that every routine taking a state reads."""

    S_h: float
    E_h: float
    I_h: float
    A_m: float
    S_m: float
    E_m: float
    I_m: float

    @classmethod
    def from_array(cls, x) -> "State7":
        if len(x) != 7:
            raise ValueError(f"expected 7 components, got {len(x)}")
        return cls(*(float(v) for v in x))

    def is_finite(self) -> bool:
        return all(map(math.isfinite, self))


#: Component order used by every array-facing routine in the package.
STATE_LABELS = State7._fields
#: Column order of a full row (``Trajectory.as_array()``): R_h after I_h.
ROW_LABELS = STATE_LABELS[:3] + ("R_h",) + STATE_LABELS[3:]


def component_scales(p: ModelParams) -> tuple[float, ...]:
    """Natural magnitude of each compartment: N_h for humans, k*N_h for the
    aquatic stage, m*N_h for adult mosquitoes.  Used for relative residuals,
    region bounds and integrator error weights."""
    n, kn, mn = p.N_h, p.k * p.N_h, p.m * p.N_h
    return (n, n, n, kn, mn, mn, mn)


def _rhs_of(p: ModelParams, c):
    """The derivative of the 7-dim state as a function of the state, any
    sequence of 7 floats (a ``State7`` included), with p and c bound; the
    one copy of the model formula (hot path, no validation).

    The products and sums of rates that do not depend on the state are
    taken once, here, and the returned closure reads them as locals.  Each
    is a left-most prefix or a parenthesised sum of the formula in the
    module docstring, so every result keeps its bits.  ``c`` may be an
    (L,) array, as may the state's components: then it steps L lanes."""
    n_h, mu_h, nu_h, eta_A, mu_m, eta_m = p.N_h, p.mu_h, p.nu_h, p.eta_A, p.mu_m, p.eta_m
    mu_b, cap = p.mu_b, p.K
    bite_mh = p.B * p.beta_mh                 # foi_h = B*beta_mh * I_m/N_h
    bite_hm = p.B * p.beta_hm                 # foi_m = B*beta_hm * I_h/N_h
    birth_h = mu_h * n_h
    out_e_h = nu_h + mu_h
    out_i_h = p.eta_h + mu_h
    out_a_m = eta_A + p.mu_A
    out_e_m = mu_m + eta_m + c
    out_i_m = mu_m + c

    def f(x):
        s_h, e_h, i_h, a_m, s_m, e_m, i_m = x
        foi_h = bite_mh * i_m / n_h       # mosquito -> human force of infection
        foi_m = bite_hm * i_h / n_h       # human -> mosquito force of infection
        return (
            birth_h - (foi_h + mu_h) * s_h,
            foi_h * s_h - out_e_h * e_h,
            nu_h * e_h - out_i_h * i_h,
            mu_b * (1.0 - a_m / cap) * (s_m + e_m + i_m) - out_a_m * a_m,
            -(foi_m + mu_m + c) * s_m + eta_A * a_m,
            foi_m * s_m - out_e_m * e_m,
            eta_m * e_m - out_i_m * i_m,
        )

    return f


def rhs(p: ModelParams, c: ControlLevel | float, x: State7) -> State7:
    """Time derivative of the reduced system (units 1/day per compartment).

    The aquatic equation carries no control term: the adulticide does not
    act on eggs, larvae or pupae.
    """
    if not x.is_finite():
        raise ValueError("state contains non-finite components")
    return State7.from_array(_rhs_of(p, _rate(c))(x))


def mosquito_viability(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Viability margin of the vector population:

        eta_A*mu_b - c*(eta_A + mu_A) - mu_m*(mu_A + eta_A)

    Positive iff the mosquito population is sustainable under control c,
    that is iff c is below ``threshold.collapse_control_bound(p)``; at or
    below zero the population collapses and only the mosquito-free
    equilibrium remains.  The sign is exact (see ``_margin``).
    """
    return _margin(p, _rate(c))


def _margin(p: ModelParams, c: float) -> float:
    """``mosquito_viability`` at a control rate already checked by ``_rate``.

    The float formula where its sign agrees with c < the collapse bound;
    elsewhere (next to the bound, or NaN from inf - inf) the exact margin of
    ``_integer_form``, rounded once, to +-inf where it lies beyond the
    largest double, and to the least subnormal where it is positive but
    rounds to 0."""
    margin = p.eta_A * p.mu_b - c * (p.eta_A + p.mu_A) - p.mu_m * (p.mu_A + p.eta_A)
    if (margin > 0.0) if c < p._collapse_bound else (margin <= 0.0):
        return margin
    one, _, _, _, _, _, _, mu_m, mu_b, mu_A, eta_A, _, _, c2 = _integer_form(p, c)
    m = eta_A * mu_b - (c2 + mu_m) * (eta_A + mu_A)     # the margin times one**4
    try:
        margin = m / one**4
    except OverflowError:
        return math.inf if m > 0 else -math.inf
    return math.ulp(0.0) if m > 0 and margin == 0.0 else margin


def _viability(p: ModelParams, c: float, what: str) -> float:
    """The viability margin at c; MosquitoCollapseError ("``what`` undefined") if <= 0."""
    viability = _margin(p, c)
    if viability <= 0.0:
        raise MosquitoCollapseError(f"{what} undefined: mosquito population collapses "
                                    f"(viability margin = {viability:.6g})")
    return viability


def _paper_dfe(p: ModelParams, c: float) -> State7:
    """The paper's mosquito-bearing disease-free point, where R0 and the
    control threshold are evaluated (formula and caveats at
    ``equilibria.brdfe``).  Raises MosquitoCollapseError when the viability
    margin is <= 0 and NumericalFailure when mu_b*mu_m underflows."""
    viability = _viability(p, c, "disease-free state")
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

    Below one when the viability margin is positive, except next to the
    collapse bound, where the float ratio can round to 1.0 or beyond while
    the margin is still positive (1.0 on the built-in scenario at c =
    1.3636363636363635); the margin is the exact test.  Note the
    orientation: this is the ratio whose *smallness* means a sustainable
    population; the conventional "offspring number" is its reciprocal.
    The ratio is returned as written here; the naming mismatch is
    documented rather than resolved.  Where mu_b*eta_A is 0 (mu_b = 0, or
    an underflow) the ratio's limit, ``math.inf``, is returned.
    """
    cc = _rate(c)
    recruitment = p.mu_b * p.eta_A
    if recruitment == 0.0:
        return math.inf
    return (p.eta_A + p.mu_A) * (p.mu_m + cc) / recruitment


def r0_closed_form(p: ModelParams, c: ControlLevel | float = 0.0) -> float:
    """Closed-form basic reproduction number at the paper's disease-free
    point (the formula and its spectral cross-check are in ``stability``);
    raises MosquitoCollapseError when the viability margin is <= 0, and
    NumericalFailure when the denominator's product of rates underflows or
    a product of rates overflows so that R0 is not finite."""
    return _r0(p, _rate(c))


def _r0(p: ModelParams, c: float) -> float:
    """``r0_closed_form`` at a control rate already checked by ``_rate``."""
    viability = _viability(p, c, "basic reproduction number")
    denominator = (p.mu_b * (p.eta_h + p.mu_h) * p.mu_m * (c + p.mu_m)
                   * (c + p.eta_m + p.mu_m) * (p.mu_h + p.nu_h))
    if denominator == 0.0:
        raise NumericalFailure("basic reproduction number undefined: the product "
                               "of rates in its denominator underflows to 0")
    # B stays outside the root: B**2 overflows for B above about 1e154
    r0_sq_per_b_sq = (
        p.K / p.N_h * p.beta_hm * p.beta_mh * p.eta_m * p.nu_h * viability / denominator)
    r0 = p.B * math.sqrt(r0_sq_per_b_sq)
    if not math.isfinite(r0):
        raise NumericalFailure(f"basic reproduction number is not finite ({r0!r}): "
                               "a product of rates overflows")
    return r0


def r0_factors(p: ModelParams, c: ControlLevel | float = 0.0) -> tuple[float, float]:
    """Two-factor split R0^2 = R_hm * R_mh at the paper's disease-free point.

    R_hm (human -> mosquito) bundles the bite rate against susceptible
    mosquitoes per human, the viraemic period 1/(eta_h+mu_h), and the
    fraction of humans surviving incubation nu_h/(mu_h+nu_h).  R_mh
    (mosquito -> human) bundles the bite rate against susceptible humans,
    the controlled mosquito lifespan 1/(c+mu_m), and the fraction of
    mosquitoes surviving incubation eta_m/(c+eta_m+mu_m).  Raises as
    ``_paper_dfe`` does, and NumericalFailure when the product of rates in
    either factor's denominator underflows to 0.
    """
    cc = _rate(c)
    dfe = _paper_dfe(p, cc)
    den_hm = p.N_h * (p.eta_h + p.mu_h) * (p.mu_h + p.nu_h)
    den_mh = p.N_h * (cc + p.mu_m) * (cc + p.eta_m + p.mu_m)
    if den_hm == 0.0 or den_mh == 0.0:
        raise NumericalFailure("reproduction factors R_hm, R_mh undefined: the product "
                               "of rates in a denominator underflows to 0")
    return (p.B * dfe.S_m * p.beta_hm * p.nu_h / den_hm,
            p.B * dfe.S_h * p.beta_mh * p.eta_m / den_mh)


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
    scales = component_scales(p)
    for label, value, bound in zip(STATE_LABELS, x, scales):
        if not value >= -slack * bound:
            return f"{label}0 = {value!r} violates {label}0 >= 0"
    n_h, _, _, kn, mn, _, _ = scales
    human = x.S_h + x.E_h + x.I_h
    if human > n_h * (1.0 + slack):
        return f"S_h0+E_h0+I_h0 = {human!r} exceeds N_h = {n_h!r}"
    if x.A_m > kn * (1.0 + slack):
        return f"A_m0 = {x.A_m!r} exceeds the aquatic bound k*N_h = {kn!r}"
    adults = x.S_m + x.E_m + x.I_m
    if adults > mn * (1.0 + slack):
        return f"S_m0+E_m0+I_m0 = {adults!r} exceeds the adult bound m*N_h = {mn!r}"
    return None


def in_omega(p: ModelParams, x: State7) -> bool:
    """Membership in the admissible region (see ``region_violation``)."""
    return region_violation(p, x) is None
