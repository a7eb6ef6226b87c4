"""Shared fixtures: the Cape Verde 2009 baseline, random parameter draws
(extreme ones included), a fixed-step DP5(4) propagator, a session-wide
fixed-step RK4 reference run, and a subprocess runner that asserts no numpy
was imported."""

from __future__ import annotations

import dataclasses
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from dengue_control.integrator import integrate_fixed_rk4, _attempt
from dengue_control.model import ControlLevel, ModelParams, State7, _rate, _rhs_of

N_H = 480000.0

CAPE_VERDE = ModelParams(
    N_h=N_H, B=1.0, beta_mh=0.375, beta_hm=0.375,
    mu_h=1.0 / (71.0 * 365.0), eta_h=1.0 / 3.0,
    mu_m=1.0 / 11.0, mu_b=6.0, mu_A=0.25, eta_A=0.08,
    eta_m=1.0 / 11.0, nu_h=0.25, m=6.0, k=3.0, K=3.0 * N_H,
)

CAPE_VERDE_X0 = State7(S_h=N_H - 216.0 - 434.0, E_h=216.0, I_h=434.0,
                       A_m=3.0 * N_H, S_m=6.0 * N_H, E_m=0.0, I_m=0.0)


#: Doubles whose text is easy to get wrong: signed zeros, the smallest
#: subnormal, exponent switches of repr, values that round to -0.00 or sit
#: near a halfway case of two decimals, infinities and NaN.
ADVERSARIAL_DOUBLES = (-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, -1e22, -0.004,
                       -0.005, -0.0049999, 0.005, 0.125, 0.375, 1.005, 2.675, 123.455,
                       math.inf, -math.inf, math.nan)


def params_with(**overrides) -> ModelParams:
    """The Cape Verde baseline with some fields replaced (validated again)."""
    return dataclasses.replace(CAPE_VERDE, **overrides)


def _scaled(rng: np.random.Generator, value: float, lo=0.8, hi=1.25) -> float:
    return value * math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_params(rng: np.random.Generator) -> ModelParams:
    """Random valid parameters near the Cape Verde baseline.

    Rates move log-uniformly within x[0.8, 1.25], bites and transmission
    probabilities more widely (so the reproduction number straddles one),
    m and k stay fixed.  Within these ranges the viability margin stays
    positive for controls up to 0.3/day and the disease-free state stays
    inside the admissible region (k*eta_A < m*mu_m throughout).
    """
    base = CAPE_VERDE
    n_h = base.N_h
    k = base.k
    return ModelParams(
        N_h=n_h,
        B=base.B * math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
        beta_mh=rng.uniform(0.1, 0.6),
        beta_hm=rng.uniform(0.1, 0.6),
        mu_h=_scaled(rng, base.mu_h),
        eta_h=_scaled(rng, base.eta_h),
        mu_m=_scaled(rng, base.mu_m),
        mu_b=_scaled(rng, base.mu_b),
        mu_A=_scaled(rng, base.mu_A),
        eta_A=_scaled(rng, base.eta_A),
        eta_m=_scaled(rng, base.eta_m),
        nu_h=_scaled(rng, base.nu_h),
        m=base.m,
        k=k,
        K=k * n_h,
    )


def draw_params_wide(rng: np.random.Generator) -> tuple[ModelParams, ControlLevel]:
    """Wider family for sign tests: recruitment can drop to near zero and
    control can exceed the collapse bound, so the viability margin takes
    both signs."""
    p = draw_params(rng)
    p = dataclasses.replace(
        p, mu_b=p.mu_b * math.exp(rng.uniform(math.log(0.02), math.log(1.0))))
    return p, ControlLevel(rng.uniform(0.0, 2.0))


#: The rates that ``draw_extreme`` takes to extremes.
_EXTREME_KEYS = ("N_h", "B", "mu_h", "eta_h", "mu_m", "mu_b", "mu_A", "eta_A", "eta_m",
                 "nu_h", "m", "k", "K")


def draw_extreme(rnd: random.Random) -> tuple[ModelParams, float]:
    """The built-in parameters with 1-3 rates at 10^(-310...308.2) and the
    transmission probabilities from 0 to 1, and a control level."""
    overrides = {key: 10.0 ** rnd.uniform(-310.0, 308.2)
                 for key in rnd.sample(_EXTREME_KEYS, rnd.randint(1, 3))}
    for key in ("beta_mh", "beta_hm"):
        overrides[key] = rnd.choice((0.0, 1e-300, 1e-100, 1.0, rnd.random()))
    c = rnd.choice((0.0, 0.05, 0.12, rnd.uniform(0.0, 0.3)))
    return params_with(**overrides), c


def draw_omega_state(rng: np.random.Generator, p: ModelParams) -> State7:
    """Uniform random state inside the admissible region."""
    h = rng.uniform(0.0, 1.0, size=3)
    h *= rng.uniform(0.0, 1.0) / max(h.sum(), 1e-12)   # S+E+I <= N_h
    adults = rng.uniform(0.0, 1.0, size=3)
    adults *= rng.uniform(0.0, 1.0) / max(adults.sum(), 1e-12)
    return State7(
        S_h=h[0] * p.N_h, E_h=h[1] * p.N_h, I_h=h[2] * p.N_h,
        A_m=rng.uniform(0.0, p.k * p.N_h),
        S_m=adults[0] * p.m * p.N_h,
        E_m=adults[1] * p.m * p.N_h,
        I_m=adults[2] * p.m * p.N_h,
    )


def integrate_fixed_dp54(p: ModelParams, c: ControlLevel | float, x0: State7,
                         h: float, t_end: float) -> State7:
    """Final state of the DP5(4) propagating solution at fixed step size h,
    for measuring the pair's convergence order."""
    f = _rhs_of(p, _rate(c))
    y = x0
    k1 = f(y)
    for _ in range(max(0, int(round(t_end / h)))):
        k, y, _norm = _attempt(f, y, h, k1, (1.0,) * 7, 0.0)
        k1 = k[6]
    return State7.from_array(y)


@pytest.fixture
def cape_verde() -> ModelParams:
    return CAPE_VERDE


@pytest.fixture
def cape_verde_x0() -> State7:
    return CAPE_VERDE_X0


@pytest.fixture(scope="session")
def rk4_reference():
    """Fixed-step RK4 oracle run of the Cape Verde scenario, h = 1e-3 day,
    100 days, recorded every half day.  The expensive ground truth shared
    by the integrator agreement, convergence and acceptance tests."""
    return integrate_fixed_rk4(CAPE_VERDE, 0.0, CAPE_VERDE_X0, 1e-3, 100.0)


def run_without_numpy(*args):
    """Run ``python -X importtime *args`` and assert that it imported the
    package but no numpy module."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=60)
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "dengue_control" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []
    return proc
