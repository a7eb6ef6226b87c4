"""Adaptive explicit Runge-Kutta integration of the 7-dimensional system.

The propagating method is the Dormand-Prince 5(4) embedded pair with the
standard quartic continuous extension, so reported states land exactly on
the requested uniform output grid while step size stays purely
error-controlled.  The system is non-stiff at realistic parameter values
(fastest local rate is a few per day), so an explicit pair with no linear
algebra in the hot loop is the right tool.  A classical fixed-step RK4
routine is provided as an independent oracle for tests.

A step attempt runs on plain Python floats: with seven components, numpy's
per-call cost would exceed the arithmetic.  Dense output runs once per
accepted step, as one numpy pass over every report time inside the step.
A run is capped at ``MAX_STEPS`` step attempts.

Error control uses a weighted RMS norm with per-component weights
``atol*scale_i + rtol*max(|y_i|, |y1_i|)`` where the scales are the
natural compartment magnitudes (N_h, k*N_h, m*N_h).  Values are never
clipped: positivity is a property to be observed (and asserted post hoc
with tolerance), not enforced, since clipping would mask integrator bugs
and silently violate conservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalFailure
from .model import (
    ControlLevel,
    ModelParams,
    State7,
    State8,
    as_control,
    component_scales,
    full_states,
    region_violation,
    _rhs_array,
    _rhs_floats,
)

# Dormand-Prince 5(4): stage coefficients, whose last row is the 5th-order
# weights b (first-same-as-last), and the (b5 - b4) error weights e.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# Continuous-extension weights (quartic in theta built from the seven
# stages; evaluates bit-exactly to the step endpoints at theta=0,1).
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

_MIN_STEP = 1e-12  # days; below this the problem is declared stiff/broken
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

#: Most points a reported grid (output times, sweep controls) may hold.
MAX_GRID_POINTS = 10**6
#: Most step attempts one integration may make.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class SolverConfig:
    """Integration window, tolerances and reporting grid (all in days)."""

    t0: float = 0.0
    t_end: float = 100.0
    rtol: float = 1e-8
    atol: float = 1e-8          # multiplies the per-component scales
    h_init: float = 1e-3
    h_max: float = 1.0
    output_step: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            v = float(getattr(self, f.name))
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, v)
        if self.t_end < self.t0:
            raise ValueError(f"t_end ({self.t_end}) must be >= t0 ({self.t0})")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("rtol and atol must be > 0")
        if not 0.0 < self.h_init <= self.h_max:
            raise ValueError("need 0 < h_init <= h_max")
        if self.output_step <= 0.0:
            raise ValueError("output_step must be > 0")


@dataclass(frozen=True)
class StepStats:
    """Step counts and sizes of one run; the step sizes are those of
    accepted steps (days), both 0.0 when no step was taken."""

    accepted: int
    rejected: int
    rhs_evals: int
    smallest_step: float
    largest_step: float


@dataclass(frozen=True)
class Trajectory:
    """Reported time grid and the read-only (n, 8) array of states in CSV
    column order (with R_h reconstructed)."""

    times: np.ndarray
    data: np.ndarray
    step_stats: StepStats

    def as_array(self) -> np.ndarray:
        """States as an (n, 8) array in CSV column order."""
        return self.data

    @property
    def states(self) -> tuple[State8, ...]:
        """The rows as State8 objects, built on each access."""
        return tuple(State8(*row) for row in self.data.tolist())


def _output_grid(t0: float, t_end: float, step: float) -> np.ndarray:
    span = (t_end - t0) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise ValueError(
            f"output grid needs {span + 1:.4g} points, more than the cap of "
            f"{MAX_GRID_POINTS}; raise output_step or shorten the window")
    n = int(math.floor(span))
    grid = t0 + step * np.arange(n + 1, dtype=float)
    if grid[-1] < t_end - 1e-9 * max(1.0, abs(t_end)):
        grid = np.append(grid, t_end)
    else:
        grid[-1] = t_end
    return grid


def _stages(p: ModelParams, c: float, y, h: float, k1):
    """One DP54 attempt on 7-sequences of floats: returns (the seven stages
    k1..k7, the 5th-order y1, the error vector).  The zero weights b2 and
    e2 are skipped."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6) = _A
    e1, _, e3, e4, e5, e6, e7 = _E
    k2 = _rhs_floats(p, c, [x + h * (a21 * q1) for x, q1 in zip(y, k1)])
    k3 = _rhs_floats(p, c, [x + h * (a31 * q1 + a32 * q2)
                            for x, q1, q2 in zip(y, k1, k2)])
    k4 = _rhs_floats(p, c, [x + h * (a41 * q1 + a42 * q2 + a43 * q3)
                            for x, q1, q2, q3 in zip(y, k1, k2, k3)])
    k5 = _rhs_floats(p, c, [x + h * (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4)
                            for x, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)])
    k6 = _rhs_floats(p, c, [x + h * (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5)
                            for x, q1, q2, q3, q4, q5 in zip(y, k1, k2, k3, k4, k5)])
    y1 = [x + h * (b1 * q1 + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6)
          for x, q1, q3, q4, q5, q6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = _rhs_floats(p, c, y1)
    err = [h * (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7)
           for q1, q3, q4, q5, q6, q7 in zip(k1, k3, k4, k5, k6, k7)]
    return (k1, k2, k3, k4, k5, k6, k7), y1, err


def _dense_rows(y0, y1, k, h: float, theta: np.ndarray) -> np.ndarray:
    """States on the quartic continuous extension of one step at the step
    fractions theta, one row per entry."""
    k1, _, k3, k4, k5, k6, k7 = k
    d1, _, d3, d4, d5, d6, d7 = _D
    coef = []
    for a, b, q1, q3, q4, q5, q6, q7 in zip(y0, y1, k1, k3, k4, k5, k6, k7):
        ydiff = b - a
        bspl = h * q1 - ydiff
        r4 = ydiff - h * q7 - bspl
        r5 = h * (d1 * q1 + d3 * q3 + d4 * q4 + d5 * q5 + d6 * q6 + d7 * q7)
        coef.append((a, ydiff, bspl, r4, r5))
    y0, ydiff, bspl, r4, r5 = np.array(coef).T
    theta = theta[:, None]
    u = 1.0 - theta
    return y0 + theta * (ydiff + u * (bspl + theta * (r4 + u * r5)))


def integrate(p: ModelParams, c: ControlLevel | float, x0: State7,
              cfg: SolverConfig) -> Trajectory:
    """Integrate from x0 over [t0, t_end], reporting on the uniform grid.

    Deterministic: identical inputs give bit-identical trajectories.
    Raises ValueError if x0 is outside the admissible region (non-finite
    states included) or the window needs more than MAX_STEPS steps at
    h_max, and NumericalFailure (carrying the failure time) on step-size
    underflow or after MAX_STEPS step attempts.
    """
    violation = region_violation(p, x0)
    if violation:
        raise ValueError(
            f"initial state lies outside the biologically admissible region: {violation}")
    cc = as_control(c).c

    grid = _output_grid(cfg.t0, cfg.t_end, cfg.output_step)
    steps_needed = (cfg.t_end - cfg.t0) / cfg.h_max
    if steps_needed > MAX_STEPS:
        raise ValueError(
            f"the window needs at least {steps_needed:.4g} steps at h_max = {cfg.h_max:g} day, "
            f"more than the cap of {MAX_STEPS}; raise h_max or shorten the window")
    scales = component_scales(p).tolist()
    atol, rtol = cfg.atol, cfg.rtol
    y = x0.as_array().tolist()
    t = cfg.t0
    k1 = _rhs_floats(p, cc, y)
    h = min(cfg.h_init, cfg.h_max, cfg.t_end - cfg.t0)

    blocks = [np.array([y])]
    j = 1  # next grid index to fill
    accepted = 0
    rejected = 0
    smallest = math.inf
    largest = 0.0

    while t < cfg.t_end:
        if accepted + rejected >= MAX_STEPS:
            raise NumericalFailure(
                f"step limit ({MAX_STEPS} attempts) reached at t = {t:.6f} day", time=t)
        clamped = t + h >= cfg.t_end
        if clamped:
            h = cfg.t_end - t
        elif h < _MIN_STEP:
            raise NumericalFailure(
                f"step size underflow ({h:.3e} day) at t = {t:.6f} day", time=t)

        k, y1, err = _stages(p, cc, y, h, k1)
        sq = 0.0
        for e, s, a, b in zip(err, scales, y, y1):
            q = e / (atol * s + rtol * max(abs(a), abs(b)))
            sq += q * q
        if math.isfinite(sq) and all(map(math.isfinite, y1)):
            err_norm = math.sqrt(sq / 7.0)
        else:
            err_norm = math.inf

        if err_norm <= 1.0:
            t_new = cfg.t_end if clamped else t + h
            reach = t_new + 1e-12 * max(1.0, abs(t_new))
            if j < grid.size and grid[j] <= reach:
                j_end = int(np.searchsorted(grid, reach, side="right"))
                theta = np.minimum(1.0, (grid[j:j_end] - t) / h)
                blocks.append(_dense_rows(y, y1, k, h, theta))
                j = j_end
            t, y, k1 = t_new, y1, k[6]  # first-same-as-last
            accepted += 1
            if h < smallest:
                smallest = h
            if h > largest:
                largest = h
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
        else:
            rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
        h = min(h * factor, cfg.h_max)

    stats = StepStats(accepted=accepted, rejected=rejected,
                      rhs_evals=6 * (accepted + rejected) + 1,
                      smallest_step=smallest if accepted else 0.0, largest_step=largest)
    return Trajectory(times=grid, data=full_states(p, np.concatenate(blocks)), step_stats=stats)


def integrate_fixed_rk4(p: ModelParams, c: ControlLevel | float, x0: State7,
                        h: float, t_end: float) -> Trajectory:
    """Classical fixed-step RK4 from t=0; the independent test oracle.

    States are recorded roughly every half day (every step for coarse h)
    plus the final point, to keep fine-step oracle runs memory-sane.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be > 0, got {h}")
    if not x0.is_finite():
        raise ValueError("initial state contains non-finite components")
    cc = as_control(c).c

    n_steps = max(0, int(round(t_end / h)))
    stride = max(1, int(round(0.5 / h)))
    y = x0.as_array()
    times = [0.0]
    out = [y.copy()]
    t = 0.0
    for i in range(1, n_steps + 1):
        k1 = _rhs_array(p, cc, y)
        k2 = _rhs_array(p, cc, y + 0.5 * h * k1)
        k3 = _rhs_array(p, cc, y + 0.5 * h * k2)
        k4 = _rhs_array(p, cc, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = i * h
        if i % stride == 0 or i == n_steps:
            times.append(t)
            out.append(y.copy())

    step = h if n_steps else 0.0
    stats = StepStats(accepted=n_steps, rejected=0, rhs_evals=4 * n_steps,
                      smallest_step=step, largest_step=step)
    return Trajectory(times=np.array(times, dtype=float), data=full_states(p, np.array(out)),
                      step_stats=stats)


def _integrate_fixed_dp54(p: ModelParams, c: ControlLevel | float, x0: State7,
                          h: float, t_end: float) -> State7:
    """Final state of the DP54 propagating solution at fixed step size.

    Test hook for measuring the pair's convergence order; not part of the
    public surface.
    """
    cc = as_control(c).c
    n_steps = max(0, int(round(t_end / h)))
    y = x0.as_array().tolist()
    k1 = _rhs_floats(p, cc, y)
    for _ in range(n_steps):
        k, y, _err = _stages(p, cc, y, h, k1)
        k1 = k[6]
    return State7.from_array(y)
