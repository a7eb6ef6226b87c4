"""Adaptive explicit Runge-Kutta integration of the 7-dimensional system.

The propagating method is the Dormand-Prince 5(4) embedded pair with the
standard quartic continuous extension, so reported states land exactly on
the requested uniform output grid while step size stays purely
error-controlled.  The system is non-stiff at realistic parameter values
(fastest local rate is a few per day), so an explicit pair with no linear
algebra in the hot loop is the right tool.  A classical fixed-step RK4
routine is provided as an independent oracle for tests.

Error control uses a weighted RMS norm with per-component weights
``atol*scale_i + rtol*|x_i|`` where the scales are the natural compartment
magnitudes (N_h, k*N_h, m*N_h).  Values are never clipped: positivity is a
property to be observed (and asserted post hoc with tolerance), not
enforced, since clipping would mask integrator bugs and silently violate
conservation.
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
)

# Dormand-Prince 5(4): stage coefficients, whose last row is the 5th-order
# weights b (first-same-as-last), and the (b5 - b4) error weights e.
_A = tuple(
    np.array(row, dtype=float)
    for row in (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))

# Continuous-extension weights (quartic in theta built from the seven
# stages; evaluates bit-exactly to the step endpoints at theta=0,1).
_D = np.array(
    (
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    )
)

_MIN_STEP = 1e-12  # days; below this the problem is declared stiff/broken
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

#: Most points a reported grid (output times, sweep controls) may hold.
MAX_GRID_POINTS = 10**6


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
    accepted: int
    rejected: int


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


def _stages(p: ModelParams, c: float, y: np.ndarray, h: float,
            k1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One DP54 attempt: returns (stage matrix k, 5th-order y1, error vector)."""
    k = np.empty((7, y.size), dtype=float)
    k[0] = k1
    for i in range(1, 7):
        y1 = y + h * (_A[i - 1] @ k[:i])
        k[i] = _rhs_array(p, c, y1)
    return k, y1, h * (_E @ k)


def _dense_eval(y0: np.ndarray, y1: np.ndarray, k: np.ndarray, h: float,
                theta: float) -> np.ndarray:
    ydiff = y1 - y0
    bspl = h * k[0] - ydiff
    r4 = ydiff - h * k[6] - bspl
    r5 = h * (_D @ k)
    return y0 + theta * (ydiff + (1.0 - theta) * (bspl + theta * (r4 + (1.0 - theta) * r5)))


def integrate(p: ModelParams, c: ControlLevel | float, x0: State7,
              cfg: SolverConfig) -> Trajectory:
    """Integrate from x0 over [t0, t_end], reporting on the uniform grid.

    Deterministic: identical inputs give bit-identical trajectories.
    Raises ValueError if x0 is outside the admissible region (non-finite
    states included) and NumericalFailure (carrying the failure time) on
    step-size underflow.
    """
    violation = region_violation(p, x0)
    if violation:
        raise ValueError(
            f"initial state lies outside the biologically admissible region: {violation}")
    cc = as_control(c).c

    grid = _output_grid(cfg.t0, cfg.t_end, cfg.output_step)
    scales = component_scales(p)
    y = x0.as_array()
    t = cfg.t0
    k1 = _rhs_array(p, cc, y)
    h = min(cfg.h_init, cfg.h_max, cfg.t_end - cfg.t0)

    out: list[np.ndarray] = [y.copy()]
    j = 1  # next grid index to fill
    accepted = 0
    rejected = 0

    while t < cfg.t_end:
        clamped = t + h >= cfg.t_end
        if clamped:
            h = cfg.t_end - t
        elif h < _MIN_STEP:
            raise NumericalFailure(
                f"step size underflow ({h:.3e} day) at t = {t:.6f} day", time=t)

        k, y1, err = _stages(p, cc, y, h, k1)
        if np.all(np.isfinite(y1)) and np.all(np.isfinite(err)):
            w = cfg.atol * scales + cfg.rtol * np.maximum(np.abs(y), np.abs(y1))
            err_norm = math.sqrt(float(np.mean((err / w) ** 2)))
        else:
            err_norm = math.inf

        if err_norm <= 1.0:
            t_new = cfg.t_end if clamped else t + h
            while j < grid.size and grid[j] <= t_new + 1e-12 * max(1.0, abs(t_new)):
                theta = min(1.0, (grid[j] - t) / h)
                out.append(_dense_eval(y, y1, k, h, theta))
                j += 1
            t, y, k1 = t_new, y1, k[6]  # first-same-as-last
            accepted += 1
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
        else:
            rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
        h = min(h * factor, cfg.h_max)

    return Trajectory(times=grid, data=full_states(p, np.array(out)),
                      step_stats=StepStats(accepted=accepted, rejected=rejected))


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

    return Trajectory(times=np.array(times, dtype=float), data=full_states(p, np.array(out)),
                      step_stats=StepStats(accepted=n_steps, rejected=0))


def _integrate_fixed_dp54(p: ModelParams, c: ControlLevel | float, x0: State7,
                          h: float, t_end: float) -> State7:
    """Final state of the DP54 propagating solution at fixed step size.

    Test hook for measuring the pair's convergence order; not part of the
    public surface.
    """
    cc = as_control(c).c
    n_steps = max(0, int(round(t_end / h)))
    y = x0.as_array()
    k1 = _rhs_array(p, cc, y)
    for _ in range(n_steps):
        k, y, _err = _stages(p, cc, y, h, k1)
        k1 = k[6]
    return State7.from_array(y)
