"""Adaptive explicit Runge-Kutta integration of the 7-dimensional system.

The propagating method is the Dormand-Prince 5(4) embedded pair with the
standard quartic continuous extension, so reported states land exactly on
the requested uniform output grid while step size stays purely
error-controlled.  The system is non-stiff at realistic parameter values
(fastest local rate is a few per day), so an explicit pair with no linear
algebra in the hot loop is the right tool.  A classical fixed-step RK4
routine is provided as an independent oracle for tests.

A step attempt runs on plain Python floats: with seven components, numpy's
per-call cost would exceed the arithmetic.  It calls the model's derivative
bound once per run (``model._rhs_of``), so the rate products and sums that
do not depend on the state are taken once, not on each of an attempt's six
evaluations.  The attempt, its error norm included, is one function of
straight-line code (``_attempt``), generated once at import from the
tableau, because a comprehension over ``zip`` per stage cost more than the
stage's arithmetic, and a separate norm cost a call and an error tuple per
attempt.  It keeps the loop forms' operation order, so every result is bit
for bit the same, and its stage lines stay duck-typed, so (L,) arrays step
L lanes at once.  The model formula itself is called, not pasted into the
generated code: that would be a second copy of it, and a prototype that did
so made an attempt only about 6% faster.  The step loop only keeps the
books: an attempt budget, and a search of the report grid only for a step
that reaches the next report time.  The report rows, t and the
eight ``ROW_LABELS`` columns per report time, R_h included, go into one
flat ``array('d')``, allocated once, x0's row first.  Without numpy, an
accepted step that covers report times writes their rows there at once,
on the quartic continuous extension of its own (t, h, y, y1, k), as floats
(``_step_rows``), so that ``simulate`` never imports numpy
(``_numpy_loaded``).  Once numpy is loaded, such a step instead appends the
58 doubles its extension reads to one flat ``bytearray``, which exists for
this pass alone: after the loop, ``_dense_vectorized`` reads it in place,
takes the coefficients of all those steps at once, in the loop form's
operation order, and writes the rows in chunks of ``_DENSE_CHUNK``, so its
per-row temporaries stay a chunk in size.  The CSV and SVG renderers format
text in chunks of the same row count.  A run is capped at ``MAX_STEPS``
step attempts.

Error control uses a weighted RMS norm with per-component weights
``atol*scale_i + rtol*max(|y_i|, |y1_i|)`` where the scales are the
natural compartment magnitudes (N_h, k*N_h, m*N_h); ``atol*scale_i`` is
taken once per run.  Values are never clipped: positivity is a property to
be observed (and asserted post hoc with tolerance), not enforced, since
clipping would mask integrator bugs and silently violate conservation.
"""

from __future__ import annotations

import bisect
import math
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from struct import Struct, pack
from typing import TYPE_CHECKING

from .errors import NumericalFailure, ScenarioError
from .model import (
    ControlLevel,
    ModelParams,
    ROW_LABELS,
    STATE_LABELS,
    State7,
    component_scales,
    region_violation,
    _rate,
    _rhs_of,
)
from .scenario import _DENSE_CHUNK, MAX_GRID_POINTS, SolverConfig

if TYPE_CHECKING:
    import numpy as np

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
# Largest spacing of doubles at the window's times, as a share of h_max,
# that a run accepts: t advances by the rounded t + h while the state
# advances by the full h, so a coarser spacing skews the time axis and can
# make a clamped last step repeat until MAX_STEPS.  At h_max = 1 day every
# window within 2^23 days is accepted.
_TIME_RESOLUTION = 1e-9
# Doubles per report row, t and then the ROW_LABELS columns; the row format.
_WIDTH = 1 + len(ROW_LABELS)
_ROW = Struct(f"{_WIDTH}d")

#: Most step attempts one integration may make.
MAX_STEPS = 10**7


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
    """The report rows of one run and its step counts.  ``rows`` holds, per
    report time, the 9 doubles of a CSV row in one flat ``array('d')``: t,
    then the states in the column order ``ROW_LABELS`` (R_h reconstructed).
    ``times`` and ``as_array()`` are read-only numpy views of it, made on
    first use, so that reading rows as text or floats needs no numpy."""

    rows: array = field(repr=False)
    step_stats: StepStats

    @cached_property
    def _table(self) -> np.ndarray:
        import numpy as np

        table = np.frombuffer(self.rows).reshape(-1, _WIDTH)
        table.flags.writeable = False
        return table

    @property
    def times(self) -> np.ndarray:
        """The report times, a read-only (n,) view of ``rows``."""
        return self._table[:, 0]

    def as_array(self) -> np.ndarray:
        """States as a read-only (n, 8) view of ``rows``, CSV column order."""
        return self._table[:, 1:]


def _r_h(n_h, s_h, e_h, i_h):
    """R_h = N_h - S_h - E_h - I_h, subtracted in that order, on floats or
    arrays: the one home of R_h.  A negative R_h is reported as is: it
    signals leaving the region, not an error."""
    return n_h - s_h - e_h - i_h


def _output_grid(t0: float, t_end: float, step: float) -> array:
    """The report times ``t0 + step*i`` as an ``array('d')``, bit for bit
    ``t0 + step * np.arange(n + 1)``, their last replaced by t_end or
    followed by it; 8 bytes a time, where a list of floats takes 32."""
    span = (t_end - t0) / step + 1e-9
    n = math.floor(span) if span < MAX_GRID_POINTS else MAX_GRID_POINTS
    # t_end is appended when it lies past the last uniform point; it counts toward the cap
    past = t0 + step * n < t_end - 1e-9 * max(1.0, abs(t_end))
    if n + 1 + past > MAX_GRID_POINTS:
        raise ScenarioError(
            f"output grid needs {span + 1:.4g} points, more than the cap of "
            f"{MAX_GRID_POINTS}; raise output_step or shorten the window")
    grid = array("d", (t0 + step * i for i in range(n + 1)))
    if past:
        grid.append(t_end)
    else:
        grid[-1] = t_end
    return grid


def _unpack(name: str) -> str:
    return f"    {', '.join(f'{name}_{i}' for i in range(7))} = {name}\n"


def _weighted(weights, lead: str) -> list[str]:
    """Per component i, ``lead`` (formatted with i) times the weighted sum
    of the stages k1_i, k2_i, ...: left to right, the zero weights skipped,
    each weight its float's ``repr``, which reads back as the same double."""
    return [lead.format(i=i) + "("
            + " + ".join(f"{w!r} * k{j}_{i}" for j, w in enumerate(weights, 1) if w != 0.0)
            + ")" for i in range(7)]


def _tuple(items) -> str:
    return "(" + "".join(f"\n        {item}," for item in items) + ")"


def _stages_source() -> str:
    """The stage lines of ``_attempt``, written out from ``_A`` and ``_E``:
    from f, y, h and k1, the stages k2..k7, y1 and the components of each,
    and the error's components err_i."""
    src = _unpack("y") + _unpack("k1")
    for s, weights in enumerate(_A[:-1], 2):
        src += f"    k{s} = f({_tuple(_weighted(weights, 'y_{i} + h * '))})\n" + _unpack(f"k{s}")
    src += f"    y1 = {_tuple(_weighted(_A[-1], 'y_{i} + h * '))}\n" + _unpack("y1")
    src += "    k7 = f(y1)\n" + _unpack("k7")  # first-same-as-last: the next step's k1
    return src + "".join(f"    {line}\n" for line in _weighted(_E, "err_{i} = h * "))


def _attempt_source() -> str:
    """Source of ``_attempt``: the stage lines, then the error norm, per
    component ``a if a >= 0.0 else -a`` for abs(a) and ``b if b > a else
    a`` for max(a, b), which is how ``max`` picks (a NaN b gives a); the
    squares summed left to right."""
    src = "def _attempt(f, y, h, k1, w, rtol):\n" + _stages_source() + _unpack("w")
    for i in range(7):
        src += (f"    a = y_{i} if y_{i} >= 0.0 else -y_{i}\n"
                f"    b = y1_{i} if y1_{i} >= 0.0 else -y1_{i}\n"
                f"    q{i} = err_{i} / (w_{i} + rtol * (b if b > a else a))\n")
    src += f"    sq = {' + '.join(f'q{i} * q{i}' for i in range(7))}\n"
    finite = " and ".join(["isfinite(sq)"] + [f"isfinite(y1_{i})" for i in range(7)])
    return src + (f"    return (k1, k2, k3, k4, k5, k6, k7), y1, "
                  f"sqrt(sq / 7.0) if {finite} else inf\n")


def _compile(name: str, source: str, filename: str, doc: str):
    namespace = {}
    # __name__ makes the function's module this one, as a def here would;
    # the math names are bound once, as globals of the generated code
    scope = {"__name__": __name__, "inf": math.inf, "isfinite": math.isfinite, "sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), scope, namespace)
    fn = namespace[name]
    fn.__doc__ = doc
    return fn


_attempt = _compile("_attempt", _attempt_source(), "<dp54 attempt>", """\
One DP54 attempt on 7-sequences, with f the bound derivative
    ``model._rhs_of(p, c)`` and w the per-component ``atol*scale``: returns
    (the seven stages k1..k7, the 5th-order y1 as a tuple, the weighted RMS
    norm of the error with weights ``w_i + rtol*max(|y_i|, |y1_i|)``, inf
    when the sum of squares or y1 is not finite).

    Straight-line code generated once from ``_A`` and ``_E``
    (``_attempt_source``), each state and stage unpacked once into locals,
    y1 and the error kept as locals for the norm.  Every component keeps
    the operation order ``x + h * (a_s1*k1 + ...)``, with b2 and e2
    skipped, and the norm that of ``sq += (e / (w + rtol * max(abs(a),
    abs(b))))**2``, so the results are bit for bit the loop forms'.  The
    stage lines (``_stages_source``) call no float(), math function, max or
    abs: given seven (L,) arrays, a per-lane h and f bound to a per-lane c,
    they step L lanes at once, each lane equal to its scalar attempt.""")


def _numpy_loaded() -> bool:
    """Whether numpy is imported already: the one choice between the
    vectorized passes (dense output, SVG pixel mapping) and their per-row
    loops.  The cost avoided is numpy's import, more than a whole
    ``simulate`` on its default grid of 201 rows otherwise takes; once that
    import is paid, the vectorized pass is the faster one."""
    return "numpy" in sys.modules


def _step_rows(out: array, n_h: float, grid: array, j: int, j_end: int, t: float, h: float,
               y, y1, k) -> None:
    """Write rows j .. j_end - 1 of ``out`` (``_WIDTH`` doubles each: t,
    then the full state) at the report times ``grid[j:j_end]``, on the
    quartic continuous extension of the step of size h from (t, y) to y1
    with stages k.  Per component the coefficients are those of the loop
    ``ydiff = y1 - y; bspl = h*k1 - ydiff; r4 = ydiff - h*k7 - bspl;
    r5 = h*(d1*k1 + d3*k3 + ...)`` (d2 = 0 skipped), and a report time t_j
    gives y + theta*(ydiff + u*(bspl + theta*(r4 + u*r5))) with theta =
    min(1, (t_j - t)/h), u = 1 - theta.  A report time inside the ``reach``
    slack past the step's end takes the step's end state (theta clamped to
    1), never an extrapolation.  This is the per-row pass; once numpy is
    loaded, ``_dense_vectorized`` writes the same doubles instead."""
    k1, _, k3, k4, k5, k6, k7 = k
    d1, _, d3, d4, d5, d6, d7 = _D
    coef = []
    for a, b, q1, q3, q4, q5, q6, q7 in zip(y, y1, k1, k3, k4, k5, k6, k7):
        ydiff = b - a
        bspl = h * q1 - ydiff
        coef.append((a, ydiff, bspl, ydiff - h * q7 - bspl,
                     h * (d1 * q1 + d3 * q3 + d4 * q4 + d5 * q5 + d6 * q6 + d7 * q7)))
    put, size = _ROW.pack_into, _ROW.size
    for tj in grid[j:j_end]:
        th = min(1.0, (tj - t) / h)
        u = 1.0 - th
        s_h, e_h, i_h, a_m, s_m, e_m, i_m = [
            a + th * (d + u * (b + th * (r4 + u * r5))) for a, d, b, r4, r5 in coef]
        put(out, size * j, tj, s_h, e_h, i_h, _r_h(n_h, s_h, e_h, i_h), a_m, s_m, e_m, i_m)
        j += 1


def _dense_vectorized(out: array, n_h: float, grid: array, steps, counts) -> None:
    """Rows 1, 2, ... of ``out``, the doubles of ``_step_rows``, written by
    numpy: ``steps`` holds a row of 58 doubles per step that covers report
    times, in order (t, h, y, y1, k1, k3, ..., k7; k2 has weight d2 = 0),
    and ``counts`` their report-time counts.  The coefficients of all
    covering steps are taken at once, read from ``steps`` in place, then
    the report rows are written in chunks of ``_DENSE_CHUNK``."""
    import numpy as np

    table = np.frombuffer(out).reshape(-1, _WIDTH)
    table[:, 0] = np.frombuffer(grid)
    if not counts:
        return
    rows = np.frombuffer(steps).reshape(-1, 58)
    t, h, y0, y1 = rows[:, 0], rows[:, 1], rows[:, 2:9], rows[:, 9:16]
    k = rows[:, 16:].reshape(-1, 6, 7)  # k1, k3, k4, k5, k6, k7
    hk = h[:, None]
    ydiff = y1 - y0
    bspl = hk * k[:, 0] - ydiff
    r4 = ydiff - hk * k[:, 5] - bspl
    r5 = _D[0] * k[:, 0]
    for j, d in enumerate(_D[2:], 1):  # d2 = 0 skipped
        r5 += d * k[:, j]
    r5 *= hk
    step = np.repeat(np.arange(len(counts)), counts)
    for lo in range(0, step.size, _DENSE_CHUNK):
        s = step[lo:lo + _DENSE_CHUNK]
        chunk = table[1 + lo:1 + lo + s.size]
        th = np.minimum(1.0, (chunk[:, 0] - t[s]) / h[s])[:, None]
        u = 1.0 - th
        states = y0[s] + th * (ydiff[s] + u * (bspl[s] + th * (r4[s] + u * r5[s])))
        chunk[:, 1:4] = states[:, :3]
        chunk[:, 4] = _r_h(n_h, states[:, 0], states[:, 1], states[:, 2])
        chunk[:, 5:] = states[:, 3:]


def integrate(p: ModelParams, c: ControlLevel | float, x0: State7,
              cfg: SolverConfig) -> Trajectory:
    """Integrate from x0 over [t0, t_end], reporting on the uniform grid.

    Deterministic: identical inputs give bit-identical trajectories.
    Raises ScenarioError if x0 is outside the admissible region (non-finite
    states included), the window needs more than MAX_STEPS steps at h_max,
    doubles at its times are more than ``_TIME_RESOLUTION * h_max`` apart or
    an error weight atol*scale is 0, and NumericalFailure (carrying the
    failure time) on step-size underflow or after MAX_STEPS step attempts.
    """
    violation = region_violation(p, x0)
    if violation:
        raise ScenarioError(
            f"initial state lies outside the biologically admissible region: {violation}")
    cc = _rate(c)
    t0, t_end, h_max, atol, rtol = cfg.t0, cfg.t_end, cfg.h_max, cfg.atol, cfg.rtol

    grid = _output_grid(t0, t_end, cfg.output_step)
    budget = max_steps = MAX_STEPS  # attempts left
    steps_needed = (t_end - t0) / h_max
    if steps_needed > max_steps:
        raise ScenarioError(
            f"the window needs at least {steps_needed:.4g} steps at h_max = {h_max:g} day, "
            f"more than the cap of {max_steps}; raise h_max or shorten the window")
    spacing = math.ulp(max(abs(t0), abs(t_end)))
    if spacing > _TIME_RESOLUTION * h_max:
        raise ScenarioError(
            f"doubles near the window's times are {spacing:.4g} day apart, more than "
            f"{_TIME_RESOLUTION:g} of h_max = {h_max:g} day, so the steps' times cannot "
            "be resolved; move t0 and t_end toward 0")
    scales = component_scales(p)
    w = tuple(atol * s for s in scales)  # the absolute part of each error weight
    for label, s, ws in zip(STATE_LABELS, scales, w):
        if ws == 0.0:
            raise ScenarioError(f"the error weight atol*scale of {label} underflows to 0 "
                                f"(atol = {atol:g}, scale = {s:g})")
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    attempt, bisect_right, inf = _attempt, bisect.bisect_right, math.inf
    f = _rhs_of(p, cc)
    y = x0
    t = t0
    k1 = f(y)
    h = min(cfg.h_init, h_max, t_end - t0)

    # the row buffer, allocated once by repeating a one-double array (no
    # full-size temporary), and x0's row
    n_h = p.N_h
    n_grid = len(grid)
    out = array("d", [0.0]) * (_WIDTH * n_grid)
    _ROW.pack_into(out, 0, grid[0], *x0[:3], _r_h(n_h, *x0[:3]), *x0[3:])
    vectorized = _numpy_loaded()
    # for the vectorized pass alone: per covering step t, h, y, y1, k1, k3,
    # ..., k7 (58 doubles) and its report-time count
    steps, counts = bytearray(), []
    j = 1  # next grid index to fill, and its report time
    next_report = grid[1] if n_grid > 1 else inf
    accepted = 0
    smallest = inf
    largest = 0.0

    while t < t_end:
        if not budget:
            raise NumericalFailure(
                f"step limit ({max_steps} attempts) reached at t = {t:.6f} day", time=t)
        budget -= 1
        clamped = t + h >= t_end
        if clamped:
            h = t_end - t
        elif h < _MIN_STEP:
            raise NumericalFailure(
                f"step size underflow ({h:.3e} day) at t = {t:.6f} day", time=t)

        k, y1, err_norm = attempt(f, y, h, k1, w, rtol)

        if err_norm <= 1.0:
            t_new = t_end if clamped else t + h
            # t_new + 1e-12 * max(1.0, abs(t_new)); most steps end before the next report time
            reach = t_new + 1e-12 * (t_new if t_new > 1.0 else -t_new if t_new < -1.0 else 1.0)
            if reach >= next_report:
                j_end = bisect_right(grid, reach, j)
                if vectorized:
                    steps += pack("58d", t, h, *y, *y1, *k[0], *k[2], *k[3], *k[4], *k[5], *k[6])
                    counts.append(j_end - j)
                else:
                    _step_rows(out, n_h, grid, j, j_end, t, h, y, y1, k)
                j = j_end
                next_report = grid[j] if j < n_grid else inf
            t, y, k1 = t_new, y1, k[6]  # first-same-as-last
            accepted += 1
            if h < smallest:
                smallest = h
            if h > largest:
                largest = h
        # min(max_factor, max(min_factor, factor)) and min(h, h_max) as
        # comparisons, the same doubles: err_norm is never NaN, and inf ** -0.2
        # is 0.0; a rejected attempt has err_norm > 1 (or inf), where
        # max_factor never binds
        factor = max_factor if err_norm == 0.0 else safety * err_norm ** -0.2
        h *= max_factor if factor >= max_factor else factor if factor > min_factor else min_factor
        if h > h_max:
            h = h_max

    attempts = max_steps - budget
    stats = StepStats(accepted=accepted, rejected=attempts - accepted, rhs_evals=6 * attempts + 1,
                      smallest_step=smallest if accepted else 0.0, largest_step=largest)
    if vectorized:
        _dense_vectorized(out, n_h, grid, steps, counts)
    return Trajectory(rows=out, step_stats=stats)


def integrate_fixed_rk4(p: ModelParams, c: ControlLevel | float, x0: State7,
                        h: float, t_end: float) -> Trajectory:
    """Classical fixed-step RK4 from t=0; the independent test oracle.

    States are recorded roughly every half day (every step for coarse h)
    plus the final point, to keep fine-step oracle runs memory-sane.  Runs
    on floats, per component in the operation order of the array form
    ``y + (h/6)*(k1 + 2*k2 + 2*k3 + k4)``.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be > 0, got {h}")
    if not x0.is_finite():
        raise ValueError("initial state contains non-finite components")
    f = _rhs_of(p, _rate(c))
    n_h, half, sixth = p.N_h, 0.5 * h, h / 6.0

    n_steps = max(0, int(round(t_end / h)))
    stride = max(1, int(round(0.5 / h)))
    y = [float(v) for v in x0]
    rows = array("d")
    t = 0.0
    for i in range(n_steps + 1):
        if i:
            k1 = f(y)
            k2 = f([a + half * b for a, b in zip(y, k1)])
            k3 = f([a + half * b for a, b in zip(y, k2)])
            k4 = f([a + h * b for a, b in zip(y, k3)])
            y = [a + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
                 for a, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)]
            t = i * h
        if i % stride == 0 or i == n_steps:
            rows.extend((t, *y[:3], _r_h(n_h, *y[:3]), *y[3:]))

    step = h if n_steps else 0.0
    stats = StepStats(accepted=n_steps, rejected=0, rhs_evals=4 * n_steps,
                      smallest_step=step, largest_step=step)
    return Trajectory(rows=rows, step_stats=stats)
