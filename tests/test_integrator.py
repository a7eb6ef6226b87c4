import math
import subprocess
import sys
import textwrap
import time
from array import array
from struct import pack

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (CAPE_VERDE, CAPE_VERDE_X0, draw_omega_state, draw_params,
                      integrate_fixed_dp54, params_with, run_without_numpy)
from dengue_control.equilibria import brdfe, trivial_equilibrium
from dengue_control.errors import NumericalFailure, ScenarioError
from dengue_control import integrator
from dengue_control.integrator import (
    MAX_GRID_POINTS,
    MAX_STEPS,
    SolverConfig,
    integrate,
    integrate_fixed_rk4,
    _dense_vectorized,
    _error_norm,
    _output_grid,
    _stages,
    _step_rows,
)
from dengue_control.model import State7, component_scales, in_omega, rhs, _rhs_of
from dengue_control.scenario import builtin_capeverde2009

# The Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2): stage matrix, 5th-order weights b, 4th-order weights b-hat,
# and the weights of the quartic continuous extension.
DP54_A = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656] + [0.0] * 2,
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
DP54_B = DP54_A[6]
DP54_BHAT = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                      187 / 2100, 1 / 40])
DP54_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                   -10690763975 / 1880347072, 701980252875 / 199316789632,
                   -1453857185 / 822651844, 69997945 / 29380423])


def _hand_rhs(x):
    """The model's right-hand side written out with the outbreak numbers
    at c = 0, no package code involved."""
    n_h, b, bmh, bhm = 480000.0, 1.0, 0.375, 0.375
    mu_h, eta_h, mu_m, mu_b = 1.0 / (71.0 * 365.0), 1.0 / 3.0, 1.0 / 11.0, 6.0
    mu_a, eta_a, eta_m, nu_h = 0.25, 0.08, 1.0 / 11.0, 0.25
    cap = 3.0 * n_h

    s_h, e_h, i_h, a_m, s_m, e_m, i_m = x
    foi_h = b * bmh * i_m / n_h
    foi_m = b * bhm * i_h / n_h
    return np.array([
        mu_h * n_h - (foi_h + mu_h) * s_h,
        foi_h * s_h - (nu_h + mu_h) * e_h,
        nu_h * e_h - (eta_h + mu_h) * i_h,
        mu_b * (1.0 - a_m / cap) * (s_m + e_m + i_m) - (eta_a + mu_a) * a_m,
        -(foi_m + mu_m) * s_m + eta_a * a_m,
        foi_m * s_m - (mu_m + eta_m) * e_m,
        eta_m * e_m - mu_m * i_m,
    ])


def _loop_stages(f, y, h, k1):
    """One DP54 attempt in its per-component loop form, the oracle for the
    straight-line ``integrator._stages``: the same tableau, operation order
    and skipped zero weights, written as one comprehension per stage."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6) = integrator._A
    e1, _, e3, e4, e5, e6, e7 = integrator._E
    k2 = f([x + h * (a21 * q1) for x, q1 in zip(y, k1)])
    k3 = f([x + h * (a31 * q1 + a32 * q2)
           for x, q1, q2 in zip(y, k1, k2)])
    k4 = f([x + h * (a41 * q1 + a42 * q2 + a43 * q3)
           for x, q1, q2, q3 in zip(y, k1, k2, k3)])
    k5 = f([x + h * (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4)
           for x, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)])
    k6 = f([x + h * (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5)
           for x, q1, q2, q3, q4, q5 in zip(y, k1, k2, k3, k4, k5)])
    y1 = [x + h * (b1 * q1 + b3 * q3 + b4 * q4 + b5 * q5 + b6 * q6)
          for x, q1, q3, q4, q5, q6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = f(y1)
    err = [h * (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7)
           for q1, q3, q4, q5, q6, q7 in zip(k1, k3, k4, k5, k6, k7)]
    return (k1, k2, k3, k4, k5, k6, k7), y1, err


def _loop_error_norm(err, scales, y, y1, atol, rtol):
    """The weighted RMS error norm in its per-component loop form, the
    oracle for the straight-line ``integrator._error_norm``."""
    sq = 0.0
    for e, s, a, b in zip(err, scales, y, y1):
        q = e / (atol * s + rtol * max(abs(a), abs(b)))
        sq += q * q
    if math.isfinite(sq) and all(map(math.isfinite, y1)):
        return math.sqrt(sq / 7.0)
    return math.inf


def _loop_extension(y0, y1, k, h):
    """The continuous-extension coefficients in their per-component loop
    form, the oracle for those ``integrator._step_rows`` and
    ``_dense_vectorized`` take."""
    k1, _, k3, k4, k5, k6, k7 = k
    d1, _, d3, d4, d5, d6, d7 = integrator._D
    coef = []
    for a, b, q1, q3, q4, q5, q6, q7 in zip(y0, y1, k1, k3, k4, k5, k6, k7):
        ydiff = b - a
        bspl = h * q1 - ydiff
        r4 = ydiff - h * q7 - bspl
        r5 = h * (d1 * q1 + d3 * q3 + d4 * q4 + d5 * q5 + d6 * q6 + d7 * q7)
        coef.append((a, ydiff, bspl, r4, r5))
    return coef


def _loop_dense_rows(p, x0, grid, covering):
    """The report rows of dense output, evaluated one report time at a time
    on the loop-form coefficients: theta = min(1, (t - t_step)/h), then per
    component y0 + theta*(ydiff + u*(bspl + theta*(r4 + u*r5))), u = 1 - theta,
    and R_h = N_h - S_h - E_h - I_h."""
    rows = [x0]
    times = iter(grid[1:].tolist())
    for t0, h, count, y0, y1, k in covering:
        coef = _loop_extension(y0, y1, k, h)
        for _ in range(count):
            th = min(1.0, (next(times) - t0) / h)
            u = 1.0 - th
            rows.append([a + th * (d + u * (b + th * (r4 + u * r5))) for a, d, b, r4, r5 in coef])
    return [row[:3] + [p.N_h - row[0] - row[1] - row[2]] + row[3:] for row in map(list, rows)]


def _pack(covering):
    """The (steps, counts) arguments of ``integrator._dense_vectorized``
    from (t, h, count, y, y1, k) tuples: per step the row of doubles t, h,
    y, y1, k1, k3, ..., k7 and its report-time count."""
    steps, counts = bytearray(), []
    for t, h, count, y, y1, k in covering:
        steps += pack("58d", t, h, *y, *y1, *k[0], *k[2], *k[3], *k[4], *k[5], *k[6])
        counts.append(count)
    return steps, counts


def _dense_states(p, x0, grid, covering):
    """The report rows of the (t, h, count, y, y1, k) covering steps on the
    vectorized pass (``integrator._dense_vectorized`` on their ``_pack``ed
    rows) and on the per-row pass (``integrator._step_rows`` per step), x0's
    row written first as ``integrate`` writes it: the rows as a list of
    (n, 8) states, after checking that both passes give the same doubles (a
    NaN's sign and payload aside) and that their time column is the grid."""
    times = array("d", grid)
    s_h, e_h, i_h, a_m, s_m, e_m, i_m = x0
    first = [times[0], s_h, e_h, i_h, p.N_h - s_h - e_h - i_h, a_m, s_m, e_m, i_m]
    runs = []
    for vectorized in (True, False):
        out = array("d", first + [0.0] * (9 * len(times) - 9))
        if vectorized:
            _dense_vectorized(out, p.N_h, times, *_pack(covering))
        else:
            j = 1
            for t, h, count, y, y1, k in covering:
                _step_rows(out, p.N_h, times, j, j + count, t, h, y, y1, k)
                j += count
        runs.append(np.frombuffer(out).reshape(-1, 9).tolist())
    assert _hex_rows(runs[0]) == _hex_rows(runs[1])
    assert [row[0] for row in runs[0]] == grid.tolist()
    return [row[1:] for row in runs[0]]


def _hex_rows(rows):
    return [tuple(map(float.hex, row)) for row in rows]


def _bits(attempt):
    """(k, y1, err) of an attempt as nested tuples of float.hex strings, so
    that == compares every double bit for bit, signed zeros included."""
    k, y1, err = attempt
    return tuple(tuple(map(float.hex, q)) for q in k), tuple(map(float.hex, y1)), \
        tuple(map(float.hex, err))


def _state7(row):
    """The reduced state of a CSV-ordered row (R_h dropped)."""
    return State7.from_array(row[:3] + row[4:])


def _scales8(p):
    return np.array([p.N_h] * 4 + [p.k * p.N_h] + [p.m * p.N_h] * 3)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.rtol == 1e-8 and cfg.atol == 1e-8
        assert cfg.h_init == 1e-3 and cfg.h_max == 1.0 and cfg.output_step == 0.5

    def test_zero_length_window_allowed(self):
        assert SolverConfig(t0=5.0, t_end=5.0).t_end == 5.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            SolverConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(rtol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(h_init=2.0, h_max=1.0)
        with pytest.raises(ValueError):
            SolverConfig(output_step=0.0)


class TestIntegrate:
    def test_zero_horizon_single_point(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t0=0.0, t_end=0.0))
        assert len(traj.as_array()) == 1
        assert traj.times[0] == 0.0
        assert _state7(traj.as_array()[0].tolist()) == CAPE_VERDE_X0

    def test_first_state_is_initial_condition(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=3.0))
        assert _state7(traj.as_array()[0].tolist()) == CAPE_VERDE_X0
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.as_array()) == len(traj.times)

    def test_disease_free_equilibrium_stays_put(self):
        eq = brdfe(CAPE_VERDE, 0.0)
        traj = integrate(CAPE_VERDE, 0.0, eq.state, SolverConfig(t_end=100.0))
        x0 = np.array(eq.state)
        for row in traj.as_array():
            drift = np.abs(np.delete(row, 3) - x0)
            assert np.max(drift) < 1e-6 * CAPE_VERDE.N_h

    def test_agrees_with_rk4_oracle(self, rk4_reference):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=100.0))
        final = traj.as_array()[-1]
        ref = rk4_reference.as_array()[-1]
        rel = np.abs(final - ref) / np.maximum(np.abs(ref), 1e-30)
        assert np.max(rel) < 1e-5

    def test_dense_output_matches_oracle_on_whole_grid(self, rk4_reference):
        # exercises the continuous extension at every half-day report
        # point, not just the step endpoints
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=100.0))
        assert np.allclose(traj.times, rk4_reference.times)
        err = np.abs(traj.as_array() - rk4_reference.as_array()) / _scales8(CAPE_VERDE)
        assert np.max(err) < 1e-6

    def test_reported_states_stay_admissible(self):
        for c in (0.0, 0.2):
            traj = integrate(CAPE_VERDE, c, CAPE_VERDE_X0, SolverConfig(t_end=100.0))
            assert all(in_omega(CAPE_VERDE, _state7(row)) for row in traj.as_array().tolist())

    def test_positivity_along_trajectory(self):
        traj = integrate(CAPE_VERDE, 0.2, CAPE_VERDE_X0, SolverConfig(t_end=100.0))
        data = traj.as_array()
        assert np.all(data >= -1e-6 * _scales8(CAPE_VERDE))

    def test_conservation_at_output_points(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=100.0))
        data = traj.as_array()
        totals = data[:, 0] + data[:, 1] + data[:, 2] + data[:, 3]
        assert np.max(np.abs(totals - CAPE_VERDE.N_h)) < 1e-8 * CAPE_VERDE.N_h

    def test_deterministic_bit_identical(self):
        cfg = SolverConfig(t_end=40.0)
        a = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, cfg)
        b = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.as_array(), b.as_array())
        assert a.step_stats == b.step_stats

    def test_concurrent_runs_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        cfg = SolverConfig(t_end=30.0)
        controls = [0.0, 0.1, 0.2, 0.3]
        serial = [integrate(CAPE_VERDE, c, CAPE_VERDE_X0, cfg) for c in controls]
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(
                lambda c: integrate(CAPE_VERDE, c, CAPE_VERDE_X0, cfg), controls))
        for a, b in zip(serial, concurrent):
            assert np.array_equal(a.as_array(), b.as_array())

    def test_output_step_longer_than_horizon(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0,
                         SolverConfig(t_end=3.0, output_step=10.0))
        assert list(traj.times) == [0.0, 3.0]
        assert len(traj.as_array()) == 2

    def test_rejects_start_outside_region(self):
        bad = State7(CAPE_VERDE.N_h, 0.0, -5.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="admissible"):
            integrate(CAPE_VERDE, 0.0, bad, SolverConfig(t_end=1.0))

    def test_step_underflow_reports_failure_time(self):
        # a microscopic carrying capacity makes the aquatic equation so
        # stiff that no explicit step can satisfy the error test
        p = params_with(K=1e-6)
        with pytest.raises(NumericalFailure, match="underflow") as exc_info:
            integrate(p, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=1.0))
        assert exc_info.value.time is not None
        assert "at t =" in str(exc_info.value)


class TestFixedRk4:
    def test_trivial_equilibrium_constant(self):
        eq = trivial_equilibrium(CAPE_VERDE)
        traj = integrate_fixed_rk4(CAPE_VERDE, 0.0, eq.state, 0.5, 10.0)
        x0 = eq.state
        assert all(_state7(row) == x0 for row in traj.as_array().tolist())

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            integrate_fixed_rk4(CAPE_VERDE, 0.0, CAPE_VERDE_X0, 0.0, 1.0)

    def test_rejects_non_finite_start(self):
        with pytest.raises(ValueError, match="non-finite"):
            integrate_fixed_rk4(CAPE_VERDE, 0.0, CAPE_VERDE_X0._replace(I_m=math.nan), 0.5, 1.0)

    def test_fourth_order_halving(self, rk4_reference):
        # error against the h=1e-3 reference should shrink ~16x when h
        # halves from 1e-2 to 5e-3 (measured over the shared grid)
        ref = rk4_reference.as_array()
        scales = _scales8(CAPE_VERDE)
        errs = {}
        for h in (1e-2, 5e-3):
            traj = integrate_fixed_rk4(CAPE_VERDE, 0.0, CAPE_VERDE_X0, h, 100.0)
            assert np.allclose(traj.times, rk4_reference.times)
            errs[h] = np.max(np.abs(traj.as_array() - ref) / scales)
        ratio = errs[1e-2] / errs[5e-3]
        assert 12.0 < ratio < 21.0

    def test_single_step_matches_hand_stage_computation(self):
        # independent four-stage oracle on the hand-written model
        f = _hand_rhs
        h = 0.01
        y0 = np.array(CAPE_VERDE_X0)
        k1 = f(y0)
        k2 = f(y0 + 0.5 * h * k1)
        k3 = f(y0 + 0.5 * h * k2)
        k4 = f(y0 + h * k3)
        expected_e_h = y0[1] + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])

        traj = integrate_fixed_rk4(CAPE_VERDE, 0.0, CAPE_VERDE_X0, h, h)
        assert len(traj.as_array()) == 2
        assert traj.as_array()[1, 1] == pytest.approx(expected_e_h, rel=1e-12)  # E_h

    @pytest.mark.parametrize("c", (0.0, 0.05, 0.2))
    @pytest.mark.parametrize("h", (0.1, 0.05, 0.02))
    def test_rows_equal_array_form(self, h, c):
        # the float loop keeps the operation order of the (7,) array form
        f = _rhs_of(CAPE_VERDE, c)
        y = np.array(CAPE_VERDE_X0)
        expected = [[0.0, *y]]
        for i in range(1, 201):
            k1 = np.array(f(y.tolist()))
            k2 = np.array(f((y + 0.5 * h * k1).tolist()))
            k3 = np.array(f((y + 0.5 * h * k2).tolist()))
            k4 = np.array(f((y + h * k3).tolist()))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if i % round(0.5 / h) == 0 or i == 200:
                expected.append([i * h, *y])
        traj = integrate_fixed_rk4(CAPE_VERDE, c, CAPE_VERDE_X0, h, 200 * h)
        assert traj.times.tolist() == [row[0] for row in expected]
        assert _hex_rows(np.delete(traj.as_array(), 3, axis=1).tolist()) == \
            _hex_rows([row[1:] for row in expected])

    def test_runs_without_numpy(self):
        code = textwrap.dedent("""\
            from dengue_control.integrator import integrate_fixed_rk4
            from dengue_control.scenario import builtin_capeverde2009
            s = builtin_capeverde2009()
            traj = integrate_fixed_rk4(s.params, 0.05, s.initial, 0.05, 20.0)
            print(traj.rows.tobytes().hex(), traj.step_stats)
        """)
        proc = run_without_numpy("-c", code)
        assert proc.returncode == 0, proc.stderr
        traj = integrate_fixed_rk4(CAPE_VERDE, 0.05, CAPE_VERDE_X0, 0.05, 20.0)
        assert proc.stdout.split(" ", 1) == [traj.rows.tobytes().hex(), f"{traj.step_stats}\n"]


class TestDp54Step:
    # mid-outbreak state of the built-in run (day 30)
    MID = State7(448625.545066948, 9747.475797640212, 5605.1559937515885,
                 1358195.7592404073, 1283098.2120261076, 20322.901383550772,
                 9667.149914469523)

    @pytest.mark.parametrize("c, h", ((0.0, 0.01), (0.1, 0.5), (0.3, 1.0)))
    def test_stages_match_matrix_form(self, c, h):
        for x in (CAPE_VERDE_X0, self.MID):
            y = np.array(x)
            f = _rhs_of(CAPE_VERDE, c)
            k = np.zeros((7, 7))
            k[0] = f(y.tolist())
            for i in range(1, 7):
                k[i] = f((y + h * (DP54_A[i] @ k)).tolist())
            y1 = y + h * (DP54_B @ k)
            err = h * ((DP54_B - DP54_BHAT) @ k)

            got_k, got_y1, got_err = _stages(f, y.tolist(), h, k[0].tolist())
            # norm-wise relative gaps; the error vector is a small difference
            # of stage terms of size h*|k|, so it is measured against those
            assert np.max(np.abs(np.array(got_k) - k)) <= 1e-14 * np.max(np.abs(k))
            assert np.max(np.abs(np.array(got_y1) - y1)) <= 1e-14 * np.max(np.abs(y1))
            assert np.max(np.abs(np.array(got_err) - err)) <= 1e-14 * h * np.max(np.abs(k))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.0, 2.0), h=st.floats(1e-6, 1.0))
    def test_straight_line_body_equals_loop_oracle(self, seed, c, h):
        rng = np.random.default_rng(seed)
        p = draw_params(rng)
        y = draw_omega_state(rng, p)
        f = _rhs_of(p, c)
        k1 = f(y)
        assert _bits(_stages(f, y, h, k1)) == _bits(_loop_stages(f, y, h, k1))

    def test_lanes_equal_scalar_attempts(self):
        # seven (L,) arrays with a per-lane h and c step L lanes at once
        rng = np.random.default_rng(13)
        lanes = 64
        p = draw_params(rng)
        states = [draw_omega_state(rng, p) for _ in range(lanes)]
        c = rng.uniform(0.0, 2.0, lanes)
        h = np.exp(rng.uniform(np.log(1e-6), 0.0, lanes))
        y = list(np.array(states).T)
        f = _rhs_of(p, c)
        k, y1, err = _stages(f, y, h, f(y))
        assert len(k) == 7 and all(len(q) == 7 for q in k)
        for lane, (x, cl, hl) in enumerate(zip(states, c.tolist(), h.tolist())):
            got = ([[q[lane] for q in stage] for stage in k],
                   [q[lane] for q in y1], [q[lane] for q in err])
            fl = _rhs_of(p, cl)
            assert _bits(got) == _bits(_stages(fl, x, hl, fl(x)))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.0, 2.0), h=st.floats(1e-6, 1.0),
           tol=st.sampled_from((1e-12, 1e-8, 1e-4, 1e-1)))
    def test_error_norm_and_extension_equal_loop_forms_on_attempts(self, seed, c, h, tol):
        rng = np.random.default_rng(seed)
        p = draw_params(rng)
        y = draw_omega_state(rng, p)
        f = _rhs_of(p, c)
        k, y1, err = _stages(f, y, h, f(y))
        scales = component_scales(p)
        w = tuple(tol * s for s in scales)
        norm = _error_norm(err, y, y1, w, tol)
        assert norm.hex() == _loop_error_norm(err, scales, y, y1, tol, tol).hex()
        # dense output over two steps, each with report times inside it, at
        # its end and inside the reach slack past it (theta clamped to 1)
        k_next, y2, _ = _stages(f, y1, h, k[6])
        t0 = float(rng.uniform(0.0, 100.0))
        thetas = (0.0, 0.25, 0.5, 1.0, 1.0 + 5e-13)
        grid = np.array([t0] + [t0 + th * h for th in thetas[1:]]
                        + [t0 + h + th * h for th in thetas[1:]])
        covering = [(t0, h, 4, y, y1, k), (t0 + h, h, 4, y1, y2, k_next)]
        assert _hex_rows(_dense_states(p, y, grid, covering)) == \
            _hex_rows(_loop_dense_rows(p, y, grid, covering))

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(), st.sampled_from(
               (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7e308))),
               min_size=21, max_size=21),
           atol=st.floats(1e-300, 1.0), rtol=st.floats(1e-300, 1.0))
    def test_error_norm_equals_loop_on_any_doubles(self, values, atol, rtol):
        # NaN, +-inf and -0.0 in y, y1 and the error: the same bits of the
        # norm, and so the same accept decision, as the loop form
        err, y, y1 = values[:7], values[7:14], values[14:]
        scales = component_scales(CAPE_VERDE)
        norm = _error_norm(err, y, y1, tuple(atol * s for s in scales), rtol)
        expected = _loop_error_norm(err, scales, y, y1, atol, rtol)
        assert norm.hex() == expected.hex()
        assert (norm <= 1.0) == (expected <= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(), st.sampled_from((-0.0, 0.0))),
                           min_size=63, max_size=63),
           h=st.floats(1e-300, 1e300), thetas=st.lists(st.floats(0.0, 1.0 + 1e-12), max_size=8))
    def test_extension_equals_loop_on_any_doubles(self, values, h, thetas):
        # NaN, +-inf and -0.0 in the states and stages: dense output keeps
        # the bits of the loop form, report time by report time
        y0, y1 = values[:7], values[7:14]
        k = tuple(tuple(values[14 + 7 * i:21 + 7 * i]) for i in range(7))
        grid = np.array([0.0] + sorted(th * h for th in thetas))
        covering = [(0.0, h, len(thetas), tuple(y0), tuple(y1), k)] if thetas else []
        with np.errstate(all="ignore"):
            rows = _dense_states(CAPE_VERDE, y0, grid, covering)
        assert _hex_rows(rows) == _hex_rows(_loop_dense_rows(CAPE_VERDE, y0, grid, covering))

    def test_generated_sources_name_their_files(self):
        # the attempt and its error norm are the only generated functions
        assert _error_norm.__code__.co_filename == "<dp54 error norm>"
        assert not hasattr(integrator, "_extension")
        assert not hasattr(integrator, "_extension_source")
        source = integrator._error_norm_source()
        assert "zip" not in source and "max(" not in source and "abs(" not in source

    def test_stages_source_names_its_file(self):
        assert _stages.__code__.co_filename == "<dp54 stages>"
        assert _stages.__module__ == "dengue_control.integrator"
        assert "zip" not in integrator._stages_source()

    def test_rhs_matches_hand_formula_bit_for_bit(self):
        eq = brdfe(CAPE_VERDE, 0.0).state
        for x in (CAPE_VERDE_X0, self.MID, eq, State7(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)):
            y = np.array(x)
            expected = _hand_rhs(y)
            assert np.array_equal(_rhs_of(CAPE_VERDE, 0.0)(y.tolist()), expected)
            assert rhs(CAPE_VERDE, 0.0, x) == tuple(expected.tolist())

    def test_one_step_over_many_grid_points(self):
        h = 0.5
        cfg = SolverConfig(t_end=h, h_init=h, h_max=h, output_step=0.01, rtol=1e-4, atol=1e-4)
        traj = integrate(CAPE_VERDE, 0.0, self.MID, cfg)
        assert (traj.step_stats.accepted, traj.step_stats.rejected) == (1, 0)
        assert len(traj.times) == 51

        y0 = np.array(self.MID)
        f = _rhs_of(CAPE_VERDE, 0.0)
        k, y1, _ = _stages(f, y0.tolist(), h, f(y0.tolist()))
        k, y1 = np.array(k), np.array(y1)
        ydiff = y1 - y0
        bspl = h * k[0] - ydiff
        r4 = ydiff - h * k[6] - bspl
        r5 = h * (DP54_D @ k)
        expected = []
        for t in traj.times:
            theta = min(1.0, t / h)
            expected.append(
                y0 + theta * (ydiff + (1.0 - theta) * (bspl + theta * (r4 + (1.0 - theta) * r5))))
        rows = np.delete(traj.as_array(), 3, axis=1)
        gap = np.abs(rows - np.array(expected)) / component_scales(CAPE_VERDE)
        assert np.max(gap) < 1e-14


class TestStepBudget:
    @pytest.mark.parametrize("c, cfg", (
        (0.0, SolverConfig()),
        (0.2, SolverConfig(t_end=30.0, output_step=7.0)),
        (0.05, SolverConfig(rtol=1e-4, atol=1e-4, h_max=0.3)),
    ))
    def test_step_stats(self, c, cfg):
        stats = integrate(CAPE_VERDE, c, CAPE_VERDE_X0, cfg).step_stats
        assert stats.rhs_evals == 6 * (stats.accepted + stats.rejected) + 1
        assert 0.0 < stats.smallest_step <= stats.largest_step <= cfg.h_max
        assert stats.accepted * stats.smallest_step <= cfg.t_end - cfg.t0
        assert stats.accepted * stats.largest_step >= cfg.t_end - cfg.t0

    def test_step_stats_without_steps(self):
        stats = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=0.0)).step_stats
        assert (stats.accepted, stats.rejected, stats.rhs_evals) == (0, 0, 1)
        assert stats.smallest_step == stats.largest_step == 0.0
        rk4 = integrate_fixed_rk4(CAPE_VERDE, 0.0, CAPE_VERDE_X0, 0.25, 10.0).step_stats
        assert (rk4.accepted, rk4.rhs_evals, rk4.smallest_step, rk4.largest_step) == \
            (40, 160, 0.25, 0.25)

    def test_window_beyond_cap_refused_before_stepping(self):
        cfg = SolverConfig(t_end=1e9, output_step=1e4)
        with pytest.raises(ValueError, match=f"more than the cap of {MAX_STEPS}"):
            integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, cfg)

    @pytest.mark.parametrize("t0, t_end, spacing", (
        (2.0**40, 2.0**40 + 64.0, "0.0002441"), (1e15, 1e15 + 0.3, "0.125")))
    def test_window_doubles_cannot_resolve_refused_before_stepping(self, t0, t_end, spacing):
        # at 2^40 the time axis drifted from the states; at 1e15 the clamped
        # last step of one ulp repeated until MAX_STEPS
        cfg = SolverConfig(t0=t0, t_end=t_end, output_step=0.1)
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match=f"doubles near the window's times are "
                                                f"{spacing} day apart, more than 1e-09 of h_max"):
            integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, cfg)
        assert time.perf_counter() - start < 1.0

    def test_window_doubles_resolve_matches_the_window_at_zero(self):
        runs = [integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t0=t0, t_end=t0 + 64.0))
                for t0 in (0.0, 2.0**20)]
        assert runs[1].times.tolist() == (runs[0].times + 2.0**20).tolist()
        gap = np.abs(np.delete(runs[1].as_array() - runs[0].as_array(), 3, axis=1))
        assert np.max(gap / component_scales(CAPE_VERDE)) < 1e-9

    def test_step_limit_reports_time_reached(self, monkeypatch):
        monkeypatch.setattr(integrator, "MAX_STEPS", 50)
        with pytest.raises(NumericalFailure, match="step limit") as exc_info:
            integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=40.0))
        assert 0.0 < exc_info.value.time < 40.0
        assert "at t =" in str(exc_info.value)

    def test_rejected_attempts_count_toward_the_limit(self, monkeypatch):
        # every attempt on this stiff variant is rejected (see the
        # underflow test), so only rejections can reach the limit
        monkeypatch.setattr(integrator, "MAX_STEPS", 5)
        with pytest.raises(NumericalFailure, match="step limit") as exc_info:
            integrate(params_with(K=1e-6), 0.0, CAPE_VERDE_X0, SolverConfig(t_end=1.0))
        assert exc_info.value.time == 0.0


class TestGridIndependence:
    # Steps are purely error-controlled, so a finer report grid moves neither
    # the steps nor the rows at the times both grids share.  The 1/64-day
    # grid has more rows than one chunk of the dense-output pass.
    @pytest.mark.parametrize("c", (0.0, 0.05, 0.2))
    @pytest.mark.parametrize("t_end, fine, coarse", (
        (100.0, 0.0625, 0.5), (728.0, 0.875, 7.0), (100.0, 0.015625, 0.5)))
    def test_finer_grid_keeps_steps_and_shared_rows(self, c, t_end, fine, coarse):
        runs = [integrate(CAPE_VERDE, c, CAPE_VERDE_X0, SolverConfig(t_end=t_end, output_step=step))
                for step in (fine, coarse)]
        ratio = round(coarse / fine)
        assert runs[0].times[::ratio].tolist() == runs[1].times.tolist()
        assert runs[0].as_array()[::ratio].tolist() == runs[1].as_array().tolist()
        assert runs[0].step_stats == runs[1].step_stats


class TestDenseOutput:
    def test_report_time_in_the_reach_slack_takes_the_step_end(self):
        # integrate assigns a report time up to 1e-12 (relative) past a
        # step's end to that step; theta is clamped to 1 there rather than
        # extrapolating the quartic past the step
        y = CAPE_VERDE_X0
        f = _rhs_of(CAPE_VERDE, 0.0)
        k, y1, _ = _stages(f, y, 1.0, f(y))
        covering = [(0.0, 1.0, 2, y, y1, k)]
        grid = np.array([0.0, 1.0, 1.0 + 5e-13])
        rows = _dense_states(CAPE_VERDE, y, grid, covering)
        assert rows[2] == rows[1]
        assert _hex_rows(rows) == _hex_rows(_loop_dense_rows(CAPE_VERDE, y, grid, covering))

    def test_per_row_pass_is_bit_identical_to_the_vectorized_pass(self, monkeypatch):
        # with numpy loaded, integrate fills the rows in one vectorized pass
        # after stepping; without it, each covering step writes its own rows
        # (_step_rows).  Grids: 100 days at 0.05, one row per 0.01-day step,
        # and seeded draws of parameters, control, start and grid
        s = builtin_capeverde2009()
        runs = [(s.params, 0.05, s.initial, SolverConfig(t_end=100.0, output_step=0.05)),
                (s.params, 0.05, s.initial,
                 SolverConfig(t_end=20.0, h_init=0.01, h_max=0.01, output_step=0.01))]
        rng = np.random.default_rng(4177)
        for _ in range(20):
            p = draw_params(rng)
            runs.append((p, float(rng.uniform(0.0, 0.3)), draw_omega_state(rng, p),
                         SolverConfig(t_end=50.0, output_step=float(rng.uniform(0.01, 2.0)))))
        assert integrator._numpy_loaded()
        vectorized = [integrate(*run) for run in runs]
        monkeypatch.setattr(integrator, "_numpy_loaded", lambda: False)
        for run, expected in zip(runs, vectorized):
            traj = integrate(*run)
            assert traj.rows.tobytes() == expected.rows.tobytes()
            assert traj.step_stats == expected.step_stats

    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, Linux's unit")
    def test_one_row_steps_keep_peak_memory_small(self):
        # 20,001 steps of 0.01 day, each covering one report time: without
        # numpy each step writes its row straight into the 1.4 MB row
        # buffer; with numpy imported first, the vectorized pass also keeps
        # 58 doubles per covering step until it runs, and its temporaries
        code = textwrap.dedent("""\
            import resource, sys
            from dengue_control.integrator import SolverConfig, integrate
            from dengue_control.scenario import builtin_capeverde2009
            s = builtin_capeverde2009()
            def run(t_end):
                cfg = SolverConfig(t_end=t_end, h_init=0.01, h_max=0.01, output_step=0.01)
                return integrate(s.params, 0.05, s.initial, cfg).step_stats.accepted
            run(1.0)  # warm-up: imports and first-call allocations
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(run(200.0), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before,
                  "numpy" in sys.modules)
        """)
        for preload, bound_mib in (("import numpy\n", 35), ("", 5)):
            proc = subprocess.run([sys.executable, "-c", preload + code], capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            steps, growth_kib, numpy_loaded = proc.stdout.split()
            assert int(steps) == 20001
            assert int(growth_kib) < bound_mib * 1024
            assert numpy_loaded == str(bool(preload))


class TestEmbeddedPairOrder:
    def test_convergence_order_at_least_four_and_a_half(self, rk4_reference):
        ref = rk4_reference.as_array()[-1]
        ref7 = np.array([ref[0], ref[1], ref[2], ref[4], ref[5], ref[6], ref[7]])
        scales = component_scales(CAPE_VERDE)
        errs = []
        for h in (0.1, 0.05, 0.025):
            y = integrate_fixed_dp54(CAPE_VERDE, 0.0, CAPE_VERDE_X0, h, 100.0)
            errs.append(np.max(np.abs(np.array(y) - ref7) / scales))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 4.5


class TestTrajectoryArray:
    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(0.0, 0.5), output_step=st.floats(0.05, 5.0), rk4=st.booleans())
    def test_rows_are_one_read_only_array(self, c, output_step, rk4):
        if rk4:
            traj = integrate_fixed_rk4(CAPE_VERDE, c, CAPE_VERDE_X0, 0.05, 5.0)
        else:
            traj = integrate(CAPE_VERDE, c, CAPE_VERDE_X0,
                             SolverConfig(t_end=5.0, output_step=output_step))
        data = traj.as_array()
        assert data.shape == (len(traj.times), 8)
        for row in data.tolist():
            s_h, e_h, i_h, r_h = row[:4]
            assert r_h == CAPE_VERDE.N_h - s_h - e_h - i_h
        # the rows are the one full-state form: views of the one row buffer
        assert np.shares_memory(data, np.frombuffer(traj.rows))
        assert np.shares_memory(traj.times, np.frombuffer(traj.rows))
        assert not data.flags.writeable and not traj.times.flags.writeable
        with pytest.raises(ValueError):
            data[0, 0] = 0.0

    def test_single_point_window(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t0=2.0, t_end=2.0))
        assert traj.as_array().shape == (1, 8)
        assert not traj.as_array().flags.writeable


class TestOutputGrid:
    @pytest.mark.parametrize("t", (0.0, 2.0, 1e9, -3.0))
    def test_zero_length_window_is_one_point(self, t):
        assert _output_grid(t, t, 0.5).tolist() == [t]

    @pytest.mark.parametrize("t0, t_end, step", (
        (0.0, 100.0, 0.5), (0.0, 100.0, 0.05), (-3.0, 728.0, 0.875), (0.0, 37.3, 0.3),
        (1e9, 1e9 + 3.3, 0.3)))
    def test_points_are_the_arange_form(self, t0, t_end, step):
        grid = _output_grid(t0, t_end, step).tolist()
        assert grid[:-1] == (t0 + step * np.arange(len(grid) - 1, dtype=float)).tolist()
        assert grid[-1] == t_end

    def test_cap_refuses_before_allocating(self):
        with pytest.raises(ValueError, match="output grid needs 1e\\+15 points"):
            integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0,
                      SolverConfig(t_end=1e12, output_step=1e-3))

    def test_cap_allows_its_own_size(self):
        assert len(_output_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS

    def test_cap_counts_the_appended_end(self):
        # 10^6 uniform points, then t_end past the last of them
        with pytest.raises(ValueError, match="output grid needs"):
            _output_grid(0.0, MAX_GRID_POINTS - 0.5, 1.0)
