import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CAPE_VERDE, CAPE_VERDE_X0, params_with
from dengue_control.equilibria import brdfe, component_scales, trivial_equilibrium, _rhs_array
from dengue_control.errors import NumericalFailure
from dengue_control import integrator
from dengue_control.integrator import (
    MAX_GRID_POINTS,
    MAX_STEPS,
    SolverConfig,
    integrate,
    integrate_fixed_rk4,
    _dense_rows,
    _extension,
    _integrate_fixed_dp54,
    _output_grid,
    _stages,
)
from dengue_control.model import State7, in_omega, rhs, _rhs_floats

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
        assert len(traj.states) == 1
        assert traj.times[0] == 0.0
        assert traj.states[0].drop_rh() == CAPE_VERDE_X0

    def test_first_state_is_initial_condition(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=3.0))
        assert traj.states[0].drop_rh() == CAPE_VERDE_X0
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.states) == len(traj.times)

    def test_disease_free_equilibrium_stays_put(self):
        eq = brdfe(CAPE_VERDE, 0.0)
        traj = integrate(CAPE_VERDE, 0.0, eq.state, SolverConfig(t_end=100.0))
        x0 = np.array(eq.state.as_tuple())
        for s in traj.states:
            drift = np.abs(np.array(s.drop_rh().as_tuple()) - x0)
            assert np.max(drift) < 1e-6 * CAPE_VERDE.N_h

    def test_agrees_with_rk4_oracle(self, rk4_reference):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=100.0))
        final = np.array(traj.states[-1].as_tuple())
        ref = np.array(rk4_reference.states[-1].as_tuple())
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
            assert all(in_omega(CAPE_VERDE, s.drop_rh()) for s in traj.states)

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
        assert all(x.as_tuple() == y.as_tuple() for x, y in zip(a.states, b.states))
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
            assert all(x.as_tuple() == y.as_tuple() for x, y in zip(a.states, b.states))

    def test_output_step_longer_than_horizon(self):
        traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0,
                         SolverConfig(t_end=3.0, output_step=10.0))
        assert list(traj.times) == [0.0, 3.0]
        assert len(traj.states) == 2

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
        x0 = eq.state.as_tuple()
        assert all(s.drop_rh().as_tuple() == x0 for s in traj.states)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            integrate_fixed_rk4(CAPE_VERDE, 0.0, CAPE_VERDE_X0, 0.0, 1.0)

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
        y0 = np.array(CAPE_VERDE_X0.as_tuple())
        k1 = f(y0)
        k2 = f(y0 + 0.5 * h * k1)
        k3 = f(y0 + 0.5 * h * k2)
        k4 = f(y0 + h * k3)
        expected_e_h = y0[1] + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])

        traj = integrate_fixed_rk4(CAPE_VERDE, 0.0, CAPE_VERDE_X0, h, h)
        assert len(traj.states) == 2
        assert traj.states[1].E_h == pytest.approx(expected_e_h, rel=1e-12)


class TestDp54Step:
    # mid-outbreak state of the built-in run (day 30)
    MID = State7(448625.545066948, 9747.475797640212, 5605.1559937515885,
                 1358195.7592404073, 1283098.2120261076, 20322.901383550772,
                 9667.149914469523)

    @pytest.mark.parametrize("c, h", ((0.0, 0.01), (0.1, 0.5), (0.3, 1.0)))
    def test_stages_match_matrix_form(self, c, h):
        for x in (CAPE_VERDE_X0, self.MID):
            y = np.array(x.as_tuple())
            k = np.zeros((7, 7))
            k[0] = _rhs_array(CAPE_VERDE, c, y)
            for i in range(1, 7):
                k[i] = _rhs_array(CAPE_VERDE, c, y + h * (DP54_A[i] @ k))
            y1 = y + h * (DP54_B @ k)
            err = h * ((DP54_B - DP54_BHAT) @ k)

            got_k, got_y1, got_err = _stages(CAPE_VERDE, c, y.tolist(), h, k[0].tolist())
            # norm-wise relative gaps; the error vector is a small difference
            # of stage terms of size h*|k|, so it is measured against those
            assert np.max(np.abs(np.array(got_k) - k)) <= 1e-14 * np.max(np.abs(k))
            assert np.max(np.abs(np.array(got_y1) - y1)) <= 1e-14 * np.max(np.abs(y1))
            assert np.max(np.abs(np.array(got_err) - err)) <= 1e-14 * h * np.max(np.abs(k))

    def test_rhs_matches_hand_formula_bit_for_bit(self):
        eq = brdfe(CAPE_VERDE, 0.0).state
        for x in (CAPE_VERDE_X0, self.MID, eq, State7(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)):
            y = np.array(x.as_tuple())
            expected = _hand_rhs(y)
            assert np.array_equal(_rhs_array(CAPE_VERDE, 0.0, y), expected)
            assert rhs(CAPE_VERDE, 0.0, x).as_tuple() == tuple(expected.tolist())

    def test_one_step_over_many_grid_points(self):
        h = 0.5
        cfg = SolverConfig(t_end=h, h_init=h, h_max=h, output_step=0.01, rtol=1e-4, atol=1e-4)
        traj = integrate(CAPE_VERDE, 0.0, self.MID, cfg)
        assert (traj.step_stats.accepted, traj.step_stats.rejected) == (1, 0)
        assert len(traj.times) == 51

        y0 = np.array(self.MID.as_tuple())
        k, y1, _ = _stages(CAPE_VERDE, 0.0, y0.tolist(), h,
                           _rhs_array(CAPE_VERDE, 0.0, y0).tolist())
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
        y = CAPE_VERDE_X0.as_tuple()
        k, y1, _ = _stages(CAPE_VERDE, 0.0, y, 1.0, _rhs_floats(CAPE_VERDE, 0.0, y))
        covering = [(0.0, 1.0, 2, _extension(y, y1, k, 1.0))]
        rows = _dense_rows(CAPE_VERDE, y, np.array([0.0, 1.0, 1.0 + 5e-13]), covering)
        assert rows[2].tolist() == rows[1].tolist()


class TestEmbeddedPairOrder:
    def test_convergence_order_at_least_four_and_a_half(self, rk4_reference):
        ref = np.array(rk4_reference.states[-1].as_tuple())
        ref7 = np.array([ref[0], ref[1], ref[2], ref[4], ref[5], ref[6], ref[7]])
        scales = component_scales(CAPE_VERDE)
        errs = []
        for h in (0.1, 0.05, 0.025):
            y = _integrate_fixed_dp54(CAPE_VERDE, 0.0, CAPE_VERDE_X0, h, 100.0)
            errs.append(np.max(np.abs(y.as_array() - ref7) / scales))
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
        states = traj.states
        assert all(states[i].as_tuple() == tuple(data[i]) for i in range(len(data)))
        assert not data.flags.writeable
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

    def test_cap_refuses_before_allocating(self):
        with pytest.raises(ValueError, match="output grid needs 1e\\+15 points"):
            integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0,
                      SolverConfig(t_end=1e12, output_step=1e-3))

    def test_cap_allows_its_own_size(self):
        assert _output_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0).size == MAX_GRID_POINTS
