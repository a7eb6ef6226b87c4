import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CAPE_VERDE, CAPE_VERDE_X0, params_with
from dengue_control.equilibria import brdfe, trivial_equilibrium
from dengue_control.errors import NumericalFailure
from dengue_control.integrator import (
    MAX_GRID_POINTS,
    SolverConfig,
    integrate,
    integrate_fixed_rk4,
    _integrate_fixed_dp54,
    _output_grid,
)
from dengue_control.model import State7, component_scales, in_omega


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
        # independent four-stage oracle written out with the outbreak
        # numbers, no package code involved
        n_h, b, bmh, bhm = 480000.0, 1.0, 0.375, 0.375
        mu_h, eta_h, mu_m, mu_b = 1.0 / (71.0 * 365.0), 1.0 / 3.0, 1.0 / 11.0, 6.0
        mu_a, eta_a, eta_m, nu_h = 0.25, 0.08, 1.0 / 11.0, 0.25
        cap = 3.0 * n_h

        def f(x):
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
