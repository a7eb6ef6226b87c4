import dataclasses
import warnings

import numpy as np
import pytest

from conftest import CAPE_VERDE, draw_omega_state, draw_params, params_with
from dengue_control.equilibria import brdfe, component_scales, refined_endemic, trivial_equilibrium
from dengue_control.integrator import SolverConfig, integrate
from dengue_control.model import State7, in_omega
from dengue_control.reproduction import r0_closed_form
from dengue_control.stability import Classification, classify, eigenvalues, jacobian


def _fd_jacobian(p, c, x):
    from dengue_control.equilibria import _rhs_array

    base = x.as_array()
    steps = 1e-6 * component_scales(p)
    jac = np.empty((7, 7))
    for j in range(7):
        up, dn = base.copy(), base.copy()
        up[j] += steps[j]
        dn[j] -= steps[j]
        jac[:, j] = (_rhs_array(p, c, up) - _rhs_array(p, c, dn)) / (2.0 * steps[j])
    return jac


def _typed_jacobian(p, c, x):
    """The model's Jacobian typed entry by entry (19 entries), independently
    of the Metzler form the package derives it from."""
    s_h, _, i_h, a_m, s_m, e_m, i_m = x.as_tuple()
    foi_h = p.B * p.beta_mh * i_m / p.N_h
    foi_m = p.B * p.beta_hm * i_h / p.N_h
    adults = s_m + e_m + i_m
    crowding = p.mu_b * (1.0 - a_m / p.K)

    jac = np.zeros((7, 7))
    jac[0, 0] = -(foi_h + p.mu_h)
    jac[0, 6] = -p.B * p.beta_mh * s_h / p.N_h
    jac[1, 0] = foi_h
    jac[1, 1] = -(p.nu_h + p.mu_h)
    jac[1, 6] = p.B * p.beta_mh * s_h / p.N_h
    jac[2, 1] = p.nu_h
    jac[2, 2] = -(p.eta_h + p.mu_h)
    jac[3, 3] = -p.mu_b * adults / p.K - (p.eta_A + p.mu_A)
    jac[3, 4] = crowding
    jac[3, 5] = crowding
    jac[3, 6] = crowding
    jac[4, 2] = -p.B * p.beta_hm * s_m / p.N_h
    jac[4, 3] = p.eta_A
    jac[4, 4] = -(foi_m + p.mu_m + c)
    jac[5, 2] = p.B * p.beta_hm * s_m / p.N_h
    jac[5, 4] = foi_m
    jac[5, 5] = -(p.mu_m + p.eta_m + c)
    jac[6, 5] = p.eta_m
    jac[6, 6] = -(p.mu_m + c)
    return jac


_SCALED_FIELDS = ("N_h", "B", "mu_h", "eta_h", "mu_m", "mu_b", "mu_A", "eta_A",
          "eta_m", "nu_h", "m", "k", "K")


class TestJacobian:
    def test_product_rule_matches_typed_jacobian(self):
        # rates over x10^(+-3), c up to 100, states partly outside the
        # admissible region, and exact zeros of both signs
        rng = np.random.default_rng(89)
        for i in range(1000):
            p = dataclasses.replace(
                CAPE_VERDE, beta_mh=rng.uniform(0.0, 1.0), beta_hm=rng.uniform(0.0, 1.0),
                **{name: getattr(CAPE_VERDE, name) * 10.0 ** rng.uniform(-3.0, 3.0)
                   for name in _SCALED_FIELDS})
            c = rng.uniform(0.0, 100.0)
            y = rng.uniform(-0.5, 1.5, size=7) * component_scales(p)
            y[rng.integers(7)] = (0.0, -0.0)[i % 2]
            x = State7.from_array(y)
            derived = jacobian(p, c, x)
            typed = _typed_jacobian(p, c, x)
            assert np.array_equal(derived, typed)
            assert np.array_equal(np.signbit(derived), np.signbit(typed))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            p = draw_params(rng)
            c = rng.uniform(0.0, 0.3)
            x = draw_omega_state(rng, p)
            analytic = jacobian(p, c, x)
            numeric = _fd_jacobian(p, c, x)
            assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_human_block_decouples_at_trivial_equilibrium(self):
        eq = trivial_equilibrium(CAPE_VERDE)
        vals = eigenvalues(jacobian(CAPE_VERDE, 0.0, eq.state))
        assert min(abs(v - (-CAPE_VERDE.mu_h)) for v in vals) < 1e-12

    def test_incubation_passthrough_entry_constant(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            x = draw_omega_state(rng, CAPE_VERDE)
            jac = jacobian(CAPE_VERDE, rng.uniform(0.0, 1.0), x)
            assert jac[6, 5] == CAPE_VERDE.eta_m

    def test_logistic_coupling_entry(self):
        x = State7(1e5, 10.0, 10.0, 7e5, 1e6, 50.0, 50.0)
        jac = jacobian(CAPE_VERDE, 0.0, x)
        expected = CAPE_VERDE.mu_b * (1.0 - x.A_m / CAPE_VERDE.K)
        assert jac[3, 4] == pytest.approx(expected, rel=1e-14)


class TestEigenvalues:
    def test_diagonal_matrix(self):
        assert eigenvalues(np.diag([1.0, 2.0, 3.0])) == (3.0, 2.0, 1.0)

    def test_rotation_gives_imaginary_pair(self):
        vals = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert vals[0] == pytest.approx(1j)
        assert vals[1] == pytest.approx(-1j)

    def test_sorted_by_descending_real_part(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            vals = eigenvalues(rng.normal(size=(7, 7)))
            reals = [v.real for v in vals]
            assert reals == sorted(reals, reverse=True)

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            a = rng.normal(size=(7, 7))
            vals = np.array(eigenvalues(a))
            assert np.sum(vals).real == pytest.approx(np.trace(a), rel=1e-8, abs=1e-8)
            assert abs(np.prod(vals)) == pytest.approx(abs(np.linalg.det(a)), rel=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="16"):
            eigenvalues(np.zeros((17, 17)))
        with pytest.raises(ValueError, match="finite"):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestClassify:
    def test_controlled_disease_free_state_stable(self):
        with pytest.warns(UserWarning, match="residual"):
            report = classify(CAPE_VERDE, 0.2, brdfe(CAPE_VERDE, 0.2))
        assert report.classification is Classification.ASYMPTOTICALLY_STABLE
        assert report.r0_at_point is not None and report.r0_at_point < 1.0

    def test_uncontrolled_disease_free_state_unstable(self):
        report = classify(CAPE_VERDE, 0.0, brdfe(CAPE_VERDE, 0.0))
        assert report.classification is Classification.UNSTABLE
        assert report.r0_at_point == pytest.approx(2.396, abs=1e-3)

    def test_trivial_equilibrium_unstable_with_viable_mosquitoes(self):
        report = classify(CAPE_VERDE, 0.0, trivial_equilibrium(CAPE_VERDE))
        assert report.classification is Classification.UNSTABLE
        assert report.r0_at_point is None

    def test_marginal_at_exact_threshold(self):
        # bisect the closed form to the exact crossing; the spectral
        # abscissa there sits inside the classification margin
        lo, hi = 0.15, 0.16
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if r0_closed_form(CAPE_VERDE, mid) > 1.0:
                lo = mid
            else:
                hi = mid
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = classify(CAPE_VERDE, lo, brdfe(CAPE_VERDE, lo))
        assert report.classification is Classification.MARGINAL

    @pytest.mark.parametrize("bites", (1e9, 1e17, 1e100))
    def test_unstable_states_stay_unstable_at_large_bite_rates(self, bites):
        # the disease-free abscissa grows like sqrt(B); the margin must not
        # outgrow it
        p = params_with(B=bites)
        for eq in (trivial_equilibrium(p), brdfe(p, 0.0)):
            assert classify(p, 0.0, eq).classification is Classification.UNSTABLE

    def test_report_fields_consistent(self):
        report = classify(CAPE_VERDE, 0.0, brdfe(CAPE_VERDE, 0.0))
        assert report.spectral_abscissa == max(v.real for v in report.eigenvalues)
        assert len(report.eigenvalues) == 7


class TestSimulationConcordance:
    def test_perturbation_decays_or_departs_as_classified(self):
        # distance is measured on the infected block: the susceptible
        # human deficit relaxes at rate mu_h (decades), while the theorem
        # content is the fate of infections
        stable_p = params_with(beta_mh=0.1, beta_hm=0.1)
        unstable_p = CAPE_VERDE
        assert r0_closed_form(stable_p, 0.0) < 1.0
        assert r0_closed_form(unstable_p, 0.0) > 1.0

        for p, expect_decay in ((stable_p, True), (unstable_p, False)):
            eq = brdfe(p, 0.0)
            report = classify(p, 0.0, eq)
            assert (report.classification is Classification.ASYMPTOTICALLY_STABLE) \
                == expect_decay

            scales = component_scales(p)
            direction = np.array([-1.0, 0.5, 0.5, -1.0, -1.0, 0.5, 0.5])
            start = State7.from_array(
                np.array(eq.state.as_tuple()) + 1e-4 * scales * direction)
            assert in_omega(p, start)

            traj = integrate(p, 0.0, start, SolverConfig(t_end=200.0))
            data = traj.as_array()
            infected = np.abs(data[:, [1, 2, 6, 7]]) / np.array(
                [p.N_h, p.N_h, p.m * p.N_h, p.m * p.N_h])
            d_start = infected[0].max()
            d_end = infected[-1].max()
            if expect_decay:
                assert d_end < d_start
            else:
                assert infected.max() > 10.0 * d_start


class TestTheorem2Concordance:
    def test_classification_matches_r0_threshold(self):
        rng = np.random.default_rng(83)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while checked < 50:
                p = draw_params(rng)
                c = rng.uniform(0.0, 0.3)
                r0 = r0_closed_form(p, c)
                if abs(r0 - 1.0) <= 1e-3:
                    continue
                report = classify(p, c, brdfe(p, c))
                if r0 > 1.0:
                    assert report.classification is Classification.UNSTABLE
                else:
                    assert report.classification is Classification.ASYMPTOTICALLY_STABLE
                checked += 1

    def test_endemic_root_classified_stable_uncontrolled(self):
        report = classify(CAPE_VERDE, 0.0, refined_endemic(CAPE_VERDE, 0.0))
        assert report.classification is Classification.ASYMPTOTICALLY_STABLE
