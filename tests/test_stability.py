import dataclasses
import re
import warnings

import numpy as np
import pytest

from conftest import CAPE_VERDE, draw_omega_state, draw_params, params_with
from dengue_control.equilibria import brdfe, jacobian, refined_endemic, trivial_equilibrium
from dengue_control.errors import NoEndemicEquilibrium, NumericalFailure
from dengue_control.integrator import SolverConfig, integrate
from dengue_control.model import (
    ControlLevel, State7, component_scales, in_omega, r0_closed_form, _rhs_of)
from dengue_control.report import build_report
from dengue_control.stability import r0_spectral
from dengue_control.scenario import builtin_capeverde2009
from dengue_control.stability import MARGIN_FACTOR, Classification, classify


def _fd_jacobian(p, c, x):
    f = _rhs_of(p, c)
    base = np.array(x)
    steps = 1e-6 * np.array(component_scales(p))
    jac = np.empty((7, 7))
    for j in range(7):
        up, dn = base.copy(), base.copy()
        up[j] += steps[j]
        dn[j] -= steps[j]
        jac[:, j] = (np.array(f(up.tolist())) - np.array(f(dn.tolist()))) / (2.0 * steps[j])
    return jac


def _entry_r0(c):
    """R0 at the point of each equilibrium entry of ``build_report`` on the
    Cape Verde scenario at control c, by kind."""
    scenario = dataclasses.replace(builtin_capeverde2009(), params=CAPE_VERDE,
                                   control=ControlLevel(c))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the brdfe state is inexact for c > 0
        return {e.kind: e.r0_at_point for e in build_report(scenario).equilibria}


def _typed_jacobian(p, c, x):
    """The model's Jacobian typed entry by entry (19 entries), independently
    of the Metzler form the package derives it from."""
    s_h, _, i_h, a_m, s_m, e_m, i_m = x
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
            assert jacobian(p, c, tuple(x)).tobytes() == derived.tobytes()
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
        vals = np.linalg.eigvals(jacobian(CAPE_VERDE, 0.0, eq.state))
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


class TestSpectrumOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_classify_reads_the_jacobian_spectrum(self, seed):
        # abscissa and label recomputed from numpy's eigenvalues of the Jacobian
        rng = np.random.default_rng(1000 + seed)
        p = draw_params(rng)
        for c in (0.0, 0.05, 0.12, 0.2, float(rng.uniform(0.0, 0.3))):
            points = [trivial_equilibrium(p), brdfe(p, c)]
            try:
                points.append(refined_endemic(p, c))
            except NoEndemicEquilibrium:
                pass
            for eq in points:
                vals = np.linalg.eigvals(jacobian(p, c, eq.state))
                abscissa = float(vals.real.max())
                margin = MARGIN_FACTOR * float(np.abs(vals).max())
                if abscissa < -margin:
                    label = Classification.ASYMPTOTICALLY_STABLE
                elif abscissa > margin:
                    label = Classification.UNSTABLE
                else:
                    label = Classification.MARGINAL
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the brdfe state is inexact for c > 0
                    report = classify(p, c, eq)
                assert repr(report.spectral_abscissa) == repr(abscissa)
                assert report.classification is label

    @pytest.mark.parametrize("route", ("classify", "r0_spectral"))
    def test_failed_iteration_is_numerical_failure(self, route, monkeypatch):
        eq = brdfe(CAPE_VERDE, 0.0)

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NumericalFailure,
                           match="^eigenvalue iteration failed: Eigenvalues did not converge$"):
            if route == "classify":
                classify(CAPE_VERDE, 0.0, eq)
            else:
                r0_spectral(CAPE_VERDE, 0.0)

    @pytest.mark.parametrize("overrides, route, message", [
        ({"nu_h": 1e308, "mu_h": 1e308}, "classify",
         "cannot classify the trivial state: matrix contains non-finite entries"),
        ({"mu_m": 1e308, "eta_A": 1.7e308, "mu_b": 1.7e308}, "r0_spectral",
         "cannot compute the spectral R0 at the brdfe state: "
         "next-generation matrix contains non-finite entries"),
        ({"eta_h": 1e-320, "mu_h": 1e-320}, "r0_spectral",
         "cannot compute the spectral R0 at the brdfe state: "
         "next-generation matrix contains non-finite entries"),
    ], ids=("classify-overflow", "r0_spectral-overflow", "r0_spectral-subnormal"))
    def test_non_finite_matrix_is_numerical_failure(self, overrides, route, message):
        # a finite state whose spectrum input overflows is refused, not solved
        p = params_with(**overrides)
        with pytest.raises(NumericalFailure,
                           match=f"^{re.escape(message)} \\(overflow at these parameters\\)$"):
            if route == "classify":
                classify(p, 0.0, trivial_equilibrium(p))
            else:
                r0_spectral(p, 0.0)


class TestClassify:
    def test_controlled_disease_free_state_stable(self):
        with pytest.warns(UserWarning, match="residual"):
            report = classify(CAPE_VERDE, 0.2, brdfe(CAPE_VERDE, 0.2))
        assert report.classification is Classification.ASYMPTOTICALLY_STABLE
        r0 = _entry_r0(0.2)["brdfe"]
        assert r0 is not None and r0 < 1.0
        assert r0 == r0_closed_form(CAPE_VERDE, 0.2)

    def test_uncontrolled_disease_free_state_unstable(self):
        report = classify(CAPE_VERDE, 0.0, brdfe(CAPE_VERDE, 0.0))
        assert report.classification is Classification.UNSTABLE
        r0 = _entry_r0(0.0)
        assert r0["brdfe"] == pytest.approx(2.396, abs=1e-3)
        assert r0["brdfe"] == r0_closed_form(CAPE_VERDE, 0.0)
        assert r0["endemic"] is None

    def test_trivial_equilibrium_unstable_with_viable_mosquitoes(self):
        report = classify(CAPE_VERDE, 0.0, trivial_equilibrium(CAPE_VERDE))
        assert report.classification is Classification.UNSTABLE
        assert _entry_r0(0.0)["trivial"] is None

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
        eq = brdfe(CAPE_VERDE, 0.0)
        report = classify(CAPE_VERDE, 0.0, eq)
        vals = np.linalg.eigvals(jacobian(CAPE_VERDE, 0.0, eq.state))
        assert report.spectral_abscissa == max(vals.real) > 0.0
        assert dataclasses.asdict(report).keys() == {"spectral_abscissa", "classification"}


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

            scales = np.array(component_scales(p))
            direction = np.array([-1.0, 0.5, 0.5, -1.0, -1.0, 0.5, 0.5])
            start = State7.from_array(
                np.array(eq.state) + 1e-4 * scales * direction)
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
