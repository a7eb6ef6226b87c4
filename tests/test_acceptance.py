"""Acceptance gate: every release criterion checked at its stated
tolerance, one printed pass/fail line per criterion (run with -s to see
them on success)."""

import time

import numpy as np

from conftest import (
    CAPE_VERDE,
    CAPE_VERDE_X0,
    draw_params,
    draw_params_wide,
    integrate_fixed_dp54,
)
from dengue_control.equilibria import brdfe, endemic_closed_form, trivial_equilibrium
from dengue_control.integrator import SolverConfig, integrate
from dengue_control.model import (
    basic_offspring_number,
    component_scales,
    mosquito_viability,
    r0_closed_form,
    r0_factors,
)
from dengue_control.stability import r0_spectral
from dengue_control.stability import Classification, classify
from dengue_control.threshold import min_control


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def _median_runtime(fn, repeats: int) -> float:
    fn()  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def test_criterion_1_basic_reproduction_number():
    spectral = r0_spectral(CAPE_VERDE, 0.0)
    closed = r0_closed_form(CAPE_VERDE, 0.0)
    t_spectral = _median_runtime(lambda: r0_spectral(CAPE_VERDE, 0.0), 15)
    t_closed = _median_runtime(lambda: r0_closed_form(CAPE_VERDE, 0.0), 15)
    ok = (abs(spectral - 2.396) <= 1e-3 and abs(closed - 2.396) <= 1e-3
          and t_spectral < 1e-3 and t_closed < 1e-3)
    _report(1, "basic-reproduction-number", ok,
            f"spectral={spectral:.6f}, closed={closed:.6f}, "
            f"runtimes {t_spectral * 1e3:.3f} ms / {t_closed * 1e3:.3f} ms < 1 ms")


def test_criterion_2_control_threshold():
    result = min_control(CAPE_VERDE, tol=1e-6)
    runtime = _median_runtime(lambda: min_control(CAPE_VERDE, tol=1e-6), 7)
    ok = abs(result.c_star - 0.156961) <= 1e-4 and runtime < 1e-2
    _report(2, "control-threshold", ok,
            f"c*={result.c_star:.6f} (target 0.156961 +/- 1e-4), "
            f"runtime {runtime * 1e3:.3f} ms < 10 ms")


def test_criterion_3_route_equivalence():
    rng = np.random.default_rng(2009)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        p = draw_params(rng)
        c = rng.uniform(0.0, 0.3)
        assert mosquito_viability(p, c) > 0.0
        closed = r0_closed_form(p, c)
        worst = max(worst, abs(r0_spectral(p, c) - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(3, "route-equivalence", ok,
            f"max relative gap {worst:.3e} < 1e-10 over 500 draws, "
            f"runtime {elapsed:.3f} s < 1 s")


def test_criterion_4_equilibrium_residuals():
    start = time.perf_counter()
    trivial = trivial_equilibrium(CAPE_VERDE)
    disease_free = brdfe(CAPE_VERDE, 0.0)
    endemic = endemic_closed_form(CAPE_VERDE, 0.0)
    elapsed = time.perf_counter() - start
    ok = (trivial.residual_norm < 1e-12
          and disease_free.residual_norm < 1e-9
          and endemic.residual_norm < 1e-10
          and elapsed < 0.1)
    _report(4, "equilibrium-residuals", ok,
            f"trivial {trivial.residual_norm:.2e} < 1e-12, "
            f"disease-free {disease_free.residual_norm:.2e} < 1e-9, "
            f"endemic {endemic.residual_norm:.2e} < 1e-10, "
            f"runtime {elapsed * 1e3:.1f} ms < 100 ms")


def test_criterion_5_stability_concordance():
    rng = np.random.default_rng(1156)
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    while checked < 200:
        p = draw_params(rng)
        c = rng.uniform(0.0, 0.3)
        r0 = r0_closed_form(p, c)
        if abs(r0 - 1.0) <= 1e-3:
            continue
        label = classify(p, c, brdfe(p, c)).classification
        expected = (Classification.UNSTABLE if r0 > 1.0
                    else Classification.ASYMPTOTICALLY_STABLE)
        mismatches += label is not expected
        checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _report(5, "stability-concordance", ok,
            f"{mismatches} mismatches over 200 draws, runtime {elapsed:.2f} s < 5 s")


def test_criterion_6_positivity_and_conservation():
    start = time.perf_counter()
    traj = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, SolverConfig(t_end=100.0))
    elapsed = time.perf_counter() - start
    data = traj.as_array()
    scales8 = np.array([CAPE_VERDE.N_h] * 4 + [CAPE_VERDE.k * CAPE_VERDE.N_h]
                       + [CAPE_VERDE.m * CAPE_VERDE.N_h] * 3)
    worst_negative = float(np.min(data / scales8))
    totals = data[:, :4].sum(axis=1)
    worst_total = float(np.max(np.abs(totals - CAPE_VERDE.N_h)) / CAPE_VERDE.N_h)
    ok = worst_negative >= -1e-6 and worst_total < 1e-8 and elapsed < 1.0
    _report(6, "positivity-and-conservation", ok,
            f"min scaled component {worst_negative:.2e} >= -1e-6, "
            f"max conservation error {worst_total:.2e} < 1e-8, "
            f"runtime {elapsed:.3f} s < 1 s")


def test_criterion_7_integrator_order(rk4_reference):
    ref = rk4_reference.as_array()[-1]
    ref7 = np.array([ref[0], ref[1], ref[2], ref[4], ref[5], ref[6], ref[7]])
    scales = component_scales(CAPE_VERDE)
    errs = []
    for h in (0.1, 0.05, 0.025):
        y = integrate_fixed_dp54(CAPE_VERDE, 0.0, CAPE_VERDE_X0, h, 100.0)
        errs.append(float(np.max(np.abs(np.array(y) - ref7) / scales)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
    ok = min(orders) >= 4.5
    _report(7, "integrator-order", ok,
            f"observed orders {orders[0]:.2f}, {orders[1]:.2f} >= 4.5 "
            f"(errors {errs[0]:.2e} -> {errs[2]:.2e})")


def test_criterion_8_control_effect_on_outbreak():
    cfg = SolverConfig(t_end=100.0)
    uncontrolled = integrate(CAPE_VERDE, 0.0, CAPE_VERDE_X0, cfg).as_array()
    controlled = integrate(CAPE_VERDE, 0.2, CAPE_VERDE_X0, cfg).as_array()
    peak_off = float(uncontrolled[:, 2].max())
    peak_on = float(controlled[:, 2].max())
    final_infected_mosquitoes = float(controlled[-1, 7])
    ok = peak_on < 0.5 * peak_off and final_infected_mosquitoes < 1.0
    _report(8, "control-effect-on-outbreak", ok,
            f"peak infected humans {peak_on:.1f} (c=0.2) vs {peak_off:.1f} (c=0), "
            f"terminal infected mosquitoes {final_infected_mosquitoes:.3f} < 1")


def test_criterion_9_algebraic_identities():
    rng = np.random.default_rng(4242)
    worst_gap = 0.0
    for _ in range(200):
        p = draw_params(rng)
        c = rng.uniform(0.0, 0.3)
        r_hm, r_mh = r0_factors(p, c)
        r0_sq = r0_closed_form(p, c) ** 2
        worst_gap = max(worst_gap, abs(r_hm * r_mh - r0_sq) / r0_sq)

    sign_agreement = True
    seen = set()
    for _ in range(1000):
        p, ctrl = draw_params_wide(rng)
        viable = mosquito_viability(p, ctrl) > 0.0
        sign_agreement &= (basic_offspring_number(p, ctrl) < 1.0) == viable
        seen.add(viable)
    ok = worst_gap < 1e-12 and sign_agreement and seen == {True, False}
    _report(9, "algebraic-identities", ok,
            f"max factorization gap {worst_gap:.3e} < 1e-12, "
            f"offspring/viability sign agreement on 1000 draws "
            f"(both regimes sampled: {seen == {True, False}})")
