"""Scenario reproductions: standstill loss, injection recovery, zero-frequency
loss, plus trace-level invariants."""

import dataclasses
import math

import numpy as np

from driveobs.profiles import SignalProfile
from driveobs.scenarios import (ImScenario, WrsmScenario,
                                default_field_setpoint_profile,
                                im_rates, im_rates_unscaled, run_im_scenario,
                                run_im_truth, run_wrsm_scenario,
                                wrsm_current_rates)
from driveobs.machines import InductionMachine, SynchronousMachine
from driveobs.params import IM_DEFAULT, WRSM_DEFAULT

RNG = np.random.default_rng(9)


def mask(trace, a, b):
    return trace.window_mask(a, b)


# ---------------------------------------------------------------------------
# fast kernels agree with the reference models


def test_wrsm_kernel_matches_model():
    m = SynchronousMachine(WRSM_DEFAULT)
    rates = wrsm_current_rates(WRSM_DEFAULT)
    for _ in range(30):
        x = np.array([RNG.normal(0, 10), RNG.normal(0, 10), RNG.normal(0, 5),
                      RNG.normal(0, 100), RNG.uniform(-np.pi, np.pi)])
        u = RNG.normal(0, 20, 3)
        ref = m.f(x, u)[:3]
        fast = rates(x[0], x[1], x[2], x[3], x[4], u[0], u[1], u[2])
        assert np.allclose(fast, ref, rtol=1e-12, atol=1e-12)


def test_im_kernels_match_models():
    m = InductionMachine(IM_DEFAULT)
    r_s = im_rates(IM_DEFAULT)
    r_u = im_rates_unscaled(IM_DEFAULT)
    for _ in range(30):
        x = RNG.normal(0, 1, 6) * np.array([2e-3, 2e-3, 0.05, 0.05, 100, 5])
        u = RNG.normal(0, 1, 2)
        ref = m.f(x, u)[:5]
        fast = r_s(x[0], x[1], x[2], x[3], x[4], x[5], u[0], u[1])
        assert np.allclose(fast, ref, rtol=1e-12, atol=1e-12)
        ref_u = m.f_unscaled(x, u)[:5]
        fast_u = r_u(x[0], x[1], x[2], x[3], x[4], x[5], u[0], u[1])
        assert np.allclose(fast_u, ref_u, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# WRSM scenario


def test_wrsm_position_error_held_at_standstill(wrsm_run):
    trace, _ = wrsm_run
    pre = mask(trace, 0.2, 0.99)
    assert np.min(np.abs(trace["theta_err"][pre])) > 0.2


def test_wrsm_converges_after_injection_opens(wrsm_run):
    trace, _ = wrsm_run
    idx = np.searchsorted(trace.t, 1.5)
    assert abs(trace["theta_err"][idx]) < 0.05
    # convergence happens well inside the window
    assert np.max(np.abs(trace["theta_err"][mask(trace, 1.2, 1.5)])) < 0.05


def test_wrsm_flag_follows_injection_and_motion(wrsm_run):
    trace, _ = wrsm_run
    violated = trace["obs_violated"] > 0.5
    assert np.all(violated[mask(trace, 0.05, 0.99)])
    assert not np.any(violated[mask(trace, 1.03, 1.5)])
    assert not np.any(violated[mask(trace, 1.7, 4.4)])      # moving rotor
    assert not np.any(violated[mask(trace, 4.53, 5.0)])
    assert np.all(violated[mask(trace, 5.2, 6.0)])


def test_wrsm_omega_o_departs_only_in_windows(wrsm_run):
    trace, _ = wrsm_run
    w_o = np.abs(trace["omega_o"])
    thr = trace.meta["obs_threshold"]
    assert np.max(w_o[mask(trace, 1.02, 1.5)]) >= thr
    assert np.max(w_o[mask(trace, 4.52, 5.0)]) >= thr
    quiet = mask(trace, 0.1, 0.99) | mask(trace, 1.7, 4.4) | mask(trace, 5.3, 6.0)
    assert np.max(w_o[quiet]) < 0.5


def test_wrsm_steady_tracking_within_two_percent(wrsm_run):
    trace, _ = wrsm_run
    for (a, b) in [(0.4, 1.0), (3.0, 4.0), (5.5, 6.0)]:
        m = mask(trace, a, b)
        assert np.max(np.abs(trace["i_sd"][m] - 2.0)) / 2.0 < 0.02
        assert np.max(np.abs(trace["i_sq"][m] - 15.0)) / 15.0 < 0.02
        assert np.max(np.abs(trace["i_f"][m] - 4.0)) / 4.0 < 0.02


def test_wrsm_speed_tracking_through_ramp(wrsm_run):
    trace, _ = wrsm_run
    m = mask(trace, 2.6, 4.0)    # constant-speed plateau
    assert np.max(np.abs(trace["omega_err"][m])) < 2.0
    assert np.max(np.abs(trace["theta_err"][m])) < 0.02


def test_wrsm_covariance_health(wrsm_run):
    trace, _ = wrsm_run
    assert trace.meta["ekf_p_max_asym"] < 1e-9
    assert trace.meta["ekf_p_min_eig_ratio"] >= -1e-9


def test_wrsm_determinant_zero_at_standstill_nonzero_in_window(wrsm_run):
    trace, _ = wrsm_run
    pre = mask(trace, 0.3, 0.99)
    inj = mask(trace, 1.05, 1.45)
    run = mask(trace, 3.0, 4.0)
    assert np.max(np.abs(trace["det_sm"][pre])) < 1e-3 * np.max(
        np.abs(trace["det_sm"][run]))
    assert np.max(np.abs(trace["det_sm"][inj])) > 10 * np.max(
        np.abs(trace["det_sm"][pre]))


def test_wrsm_no_saturation_in_default_run(wrsm_run):
    trace, _ = wrsm_run
    assert trace.meta["pi_saturated_samples"] == 0


def test_wrsm_ratio_diagnostic_logged(wrsm_run):
    from driveobs.observability import sm_condition_ratio

    trace, _ = wrsm_run
    m = mask(trace, 0.4, 0.99)   # settled standstill at the setpoints
    expected = sm_condition_ratio(WRSM_DEFAULT, 2.0, 15.0, i_f=4.0)
    assert 0.0 < expected < 1.0
    assert np.allclose(trace["ratio"][m], expected, rtol=1e-6)


def test_wrsm_short_rerun_bitwise_identical():
    sc_kwargs = dict(
        t_end=0.3,
        speed_profile=SignalProfile.constant(0.0, 0.3, 0.0),
        i_f_profile=default_field_setpoint_profile(0.3, windows=((0.1, 0.2),)),
        injection_windows=((0.1, 0.2),),
    )
    a = run_wrsm_scenario(WrsmScenario(**sc_kwargs))
    b = run_wrsm_scenario(WrsmScenario(**sc_kwargs))
    for name in a.column_names:
        assert np.array_equal(a[name], b[name], equal_nan=True), name


# ---------------------------------------------------------------------------
# IM scenario


def test_im_with_speed_filter_tracks_throughout(im_run):
    trace, _ = im_run
    m = mask(trace, 0.5, trace.meta["t_end"])
    assert np.nanmax(trace["spd_flux_err"][m]) < 0.05


def test_im_sensorless_fails_in_dwell_and_recovers(im_run):
    trace, _ = im_run
    d0, d1 = trace.meta["dwell"]
    assert np.nanmax(trace["sl_flux_err"][mask(trace, d0 + 0.2, d1)]) > 0.20
    # back under 5 percent within a second of the frequency leaving zero
    assert np.nanmax(trace["sl_flux_err"][mask(trace, d1 + 1.05, d1 + 1.5)]) < 0.05


def test_im_sensorless_matches_with_speed_when_observable(im_run):
    trace, _ = im_run
    m = mask(trace, 6.2, 7.4)
    flux_true = np.hypot(trace["psi_ra"][m], trace["psi_rb"][m])
    diff = np.hypot(trace["sl_psi_ra"][m] - trace["spd_psi_ra"][m],
                    trace["sl_psi_rb"][m] - trace["spd_psi_rb"][m])
    assert np.nanmax(diff / flux_true) < 0.05


def test_im_condition_small_exactly_in_dwell(im_run):
    trace, _ = im_run
    d0, d1 = trace.meta["dwell"]
    thr = trace.meta["obs_threshold"]
    assert np.nanmax(np.abs(trace["im_cond"][mask(trace, d0 + 0.05, d1)])) < thr
    assert np.nanmin(np.abs(trace["im_cond"][mask(trace, 0.3, 2.0)])) > thr


def test_im_flag_set_exactly_in_dwell(im_run):
    trace, _ = im_run
    violated = trace["obs_violated"] > 0.5
    d0, d1 = trace.meta["dwell"]
    assert np.all(violated[mask(trace, d0 + 0.05, d1)])
    assert not np.any(violated[mask(trace, 0.3, 2.0)])
    assert not np.any(violated[mask(trace, d1 + 1.0, trace.meta["t_end"])])


def test_im_dwell_rides_the_unobservability_line(im_run):
    trace, _ = im_run
    d0, d1 = trace.meta["dwell"]
    m = mask(trace, d0 + 0.5, d1)
    # line distance is the condition value in steady state: near zero
    assert np.nanmax(np.abs(trace["line_distance"][m])) < 0.5
    # the operating point sits in a generator quadrant (speed opposes torque)
    assert np.all(trace["omega_e"][m] * trace["T_m"][m] < 0)


def test_im_error_correlates_with_violated_flag(im_run):
    trace, _ = im_run
    violated = trace["obs_violated"] > 0.5
    err = trace["sl_flux_err"]
    # ignore the initial convergence transient of the deliberately-wrong start
    settled = trace.t > 0.5
    inside = np.nanmean(err[violated & settled])
    outside = np.nanmean(err[~violated & settled])
    assert inside > 5 * outside


def test_im_covariance_health(im_run):
    trace, _ = im_run
    assert trace.meta["ekf_p_max_asym"] < 1e-9
    assert trace.meta["ekf_p_min_eig_ratio"] >= -1e-9
    assert trace.meta["ekf_steps"] >= 2 * (len(trace.t) - 1)


def short_im_scenario(t_end, **kw):
    freq = SignalProfile.constant(0.0, t_end, 2 * math.pi * 10.0)
    load = SignalProfile.constant(0.0, t_end, 3.0)
    return ImScenario(t_end=t_end, freq_profile=freq, load_profile=load, **kw)


def test_im_scaled_unscaled_trajectories_short():
    sc = short_im_scenario(0.5, run_ekf=False)
    a = run_im_truth(sc, scaled=True)
    b = run_im_truth(sc, scaled=False)
    for name in ("i_sa", "i_sb", "psi_ra", "psi_rb", "omega_e"):
        scale = np.max(np.abs(a[name])) or 1.0
        assert np.max(np.abs(a[name] - b[name])) < 1e-8 * scale


def test_im_truth_matches_scenario_truth():
    sc = short_im_scenario(0.4, run_ekf=False, noise_std=0.0)
    full = run_im_scenario(sc)
    truth = run_im_truth(sc, scaled=True)
    for name in ("i_sa", "psi_ra", "omega_e"):
        assert np.allclose(full[name], truth[name], rtol=1e-12, atol=1e-12)


def test_im_truth_integrator_is_fourth_order():
    # the integrator the scenarios use, not the reference one in rk4.py
    def run(dt, scaled):
        sc = short_im_scenario(0.05, dt_sim=dt, trace_dt=1e-3, run_ekf=False)
        return run_im_truth(sc, scaled=scaled)

    names = ("i_sa", "i_sb", "psi_ra", "psi_rb", "omega_e")
    dt = 2.5e-4
    for scaled in (True, False):
        ref, a, b = (run(h, scaled) for h in (dt / 32, dt, dt / 2))

        def error(trace):
            return max(np.max(np.abs(trace[n] - ref[n])) / np.max(np.abs(ref[n]))
                       for n in names)

        order = math.log2(error(a) / error(b))
        assert order >= 3.9, (scaled, order)


def test_im_covariance_health_checks_both_filters(monkeypatch):
    import driveobs.scenarios as scenarios

    real_update = scenarios.ekf_update

    def indefinite_with_speed(inst, y):
        # flip the sign of the with-speed filter's smallest P eigenvalue
        inst, innov = real_update(inst, y)
        if inst.model.speed_measured:
            w, V = np.linalg.eigh(inst.P)
            w[0] = -w[0]
            P = V @ np.diag(w) @ V.T
            inst = dataclasses.replace(inst, P=0.5 * (P + P.T))
        return inst, innov

    monkeypatch.setattr(scenarios, "ekf_update", indefinite_with_speed)
    trace = run_im_scenario(short_im_scenario(0.02))
    assert trace.meta["ekf_p_min_eig_ratio"] < 0
