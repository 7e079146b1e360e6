"""Scenario reproductions: standstill loss, injection recovery, zero-frequency
loss, plus trace-level invariants."""

import dataclasses
import itertools
import math
import multiprocessing

import numpy as np
import pytest

from driveobs.observability import (im_condition, im_determinant,
                                    observability_report, slip_frequency,
                                    sm_channels, sm_condition_ratio,
                                    sm_determinant)
from driveobs.profiles import Segment, SignalProfile
from driveobs.ekf import (EkfConfig, EkfDivergenceError,
                          SingularInnovationError, ekf_predict, ekf_update,
                          make_ekf)
from driveobs.scenarios import (CHUNK, ImScenario, PlantWorkerError,
                                WrsmScenario, _WRSM_PLANT, _im_filters,
                                _im_plant, _run_filter, _wrsm_plant,
                                default_field_setpoint_profile,
                                im_rates, im_rates_unscaled, run_im_scenario,
                                run_im_truth, run_wrsm_scenario,
                                wrsm_current_rates)
from driveobs.machines import (J2, InductionMachine, SynchronousMachine,
                               make_machine, wrap_angle)
from driveobs.params import IM_DEFAULT, WRSM_DEFAULT

RNG = np.random.default_rng(9)


def mask(trace, a, b):
    return trace.window_mask(a, b)


# ---------------------------------------------------------------------------
# fast kernels agree with the reference models


def test_wrsm_kernel_matches_model():
    """The SM kernels, on single states and on a batch, against a linear
    solve of L(theta) di/dt = u - R i - omega L'(theta) i - e(theta)."""
    plant_rates = wrsm_current_rates(WRSM_DEFAULT)
    for kind in ("wrsm", "hesm", "ipmsm", "spmsm", "syrm"):
        m = make_machine(kind)
        k = m.n_currents
        R = np.array([m.params.R_s, m.params.R_s, m.params.R_f][:k])
        X = np.vstack([RNG.normal(0, 10, (k, 30)), RNG.normal(0, 100, 30),
                       RNG.uniform(-np.pi, np.pi, 30)])
        U = RNG.normal(0, 20, (k, 30))
        batch = m.f(X, U)
        for j in range(30):
            i, w, th = X[:k, j], X[k, j], X[k + 1, j]
            L, Lp, e = sm_reference(m.params, th)
            ref = np.linalg.solve(L, U[:, j] - R * i - w * (Lp @ i) - w * e)
            tol = 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(m.f(X[:, j], U[:, j])[:k] - ref)) < tol
            assert np.max(np.abs(batch[:k, j] - ref)) < tol
            if kind == "wrsm":
                fast = plant_rates(*X[:, j], *U[:, j])
                assert np.max(np.abs(np.array(fast) - ref)) < tol


def sm_reference(p, theta):
    """Matrix-form synchronous machine at rotor position ``theta``: the
    inductance matrix L(theta), its position derivative L'(theta) and the
    magnet back-EMF per unit speed e(theta), so that L di/dt = u - R i -
    omega (L' i + e). The 3x3 model with a field winding, else the stator
    block; an array of angles gives stacked (..., k, k) and (..., k)."""
    th = np.asarray(theta, float)
    c1, s1, c2, s2 = np.cos(th), np.sin(th), np.cos(2 * th), np.sin(2 * th)
    L0, L2, Mf, zero = p.L_0, p.L_2, p.M_f, np.zeros_like(th)
    L = np.array([[L0 + L2 * c2, L2 * s2, Mf * c1],
                  [L2 * s2, L0 - L2 * c2, Mf * s1],
                  [Mf * c1, Mf * s1, p.L_f + zero]])
    Lp = np.array([[-2 * L2 * s2, 2 * L2 * c2, -Mf * s1],
                   [2 * L2 * c2, 2 * L2 * s2, Mf * c1],
                   [-Mf * s1, Mf * c1, zero]])
    e = p.psi_r * np.array([-s1, c1, zero])
    k = 3 if p.has_field else 2
    return (np.moveaxis(L, (0, 1), (-2, -1))[..., :k, :k],
            np.moveaxis(Lp, (0, 1), (-2, -1))[..., :k, :k],
            np.moveaxis(e, 0, -1)[..., :k])


def im_reference(p, x, u):
    """Physical-coordinate IM dynamics in matrix form."""
    I, Psi, we, Tr = x[:2], x[2:4], x[4], x[5]
    gam = np.eye(2) / p.tau_r - we * J2
    dI = (-(p.R_sigma / p.L_sigma) * I + (p.k_r / p.L_sigma) * (gam @ Psi)
          + u / p.L_sigma)
    dPsi = -(gam @ Psi) + (p.M / p.tau_r) * I
    dwe = (p.p**2 / p.J) * p.k_r * (I @ (J2 @ Psi)) - (p.p / p.J) * Tr
    return np.concatenate([dI, dPsi, [dwe]])


def test_im_kernels_match_models():
    m = InductionMachine(IM_DEFAULT)
    r_s = im_rates(IM_DEFAULT)
    r_u = im_rates_unscaled(IM_DEFAULT)
    X = RNG.normal(0, 1, (6, 30)) * np.array(
        [2e-3, 2e-3, 0.05, 0.05, 100, 5])[:, None]
    u = RNG.normal(0, 1, 2)
    batch = m.f(X, u)
    for j in range(30):
        x = X[:, j]
        # floats and numpy rows take the same arithmetic
        fast = r_s(*x.tolist(), *u.tolist())
        assert np.array_equal(fast, batch[:5, j])
        fast_u = r_u(*x.tolist(), *u.tolist())
        assert np.allclose(fast_u, im_reference(IM_DEFAULT, x, u),
                           rtol=1e-12, atol=1e-12)


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
        i_f_profile=default_field_setpoint_profile(windows=((0.1, 0.2),)),
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
    # bit for bit, which lets criterion 8 take its scaled side from the
    # session's IM scenario
    sc = short_im_scenario(0.4, run_ekf=False, noise_std=0.0)
    full = run_im_scenario(sc)
    truth = run_im_truth(sc, scaled=True)
    for name in truth.column_names:
        assert np.array_equal(full[name], truth[name]), name


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

    real_update = scenarios.update

    def indefinite_with_speed(X, P, *args):
        # flip the sign of member 0's (the with-speed filter's) smallest
        # covariance eigenvalue
        X, P, innov = real_update(X, P, *args)
        w, V = np.linalg.eigh(P[0])
        w[0] = -w[0]
        P = P.copy()
        P[0] = V @ np.diag(w) @ V.T
        P[0] = 0.5 * (P[0] + P[0].T)
        return X, P, innov

    monkeypatch.setattr(scenarios, "update", indefinite_with_speed)
    trace = run_im_scenario(short_im_scenario(0.02))
    assert trace.meta["ekf_p_min_eig_ratio"] < 0


def test_im_covariance_symmetry_checks_both_filters(monkeypatch):
    import driveobs.scenarios as scenarios

    real_update = scenarios.update

    def asymmetric_sensorless(X, P, *args):
        # make member 1's (the sensorless filter's) Joseph-form covariance
        # asymmetric in its speed-torque entry, whose variances dwarf 1e-6;
        # the symmetrization after the update removes it again
        X, P, innov = real_update(X, P, *args)
        P = P.copy()
        P[1, 4, 5] += 1e-6
        return X, P, innov

    monkeypatch.setattr(scenarios, "update", asymmetric_sensorless)
    trace = run_im_scenario(short_im_scenario(0.02))
    # 1e-6 up to the rounding of the sum
    assert trace.meta["ekf_p_max_asym"] == pytest.approx(1e-6, rel=1e-6)


# ---------------------------------------------------------------------------
# the filter bank against an independent single-filter reference


def reference_stencil(f, x, u):
    """The rate and the central-difference Jacobian at one state, its
    perturbed states built by repeat and index."""
    n = x.size
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    Xp = np.repeat(x[:, None], 2 * n + 1, axis=1)
    Xp[np.arange(n), 1 + np.arange(n)] += h
    Xp[np.arange(n), 1 + n + np.arange(n)] -= h
    F = f(Xp, u)
    return F[:, 0], (F[:, 1:n + 1] - F[:, n + 1:]) / (2.0 * h[None, :])


def reference_filter(inst, U, Y):
    """
    One filter stepped on its own with the update written on slices of the
    measured states (``x[idx]``, ``P[ix]``, ``P[:, idx]``) and the
    Jacobian from ``reference_stencil``; for a machine that declares a
    quadratic kernel, the Jacobian is ``J₀ + x @ T`` with ``J₀`` and ``T``
    from that stencil at 0 and at the unit vectors. Returns the estimates,
    the innovations of rows 1.. and the covariance health, both parts
    sampled every 100 steps.
    """
    f, cfg, idx = inst.machine.f, inst.config, inst.outputs
    ix, eye, n = np.ix_(idx, idx), np.eye(inst.x.size), inst.x.size
    if getattr(inst.machine, "quadratic", False):
        u0 = np.zeros(U.shape[1])
        J0 = reference_stencil(f, np.zeros(n), u0)[1].ravel()
        T = np.array([reference_stencil(f, e, u0)[1].ravel() - J0
                      for e in eye])
    x, P = inst.x, inst.P
    est, innov, asym, eig_ratio = [x], [], 0.0, math.inf
    for k in range(1, len(Y)):
        rate, A = reference_stencil(f, x, U[k - 1].tolist())
        if getattr(inst.machine, "quadratic", False):
            A = (J0 + x @ T).reshape(n, n)
        Fd = eye + cfg.Ts * A
        P = Fd @ P @ Fd.T + cfg.Q
        x, P = x + cfg.Ts * rate, 0.5 * (P + P.T)

        nu = np.asarray(Y[k], float) - x[idx]
        S = P[ix] + cfg.R
        S = 0.5 * (S + S.T)
        K = np.linalg.solve(S, P[:, idx].T).T
        IKC = eye.copy()
        IKC[:, idx] -= K
        P = IKC @ P @ IKC.T + K @ cfg.R @ K.T
        if k % 100 == 0:    # the asymmetry the symmetrization removes
            asym = max(asym, np.abs(P - P.T).max())
        x, P = x + K @ nu, 0.5 * (P + P.T)

        est.append(x)
        innov.append(nu)
        if k % 100 == 0:
            eig = np.linalg.eigvalsh(P)
            eig_ratio = min(eig_ratio, eig[0] / max(eig[-1], 1e-300))
    return np.array(est), np.array(innov), (len(Y) - 1, asym, eig_ratio)


def step_filter(inst, U, Y):
    """The filter loop through the single-filter API."""
    est, innov = [inst.x], []
    for k in range(1, len(Y)):
        inst, nu = ekf_update(ekf_predict(inst, U[k - 1]), Y[k])
        est.append(inst.x)
        innov.append(nu)
    return np.array(est), np.array(innov)


def im_bank(t_end, noise=1.0):
    """The IM scenario's [with-speed, sensorless] bank, inputs and noisy
    measurements on a short run."""
    isc = short_im_scenario(t_end)
    rows = np.concatenate(list(_im_plant(isc)))
    X, V = rows[:, 1:7], rows[:, 7:9]
    y_i = X[:, :2] + RNG.normal(0.0, noise * isc.params.L_sigma, (len(X), 2))
    insts, _ = _im_filters(isc)
    return insts, V, [np.column_stack([y_i, X[:, 4]]), y_i]


def test_run_filter_matches_public_steps_bit_for_bit():
    t_end = 0.03
    wsc = WrsmScenario(
        t_end=t_end, run_ekf=False,
        speed_profile=SignalProfile((Segment.ramp(0.0, t_end, 0.0, 20.0),)),
        i_f_profile=default_field_setpoint_profile(windows=((0.01, 0.02),)),
        injection_windows=((0.01, 0.02),))
    c = run_wrsm_scenario(wsc).columns
    Y = np.column_stack([c["i_sa"], c["i_sb"], c["i_f"]])
    x0 = np.array([c["i_sa"][0], c["i_sb"][0], c["i_f"][0], 0.0, 0.5])
    cfg = EkfConfig(Q=np.diag(wsc.ekf_q_diag), R=np.diag(wsc.ekf_r_diag),
                    P0=np.diag(wsc.ekf_p0_diag), x0=x0, Ts=wsc.trace_dt)
    banks = [([make_ekf(SynchronousMachine(wsc.params), cfg)],
              np.column_stack([c["v_sa"], c["v_sb"], c["v_f"]]),
              [Y + RNG.normal(0.0, 0.05, Y.shape)]),
             im_bank(0.03)]
    for insts, U, Ys in banks:
        est, innov, health = _run_filter(insts, len(U), [(U, Ys)])
        assert est.shape[:2] == innov.shape[:2] == (len(U), len(insts))
        for b, (inst, Y) in enumerate(zip(insts, Ys)):
            ref_est, ref_innov, ref_health = reference_filter(inst, U, Y)
            m = Y.shape[1]
            assert np.array_equal(est[:, b], ref_est)
            assert np.all(np.isnan(innov[0, b]))
            assert np.array_equal(innov[1:, b, :m], ref_innov)
            assert not np.any(innov[1:, b, m:])    # padded outputs
            assert health[b] == ref_health
            # the single-filter API is the bank's B = 1 case
            pub_est, pub_innov = step_filter(inst, U, Y)
            assert np.array_equal(pub_est, ref_est)
            assert np.array_equal(pub_innov, ref_innov)


@pytest.mark.parametrize("where, value", [("x", math.nan), ("x", 1e13),
                                          ("y", math.nan)])
def test_filter_bank_divergence_in_one_member(where, value):
    insts, U, Ys = im_bank(0.005)
    if where == "x":    # caught after the predict
        x = insts[1].x.copy()
        x[2] = value
        insts[1] = dataclasses.replace(insts[1], x=x)
    else:               # caught after the update
        Ys[1] = Ys[1].copy()
        Ys[1][50, 0] = value
    _run_filter([insts[0]], len(U), [(U, Ys[:1])])
    with pytest.raises(EkfDivergenceError):
        _run_filter(insts, len(U), [(U, Ys)])


def test_filter_bank_divergence_in_predict_alone():
    # the bound sits just above P0, so the first predict exceeds it; the
    # overflow check after the update must still see the blow-up
    insts, U, Ys = im_bank(0.005)
    cfg = insts[0].config
    insts[0] = dataclasses.replace(insts[0], config=dataclasses.replace(
        cfg, overflow=np.abs(cfg.P0).max() * (1.0 + 1e-9)))
    with pytest.raises(EkfDivergenceError):
        _run_filter(insts, len(U), [(U, Ys)])


def test_filter_bank_nan_prediction_rejected_by_cholesky():
    # the update rejects the NaN innovation covariance of a NaN prediction
    # as singular; the blow-up still reads as divergence
    insts, U, Ys = im_bank(0.005)
    x = insts[1].x.copy()
    x[2] = math.nan
    insts[1] = dataclasses.replace(insts[1], x=x)
    with pytest.raises(EkfDivergenceError):
        _run_filter(insts, len(U), [(U, Ys)])


def test_filter_bank_singular_innovation_in_one_member():
    insts, U, Ys = im_bank(0.005)
    cfg = dataclasses.replace(insts[1].config)
    object.__setattr__(cfg, "R", -cfg.R)    # corrupt past validation
    insts[1] = dataclasses.replace(insts[1], config=cfg)
    _run_filter([insts[0]], len(U), [(U, Ys[:1])])
    with pytest.raises(SingularInnovationError):
        _run_filter(insts, len(U), [(U, Ys)])


# ---------------------------------------------------------------------------
# the plant streamed from a worker process, the filters in the caller


def test_streamed_scenarios_match_in_process_runs_bit_for_bit():
    # more than three input chunks, the last one partial, noise on: the
    # scenario's plant columns are an in-process drain of its plant
    # generator, and its filters those of a whole-trace run with the noise
    # drawn at once
    dt, t_end = 1e-5, 0.035
    n_steps = round(t_end / dt)
    assert n_steps + 1 > 3 * CHUNK and (n_steps + 1) % CHUNK
    isc = ImScenario(t_end=t_end, dt_sim=dt, trace_dt=1e-4, noise_std=1.0,
                     seed=5)
    trace = run_im_scenario(isc)
    rows = np.concatenate(list(_im_plant(isc)))
    p = isc.params
    for name, j, scale in (("t", 0, 1.0), ("i_sa", 1, p.L_sigma),
                           ("i_sb", 2, p.L_sigma), ("psi_ra", 3, p.k_r),
                           ("psi_rb", 4, p.k_r), ("omega_e", 5, 1.0),
                           ("T_r", 6, 1.0), ("v_sa", 7, 1.0),
                           ("v_sb", 8, 1.0), ("omega_s_cmd", 9, 1.0),
                           ("omega_s", 10, 1.0)):
        assert np.array_equal(trace[name], rows[:, j] / scale), name
    insts, _ = _im_filters(isc)
    y_i = rows[:, 1:3] + np.random.default_rng(5).normal(
        0.0, p.L_sigma, (len(rows), 2))
    est, innov, _ = _run_filter(insts, len(rows), [
        (rows[:, 7:9], [np.column_stack([y_i, rows[:, 5]]), y_i])])
    for b, tag in enumerate(("spd", "sl")):
        assert np.array_equal(trace[f"{tag}_omega_e"], est[:, b, 4])
        assert np.array_equal(trace[f"{tag}_T_r"], est[:, b, 5])
        assert np.array_equal(trace[f"{tag}_innov_a"], innov[:, b, 0],
                              equal_nan=True)

    wsc = WrsmScenario(
        t_end=t_end, noise_std=0.05, seed=3,
        speed_profile=SignalProfile((Segment.ramp(0.0, t_end, 0.0, 20.0),)),
        i_f_profile=default_field_setpoint_profile(windows=((0.01, 0.02),)),
        injection_windows=((0.01, 0.02),))
    trace = run_wrsm_scenario(wsc)
    rows = np.concatenate(list(_wrsm_plant(wsc)))
    rows[:, 2] = wrap_angle(rows[:, 2])    # the trace wraps theta
    for j, name in enumerate(_WRSM_PLANT):
        assert np.array_equal(trace[name], rows[:, j], equal_nan=True), name
    x0 = np.array([*rows[0, 3:6], 0.0, wsc.theta0_error])
    cfg = EkfConfig(Q=np.diag(wsc.ekf_q_diag), R=np.diag(wsc.ekf_r_diag),
                    P0=np.diag(wsc.ekf_p0_diag), x0=x0, Ts=wsc.trace_dt)
    Y = rows[:, 3:6] + np.random.default_rng(3).normal(
        0.0, 0.05, (len(rows), 3))
    est, innov, _ = _run_filter([make_ekf(SynchronousMachine(wsc.params),
                                          cfg)],
                                len(rows), [(rows[:, 8:11], [Y])])
    assert np.array_equal(trace["ekf_omega"], est[:, 0, 3])
    assert np.array_equal(trace["innov_f"], innov[:, 0, 2], equal_nan=True)


def overflowing_rates(params):
    calls = itertools.count()
    rates = im_rates(params)

    def rates_until_overflow(*args):
        if next(calls) == 20_000:    # mid-stream: past the first chunks
            raise OverflowError("plant overflow")
        return rates(*args)
    return rates_until_overflow


def test_plant_error_in_worker_reraised_with_its_type(monkeypatch):
    import driveobs.scenarios as scenarios

    monkeypatch.setattr(scenarios, "im_rates", overflowing_rates)
    with pytest.raises(OverflowError, match="plant overflow"):
        run_im_scenario(short_im_scenario(0.1))
    assert multiprocessing.active_children() == []


def test_filter_divergence_mid_stream_stops_the_worker(monkeypatch):
    import driveobs.scenarios as scenarios

    real_update = scenarios.update
    calls = itertools.count()

    def diverging(X, P, *args):
        X, P, innov = real_update(X, P, *args)
        return (X * math.nan if next(calls) == 5 else X), P, innov

    monkeypatch.setattr(scenarios, "update", diverging)
    with pytest.raises(EkfDivergenceError):
        run_im_scenario(short_im_scenario(1.0))
    assert multiprocessing.active_children() == []


def silent_worker(conn, plant, args):
    conn.close()


def test_worker_without_rows_or_error_raises_typed_error(monkeypatch):
    import driveobs.scenarios as scenarios

    monkeypatch.setattr(scenarios, "_plant_worker", silent_worker)
    with pytest.raises(PlantWorkerError):
        run_im_scenario(short_im_scenario(0.01))
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the pipeline shared by both scenario kinds

# the columns that the filters fill, by name prefix
FILTER_COLUMNS = ("ekf_", "spd_", "sl_", "innov_", "theta_err", "omega_err")


def short_wrsm_scenario(t_end, **kw):
    return WrsmScenario(
        t_end=t_end,
        speed_profile=SignalProfile((Segment.ramp(0.0, t_end, 0.0, 20.0),)),
        i_f_profile=default_field_setpoint_profile(windows=((0.01, 0.02),)),
        injection_windows=((0.01, 0.02),), **kw)


@pytest.mark.parametrize("kind", ["wrsm", "im"])
def test_run_without_filters_keeps_plant_and_channel_columns(kind):
    if kind == "wrsm":
        run, sc = run_wrsm_scenario, short_wrsm_scenario(0.03, noise_std=0.05,
                                                         seed=3)
    else:
        run, sc = run_im_scenario, short_im_scenario(0.02)
    filtered = run(sc)
    bare = run(dataclasses.replace(sc, run_ekf=False))
    assert bare.column_names == filtered.column_names
    names = [n for n in filtered.column_names if n.startswith(FILTER_COLUMNS)]
    assert len(names) == {"wrsm": 10, "im": 19}[kind]
    for name in filtered.column_names:
        if name in names:
            assert np.all(np.isnan(bare[name])), name
        else:
            assert np.array_equal(bare[name], filtered[name],
                                  equal_nan=True), name
    assert filtered.meta["ekf_steps"] > 0
    assert bare.meta["ekf_steps"] == 0


def test_flag_window_longer_than_the_trace_is_the_running_max():
    trace = run_wrsm_scenario(short_wrsm_scenario(0.03, run_ekf=False,
                                                  flag_window=1e300))
    running_max = np.maximum.accumulate(np.abs(trace["margin"]))
    assert np.array_equal(trace["obs_violated"],
                          (running_max < trace.meta["obs_threshold"]) * 1.0)


# ---------------------------------------------------------------------------
# default profiles and the chunked plant loop


def test_default_profiles_cover_short_t_end():
    # each default profile holds its last value past the default t_end
    for sc in (WrsmScenario(t_end=4.0), ImScenario(t_end=7.0),
               WrsmScenario(t_end=0.05), ImScenario(t_end=0.05)):
        for prof in (getattr(sc, name) for name in
                     ("speed_profile", "i_f_profile", "freq_profile",
                      "load_profile") if hasattr(sc, name)):
            assert prof.start == 0.0 and prof.end == math.inf
    long, short = ImScenario(), ImScenario(t_end=7.0)
    t = np.linspace(0.0, 7.0, 7001)
    for name in ("freq_profile", "load_profile"):
        for a, b in zip(getattr(long, name).sample(t),
                        getattr(short, name).sample(t)):
            assert np.array_equal(a, b)


def test_im_truth_chunks_match_scalar_reference_rk4():
    # more than three input chunks, the last one partial; the profiles
    # change segment and sine phase inside the chunks
    dt, t_end = 1e-5, 0.035
    n_steps, n_sub = round(t_end / dt), 10
    assert n_steps + 1 > 3 * CHUNK and (n_steps + 1) % CHUNK
    sc = ImScenario(
        t_end=t_end, dt_sim=dt, trace_dt=n_sub * dt, run_ekf=False,
        freq_profile=SignalProfile((Segment.ramp(0.0, 0.02, 60.0, 0.0),
                                    Segment.constant(0.02, t_end, 0.0))),
        load_profile=SignalProfile((
            Segment.sine(0.0, t_end, 2.0, ((1.0, 300.0, 0.0),)),)))
    truth = run_im_truth(sc)
    rates, freq, load = im_rates(sc.params), sc.freq_profile, sc.load_profile

    def volts(t):
        frac = min(abs(freq.value(t)) / sc.omega_rated, 1.0)
        amp = sc.v_floor + (sc.v_rated - sc.v_floor) * frac
        phase = freq.integral(t)
        return amp * math.cos(phase), amp * math.sin(phase)

    x, rows = [0.0] * 5, []
    for s in range(n_steps + 1):
        t = s * dt
        Tr, u = load.value(t), volts(t)
        if s % n_sub == 0:
            rows.append(x + [Tr, *u])
        if s < n_steps:
            um, u2 = volts(t + dt / 2), volts(t + dt)
            k1 = rates(*x, Tr, *u)
            k2 = rates(*(a + dt / 2 * b for a, b in zip(x, k1)), Tr, *um)
            k3 = rates(*(a + dt / 2 * b for a, b in zip(x, k2)), Tr, *um)
            k4 = rates(*(a + dt * b for a, b in zip(x, k3)), Tr, *u2)
            x = [a + dt / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    p = sc.params
    ref = np.array(rows) / [p.L_sigma, p.L_sigma, p.k_r, p.k_r, 1, 1, 1, 1]
    for j, name in enumerate(("i_sa", "i_sb", "psi_ra", "psi_rb", "omega_e",
                              "T_r", "v_sa", "v_sb")):
        scale = np.max(np.abs(ref[:, j]))
        assert np.max(np.abs(truth[name] - ref[:, j])) <= 1e-12 * scale, name


# ---------------------------------------------------------------------------
# closed-form channels: the column evaluation against the point functions


def sampled_rows(trace, count=50):
    return np.unique(np.linspace(0, len(trace.t) - 1, count).astype(int))


def assert_channel(trace, name, expected, rows, rtol):
    """Column ``name`` at ``rows`` against the point values: NaN at the same
    rows, the rest within ``rtol`` of the column's largest magnitude."""
    col, expected = trace[name][rows], np.asarray(expected)
    assert np.array_equal(np.isnan(col), np.isnan(expected)), name
    scale = np.nanmax(np.abs(trace[name]))
    ok = ~np.isnan(expected)
    assert np.all(np.abs(col[ok] - expected[ok]) <= rtol * scale), name


def ramp_wrsm_scenario():
    """A short WRSM run without the filter: the speed ramps from 0 to
    50 rad/s over 0.3 s, with one injection window."""
    return WrsmScenario(
        t_end=0.3, run_ekf=False,
        speed_profile=SignalProfile((Segment.ramp(0.0, 0.3, 0.0, 50.0),)),
        i_f_profile=default_field_setpoint_profile(windows=((0.1, 0.2),)),
        injection_windows=((0.1, 0.2),))


def test_wrsm_channels_match_point_closed_forms():
    sc = ramp_wrsm_scenario()
    trace = run_wrsm_scenario(sc)
    p, c = sc.params, trace.columns
    rates = SynchronousMachine(p).rates
    rows = sampled_rows(trace)
    det, ratio = [], []
    for k in rows:
        t, w, ia, ib, i_f, i_d, i_q, va, vb, vf = (
            c[n][k].item() for n in ("t", "omega", "i_sa", "i_sb", "i_f",
                                     "i_sd", "i_sq", "v_sa", "v_sb", "v_f"))
        th = sc.speed_profile.integral(t)   # the plant's unwrapped angle
        c1, s1 = math.cos(th), math.sin(th)
        dia, dib, dif = rates(ia, ib, i_f, w, c1, s1, va, vb, vf)
        did = (c1 * dia + s1 * dib) + w * i_q
        diq = (-s1 * dia + c1 * dib) - w * i_d
        det.append(sm_determinant(p, w, i_d, i_q, i_f, did, diq, dif))
        ratio.append(sm_condition_ratio(p, i_d, i_q, i_f))
    # float squares round through pow, array squares are exact products
    assert_channel(trace, "det_sm", det, rows, 1e-14)
    assert_channel(trace, "ratio", ratio, rows, 1e-14)


def test_check_and_simulate_agree_at_trace_rows():
    """``observability_report`` at a trace row's state and input, the path
    of ``check``, gives that row's ``det_sm``, ``ratio`` and observability
    vector to the bit."""
    sc = ramp_wrsm_scenario()
    trace = run_wrsm_scenario(sc)
    machine, c = SynchronousMachine(sc.params), trace.columns
    for k in sampled_rows(trace):
        # the trace wraps theta; the plant's own angle is the profile's
        x = [c[n][k] for n in ("i_sa", "i_sb", "i_f", "omega")] + [
            sc.speed_profile.integral(c["t"][k])]
        u = [c[n][k] for n in ("v_sa", "v_sb", "v_f")]
        report = observability_report(machine, x, u)
        ratio = sm_channels(machine, np.array(x), machine.f(x, u))[3]
        assert report.determinant == c["det_sm"][k]
        assert ratio == c["ratio"][k]
        assert (report.psi_od, report.psi_oq) == (c["psi_od"][k],
                                                  c["psi_oq"][k])


def test_wrsm_margin_is_the_distance_to_the_determinant_zero_set():
    c = run_wrsm_scenario(ramp_wrsm_scenario()).columns
    assert np.all(c["ratio"] < 1.0)    # the field winding takes its share
    assert np.array_equal(c["margin"], c["omega"] - c["ratio"] * c["omega_o"])
    # no current and no field: a zero observability vector, NaN ratio, and
    # the spinning rotor's point is not guaranteed, as ``check`` says
    zero = run_wrsm_scenario(WrsmScenario(
        t_end=0.05, run_ekf=False, i_d_ref=0.0, i_q_ref=0.0,
        speed_profile=SignalProfile.constant(0.0, 1.0, 10.0),
        i_f_profile=SignalProfile.constant(0.0, 1.0, 0.0),
        injection_windows=()))
    assert np.all(np.isnan(zero["ratio"]))
    assert np.all(zero["margin"] == 0.0)
    assert np.all(zero["obs_violated"] == 1.0)


def test_im_channels_match_point_closed_forms():
    sc = short_im_scenario(0.05, noise_std=0.0)
    trace = run_im_scenario(sc)
    p, c = sc.params, trace.columns
    L_sig, kr = p.L_sigma, p.k_r
    rates = im_rates(p)
    rows = sampled_rows(trace)
    expected = {n: [] for n in ("omega_s_cmd", "T_m", "psi_rd", "im_cond",
                                "det_with_speed", "det_sensorless",
                                "line_distance", "spd_flux_err",
                                "sl_flux_err")}
    for k in rows:
        # the scaled state the scenario integrates
        x = [c["i_sa"][k] * L_sig, c["i_sb"][k] * L_sig,
             c["psi_ra"][k] * kr, c["psi_rb"][k] * kr,
             c["omega_e"][k], c["T_r"][k]]
        xdot = rates(*x, c["v_sa"][k], c["v_sb"][k]) + (0.0,)
        T_m = (p.p / L_sig) * (x[1] * x[2] - x[0] * x[3])
        psi_rd = math.hypot(x[2], x[3]) / kr
        expected["omega_s_cmd"].append(sc.freq_profile.value(c["t"][k]))
        expected["T_m"].append(T_m)
        expected["psi_rd"].append(psi_rd)
        expected["im_cond"].append(im_condition(p, x[4], xdot[4],
                                                c["omega_s"][k]))
        for mode in ("with_speed", "sensorless"):
            expected[f"det_{mode}"].append(im_determinant(p, mode, x, xdot))
        expected["line_distance"].append(
            x[4] + slip_frequency(p, T_m, psi_rd) if psi_rd > 1e-9
            else math.nan)
        for tag in ("spd", "sl"):
            err = math.hypot(c[f"{tag}_psi_ra"][k] - c["psi_ra"][k],
                             c[f"{tag}_psi_rb"][k] - c["psi_rb"][k]) * kr
            expected[f"{tag}_flux_err"].append(
                err / max(math.hypot(x[2], x[3]), 1e-12))
    assert math.isnan(expected["line_distance"][0])   # no flux at t = 0
    # the point values start from the physical trace columns, scaled back
    for name, values in expected.items():
        assert_channel(trace, name, values, rows, 1e-12)
