"""Reference drive scenarios producing ground truth, filter estimates and
observability channels.

Two scenarios are bundled: a speed-driven wound-rotor machine with PI current
control and high-frequency field-current injection at standstill, and an
open-loop induction-machine voltage drive whose stator frequency dwells at
exactly zero. Both log the closed-form observability channels alongside one
or two open-loop filters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .ekf import EkfConfig, ekf_predict, ekf_update, make_ekf
from .machines import (InductionMachine, SynchronousMachine, im_rates,
                       im_rates_unscaled, park, wrap_angle)
from .observability import (OBS_THRESHOLD_DEFAULT, im_condition,
                            im_determinant, sm_condition_ratio,
                            sm_determinant, slip_frequency)
from .params import ImParams, WrsmParams, IM_DEFAULT, WRSM_DEFAULT
from .profiles import PiController, Segment, SignalProfile
from .trace import SimTrace, rolling_abs_max

TWO_PI = 2.0 * math.pi


def _grid(sc) -> Tuple[int, int, int]:
    """Integration steps, steps per trace row and trace rows of a scenario;
    checked at construction and again when the scenario runs."""
    dt = sc.dt_sim
    if dt <= 0 or sc.t_end <= 0:
        raise ValueError("dt_sim and t_end must be positive")
    if sc.trace_dt < dt:
        raise ValueError("integration step must not exceed the filter Ts")
    n_sub = round(sc.trace_dt / dt)
    if abs(n_sub * dt - sc.trace_dt) > 1e-12:
        raise ValueError("trace_dt must be an integer multiple of dt_sim")
    n_steps = round(sc.t_end / dt)
    return n_steps, n_sub, n_steps // n_sub + 1


def _check_scenario(sc, profiles: dict):
    _grid(sc)
    for name, prof in profiles.items():
        if prof.start > 0.0 or prof.end < sc.t_end - 1e-9:
            raise ValueError(f"{name} must cover [0, t_end]")


# ---------------------------------------------------------------------------
# scenario descriptions


@dataclass
class WrsmScenario:
    """Speed-driven WRSM with PI current loops and HF field injection."""

    params: WrsmParams = WRSM_DEFAULT
    t_end: float = 6.0
    dt_sim: float = 1e-5
    trace_dt: float = 1e-4            # filter sample time and trace grid
    speed_profile: Optional[SignalProfile] = None
    i_d_ref: float = 2.0
    i_q_ref: float = 15.0
    i_f_profile: Optional[SignalProfile] = None
    injection_windows: Tuple[Tuple[float, float], ...] = ((1.0, 1.5), (4.5, 5.0))
    bw_dq: float = 500.0              # current-loop bandwidth (rad/s)
    bw_f: float = 50.0                # field-loop bandwidth (rad/s)
    field_feedforward: bool = True    # R_f*i_ref + L_f*di_ref/dt on v_f
    v_limit: float = 3000.0
    theta0_error: float = 0.5         # initial position estimate offset (rad)
    ekf_q_diag: Tuple[float, ...] = (1.0, 1.0, 1.0, 200.0, 5.0)
    ekf_r_diag: Tuple[float, ...] = (1.0, 1.0, 1.0)
    ekf_p0_diag: Tuple[float, ...] = (0.1, 0.1, 0.1, 10.0, 1.0)
    run_ekf: bool = True
    noise_std: float = 0.0
    seed: Optional[int] = None
    obs_threshold: float = OBS_THRESHOLD_DEFAULT
    omega_o_filter_tau: float = 1e-3
    flag_window: float = 1e-2         # sliding max window for the flag (s)

    def __post_init__(self):
        if self.speed_profile is None:
            self.speed_profile = default_wrsm_speed_profile(self.t_end)
        if self.i_f_profile is None:
            self.i_f_profile = default_field_setpoint_profile(
                self.t_end, windows=self.injection_windows)
        _check_scenario(self, {"speed_profile": self.speed_profile,
                               "i_f_profile": self.i_f_profile})


def default_wrsm_speed_profile(t_end: float = 6.0) -> SignalProfile:
    """Standstill through both injection windows, one ramp-hold-ramp bump."""
    return SignalProfile((
        Segment.constant(0.0, 1.5, 0.0),
        Segment.ramp(1.5, 2.5, 0.0, 100.0),
        Segment.constant(2.5, 4.0, 100.0),
        Segment.ramp(4.0, 4.5, 100.0, 0.0),
        Segment.constant(4.5, t_end, 0.0),
    ))


def default_field_setpoint_profile(t_end: float = 6.0, i_f0: float = 4.0,
                                   i_f_hf: float = 0.5,
                                   omega_hf: float = TWO_PI * 1e3,
                                   windows=((1.0, 1.5), (4.5, 5.0))
                                   ) -> SignalProfile:
    """Constant field setpoint with HF sinusoid added inside the windows."""
    segs = []
    t = 0.0
    for (w0, w1) in windows:
        if w0 > t:
            segs.append(Segment.constant(t, w0, i_f0))
        segs.append(Segment.sine(w0, w1, i_f0, ((i_f_hf, omega_hf, 0.0),)))
        t = w1
    if t < t_end:
        segs.append(Segment.constant(t, t_end, i_f0))
    return SignalProfile(tuple(segs))


@dataclass
class ImScenario:
    """Open-loop volts-per-hertz IM drive crossing zero stator frequency."""

    params: ImParams = IM_DEFAULT
    t_end: float = 8.5
    dt_sim: float = 5e-6
    trace_dt: float = 5e-5
    freq_profile: Optional[SignalProfile] = None   # stator frequency (rad/s)
    load_profile: Optional[SignalProfile] = None   # resistant torque (N·m)
    v_rated: float = 2.0
    v_floor: float = 0.8
    omega_rated: float = TWO_PI * 10.0
    dwell: Tuple[float, float] = (3.0, 5.0)
    # continuous-time process/measurement intensities, physical units
    ekf_q_diag_phys: Tuple[float, ...] = (10.0, 10.0, 1e-6, 1e-6, 4e3, 250.0)
    ekf_r_current_phys: float = 1.0
    ekf_r_speed: float = 0.25
    ekf_p0_phys: float = 0.1
    x0_est_phys: Tuple[float, ...] = (0.0, 0.0, -0.02, -0.02, 50.0, 5.0)
    run_ekf: bool = True
    noise_std: float = 1.0
    seed: Optional[int] = 1234
    obs_threshold: float = OBS_THRESHOLD_DEFAULT
    omega_s_filter_tau: float = 1e-3
    flag_window: float = 1e-2

    def __post_init__(self):
        if self.freq_profile is None:
            self.freq_profile = default_im_frequency_profile(
                self.t_end, self.omega_rated, self.dwell)
        if self.load_profile is None:
            self.load_profile = default_im_load_profile(self.t_end)
        _check_scenario(self, {"freq_profile": self.freq_profile,
                               "load_profile": self.load_profile})

    def voltage_amplitude(self, omega_s_cmd: float) -> float:
        frac = min(abs(omega_s_cmd) / self.omega_rated, 1.0)
        return self.v_floor + (self.v_rated - self.v_floor) * frac


def default_im_frequency_profile(t_end: float = 8.5,
                                 omega_rated: float = TWO_PI * 10.0,
                                 dwell: Tuple[float, float] = (3.0, 5.0)
                                 ) -> SignalProfile:
    """Rated frequency, ramp to a dwell at exactly zero, ramp back up."""
    d0, d1 = dwell
    return SignalProfile((
        Segment.constant(0.0, 1.0, omega_rated),
        Segment.ramp(1.0, d0, omega_rated, 0.0),
        Segment.constant(d0, d1, 0.0),
        Segment.ramp(d1, d1 + 1.0, 0.0, omega_rated),
        Segment.constant(d1 + 1.0, t_end, omega_rated),
    ))


def default_im_load_profile(t_end: float = 8.5) -> SignalProfile:
    """Resistant torque: idle, motor-load step, generator step near the end."""
    return SignalProfile((
        Segment.constant(0.0, 0.5, 0.0),
        Segment.constant(0.5, 7.5, 5.0),
        Segment.constant(7.5, t_end, -5.0),
    ))


# ---------------------------------------------------------------------------
# plant kernels


def wrsm_current_rates(p: WrsmParams):
    """The wound-rotor machine's current kernel, taking the rotor position
    ``th`` in place of its cosine and sine."""
    rates = SynchronousMachine(p).rates
    return lambda ia, ib, i_f, w, th, va, vb, vf: rates(
        ia, ib, i_f, w, math.cos(th), math.sin(th), va, vb, vf)


def _integrate_im(sc: ImScenario, scaled: bool):
    """
    IM plant stage: RK4 on the dt_sim grid, sampled on the trace grid.

    Returns ``(t, X, V, omega_s_cmd, omega_s)``: the trace-row times, the
    state ``(i_a, i_b, psi_a, psi_b, omega_e, T_r)`` in the model's own
    coordinates, the applied voltages, the commanded stator frequency and
    the flux-angle frequency estimate, low-pass filtered every dt_sim.
    """
    dt = sc.dt_sim
    n_steps, n_sub, n_trace = _grid(sc)
    freq, load = sc.freq_profile, sc.load_profile
    rates = im_rates(sc.params) if scaled else im_rates_unscaled(sc.params)

    def voltage(t):
        w_cmd = freq.value(t)
        phase = freq.integral(t)
        amp = sc.voltage_amplitude(w_cmd)
        return amp * math.cos(phase), amp * math.sin(phase)

    times = np.zeros(n_trace)
    X = np.zeros((n_trace, 6))
    V = np.zeros((n_trace, 2))
    omega_s_cmd = np.zeros(n_trace)
    omega_s = np.zeros(n_trace)
    ang_prev = None
    omega_s_filt = 0.0
    alpha = dt / (sc.omega_s_filter_tau + dt)
    ia = ib = pa = pb = we = 0.0
    for s in range(n_steps + 1):
        t = s * dt
        Tr = load.value(t)
        va, vb = voltage(t)

        if ang_prev is not None or (pa, pb) != (0.0, 0.0):
            ang = math.atan2(pb, pa)
            if ang_prev is not None:
                delta = ang - ang_prev
                delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
                omega_s_filt += alpha * (delta / dt - omega_s_filt)
            ang_prev = ang

        if s % n_sub == 0:
            k = s // n_sub
            times[k] = t
            X[k] = ia, ib, pa, pb, we, Tr
            V[k] = va, vb
            omega_s_cmd[k] = freq.value(t)
            omega_s[k] = omega_s_filt

        if s < n_steps:
            h = dt
            vam, vbm = voltage(t + 0.5 * h)
            va2, vb2 = voltage(t + h)
            k1 = rates(ia, ib, pa, pb, we, Tr, va, vb)
            k2 = rates(ia + 0.5 * h * k1[0], ib + 0.5 * h * k1[1],
                       pa + 0.5 * h * k1[2], pb + 0.5 * h * k1[3],
                       we + 0.5 * h * k1[4], Tr, vam, vbm)
            k3 = rates(ia + 0.5 * h * k2[0], ib + 0.5 * h * k2[1],
                       pa + 0.5 * h * k2[2], pb + 0.5 * h * k2[3],
                       we + 0.5 * h * k2[4], Tr, vam, vbm)
            k4 = rates(ia + h * k3[0], ib + h * k3[1], pa + h * k3[2],
                       pb + h * k3[3], we + h * k3[4], Tr, va2, vb2)
            ia += (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            ib += (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            pa += (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            pb += (h / 6.0) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
            we += (h / 6.0) * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])
    return times, X, V, omega_s_cmd, omega_s


def run_im_truth(sc: ImScenario, scaled: bool = True) -> SimTrace:
    """
    Integrate only the IM ground truth (no filters, no channels).

    With ``scaled=False`` the physical-coordinate model is integrated from
    the equivalent initial state; the returned columns are always physical
    (currents in A, fluxes in Wb), so the two runs are directly comparable.
    Besides the state, the trace holds the flux-angle frequency estimate
    ``omega_s`` and the applied voltages ``v_sa``, ``v_sb``.
    """
    p = sc.params
    s_i, s_p = (p.L_sigma, p.k_r) if scaled else (1.0, 1.0)
    t, X, V, _, omega_s = _integrate_im(sc, scaled)
    cols = {"t": t, "i_sa": X[:, 0] / s_i, "i_sb": X[:, 1] / s_i,
            "psi_ra": X[:, 2] / s_p, "psi_rb": X[:, 3] / s_p,
            "omega_e": X[:, 4], "T_r": X[:, 5], "omega_s": omega_s,
            "v_sa": V[:, 0], "v_sb": V[:, 1]}
    meta = {"machine": "im", "scaled": scaled, "dt_sim": sc.dt_sim,
            "trace_dt": sc.trace_dt, "t_end": sc.t_end}
    return SimTrace(columns=cols, meta=meta)


# ---------------------------------------------------------------------------
# stages shared by both scenarios


def _noisy(Y: np.ndarray, std: float, seed) -> np.ndarray:
    """Measurements plus seeded Gaussian noise, drawn row by row."""
    if std > 0:
        return Y + np.random.default_rng(seed).normal(0.0, std, Y.shape)
    return Y


def _run_filter(inst, U: np.ndarray, Y: np.ndarray):
    """
    Run one filter over a finished trace: row ``k`` predicts with the input
    of row ``k - 1`` and corrects with the measurement of row ``k``.

    Returns the estimate and the innovation of each row (row 0: the initial
    estimate, NaN innovations) and the covariance health ``(steps,
    max |P - P^T|, min eigenvalue ratio checked every 100 of its steps)``.
    """
    n = len(Y)
    est = np.empty((n, inst.x.size))
    innov = np.full(Y.shape, math.nan)
    est[0] = inst.x
    asym, eig_ratio = 0.0, math.inf
    for k in range(1, n):
        inst = ekf_predict(inst, U[k - 1])
        inst, innov[k] = ekf_update(inst, Y[k])
        est[k] = inst.x
        asym = max(asym, np.abs(inst.P - inst.P.T).max())
        if k % 100 == 0:
            eig = np.linalg.eigvalsh(inst.P)
            eig_ratio = min(eig_ratio, eig[0] / max(eig[-1], 1e-300))
    return est, innov, (n - 1, asym, eig_ratio)


def _scenario_trace(sc, cols: dict, channel: str, health, started: float,
                    **meta) -> SimTrace:
    """
    Finish a scenario trace: the windowed ``obs_violated`` flag is set where
    the recent |``channel``| never reached the threshold; ``meta`` gains the
    grid, the flag settings and the covariance health of all filters.
    """
    width = max(int(round(sc.flag_window / sc.trace_dt)), 1)
    channel_max = rolling_abs_max(cols[channel], width)
    cols["obs_violated"] = (channel_max < sc.obs_threshold).astype(float)
    steps = sum(h[0] for h in health)
    meta.update({
        "dt_sim": sc.dt_sim, "trace_dt": sc.trace_dt, "t_end": sc.t_end,
        "obs_threshold": sc.obs_threshold, "flag_window": sc.flag_window,
        "ekf_steps": steps,
        "ekf_p_max_asym": max((h[1] for h in health), default=0.0),
        "ekf_p_min_eig_ratio": min(h[2] for h in health) if steps
        else math.nan,
        "wall_time_s": time.perf_counter() - started})
    return SimTrace(columns=cols, meta=meta)


# ---------------------------------------------------------------------------
# WRSM scenario

# trace columns recorded by the closed loop; it records ``theta`` unwrapped
_WRSM_PLANT = ("t", "omega", "theta", "i_sa", "i_sb", "i_f", "i_sd", "i_sq",
               "v_sa", "v_sb", "v_f", "i_d_ref", "i_q_ref", "i_f_ref",
               "pi_saturated", "psi_od", "psi_oq", "theta_o", "omega_o",
               "margin")


def run_wrsm_scenario(sc: WrsmScenario) -> SimTrace:
    """Simulate the WRSM scenario; returns the trace on the filter grid."""
    started = time.perf_counter()
    p = sc.params
    machine = SynchronousMachine(p)
    dt = sc.dt_sim
    n_steps, n_sub, n_trace = _grid(sc)

    speed = sc.speed_profile
    i_f_ref_profile = sc.i_f_profile
    rates = machine.rates

    # PI gains from pole placement on the decoupled loops
    pi_d = PiController(sc.bw_dq * p.L_d, sc.bw_dq * p.R_s,
                        -sc.v_limit, sc.v_limit, integral=p.R_s * sc.i_d_ref)
    pi_q = PiController(sc.bw_dq * p.L_q, sc.bw_dq * p.R_s,
                        -sc.v_limit, sc.v_limit, integral=p.R_s * sc.i_q_ref)
    i_f0 = i_f_ref_profile.value(0.0)
    pi_f = PiController(sc.bw_f * p.L_f, sc.bw_f * p.R_f,
                        -sc.v_limit, sc.v_limit,
                        integral=0.0 if sc.field_feedforward else p.R_f * i_f0)

    # plant starts settled at the setpoints
    theta0 = speed.integral(0.0)
    iab0 = park([sc.i_d_ref, sc.i_q_ref], theta0, "to_ab")
    ia, ib, i_f = float(iab0[0]), float(iab0[1]), i_f0

    ekf = None
    if sc.run_ekf:
        x0_est = np.array([ia, ib, i_f, 0.0, theta0 + sc.theta0_error])
        cfg = EkfConfig(Q=np.diag(sc.ekf_q_diag), R=np.diag(sc.ekf_r_diag),
                        P0=np.diag(sc.ekf_p0_diag), x0=x0_est, Ts=sc.trace_dt)
        ekf = make_ekf(machine, cfg)

    # filtered vector-angle velocity state
    theta_o_prev = None
    omega_o_filt = 0.0
    alpha = dt / (sc.omega_o_filter_tau + dt)

    sD_LD = p.sigma_delta * p.L_delta
    LD, Mf = p.L_delta, p.M_f
    rows = np.zeros((n_trace, len(_WRSM_PLANT)))

    for s in range(n_steps + 1):
        t = s * dt
        w = speed.value(t)
        th = speed.integral(t)
        c1, s1 = math.cos(th), math.sin(th)
        i_d = c1 * ia + s1 * ib
        i_q = -s1 * ia + c1 * ib

        # controller (runs every integration step)
        i_f_ref = i_f_ref_profile.value(t)
        v_d = pi_d.update(sc.i_d_ref - i_d, dt)
        v_q = pi_q.update(sc.i_q_ref - i_q, dt)
        v_f = pi_f.update(i_f_ref - i_f, dt)
        if sc.field_feedforward:
            v_f += p.R_f * i_f_ref + p.L_f * i_f_ref_profile.derivative(t)
        va = c1 * v_d - s1 * v_q
        vb = s1 * v_d + c1 * v_q
        saturated = pi_d.saturated or pi_q.saturated or pi_f.saturated

        # observability-vector angle tracking at the integration rate
        psi_od = LD * i_d + Mf * i_f
        psi_oq = sD_LD * i_q
        th_o = math.nan
        if psi_od != 0.0 or psi_oq != 0.0:
            th_o = math.atan2(psi_oq, psi_od)
            if theta_o_prev is not None:
                delta = th_o - theta_o_prev
                delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
                omega_o_filt += alpha * (delta / dt - omega_o_filt)
            theta_o_prev = th_o

        if s % n_sub == 0:
            rows[s // n_sub] = (t, w, th, ia, ib, i_f, i_d, i_q, va, vb, v_f,
                                sc.i_d_ref, sc.i_q_ref, i_f_ref,
                                float(saturated), psi_od, psi_oq, th_o,
                                omega_o_filt, w - omega_o_filt)

        if s < n_steps:
            # RK4 on the currents; speed and position follow the profile
            h = dt
            tm = t + 0.5 * h
            t2 = t + h
            wm, thm = speed.value(tm), speed.integral(tm)
            w2, th2 = speed.value(t2), speed.integral(t2)
            cm, sm = math.cos(thm), math.sin(thm)
            k1 = rates(ia, ib, i_f, w, c1, s1, va, vb, v_f)
            k2 = rates(ia + 0.5 * h * k1[0], ib + 0.5 * h * k1[1],
                       i_f + 0.5 * h * k1[2], wm, cm, sm, va, vb, v_f)
            k3 = rates(ia + 0.5 * h * k2[0], ib + 0.5 * h * k2[1],
                       i_f + 0.5 * h * k2[2], wm, cm, sm, va, vb, v_f)
            k4 = rates(ia + h * k3[0], ib + h * k3[1], i_f + h * k3[2],
                       w2, math.cos(th2), math.sin(th2), va, vb, v_f)
            ia += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            ib += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            i_f += (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])

    cols = dict(zip(_WRSM_PLANT, rows.T))
    theta = cols["theta"]
    cols["theta"] = wrap_angle(theta)

    # closed-form channels on the trace columns
    c1, s1 = np.cos(theta), np.sin(theta)
    w, i_d, i_q, i_f = cols["omega"], cols["i_sd"], cols["i_sq"], cols["i_f"]
    dia, dib, dif = rates(cols["i_sa"], cols["i_sb"], i_f, w, c1, s1,
                          cols["v_sa"], cols["v_sb"], cols["v_f"])
    did = (c1 * dia + s1 * dib) + w * i_q
    diq = (-s1 * dia + c1 * dib) - w * i_d
    det_sm = sm_determinant(p, w, i_d, i_q, i_f, did, diq, dif)
    ratio = sm_condition_ratio(p, i_d, i_q, i_f)

    est = np.full((n_trace, 5), math.nan)
    innov = np.full((n_trace, 3), math.nan)
    health = []
    if ekf is not None:
        Y = np.column_stack([cols["i_sa"], cols["i_sb"], cols["i_f"]])
        U = np.column_stack([cols["v_sa"], cols["v_sb"], cols["v_f"]])
        est, innov, filter_health = _run_filter(
            ekf, U, _noisy(Y, sc.noise_std, sc.seed))
        health.append(filter_health)

    cols.update({
        "det_sm": det_sm, "ratio": ratio,
        "ekf_theta": wrap_angle(est[:, 4]), "ekf_omega": est[:, 3],
        "ekf_i_sa": est[:, 0], "ekf_i_sb": est[:, 1], "ekf_i_f": est[:, 2],
        "theta_err": wrap_angle(est[:, 4] - theta),
        "omega_err": est[:, 3] - cols["omega"],
        "innov_a": innov[:, 0], "innov_b": innov[:, 1], "innov_f": innov[:, 2],
    })

    return _scenario_trace(
        sc, cols, "margin", health, started, machine="wrsm",
        injection_windows=[list(wdw) for wdw in sc.injection_windows],
        theta0_error=sc.theta0_error,
        pi_saturated_samples=int(np.sum(cols["pi_saturated"] > 0)))


# ---------------------------------------------------------------------------
# IM scenario


def _im_ekf_config(sc: ImScenario, machine: InductionMachine,
                   speed_measured: bool) -> EkfConfig:
    """Physical-unit tuning mapped into scaled coordinates.

    The Q diagonal is a continuous-time noise intensity; the discrete
    per-step covariance is Q*Ts. Covariances pick up the square of the
    state scaling.
    """
    S = machine.scale_vector
    Q = np.diag(np.asarray(sc.ekf_q_diag_phys) * sc.trace_dt * S**2)
    r = [sc.ekf_r_current_phys * S[0]**2, sc.ekf_r_current_phys * S[1]**2]
    if speed_measured:
        r.append(sc.ekf_r_speed)
    R = np.diag(r)
    P0 = np.diag(sc.ekf_p0_phys * S**2)
    x0 = np.asarray(sc.x0_est_phys, float) * S
    return EkfConfig(Q=Q, R=R, P0=P0, x0=x0, Ts=sc.trace_dt)


def run_im_scenario(sc: ImScenario) -> SimTrace:
    """Simulate the IM scenario with both filters; trace on the filter grid."""
    started = time.perf_counter()
    p = sc.params
    machine = InductionMachine(p)
    kr = p.k_r
    L_sig = p.L_sigma

    filters = {}
    if sc.run_ekf:
        for tag, speed_measured in (("spd", True), ("sl", False)):
            filters[tag] = make_ekf(
                machine, _im_ekf_config(sc, machine, speed_measured),
                speed_measured=speed_measured)

    t, X, V, omega_s_cmd, omega_s = _integrate_im(sc, scaled=True)
    n = len(t)

    # closed-form channels on the trace columns; the line distance is NaN
    # where the flux is too small to define the slip
    ia, ib, pa, pb, we, Tr = X.T
    xdot = machine.rates(ia, ib, pa, pb, we, Tr, V[:, 0], V[:, 1])
    T_m = (p.p / L_sig) * (ib * pa - ia * pb)
    psi_rd = np.hypot(pa, pb) / kr
    im_cond = im_condition(p, we, xdot[4], omega_s)
    det_with_speed = im_determinant(p, "with_speed", X.T, xdot)
    det_sensorless = im_determinant(p, "sensorless", X.T, xdot)
    line_distance = we + slip_frequency(
        p, T_m, np.where(psi_rd > 1e-9, psi_rd, math.nan))

    y_i = _noisy(X[:, :2], sc.noise_std * L_sig, sc.seed)
    filtered, health = {}, []
    for tag, speed_measured in (("spd", True), ("sl", False)):
        est = np.full((n, 6), math.nan)
        innov = np.full((n, 3 if speed_measured else 2), math.nan)
        if tag in filters:
            Y = np.column_stack([y_i, X[:, 4]]) if speed_measured else y_i
            est, innov, filter_health = _run_filter(filters[tag], V, Y)
            health.append(filter_health)
        flux_err = np.hypot(est[:, 2] - pa, est[:, 3] - pb) / np.maximum(
            np.hypot(pa, pb), 1e-12)
        filtered[tag] = est, innov, flux_err

    # physical units, in place so that each trace column is a view
    for A in (X, filtered["spd"][0], filtered["sl"][0]):
        A[:, :2] /= L_sig
        A[:, 2:4] /= kr
    cols = {"t": t, "omega_s_cmd": omega_s_cmd, "v_sa": V[:, 0],
            "v_sb": V[:, 1], "T_load": X[:, 5].copy(), "i_sa": X[:, 0],
            "i_sb": X[:, 1], "psi_ra": X[:, 2], "psi_rb": X[:, 3],
            "omega_e": X[:, 4], "T_r": X[:, 5], "T_m": T_m,
            "psi_rd": psi_rd, "omega_s": omega_s, "im_cond": im_cond,
            "det_with_speed": det_with_speed,
            "det_sensorless": det_sensorless, "line_distance": line_distance}
    for tag, (est, innov, flux_err) in filtered.items():
        cols.update({
            f"{tag}_i_sa": est[:, 0], f"{tag}_i_sb": est[:, 1],
            f"{tag}_psi_ra": est[:, 2], f"{tag}_psi_rb": est[:, 3],
            f"{tag}_omega_e": est[:, 4], f"{tag}_T_r": est[:, 5],
            f"{tag}_flux_err": flux_err,
            f"{tag}_innov_a": innov[:, 0], f"{tag}_innov_b": innov[:, 1]})
    cols["spd_innov_w"] = filtered["spd"][1][:, 2]

    return _scenario_trace(sc, cols, "im_cond", health, started,
                           machine="im", dwell=list(sc.dwell))
