"""Reference drive scenarios producing ground truth, filter estimates and
observability channels.

Two scenarios are bundled: a speed-driven wound-rotor machine with PI current
control and high-frequency field-current injection at standstill, and an
open-loop induction-machine voltage drive whose stator frequency dwells at
exactly zero. Both run ``run_scenario``: a worker process runs the plant and
streams its trace rows to a bank of open-loop filters; the closed-form
observability channels follow. A ``ScenarioSpec`` per kind, in ``SPECS``,
holds what differs between the kinds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .ekf import (EkfConfig, SingularInnovationError, bank, check_overflow,
                  make_ekf, predict, symmetrized, update)
from .machines import (InductionMachine, SynchronousMachine, im_rates,
                       im_rates_unscaled, park, wrap_angle)
from .observability import (OBS_THRESHOLD_DEFAULT, im_condition,
                            im_determinant, sm_channels,
                            sm_observability_vector, slip_frequency)
from .params import ImParams, WrsmParams, IM_DEFAULT, WRSM_DEFAULT
from .profiles import PiController, Segment, SignalProfile
from .trace import SimTrace, finite_max, finite_min, rolling_abs_max

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


def _check_scenario(sc, positive: tuple, tau: str):
    """The grid, the seed, the ``*_profile`` domains, and the values the
    pipeline divides by or slides a window over: the ``positive`` fields
    (every entry of a tuple) and the angle-rate filter constant ``tau``."""
    _grid(sc)
    for name in ("obs_threshold", "flag_window") + positive:
        value = getattr(sc, name)
        if not 0.0 < np.min(value) <= np.max(value) < math.inf:   # NaN too
            raise ValueError(f"{name} must be finite and above 0, got "
                             f"{value!r}")
    # tau = -dt_sim divides by 0; a negative noise_std would add no noise
    for name in (tau, "noise_std"):
        if not getattr(sc, name) >= 0:
            raise ValueError(f"{name} must be at least 0, got "
                             f"{getattr(sc, name)!r}")
    if sc.seed is not None and sc.seed < 0:    # numpy seeds are unsigned
        raise ValueError(f"seed must be at least 0, got {sc.seed!r}")
    for name, prof in vars(sc).items():
        if name.endswith("_profile") and (
                prof.start > 0.0 or prof.end < sc.t_end - 1e-9):
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
            self.speed_profile = default_wrsm_speed_profile()
        if self.i_f_profile is None:
            self.i_f_profile = default_field_setpoint_profile(
                windows=self.injection_windows)
        _check_scenario(self, ("ekf_q_diag", "ekf_r_diag", "ekf_p0_diag",
                               "v_limit"), "omega_o_filter_tau")


def default_wrsm_speed_profile() -> SignalProfile:
    """Standstill through both injection windows, one ramp-hold-ramp bump."""
    return SignalProfile((
        Segment.constant(0.0, 1.5, 0.0),
        Segment.ramp(1.5, 2.5, 0.0, 100.0),
        Segment.constant(2.5, 4.0, 100.0),
        Segment.ramp(4.0, 4.5, 100.0, 0.0),
        Segment.constant(4.5, math.inf, 0.0),
    ))


def default_field_setpoint_profile(windows=((1.0, 1.5), (4.5, 5.0))
                                   ) -> SignalProfile:
    """4 A field setpoint with a 0.5 A, 1 kHz sinusoid added inside the
    windows."""
    segs = []
    t = 0.0
    for (w0, w1) in windows:
        if w0 > t:
            segs.append(Segment.constant(t, w0, 4.0))
        segs.append(Segment.sine(w0, w1, 4.0, ((0.5, TWO_PI * 1e3, 0.0),)))
        t = w1
    segs.append(Segment.constant(t, math.inf, 4.0))
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
                self.omega_rated, self.dwell)
        if self.load_profile is None:
            self.load_profile = default_im_load_profile()
        _check_scenario(self, ("ekf_q_diag_phys", "ekf_r_current_phys",
                               "ekf_r_speed", "ekf_p0_phys", "omega_rated"),
                        "omega_s_filter_tau")


def default_im_frequency_profile(omega_rated: float = TWO_PI * 10.0,
                                 dwell: Tuple[float, float] = (3.0, 5.0)
                                 ) -> SignalProfile:
    """Rated frequency, ramp to a dwell at exactly zero, ramp back up."""
    d0, d1 = dwell
    return SignalProfile((
        Segment.constant(0.0, 1.0, omega_rated),
        Segment.ramp(1.0, d0, omega_rated, 0.0),
        Segment.constant(d0, d1, 0.0),
        Segment.ramp(d1, d1 + 1.0, 0.0, omega_rated),
        Segment.constant(d1 + 1.0, math.inf, omega_rated),
    ))


def default_im_load_profile() -> SignalProfile:
    """Resistant torque: idle, motor-load step, generator step near the end."""
    return SignalProfile((
        Segment.constant(0.0, 0.5, 0.0),
        Segment.constant(0.5, 7.5, 5.0),
        Segment.constant(7.5, math.inf, -5.0),
    ))


# ---------------------------------------------------------------------------
# the pipeline of both scenario kinds


class ScenarioSpec(NamedTuple):
    """What one scenario kind brings to ``run_scenario``."""

    machine: str         # meta["machine"], the kind's key in SPECS
    scenario: type       # the scenario class, built from a config's block
    plant: Callable      # sc -> blocks of trace rows, in a worker process
    columns: tuple       # the names of a plant row's entries
    filters: Callable    # sc -> (the bank, rows -> its inputs, noisy outputs)
    finish: Callable     # (sc, cols, est, innov) -> trace columns, meta
    flag: str            # the channel whose windowed max sets obs_violated
    summary: Callable    # (trace, violated) -> windows, checks: summarize
    panels: tuple        # plot.gp's panels, (title, trace columns) each


def run_scenario(spec: ScenarioSpec, sc) -> SimTrace:
    """Simulate a scenario of the kind ``spec``; returns the trace on the
    filter grid. Without ``run_ekf`` the filter columns read NaN, in the
    shapes of the bank ``spec.filters`` builds."""
    started = time.perf_counter()
    filters, measure = spec.filters(sc)
    rows, filtered, times = _overlapped(
        started, spec.plant, (sc,), len(spec.columns),
        filters if sc.run_ekf else [], measure)
    n = len(rows)
    if filtered is None:
        X, _, _, C, _ = bank(filters)
        filtered = (np.full((n,) + X.shape, math.nan),
                    np.full((n,) + C.shape[:2], math.nan), [])
    est, innov, health = filtered

    lap = time.perf_counter()
    cols, kind_meta = spec.finish(sc, dict(zip(spec.columns, rows.T)), est,
                                  innov)
    times["channels"] = time.perf_counter() - lap

    # a window at least as long as the trace is the running maximum
    width = min(max(int(round(sc.flag_window / sc.trace_dt)), 1), n)
    channel_max = rolling_abs_max(cols[spec.flag], width)
    cols["obs_violated"] = (channel_max < sc.obs_threshold).astype(float)
    steps = sum(h[0] for h in health)
    meta = {
        "machine": spec.machine, **kind_meta,
        "dt_sim": sc.dt_sim, "trace_dt": sc.trace_dt, "t_end": sc.t_end,
        "obs_threshold": sc.obs_threshold, "flag_window": sc.flag_window,
        "ekf_steps": steps,
        "ekf_p_max_asym": max((h[1] for h in health), default=0.0),
        "ekf_p_min_eig_ratio": min(h[2] for h in health) if steps
        else math.nan,
        "timings": {k: times[k] for k in ("plant", "channels", "filters")},
        "plant_busy_s": times["plant_busy_s"],
        "wall_time_s": time.perf_counter() - started}
    return SimTrace(columns=cols, meta=meta)


class PlantWorkerError(RuntimeError):
    """The plant's worker process ended without its rows or an error."""


def _plant_worker(conn, plant, args):
    """Worker process: send the row blocks of ``plant(*args)``, then its CPU
    seconds for them as the end marker, or the exception that stopped it."""
    started = time.process_time()    # blocked sends take none
    try:
        for block in plant(*args):
            conn.send(block)
        end = time.process_time() - started
    except Exception as exc:    # raised again by the caller
        end = exc
    conn.send(end)


def _overlapped(started: float, plant, args, ncols: int, insts, measure):
    """Run ``plant(*args)`` in one worker process while the filter bank
    ``insts`` steps over the rows received, ``measure(block)`` giving their
    ``(U, Ys)``. Returns the ``(N, ncols)`` rows, the ``_run_filter``
    results (None without filters) and the ``plant`` (waiting) and
    ``filters`` seconds since ``started`` and the worker's ``plant_busy_s``."""
    import multiprocessing    # here, as it slows the start of the cli
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    rows = np.empty((_grid(args[0])[2], ncols))
    recv_end, send_end = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_plant_worker, args=(send_end, plant, args),
                         daemon=True)
    worker.start()
    send_end.close()
    times = {"plant": time.perf_counter() - started}

    def blocks():
        lo, t = 0, time.perf_counter()
        while True:
            msg = recv_end.recv()
            times["plant"] += time.perf_counter() - t
            if isinstance(msg, BaseException):    # raised with its type
                raise msg
            if not isinstance(msg, np.ndarray):    # the end marker
                times["plant_busy_s"] = msg
                return
            rows[lo:lo + len(msg)] = msg
            lo += len(msg)
            yield msg
            t = time.perf_counter()

    try:
        stream = blocks()
        filtered = _run_filter(insts, len(rows), map(measure, stream)) \
            if insts else None
        for _ in stream:    # without filters, the rows alone
            pass
    except EOFError:
        raise PlantWorkerError(
            "plant worker process ended without its rows") from None
    finally:
        if "plant_busy_s" not in times:    # the stream stopped early
            worker.kill()
        worker.join()
        recv_end.close()
    times["filters"] = time.perf_counter() - started - times["plant"]
    return rows, filtered, times


def _noise(std: float, seed):
    """Seeded Gaussian noise added to blocks of rows from one stream; only
    noise loads numpy.random, which takes about 5 MB resident."""
    rng = np.random.default_rng(seed) if std > 0 else None
    return lambda Y: Y + rng.normal(0.0, std, Y.shape) if std > 0 else Y


def _run_filter(insts, n: int, blocks):
    """
    Run a bank of filters that share the machine, ``Ts``, overflow bound and
    inputs over ``n`` trace rows, given in order by ``blocks`` as ``(U, Ys)``
    per block: row ``k`` predicts with the input of row ``k - 1`` and
    corrects with the measurements ``Ys[b]`` of row ``k``. Returns the
    estimates ``(n, B, n_x)`` and innovations ``(n, B, m)`` (row 0: the
    initial estimates, NaN innovations; padded outputs read 0) and each
    member's health ``(steps, max |P - P^T|, min eigenvalue ratio)``.
    Overflow is checked after every step; the asymmetry of the Joseph-form
    covariance before its symmetrization and the eigenvalue ratio of the
    symmetrized one are sampled every 100 steps; the start values are
    checked before the first predict.
    """
    machine, cfg = insts[0].machine, insts[0].config
    Ts, bound = cfg.Ts, cfg.overflow
    X, P, Q, C, R = bank(insts)
    check_overflow(X, P, bound)    # a start past the bound overflows f
    B, m = C.shape[:2]
    est = np.empty((n,) + X.shape)
    innov = np.full((n, B, m), math.nan)
    est[0] = X
    asym, eig_ratio = np.zeros(B), np.full(B, math.inf)
    k = 0
    for U, Ys in blocks:
        Y = np.zeros((len(U), B, m))    # padded outputs measure 0
        for b, y in enumerate(Ys):
            Y[:, b, :y.shape[1]] = y
        for u, y in zip(U.tolist(), Y):
            if k:
                X, P = predict(machine, X, P, u_prev, Ts, Q)
                try:
                    X, P_joseph, innov[k] = update(X, P, y, C, R)
                except SingularInnovationError:
                    check_overflow(X, P, bound)    # a blow-up is divergence
                    raise
                P = symmetrized(P_joseph)
                check_overflow(X, P, bound)
                est[k] = X
                if k % 100 == 0:
                    np.maximum(asym, np.abs(
                        P_joseph - P_joseph.swapaxes(1, 2)).max(axis=(1, 2)),
                        out=asym)
                    eig = np.linalg.eigvalsh(P)
                    eig_ratio = np.minimum(
                        eig_ratio, eig[:, 0] / np.maximum(eig[:, -1], 1e-300))
            k, u_prev = k + 1, u
    return est, innov, [(k - 1, a, r) for a, r in zip(
        asym.tolist(), eig_ratio.tolist())]


# ---------------------------------------------------------------------------
# plant loops: input sampling and the angle-rate filter

# integration steps whose profile inputs are sampled at once; the loops read
# each chunk's samples from Python lists and yield its trace rows as a block
CHUNK = 1024


def _chunks(n_steps: int, dt: float):
    """Steps ``0 .. n_steps`` by chunk: the first step, the step times and
    the RK4 stage times ``t + dt/2``, ``t + dt`` of all but the last step."""
    for c0 in range(0, n_steps + 1, CHUNK):
        t = np.arange(c0, min(c0 + CHUNK, n_steps + 1)) * dt
        stages = t[:n_steps - c0]
        yield c0, t, stages + 0.5 * dt, stages + dt


def _angle_rate(dt: float, tau: float):
    """Low-pass filter (time constant ``tau``) of an angle's rate: each call
    takes the next angle, ``dt`` on, and returns the filtered rate."""
    alpha, prev, rate = dt / (tau + dt), None, 0.0

    def step(angle: float) -> float:
        nonlocal prev, rate
        if prev is not None:
            delta = (angle - prev + math.pi) % TWO_PI - math.pi
            rate += alpha * (delta / dt - rate)
        prev = angle
        return rate
    return step


# ---------------------------------------------------------------------------
# WRSM scenario

# trace columns recorded by the closed loop; it records ``theta`` unwrapped
_WRSM_PLANT = ("t", "omega", "theta", "i_sa", "i_sb", "i_f", "i_sd", "i_sq",
               "v_sa", "v_sb", "v_f", "i_d_ref", "i_q_ref", "i_f_ref",
               "pi_saturated", "psi_od", "psi_oq", "theta_o", "omega_o")


def wrsm_current_rates(p: WrsmParams):
    """The wound-rotor machine's current kernel, taking the rotor position
    ``th`` in place of its cosine and sine."""
    rates = SynchronousMachine(p).rates
    return lambda ia, ib, i_f, w, th, va, vb, vf: rates(
        ia, ib, i_f, w, math.cos(th), math.sin(th), va, vb, vf)


def _wrsm_start(sc: WrsmScenario):
    """Plant state ``(i_a, i_b, i_f, theta)`` at t = 0, at the setpoints."""
    theta0 = sc.speed_profile.integral(0.0)
    iab0 = park([sc.i_d_ref, sc.i_q_ref], theta0, "to_ab")
    return float(iab0[0]), float(iab0[1]), sc.i_f_profile.value(0.0), theta0


def _wrsm_plant(sc: WrsmScenario):
    """WRSM plant stage: PI current control, RK4 on the currents and
    observability-vector tracking on the dt_sim grid; yields each chunk's
    trace rows as an ``(r, 19)`` array of the columns ``_WRSM_PLANT``."""
    p, dt = sc.params, sc.dt_sim
    n_steps, n_sub, _ = _grid(sc)
    rates = SynchronousMachine(p).rates
    ia, ib, i_f, _ = _wrsm_start(sc)

    # PI gains from pole placement on the decoupled loops
    pi_d = PiController(sc.bw_dq * p.L_d, sc.bw_dq * p.R_s,
                        -sc.v_limit, sc.v_limit, integral=p.R_s * sc.i_d_ref)
    pi_q = PiController(sc.bw_dq * p.L_q, sc.bw_dq * p.R_s,
                        -sc.v_limit, sc.v_limit, integral=p.R_s * sc.i_q_ref)
    pi_f = PiController(sc.bw_f * p.L_f, sc.bw_f * p.R_f,
                        -sc.v_limit, sc.v_limit)

    # filtered rate of the observability-vector angle
    omega_o, omega_o_filt = _angle_rate(dt, sc.omega_o_filter_tau), 0.0
    h2, h6 = 0.5 * dt, dt / 6.0     # RK4 stage and weight factors

    for c0, t_c, tm_c, t2_c in _chunks(n_steps, dt):
        (w_c, th_c, _), (w_m, th_m, _), (w_2, th_2, _) = (
            [a.tolist() for a in sc.speed_profile.sample(times)]
            for times in (t_c, tm_c, t2_c))
        i_f_refs, _, di_f_refs = [a.tolist()
                                  for a in sc.i_f_profile.sample(t_c)]
        rows = []
        for j, t in enumerate(t_c.tolist()):
            s = c0 + j
            w, th = w_c[j], th_c[j]
            c1, s1 = math.cos(th), math.sin(th)
            i_d = c1 * ia + s1 * ib
            i_q = -s1 * ia + c1 * ib

            # controller (runs every integration step)
            i_f_ref = i_f_refs[j]
            v_d = pi_d.update(sc.i_d_ref - i_d, dt)
            v_q = pi_q.update(sc.i_q_ref - i_q, dt)
            # the field voltage carries the feedforward R_f*i_ref + L_f*di_ref
            v_f = pi_f.update(i_f_ref - i_f, dt) + (
                p.R_f * i_f_ref + p.L_f * di_f_refs[j])
            va = c1 * v_d - s1 * v_q
            vb = s1 * v_d + c1 * v_q
            saturated = pi_d.saturated or pi_q.saturated or pi_f.saturated

            # observability-vector angle tracking at the integration rate,
            # while the vector is not zero
            psi_od, psi_oq, _, _ = sm_observability_vector(p, i_d, i_q, i_f)
            th_o = math.nan
            if psi_od != 0.0 or psi_oq != 0.0:
                th_o = math.atan2(psi_oq, psi_od)
                omega_o_filt = omega_o(th_o)

            if s % n_sub == 0:
                rows.append((t, w, th, ia, ib, i_f, i_d, i_q, va, vb, v_f,
                             sc.i_d_ref, sc.i_q_ref, i_f_ref,
                             float(saturated), psi_od, psi_oq, th_o,
                             omega_o_filt))

            if s < n_steps:
                # RK4 on the currents; speed and position follow the profile
                wm, thm, w2, th2 = w_m[j], th_m[j], w_2[j], th_2[j]
                cm, sm = math.cos(thm), math.sin(thm)
                a1, b1, f1 = rates(ia, ib, i_f, w, c1, s1, va, vb, v_f)
                a2, b2, f2 = rates(ia + h2 * a1, ib + h2 * b1, i_f + h2 * f1,
                                   wm, cm, sm, va, vb, v_f)
                a3, b3, f3 = rates(ia + h2 * a2, ib + h2 * b2, i_f + h2 * f2,
                                   wm, cm, sm, va, vb, v_f)
                a4, b4, f4 = rates(ia + dt * a3, ib + dt * b3, i_f + dt * f3,
                                   w2, math.cos(th2), math.sin(th2), va, vb,
                                   v_f)
                ia += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                ib += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                i_f += h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        if rows:
            yield np.array(rows)


def _wrsm_filters(sc: WrsmScenario):
    """The WRSM filter, a bank of one, started ``theta0_error`` off; its
    inputs v_sa, v_sb, v_f and measurements i_sa, i_sb, i_f."""
    ia, ib, i_f, theta0 = _wrsm_start(sc)
    noisy = _noise(sc.noise_std, sc.seed)
    insts = [make_ekf(SynchronousMachine(sc.params), EkfConfig(
        Q=np.diag(sc.ekf_q_diag), R=np.diag(sc.ekf_r_diag),
        P0=np.diag(sc.ekf_p0_diag), Ts=sc.trace_dt,
        x0=[ia, ib, i_f, 0.0, theta0 + sc.theta0_error]))]
    return insts, lambda block: (block[:, 8:11], [noisy(block[:, 3:6])])


def _wrsm_finish(sc: WrsmScenario, cols: dict, est, innov):
    """The WRSM trace: the plant's columns with ``theta`` wrapped, the
    closed-form channels and the filter's estimates, errors and
    innovations."""
    theta = cols["theta"]
    cols["theta"] = wrap_angle(theta)

    machine = SynchronousMachine(sc.params)
    x = (cols["i_sa"], cols["i_sb"], cols["i_f"], cols["omega"], theta)
    xdot = machine.rates(*x[:4], np.cos(theta), np.sin(theta), cols["v_sa"],
                         cols["v_sb"], cols["v_f"])
    *_, ratio, det = sm_channels(machine, x, xdot)
    # the distance to the determinant's zero set omega = ratio * omega_o, in
    # the column after omega_o; a zero observability vector (NaN ratio)
    # reads 0, not guaranteed
    cols["margin"] = np.where(np.isnan(ratio), 0.0,
                              cols["omega"] - ratio * cols["omega_o"])

    est, innov = est[:, 0], innov[:, 0]
    cols.update({
        "det_sm": det, "ratio": ratio,
        "ekf_theta": wrap_angle(est[:, 4]), "ekf_omega": est[:, 3],
        "ekf_i_sa": est[:, 0], "ekf_i_sb": est[:, 1], "ekf_i_f": est[:, 2],
        "theta_err": wrap_angle(est[:, 4] - theta),
        "omega_err": est[:, 3] - cols["omega"],
        "innov_a": innov[:, 0], "innov_b": innov[:, 1], "innov_f": innov[:, 2],
    })
    return cols, {
        "injection_windows": [list(wdw) for wdw in sc.injection_windows],
        "theta0_error": sc.theta0_error,
        "pi_saturated_samples": int(np.sum(cols["pi_saturated"] > 0))}


def _wrsm_summary(trace: SimTrace, violated) -> dict:
    """The WRSM summary's windows: before the first injection window,
    inside it, and the row 0.5 s into it."""
    t, meta = trace.t, trace.meta
    windows = meta["injection_windows"]
    theta_err, omega_err = trace["theta_err"], trace["omega_err"]
    pre = inj1 = settled = np.zeros(len(t), bool)
    if windows:
        w0, w1 = windows[0]
        pre = trace.window_mask(0.1, w0 - 0.01)
        inj1 = trace.window_mask(w0 + 0.02, w1)
        # the row 0.5 s into the window, or the last row if the run ends first
        t_settled = t[min(int(np.searchsorted(t, w0 + 0.5)), len(t) - 1)]
        settled = trace.window_mask(t_settled, t_settled)
    return {
        "injection_windows": windows,
        "pi_saturated_samples": meta.get("pi_saturated_samples", 0),
        "determinant": "det_sm",
        "window_stats": {
            "theta_err_violated": (theta_err, violated),
            "theta_err_observable": (theta_err, ~violated),
            "omega_err_violated": (omega_err, violated),
            "omega_err_observable": (omega_err, ~violated)},
        "checks": {
            "held_before_injection": (
                pre, finite_min(np.abs(theta_err[pre])) > 0.2),
            "converged_after_injection": (
                settled, np.all(np.abs(theta_err[settled]) < 0.05)),
            "omega_o_active_in_window": (
                inj1, finite_max(np.abs(trace["omega_o"][inj1]))
                >= meta["obs_threshold"]),
            "flag_set_at_standstill": (pre, np.all(violated[pre])),
            "flag_cleared_in_window": (inj1, not np.any(violated[inj1]))}}


def run_wrsm_scenario(sc: WrsmScenario) -> SimTrace:
    """Simulate the WRSM scenario; returns the trace on the filter grid."""
    return run_scenario(SPECS["wrsm"], sc)


# ---------------------------------------------------------------------------
# IM scenario

# trace columns of the open loop, the state in the model's own coordinates
_IM_PLANT = ("t", "i_sa", "i_sb", "psi_ra", "psi_rb", "omega_e", "T_r",
             "v_sa", "v_sb", "omega_s_cmd", "omega_s")


def _im_plant(sc: ImScenario, scaled: bool = True):
    """IM plant stage: RK4 on the dt_sim grid; yields each chunk's trace
    rows as an ``(r, 11)`` array of the columns ``_IM_PLANT``, ``omega_s``
    low-pass filtered every dt_sim."""
    dt = sc.dt_sim
    n_steps, n_sub, _ = _grid(sc)
    rates = im_rates(sc.params) if scaled else im_rates_unscaled(sc.params)

    def voltages(t):    # volts per hertz above a floor
        w_cmd, phase, _ = sc.freq_profile.sample(t)
        amp = sc.v_floor + (sc.v_rated - sc.v_floor) * np.minimum(
            np.abs(w_cmd) / sc.omega_rated, 1.0)
        return [a.tolist() for a in (w_cmd, amp * np.cos(phase),
                                     amp * np.sin(phase))]

    # filtered rate of the flux angle, from the first nonzero flux on
    omega_s, omega_s_filt = _angle_rate(dt, sc.omega_s_filter_tau), 0.0
    flux_seen = False
    h2, h6 = 0.5 * dt, dt / 6.0     # RK4 stage and weight factors
    ia = ib = pa = pb = we = 0.0
    for c0, t_c, tm_c, t2_c in _chunks(n_steps, dt):
        load = sc.load_profile.sample(t_c)[0].tolist()
        w_cmds, va_c, vb_c = voltages(t_c)
        _, va_m, vb_m = voltages(tm_c)
        _, va_2, vb_2 = voltages(t2_c)
        rows = []
        for j, t in enumerate(t_c.tolist()):
            s = c0 + j
            Tr, va, vb = load[j], va_c[j], vb_c[j]

            if flux_seen or pa != 0.0 or pb != 0.0:
                flux_seen, omega_s_filt = True, omega_s(math.atan2(pb, pa))

            if s % n_sub == 0:
                rows.append((t, ia, ib, pa, pb, we, Tr, va, vb, w_cmds[j],
                             omega_s_filt))

            if s < n_steps:
                vam, vbm, va2, vb2 = va_m[j], vb_m[j], va_2[j], vb_2[j]
                a1, b1, c1, d1, e1 = rates(ia, ib, pa, pb, we, Tr, va, vb)
                a2, b2, c2, d2, e2 = rates(
                    ia + h2 * a1, ib + h2 * b1, pa + h2 * c1, pb + h2 * d1,
                    we + h2 * e1, Tr, vam, vbm)
                a3, b3, c3, d3, e3 = rates(
                    ia + h2 * a2, ib + h2 * b2, pa + h2 * c2, pb + h2 * d2,
                    we + h2 * e2, Tr, vam, vbm)
                a4, b4, c4, d4, e4 = rates(
                    ia + dt * a3, ib + dt * b3, pa + dt * c3, pb + dt * d3,
                    we + dt * e3, Tr, va2, vb2)
                ia += h6 * (a1 + 2 * a2 + 2 * a3 + a4)
                ib += h6 * (b1 + 2 * b2 + 2 * b3 + b4)
                pa += h6 * (c1 + 2 * c2 + 2 * c3 + c4)
                pb += h6 * (d1 + 2 * d2 + 2 * d3 + d4)
                we += h6 * (e1 + 2 * e2 + 2 * e3 + e4)
        if rows:
            yield np.array(rows)


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
    r = np.concatenate(list(_im_plant(sc, scaled))).T
    cols = {"t": r[0], "i_sa": r[1] / s_i, "i_sb": r[2] / s_i,
            "psi_ra": r[3] / s_p, "psi_rb": r[4] / s_p, "omega_e": r[5],
            "T_r": r[6], "omega_s": r[10], "v_sa": r[7], "v_sb": r[8]}
    meta = {"machine": "im", "scaled": scaled, "dt_sim": sc.dt_sim,
            "trace_dt": sc.trace_dt, "t_end": sc.t_end}
    return SimTrace(columns=cols, meta=meta)


def _im_filters(sc: ImScenario):
    """The with-speed and the sensorless filter, one bank, their
    physical-unit tuning mapped into scaled coordinates. The Q diagonal is
    a continuous-time noise intensity; the discrete per-step covariance is
    Q*Ts. Covariances pick up the square of the state scaling. Inputs v_a,
    v_b; measurements the currents, and the speed omega_e with speed."""
    machine = InductionMachine(sc.params)
    S = machine.scale_vector
    r = [sc.ekf_r_current_phys * S[0]**2, sc.ekf_r_current_phys * S[1]**2,
         sc.ekf_r_speed]
    noisy = _noise(sc.noise_std * sc.params.L_sigma, sc.seed)

    def measure(block):
        y_i = noisy(block[:, 1:3])
        return block[:, 7:9], [np.column_stack([y_i, block[:, 5]]), y_i]
    insts = [make_ekf(machine, EkfConfig(
        Q=np.diag(np.asarray(sc.ekf_q_diag_phys) * sc.trace_dt * S**2),
        R=np.diag(r if speed_measured else r[:2]),
        P0=np.diag(sc.ekf_p0_phys * S**2),
        x0=np.asarray(sc.x0_est_phys, float) * S, Ts=sc.trace_dt),
        speed_measured=speed_measured) for speed_measured in (True, False)]
    return insts, measure


def _im_finish(sc: ImScenario, cols: dict, est, innov):
    """The IM trace: inputs, state and both filters' estimates in physical
    units, the closed-form channels, and the filters' relative flux errors
    and innovations."""
    p = sc.params
    kr, L_sig = p.k_r, p.L_sigma
    x = tuple(cols[name] for name in _IM_PLANT[1:7])
    ia, ib, pa, pb, we, Tr = x
    omega_s = cols["omega_s"]

    xdot = InductionMachine(p).rates(*x, cols["v_sa"], cols["v_sb"])
    T_m = (p.p / L_sig) * (ib * pa - ia * pb)
    psi_rd = np.hypot(pa, pb) / kr
    out = {name: cols[name] for name in ("t", "omega_s_cmd", "v_sa", "v_sb")}
    out["T_load"] = Tr.copy()
    out.update((name, cols[name]) for name in _IM_PLANT[1:7])
    out.update({
        "T_m": T_m, "psi_rd": psi_rd, "omega_s": omega_s,
        "im_cond": im_condition(p, we, xdot[4], omega_s),
        "det_with_speed": im_determinant(p, "with_speed", x, xdot),
        "det_sensorless": im_determinant(p, "sensorless", x, xdot),
        # NaN where the flux is too small to define the slip
        "line_distance": we + slip_frequency(
            p, T_m, np.where(psi_rd > 1e-9, psi_rd, math.nan))})
    flux_err = np.hypot(est[..., 2].T - pa, est[..., 3].T - pb) / np.maximum(
        np.hypot(pa, pb), 1e-12)

    # physical units, in place so that each trace column is a view
    for A in (ia, ib, est[..., :2]):
        A /= L_sig
    for A in (pa, pb, est[..., 2:4]):
        A /= kr
    for b, tag in enumerate(("spd", "sl")):
        out.update((f"{tag}_{name}", est[:, b, j])
                   for j, name in enumerate(_IM_PLANT[1:7]))
        out.update({f"{tag}_flux_err": flux_err[b], f"{tag}_innov_a":
                    innov[:, b, 0], f"{tag}_innov_b": innov[:, b, 1]})
    out["spd_innov_w"] = innov[:, 0, 2]
    return out, {"dwell": list(sc.dwell)}


def _im_summary(trace: SimTrace, violated) -> dict:
    """The IM summary's windows: steady before the dwell, inside it, and
    1.0-1.5 s after it."""
    meta = trace.meta
    d0, d1 = meta["dwell"]
    dwell = trace.window_mask(d0 + 0.2, d1)
    after = trace.window_mask(d1 + 1.0, d1 + 1.5)
    steady = trace.window_mask(0.5, d0 - 1.0)
    running = trace.window_mask(0.5, meta["t_end"])
    spd_err, sl_err = trace["spd_flux_err"], trace["sl_flux_err"]
    return {
        "dwell": meta["dwell"],
        "determinant": {"with_speed": "det_with_speed",
                        "sensorless": "det_sensorless"},
        "window_stats": {
            "spd_flux_err_steady": (spd_err, steady),
            "sl_flux_err_dwell": (sl_err, dwell),
            "sl_flux_err_after": (sl_err, after),
            "sl_flux_err_violated": (sl_err, violated),
            "sl_flux_err_observable": (sl_err, ~violated)},
        "checks": {
            "with_speed_flux_ok": (
                running, finite_max(spd_err[running]) < 0.05),
            "sensorless_fails_in_dwell": (
                dwell, finite_max(sl_err[dwell]) > 0.20),
            "sensorless_reconverges": (
                after, finite_max(sl_err[after]) < 0.05),
            "cond_small_in_dwell": (
                dwell, finite_max(np.abs(trace["im_cond"][dwell]))
                < meta["obs_threshold"]),
            "flag_set_in_dwell": (dwell, np.all(violated[dwell]))}}


def run_im_scenario(sc: ImScenario) -> SimTrace:
    """Simulate the IM scenario with both filters; trace on the filter grid."""
    return run_scenario(SPECS["im"], sc)


SPECS = {spec.machine: spec for spec in (
    ScenarioSpec("wrsm", WrsmScenario, _wrsm_plant, _WRSM_PLANT,
                 _wrsm_filters, _wrsm_finish, "margin", _wrsm_summary, (
                     ("position estimation error (rad)", ("theta_err",)),
                     ("observability-vector velocity and margin (rad/s)",
                      ("omega_o", "margin")),
                     ("rank-condition determinant", ("det_sm",)))),
    ScenarioSpec("im", ImScenario, _im_plant, _IM_PLANT, _im_filters,
                 _im_finish, "im_cond", _im_summary, (
                     ("flux estimation error (relative)",
                      ("spd_flux_err", "sl_flux_err")),
                     ("observability condition (rad/s)", ("im_cond",)),
                     ("speed (rad/s)", ("omega_e", "sl_omega_e")))))}
