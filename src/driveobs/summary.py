"""Run summaries: windowed error statistics and acceptance booleans.

Everything here is recomputable from the trace columns plus the window and
threshold facts echoed into the summary itself.
"""

from __future__ import annotations

import math

import numpy as np

from .trace import SimTrace, error_stats, violated_intervals

SUMMARY_SCHEMA = "driveobs-summary/1"


def _nanmax(x) -> float:
    x = np.asarray(x, float)
    x = x[np.isfinite(x)]
    return float(np.max(x)) if x.size else math.nan


def _nanmin(x) -> float:
    x = np.asarray(x, float)
    x = x[np.isfinite(x)]
    return float(np.min(x)) if x.size else math.nan


def _window_check(window, holds) -> bool | None:
    """A check on a window of trace rows; None (null in the summary) when
    the window has no row, as when the run ends before it."""
    return bool(holds) if window.any() else None


def _innovation_stats(trace: SimTrace, names) -> dict:
    """Bias and whiteness monitors per innovation channel.

    A healthy filter has near-zero mean and little lag-1 autocorrelation;
    persistent bias or strong correlation flags divergence that the raw
    estimates would hide.
    """
    out = {}
    for name in names:
        if name not in trace.columns:
            continue
        col = trace[name]
        sel = col[np.isfinite(col)]
        if sel.size < 3:
            out[name] = {"mean": math.nan, "std": math.nan,
                         "lag1_autocorr": math.nan}
            continue
        centered = sel - np.mean(sel)
        denom = float(centered @ centered)
        rho1 = float(centered[:-1] @ centered[1:]) / denom if denom > 0 \
            else math.nan
        out[name] = {"mean": float(np.mean(sel)), "std": float(np.std(sel)),
                     "lag1_autocorr": rho1}
    return out


def summarize_wrsm(trace: SimTrace) -> dict:
    t = trace.t
    meta = trace.meta
    violated = trace["obs_violated"] > 0.5
    intervals = violated_intervals(t, violated)
    windows = meta["injection_windows"]
    theta_err = trace["theta_err"]
    pre = inj1 = settled = np.zeros(len(t), bool)
    if windows:
        w0, w1 = windows[0]
        pre = trace.window_mask(0.1, w0 - 0.01)
        inj1 = trace.window_mask(w0 + 0.02, w1)
        # the row 0.5 s into the window, or the last row if the run ends first
        t_settled = t[min(int(np.searchsorted(t, w0 + 0.5)), len(t) - 1)]
        settled = trace.window_mask(t_settled, t_settled)
    outside = ~violated

    checks = {
        "held_before_injection": _window_check(
            pre, _nanmin(np.abs(theta_err[pre])) > 0.2),
        "converged_after_injection": _window_check(
            settled, np.all(np.abs(theta_err[settled]) < 0.05)),
        "omega_o_active_in_window": _window_check(
            inj1, _nanmax(np.abs(trace["omega_o"][inj1]))
            >= meta["obs_threshold"]),
        "flag_set_at_standstill": _window_check(pre, np.all(violated[pre])),
        "flag_cleared_in_window": _window_check(
            inj1, not np.any(violated[inj1])),
    }
    return {
        "injection_windows": windows,
        "violated_intervals": intervals,
        "determinant": {"min": _nanmin(trace["det_sm"]),
                        "max": _nanmax(trace["det_sm"])},
        "window_stats": {
            "theta_err_violated": error_stats(theta_err, violated),
            "theta_err_observable": error_stats(theta_err, outside),
            "omega_err_violated": error_stats(trace["omega_err"], violated),
            "omega_err_observable": error_stats(trace["omega_err"], outside),
        },
        "innovations": _innovation_stats(
            trace, ["innov_a", "innov_b", "innov_f"]),
        "pi_saturated_samples": meta.get("pi_saturated_samples", 0),
        "checks": checks,
    }


def summarize_im(trace: SimTrace) -> dict:
    t = trace.t
    meta = trace.meta
    violated = trace["obs_violated"] > 0.5
    intervals = violated_intervals(t, violated)
    d0, d1 = meta["dwell"]
    dwell = trace.window_mask(d0 + 0.2, d1)
    after = trace.window_mask(d1 + 1.0, d1 + 1.5)
    steady = trace.window_mask(0.5, d0 - 1.0)

    spd_err = trace["spd_flux_err"]
    sl_err = trace["sl_flux_err"]
    running = trace.window_mask(0.5, meta["t_end"])
    checks = {
        "with_speed_flux_ok": _window_check(
            running, _nanmax(spd_err[running]) < 0.05),
        "sensorless_fails_in_dwell": _window_check(
            dwell, _nanmax(sl_err[dwell]) > 0.20),
        "sensorless_reconverges": _window_check(
            after, _nanmax(sl_err[after]) < 0.05),
        "cond_small_in_dwell": _window_check(
            dwell, _nanmax(np.abs(trace["im_cond"][dwell]))
            < meta["obs_threshold"]),
        "flag_set_in_dwell": _window_check(dwell, np.all(violated[dwell])),
    }
    return {
        "dwell": meta["dwell"],
        "violated_intervals": intervals,
        "determinant": {
            "with_speed": {"min": _nanmin(trace["det_with_speed"]),
                           "max": _nanmax(trace["det_with_speed"])},
            "sensorless": {"min": _nanmin(trace["det_sensorless"]),
                           "max": _nanmax(trace["det_sensorless"])},
        },
        "window_stats": {
            "spd_flux_err_steady": error_stats(spd_err, steady),
            "sl_flux_err_dwell": error_stats(sl_err, dwell),
            "sl_flux_err_after": error_stats(sl_err, after),
            "sl_flux_err_violated": error_stats(sl_err, violated),
            "sl_flux_err_observable": error_stats(sl_err, ~violated),
        },
        "innovations": _innovation_stats(
            trace, ["spd_innov_a", "spd_innov_b", "spd_innov_w",
                    "sl_innov_a", "sl_innov_b"]),
        "checks": checks,
    }


def summarize(trace: SimTrace) -> dict:
    """The checks of the trace's scenario kind plus the run's facts."""
    meta = trace.meta
    kind = meta.get("machine")
    if kind not in ("wrsm", "im"):
        raise ValueError(f"no summary for machine kind {kind!r}")
    return {**(summarize_wrsm if kind == "wrsm" else summarize_im)(trace),
            "schema": SUMMARY_SCHEMA, "machine": kind, "t_end": meta["t_end"],
            "obs_threshold": meta["obs_threshold"],
            "wall_time_s": meta.get("wall_time_s", math.nan),
            "timings": meta.get("timings", {}),
            "plant_busy_s": meta.get("plant_busy_s", math.nan)}
