"""Correctness checks of the workload outputs.

Each check returns a list of failure messages; an empty list means the
output holds. The checks recompute what they can from the trace columns with
the benchmark's own code, and otherwise test properties the method must
have. They never compare against stored copies of earlier output.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WRSM_SUMMARY_CHECKS = ("held_before_injection", "converged_after_injection",
                       "omega_o_active_in_window", "flag_set_at_standstill",
                       "flag_cleared_in_window")
IM_SUMMARY_CHECKS = ("with_speed_flux_ok", "sensorless_fails_in_dwell",
                     "sensorless_reconverges", "cond_small_in_dwell",
                     "flag_set_in_dwell")
P_ASYM_MAX = 1e-9         # covariance asymmetry left after re-symmetrizing
IM_COND_RTOL = 1e-7       # CSV keeps 12 significant digits; seen: 5e-10
CSV_RTOL = 1e-11
ORACLE_RTOL = 1e-4


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_csv(path):
    """Header names and the data matrix of a trace CSV."""
    with open(path, "r", encoding="ascii") as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return names, data


def windowed_flag(values, width: int, threshold: float) -> np.ndarray:
    """Set where no |value| in the causal window of ``width`` samples
    reaches the threshold (the window is shorter at the start)."""
    a = np.abs(np.asarray(values, float))
    padded = np.concatenate([np.zeros(width - 1), a])
    return sliding_window_view(padded, width).max(axis=1) < threshold


def _summary_failures(summary: dict, names) -> list:
    checks = summary.get("checks", {})
    return [f"summary check {name} does not hold" for name in names
            if checks.get(name) is not True]


def _filter_health_failures(meta: dict) -> list:
    out = []
    if not meta["ekf_p_max_asym"] <= P_ASYM_MAX:
        out.append(f"covariance asymmetry {meta['ekf_p_max_asym']:.3g}")
    if not meta["ekf_p_min_eig_ratio"] >= 0.0:
        out.append("covariance has a negative eigenvalue "
                   f"(ratio {meta['ekf_p_min_eig_ratio']:.3g})")
    return out


def _flag_width(meta: dict) -> int:
    return max(int(round(meta["flag_window"] / meta["trace_dt"])), 1)


def check_wrsm(summary: dict, meta: dict, margin, obs_violated,
               decimated: dict, csv_names, csv_data) -> list:
    """WRSM standstill run: summary checks, the ``obs_violated`` flag
    recomputed from the full-rate ``margin`` column, filter health, and the
    decimated CSV against the in-memory trace columns ``decimated``."""
    out = _summary_failures(summary, WRSM_SUMMARY_CHECKS)
    flag = windowed_flag(margin, _flag_width(meta), meta["obs_threshold"])
    bad = np.flatnonzero(flag != (np.asarray(obs_violated) > 0.5))
    if bad.size:
        out.append(f"obs_violated differs from the margin at {bad.size} "
                   f"samples, first at sample {bad[0]}")
    out += _filter_health_failures(meta)
    if list(csv_names) != list(decimated):
        out.append("CSV header differs from the trace columns")
        return out
    expect = np.column_stack(list(decimated.values()))
    if expect.shape != csv_data.shape:
        out.append(f"CSV has shape {csv_data.shape}, expected {expect.shape}")
    elif not np.allclose(csv_data, expect, rtol=CSV_RTOL, atol=0.0,
                         equal_nan=True):
        out.append("CSV values differ from the trace")
    return out


def im_condition_from_columns(col: dict, tau_r: float, p: int,
                              J: float) -> np.ndarray:
    """The paper's IM condition: tau_r * d(omega_e)/dt / (1 + (tau_r
    omega_e)^2) + omega_s, with d(omega_e)/dt = p/J (T_m - T_r)."""
    domega = (p / J) * (col["T_m"] - col["T_r"])
    return tau_r * domega / (1.0 + (tau_r * col["omega_e"])**2) \
        + col["omega_s"]


def check_im(summary: dict, meta: dict, csv_names, csv_data, params) -> list:
    """IM zero-frequency run: summary checks, ``im_cond`` recomputed from the
    trace columns, the flag recomputed from ``im_cond``, filter health."""
    out = _summary_failures(summary, IM_SUMMARY_CHECKS)
    col = {name: csv_data[:, i] for i, name in enumerate(csv_names)}
    cond = im_condition_from_columns(col, params.tau_r, params.p, params.J)
    scale = np.maximum(np.abs(col["im_cond"]), meta["obs_threshold"])
    bad = np.flatnonzero(~(np.abs(cond - col["im_cond"])
                           <= IM_COND_RTOL * scale))
    if bad.size:
        out.append(f"im_cond differs from the paper's formula at {bad.size} "
                   f"samples, first t = {col['t'][bad[0]]:.6g} s")
    flag = windowed_flag(col["im_cond"], _flag_width(meta),
                         meta["obs_threshold"])
    bad = np.flatnonzero(flag != (col["obs_violated"] > 0.5))
    if bad.size:
        out.append(f"obs_violated differs from im_cond at {bad.size} samples")
    out += _filter_health_failures(meta)
    return out


def check_truth(reference: dict, trace_columns: dict, rtol: float,
                names=("i_sa", "i_sb", "psi_ra", "psi_rb", "omega_e")) -> list:
    """Ground truth against an independent integration, per column, with
    the error taken relative to the column's largest magnitude."""
    out = []
    for name in names:
        a, b = np.asarray(reference[name]), np.asarray(trace_columns[name])
        scale = float(np.max(np.abs(b))) or 1.0
        err = float(np.max(np.abs(a - b))) / scale
        if not err <= rtol:
            out.append(f"truth column {name} differs by {err:.3g} relative")
    return out


# ---------------------------------------------------------------------------
# oracle points


def threshold_scale(point: dict, machine, threshold: float) -> float:
    """|determinant| one threshold away from the degenerate set.

    Near the zero set of a determinant its relative error is unbounded while
    the finite-difference error of the oracle is not, so agreement is
    measured against the larger of |closed form| and this value: the speed
    term at ``omega = threshold`` for synchronous machines, the flux rotating
    at ``threshold`` for the sensorless induction machine, 0 otherwise.
    """
    from driveobs.observability import im_determinant, sm_determinant

    family, x = point["family"], np.asarray(point["x"], float)
    if family == "im_sensorless":
        psi = x[2:4]
        xdot = np.zeros(6)
        xdot[2:4] = threshold * np.array([-psi[1], psi[0]])
        return abs(im_determinant(machine.params, "sensorless", x, xdot))
    if family in ("wrsm", "ipmsm", "spmsm", "syrm"):
        theta = x[-1]
        c, s = math.cos(theta), math.sin(theta)
        i_d = c * x[0] + s * x[1]
        i_q = -s * x[0] + c * x[1]
        i_f = x[2] if family == "wrsm" else None
        return abs(sm_determinant(machine.params, threshold, i_d, i_q, i_f))
    return 0.0


def check_report(point: dict, report, machine, threshold: float) -> list:
    """Closed form against the numeric oracle, and the guaranteed flag the
    point's case implies."""
    out = []
    closed, oracle = report.determinant, report.oracle_determinant
    scale = max(abs(closed), threshold_scale(point, machine, threshold))
    if not abs(oracle - closed) <= ORACLE_RTOL * scale:
        out.append(f"{point['family']} {point['case']}: oracle {oracle:.6g} "
                   f"vs closed form {closed:.6g}")
    case = point["case"]
    if case in ("standstill", "on_line") and report.guaranteed:
        out.append(f"{point['family']} {case} point reported guaranteed")
    if case == "with_speed_on_line" and not report.guaranteed:
        out.append("with-speed IM point reported not guaranteed")
    return out
