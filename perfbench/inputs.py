"""Seeded inputs of the three workloads.

The scenario configs are plain JSON and use only the standard library, so the
parent process can write them before any fresh-interpreter set-up probe
starts. The oracle points need numpy and the package, and are built inside
the workload process.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("wrsm_standstill", "im_zero_freq", "oracle_points")
SCENARIOS = ("wrsm_standstill", "im_zero_freq")
SCHEMA = "driveobs-config/1"

# WRSM: standstill throughout, one HF field-injection window. The default
# profiles assume t_end > 4.5 s, so the config carries its own.
WRSM_T_END = 0.45
WRSM_WINDOW = (0.2, 0.35)
WRSM_I_F0 = 4.0
WRSM_HF = (0.5, 2.0 * math.pi * 1e3, 0.0)   # amplitude (A), omega (rad/s), phase
WRSM_DECIMATE = 10

# IM: rated 10 Hz, ramp to a 1.2 s dwell at exactly zero stator frequency,
# ramp back. The default profiles assume t_end > 7.5 s. The summary looks
# for re-convergence 1.0-1.5 s after the dwell, which fixes t_end. A 13 N·m
# load makes the sensorless estimate drift past 20 % within the dwell.
IM_T_END = 2.7
IM_DWELL = (0.4, 1.6)
IM_OMEGA_RATED = 2.0 * math.pi * 10.0
IM_LOAD = 13.0
# twice the default steps, which halves the operation time
IM_DT_SIM = 1e-5
IM_TRACE_DT = 1e-4


def _const(t0, t1, value):
    return {"kind": "constant", "t0": t0, "t1": t1, "value": value}


def wrsm_config(seed: int) -> dict:
    """Standstill WRSM config; the seed draws the operating point and the
    initial position error of the filter."""
    rng = random.Random(seed)
    theta0_error = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.2)
    i_d_ref = rng.uniform(0.0, 4.0)
    # below ~10 A of q current the 0.5 A injection moves the observability
    # vector too little to clear the 2 rad/s threshold
    i_q_ref = rng.uniform(10.0, 20.0)
    w0, w1 = WRSM_WINDOW
    field = [_const(0.0, w0, WRSM_I_F0),
             {"kind": "sine", "t0": w0, "t1": w1, "offset": WRSM_I_F0,
              "terms": [list(WRSM_HF)]},
             _const(w1, WRSM_T_END, WRSM_I_F0)]
    return {
        "schema": SCHEMA,
        "machine": {"kind": "wrsm"},
        "scenario": {
            "type": "wrsm", "t_end": WRSM_T_END,
            "speed_profile": [_const(0.0, WRSM_T_END, 0.0)],
            "i_f_profile": field,
            "injection_windows": [list(WRSM_WINDOW)],
            "i_d_ref": i_d_ref, "i_q_ref": i_q_ref,
            "theta0_error": theta0_error,
        },
        "output": {"decimate": WRSM_DECIMATE, "plot_script": True},
    }


def im_config(seed: int) -> dict:
    """IM zero-frequency config. The seed is not in the file: the benchmark
    hands it to ``simulate --seed`` as the measurement-noise seed."""
    w, (d0, d1) = IM_OMEGA_RATED, IM_DWELL
    freq = [_const(0.0, 0.2, w),
            {"kind": "ramp", "t0": 0.2, "t1": d0, "v0": w, "v1": 0.0},
            _const(d0, d1, 0.0),
            {"kind": "ramp", "t0": d1, "t1": d1 + 0.3, "v0": 0.0, "v1": w},
            _const(d1 + 0.3, IM_T_END, w)]
    load = [_const(0.0, 0.1, 0.0), _const(0.1, IM_T_END, IM_LOAD)]
    return {
        "schema": SCHEMA,
        "machine": {"kind": "im"},
        "scenario": {
            "type": "im", "t_end": IM_T_END, "dt_sim": IM_DT_SIM,
            "trace_dt": IM_TRACE_DT, "dwell": list(IM_DWELL),
            "noise_std": 1.0, "freq_profile": freq, "load_profile": load,
        },
        "output": {"decimate": 1, "plot_script": True},
    }


CONFIGS = {"wrsm_standstill": wrsm_config, "im_zero_freq": im_config}


def write_config(workload: str, seed: int, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CONFIGS[workload](seed), fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# oracle points

#: machine and measurement families of the closed forms
FAMILIES = ("pm_dcm", "series_dcm", "wrsm", "ipmsm", "spmsm", "syrm",
            "im_with_speed", "im_sensorless")
SM_FAMILIES = ("wrsm", "ipmsm", "spmsm", "syrm")
GENERIC_PER_FAMILY = 3
LINE_POINTS = 3


def family_machine(family: str):
    from driveobs.machines import make_machine
    return make_machine("im" if family.startswith("im_") else family)


def oracle_points(seed: int) -> list:
    """One batch of operating points; each is a dict with ``family``,
    ``case`` (generic, standstill, on_line, with_speed_on_line), ``x``,
    ``u`` and ``u_dot``."""
    import numpy as np
    from driveobs.observability import (im_steady_operating_point,
                                        slip_frequency, sm_operating_point)
    from driveobs.params import DEFAULT_PARAMS, IM_DEFAULT

    rng = np.random.default_rng(seed)
    points = []
    for family in FAMILIES:
        for _ in range(GENERIC_PER_FAMILY):
            if family == "wrsm":
                x = np.array([rng.normal(0, 10), rng.normal(0, 10),
                              rng.normal(0, 5), rng.normal(0, 100),
                              rng.uniform(-np.pi, np.pi)])
                u, u_dot = rng.normal(0, 20, 3), None
            elif family in SM_FAMILIES:
                x = np.array([rng.normal(0, 10), rng.normal(0, 10),
                              rng.normal(0, 100), rng.uniform(-np.pi, np.pi)])
                u, u_dot = rng.normal(0, 20, 2), None
            elif family.startswith("im_"):
                x = rng.normal(0, 1, 6) * np.array([2e-3, 2e-3, 0.05, 0.05,
                                                    100, 5])
                u, u_dot = rng.normal(0, 1, 2), rng.normal(0, 10, 2)
            else:
                x = np.array([rng.normal(0, 5), rng.normal(0, 50),
                              rng.normal(0, 1)])
                u, u_dot = rng.normal(0, 10, 1), rng.normal(0, 10, 1)
            points.append({"family": family, "case": "generic",
                           "x": x, "u": u, "u_dot": u_dot})
    for family in SM_FAMILIES:
        i_sd, i_sq = rng.normal(0, 10, 2)
        i_f = rng.uniform(1.0, 6.0) if family == "wrsm" else None
        x, u = sm_operating_point(DEFAULT_PARAMS[family], 0.0, i_sd, i_sq, i_f)
        points.append({"family": family, "case": "standstill",
                       "x": x, "u": u, "u_dot": None})
    for _ in range(LINE_POINTS):
        T_m = rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 15.0)
        psi_rd = rng.uniform(0.02, 0.08)
        omega_e = -slip_frequency(IM_DEFAULT, T_m, psi_rd)
        x, u, u_dot = im_steady_operating_point(IM_DEFAULT, omega_e, T_m,
                                                psi_rd)
        points.append({"family": "im_sensorless", "case": "on_line",
                       "x": x, "u": u, "u_dot": u_dot})
        points.append({"family": "im_with_speed", "case": "with_speed_on_line",
                       "x": x, "u": u, "u_dot": u_dot})
    return points
