"""Run summaries: windowed error statistics and acceptance booleans.

One skeleton serves both scenario kinds; each kind's ``ScenarioSpec``
supplies its windows and check expressions. Everything is recomputable from
the trace columns plus the window and threshold facts echoed into the
summary itself.
"""

from __future__ import annotations

import math

import numpy as np

from .scenarios import SPECS
from .trace import (SimTrace, error_stats, finite_max, finite_min,
                    violated_intervals)

SUMMARY_SCHEMA = "driveobs-summary/1"


def _innovation_stats(col) -> dict:
    """Bias and whiteness monitors of one innovation channel.

    A healthy filter has near-zero mean and little lag-1 autocorrelation;
    persistent bias or strong correlation flags divergence that the raw
    estimates would hide.
    """
    sel = col[np.isfinite(col)]
    if sel.size < 3:
        return dict.fromkeys(("mean", "std", "lag1_autocorr"), math.nan)
    centered = sel - np.mean(sel)
    denom = float(centered @ centered)
    rho1 = float(centered[:-1] @ centered[1:]) / denom if denom > 0 \
        else math.nan
    return {"mean": float(np.mean(sel)), "std": float(np.std(sel)),
            "lag1_autocorr": rho1}


def _extremes(col) -> dict:
    return {"min": finite_min(col), "max": finite_max(col)}


def summarize(trace: SimTrace) -> dict:
    """The checks of the trace's scenario kind plus the run's facts. The
    kind names its determinant columns and gives a column and a mask per
    statistic and a window and an expression per check."""
    meta = trace.meta
    kind = meta.get("machine")
    if kind not in SPECS:
        raise ValueError(f"no summary for machine kind {kind!r}")
    violated = trace["obs_violated"] > 0.5
    part = SPECS[kind].summary(trace, violated)
    det = part["determinant"]
    return {
        **part,
        "violated_intervals": violated_intervals(trace.t, violated),
        "determinant": _extremes(trace[det]) if isinstance(det, str) else {
            label: _extremes(trace[col]) for label, col in det.items()},
        "window_stats": {name: error_stats(col, mask) for name, (col, mask)
                         in part["window_stats"].items()},
        "innovations": {name: _innovation_stats(col) for name, col
                        in trace.columns.items() if "innov" in name},
        # a check on a window without rows (the run ends first) reads null
        "checks": {name: bool(holds) if window.any() else None
                   for name, (window, holds) in part["checks"].items()},
        "schema": SUMMARY_SCHEMA, "machine": kind, "t_end": meta["t_end"],
        "obs_threshold": meta["obs_threshold"],
        "wall_time_s": meta.get("wall_time_s", math.nan),
        "timings": meta.get("timings", {}),
        "plant_busy_s": meta.get("plant_busy_s", math.nan)}
