"""Time-indexed simulation traces: CSV serialization and run summaries."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CSV_ROWS = 512    # rows formatted at once; each value costs about 60 bytes


@dataclass
class SimTrace:
    """
    Uniform-grid record of a scenario run.

    ``columns`` maps column name to a 1-D array; insertion order is the CSV
    schema. ``meta`` carries scenario facts needed to interpret the trace
    (machine kind, windows, thresholds, filter health counters).
    """

    columns: Dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.t)
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValueError(f"column {name!r} length {len(col)} != {n}")

    @property
    def t(self) -> np.ndarray:
        return self.columns["t"]

    @property
    def column_names(self) -> List[str]:
        return list(self.columns)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def window_mask(self, t0: float, t1: float) -> np.ndarray:
        return (self.t >= t0) & (self.t <= t1)

    def to_csv(self, path, decimate: int = 1):
        """Write the trace; one header line, '.' decimal, comma separated.
        Rows are stacked and written ``CSV_ROWS`` at a time, so the file
        never needs a copy of the whole table."""
        if decimate < 1:
            raise ValueError("decimate must be >= 1")
        names = self.column_names
        cols = [self.columns[n][::decimate] for n in names]
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(names) + "\n")
            for r0 in range(0, len(cols[0]), CSV_ROWS):
                write_rows(fh, np.column_stack(
                    [c[r0:r0 + CSV_ROWS] for c in cols]))

    @classmethod
    def from_csv(cls, path, meta: dict | None = None) -> "SimTrace":
        with open(path, "r", encoding="ascii") as fh:
            names = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        cols = {name: data[:, i].copy() for i, name in enumerate(names)}
        return cls(columns=cols, meta=meta or {})


def write_rows(fh, table: np.ndarray):
    """Write a 2-D table as ``np.savetxt(fh, table, fmt="%.12g",
    delimiter=",")`` does, with one ``%`` format per ``CSV_ROWS`` rows."""
    line = ",".join(["%.12g"] * table.shape[1]) + "\n"
    for r0 in range(0, len(table), CSV_ROWS):
        block = table[r0:r0 + CSV_ROWS]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def violated_intervals(t: np.ndarray, violated: np.ndarray) -> List[Tuple[float, float]]:
    """Contiguous intervals where the observability-violated flag is set."""
    flag = np.asarray(violated, bool).astype(np.int8)
    edges = np.diff(np.concatenate(([0], flag, [0])))
    return [(float(t[b]), float(t[e - 1])) for b, e in
            zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]


def rolling_abs_max(x: np.ndarray, width: int) -> np.ndarray:
    """Backward-looking maximum of |x| over ``width`` >= 1 samples (causal;
    the window is shorter at the start)."""
    ax = np.abs(np.asarray(x, float))
    padded = np.concatenate([np.zeros(width - 1), ax])
    return sliding_window_view(padded, width).max(axis=1)


def finite_max(x) -> float:
    """The largest finite entry of ``x``; NaN if it has none."""
    x = np.asarray(x, float)
    x = x[np.isfinite(x)]
    return float(np.max(x)) if x.size else math.nan


def finite_min(x) -> float:
    """The smallest finite entry of ``x``; NaN if it has none."""
    x = np.asarray(x, float)
    x = x[np.isfinite(x)]
    return float(np.min(x)) if x.size else math.nan


def error_stats(err: np.ndarray, mask: np.ndarray) -> dict:
    """RMS and max of |err| over the masked window."""
    sel = np.asarray(err, float)[np.asarray(mask, bool)]
    sel = sel[np.isfinite(sel)]
    if sel.size == 0:
        return {"rms": math.nan, "max": math.nan}
    return {"rms": float(np.sqrt(np.mean(sel**2))),
            "max": float(np.max(np.abs(sel)))}


def json_sanitize(obj):
    """Replace non-finite floats with None so the JSON stays portable."""
    if isinstance(obj, dict):
        return {k: json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_summary(path, summary: dict):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(json_sanitize(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
