"""Time-indexed simulation traces: CSV serialization and run summaries."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

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
    v = np.asarray(violated, bool)
    if not v.any():
        return []
    edges = np.flatnonzero(np.diff(v.astype(np.int8)))
    bounds = []
    begin = 0 if v[0] else None
    for e in edges:
        if v[e + 1] and begin is None:
            begin = e + 1
        elif not v[e + 1] and begin is not None:
            bounds.append((float(t[begin]), float(t[e])))
            begin = None
    if begin is not None:
        bounds.append((float(t[begin]), float(t[-1])))
    return bounds


def rolling_abs_max(x: np.ndarray, width: int) -> np.ndarray:
    """Backward-looking maximum of |x| over ``width`` samples (causal)."""
    ax = np.abs(np.asarray(x, float))
    if width <= 1:
        return ax
    n = ax.size
    out = np.empty(n)
    # block-prefix trick: O(n) two-pass sweep
    left = np.empty(n)
    right = np.empty(n)
    for start in range(0, n, width):
        end = min(start + width, n)
        left[start:end] = np.maximum.accumulate(ax[start:end])
        right[start:end] = np.maximum.accumulate(ax[start:end][::-1])[::-1]
    out[:width] = left[:width]
    idx = np.arange(width, n)
    out[width:] = np.maximum(right[idx - width + 1], left[idx])
    return out


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
