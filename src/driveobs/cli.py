"""Command-line front end: simulate scenarios, check points, sweep grids.

Exit codes: 0 success / observability guaranteed, 2 configuration error,
3 simulation error, 4 observability not guaranteed (check).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import BLOCKS, ConfigError, load_config, scenario_from_config
from .ekf import EkfDivergenceError, SingularInnovationError
from .machines import SingularInductanceError, make_machine
from .profiles import ProfileDomainError
from .observability import (DegenerateFluxError, OBS_THRESHOLD_DEFAULT,
                            im_condition, im_steady_determinant,
                            im_steady_operating_point, observability_report,
                            slip_frequency, sm_determinant,
                            sm_operating_point)
from .params import SM_KINDS, params_from_dict
from .scenarios import (SPECS, PlantWorkerError, run_im_scenario,
                        run_wrsm_scenario)
from .summary import summarize
from .trace import json_sanitize, write_rows, write_summary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIM = 3
EXIT_NOT_GUARANTEED = 4


def _err(msg: str):
    print(f"driveobs: {msg}", file=sys.stderr)


def _make_dir(path: Path) -> bool:
    try:
        path.mkdir(parents=True, exist_ok=True)
        return True
    except OSError as exc:
        _err(f"cannot create output directory: {exc}")
        return False


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = scenario_from_config(cfg)
        if args.seed is not None:
            if args.seed < 0:    # numpy seeds are unsigned
                raise ConfigError(f"--seed must be at least 0, got "
                                  f"{args.seed}")
            scenario.seed = args.seed
            if scenario.noise_std == 0.0:
                scenario.noise_std = 1.0
    except ConfigError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    output = {**BLOCKS[cfg["machine"]["kind"]]["output"],
              **cfg.get("output", {})}
    decimate = output["decimate"] if args.decimate is None else args.decimate
    if decimate < 1:
        _err(f"decimate must be at least 1, got {decimate}")
        return EXIT_CONFIG
    out_dir = Path(args.out)
    if not _make_dir(out_dir):
        return EXIT_CONFIG

    try:
        if cfg["scenario"]["type"] == "wrsm":
            trace = run_wrsm_scenario(scenario)
        else:
            trace = run_im_scenario(scenario)
    except (EkfDivergenceError, SingularInnovationError,
            SingularInductanceError, ProfileDomainError, PlantWorkerError,
            ArithmeticError,    # overflow at extreme parameters
            MemoryError) as exc:    # a trace table too large to allocate
        _err(f"simulation failed: {exc}")
        return EXIT_SIM

    try:
        started = time.perf_counter()
        trace.to_csv(out_dir / "trace.csv", decimate=decimate)
        trace.meta["timings"]["csv"] = time.perf_counter() - started
        write_summary(out_dir / "summary.json", summarize(trace))
        if output["plot_script"]:
            _write_plot_script(out_dir / "plot.gp", trace.meta["machine"])
    except OSError as exc:    # a directory in a file's place, a full disk
        _err(f"cannot write output: {exc}")
        return EXIT_CONFIG
    print(f"trace: {out_dir / 'trace.csv'} ({len(trace.t[::decimate])} rows)")
    print(f"summary: {out_dir / 'summary.json'}")
    return EXIT_OK


def _write_plot_script(path, machine_kind: str):
    panels = SPECS[machine_kind].panels
    lines = [
        "# gnuplot script; run next to trace.csv",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'time (s)'",
        f"set multiplot layout {len(panels)},1",
    ]
    for title, cols in panels:
        plot = ", ".join(
            f"'trace.csv' using 't':'{c}' with lines title '{c}'"
            for c in cols)
        lines.append(f"set title '{title}'")
        lines.append(f"plot {plot}")
    lines.append("unset multiplot")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_point(cfg: dict, threshold):
    """The machine kind and report at the config's check point; a threshold
    of None takes the config's, then the default. A DC machine takes none:
    its determinant decides."""
    kind = cfg["machine"]["kind"]
    block = {**BLOCKS[kind]["check"], **cfg["check"]}
    if threshold is None:
        threshold = block.get("threshold")
    elif "threshold" not in block:
        raise ConfigError(f"--threshold does not apply to {kind}: a DC "
                          "machine is decided by its nonzero determinant")
    params = params_from_dict(kind, cfg["machine"].get("params", {}))
    machine = make_machine(kind, params)
    u_dot, speed_measured = None, False
    if kind in SM_KINDS:
        # without a field winding there is no i_f or di_f (None)
        x, u = sm_operating_point(
            params, omega=block["omega"], i_sd=block["i_d"],
            i_sq=block["i_q"], i_f=block.get("i_f"), di_sd=block["di_d"],
            di_sq=block["di_q"], di_f=block.get("di_f"))
    elif kind == "im":
        speed_measured = block["mode"] == "with_speed"
        x, u, u_dot = im_steady_operating_point(
            params, omega_e=block["omega_e"], T_m=block["T_m"],
            psi_rd=block["psi_rd"])
    else:
        x = np.array([block["i_a"], 0.0, 0.0])
        u = np.zeros(1)
    report = observability_report(machine, x, u, u_dot,
                                  speed_measured=speed_measured,
                                  threshold=threshold)
    return kind, report


def cmd_check(args) -> int:
    if args.threshold is not None and \
            not 0.0 < args.threshold <= sys.float_info.max:   # NaN fails too
        _err(f"--threshold must be finite and above 0, got {args.threshold}")
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
        if "check" not in cfg:
            raise ConfigError("config has no check block")
        kind, report = _check_point(cfg, args.threshold)
    except (ConfigError, DegenerateFluxError, ValueError) as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except ArithmeticError as exc:    # overflow at extreme parameters
        _err(f"numerical failure at this point: {exc}")
        return EXIT_CONFIG
    out = json_sanitize({"machine": kind, **dataclasses.asdict(report)})
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK if report.guaranteed else EXIT_NOT_GUARANTEED


def _sweep_cells(cfg: dict):
    """Header and rows of the sweep CSV: one row per cell of the grid of the
    two axes ``x``, ``y`` (the block's objects, in the table's order), the
    second axis varying slowest."""
    kind = cfg["machine"]["kind"]
    params = params_from_dict(kind, cfg["machine"].get("params", {}))
    block = {**BLOCKS[kind]["sweep"], **cfg["sweep"]}
    x, y = np.meshgrid(*(np.linspace(a["min"], a["max"], a["n"])
                         for a in block.values() if isinstance(a, dict)))
    if kind == "im":
        psi_rd = block["psi_rd"]
        det = im_steady_determinant(params, x, y, psi_rd)
        omega_s = x + slip_frequency(params, y, psi_rd)
        cells = (x, y, det, im_condition(params, x, 0.0, omega_s))
        header = "omega_e,T_m,determinant,condition"
    else:
        det = sm_determinant(params, block["omega"], x, y, block.get("i_f"))
        cells = (x, y, det, np.full_like(det, block["omega"]))
        header = "i_d,i_q,determinant,omega"
    return header, np.column_stack([c.ravel() for c in cells])


def cmd_sweep(args) -> int:
    try:
        cfg = load_config(args.config)
        if "sweep" not in cfg:
            raise ConfigError("config has no sweep block")
        with np.errstate(over="raise"):    # not inf cells
            header, rows = _sweep_cells(cfg)
    except (ConfigError, DegenerateFluxError) as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except (ArithmeticError, MemoryError) as exc:    # overflow, a vast grid
        _err(f"numerical failure on this grid: {exc}")
        return EXIT_CONFIG
    out_dir = Path(args.out)
    if not _make_dir(out_dir):
        return EXIT_CONFIG
    path = out_dir / "sweep.csv"
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(header + "\n")
            write_rows(fh, rows)
    except OSError as exc:
        _err(f"cannot write output: {exc}")
        return EXIT_CONFIG
    print(f"sweep: {path} ({len(rows)} cells)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driveobs",
        description="Electric-drive observability laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario, write trace/summary")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--decimate", type=int, default=None,
                       help="keep every N-th trace row")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="enable/reseed measurement noise")
    p_sim.set_defaults(func=cmd_simulate)

    p_chk = sub.add_parser("check", help="evaluate observability at one point")
    p_chk.add_argument("--config", required=True)
    p_chk.add_argument("--threshold", type=float, default=None,
                       help="rad/s; overrides check.threshold (default "
                       f"{OBS_THRESHOLD_DEFAULT:g})")
    p_chk.set_defaults(func=cmd_check)

    p_swp = sub.add_parser("sweep", help="grid sweep of the determinant")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--out", required=True)
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
