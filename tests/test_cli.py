"""Command-line interface: exit codes, file outputs, published schemas."""

import json
import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

from driveobs import cli
from driveobs.cli import main
from driveobs.config import CONFIG_SCHEMA, bundled_config_path
from driveobs.lie import SV_RANK_RTOL, machine_observability_matrix
from driveobs.machines import make_machine
from driveobs.observability import observability_report
from driveobs.params import (DEFAULT_PARAMS, IM_DEFAULT, MACHINE_KINDS,
                             SM_KINDS, params_from_dict)
from driveobs.profiles import ProfileDomainError
from driveobs.trace import CSV_ROWS, SimTrace, write_rows

RNG = np.random.default_rng(3)

WRSM_COLUMNS = [
    "t", "omega", "theta", "i_sa", "i_sb", "i_f", "i_sd", "i_sq",
    "v_sa", "v_sb", "v_f", "i_d_ref", "i_q_ref", "i_f_ref", "pi_saturated",
    "psi_od", "psi_oq", "theta_o", "omega_o", "margin", "det_sm", "ratio",
    "ekf_theta", "ekf_omega", "ekf_i_sa", "ekf_i_sb", "ekf_i_f",
    "theta_err", "omega_err", "innov_a", "innov_b", "innov_f", "obs_violated",
]

IM_COLUMNS = [
    "t", "omega_s_cmd", "v_sa", "v_sb", "T_load",
    "i_sa", "i_sb", "psi_ra", "psi_rb", "omega_e", "T_r",
    "T_m", "psi_rd", "omega_s", "im_cond",
    "det_with_speed", "det_sensorless", "line_distance",
    "spd_i_sa", "spd_i_sb", "spd_psi_ra", "spd_psi_rb", "spd_omega_e",
    "spd_T_r", "spd_flux_err", "spd_innov_a", "spd_innov_b",
    "sl_i_sa", "sl_i_sb", "sl_psi_ra", "sl_psi_rb", "sl_omega_e", "sl_T_r",
    "sl_flux_err", "sl_innov_a", "sl_innov_b", "spd_innov_w", "obs_violated",
]


PLOT_HEAD = """\
# gnuplot script; run next to trace.csv
set datafile separator ','
set key autotitle columnhead
set xlabel 'time (s)'
set multiplot layout 3,1
"""

PLOT_GP = {"wrsm": PLOT_HEAD + """\
set title 'position estimation error (rad)'
plot 'trace.csv' using 't':'theta_err' with lines title 'theta_err'
set title 'observability-vector velocity and margin (rad/s)'
plot 'trace.csv' using 't':'omega_o' with lines title 'omega_o', \
'trace.csv' using 't':'margin' with lines title 'margin'
set title 'rank-condition determinant'
plot 'trace.csv' using 't':'det_sm' with lines title 'det_sm'
unset multiplot
""", "im": PLOT_HEAD + """\
set title 'flux estimation error (relative)'
plot 'trace.csv' using 't':'spd_flux_err' with lines title 'spd_flux_err', \
'trace.csv' using 't':'sl_flux_err' with lines title 'sl_flux_err'
set title 'observability condition (rad/s)'
plot 'trace.csv' using 't':'im_cond' with lines title 'im_cond'
set title 'speed (rad/s)'
plot 'trace.csv' using 't':'omega_e' with lines title 'omega_e', \
'trace.csv' using 't':'sl_omega_e' with lines title 'sl_omega_e'
unset multiplot
"""}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def short_wrsm_cfg(decimate=1):
    return {
        "schema": CONFIG_SCHEMA,
        "machine": {"kind": "wrsm"},
        "scenario": {
            "type": "wrsm",
            "t_end": 0.3,
            "speed_profile": [
                {"kind": "constant", "t0": 0.0, "t1": 0.3, "value": 0.0}],
            "i_f_profile": [
                {"kind": "constant", "t0": 0.0, "t1": 0.1, "value": 4.0},
                {"kind": "sine", "t0": 0.1, "t1": 0.2, "offset": 4.0,
                 "terms": [[0.5, 6283.185307179586, 0.0]]},
                {"kind": "constant", "t0": 0.2, "t1": 0.3, "value": 4.0}],
            "injection_windows": [[0.1, 0.2]],
        },
        "output": {"decimate": decimate, "plot_script": True},
    }


def short_im_cfg():
    return {
        "schema": CONFIG_SCHEMA,
        "machine": {"kind": "im"},
        "scenario": {
            "type": "im",
            "t_end": 1.2,
            "dwell": [0.5, 0.9],
            "freq_profile": [
                {"kind": "constant", "t0": 0.0, "t1": 0.3,
                 "value": 62.83185307179586},
                {"kind": "ramp", "t0": 0.3, "t1": 0.5,
                 "v0": 62.83185307179586, "v1": 0.0},
                {"kind": "constant", "t0": 0.5, "t1": 0.9, "value": 0.0},
                {"kind": "ramp", "t0": 0.9, "t1": 1.1, "v0": 0.0,
                 "v1": 62.83185307179586},
                {"kind": "constant", "t0": 1.1, "t1": 1.2,
                 "value": 62.83185307179586}],
            "load_profile": [
                {"kind": "constant", "t0": 0.0, "t1": 0.2, "value": 0.0},
                {"kind": "constant", "t0": 0.2, "t1": 1.2, "value": 5.0}],
            "noise_std": 1.0,
            "seed": 7,
        },
        "output": {"decimate": 1, "plot_script": False},
    }


def sm_check_cfg(omega, kind="spmsm"):
    return {
        "schema": CONFIG_SCHEMA,
        "machine": {"kind": kind,
                    "params": {"L_d": 1e-3, "L_q": 1e-3, "psi_r": 0.1}},
        "check": {"omega": omega, "i_d": 1.0, "i_q": 2.0},
    }


# ---------------------------------------------------------------------------
# simulate


def test_simulate_wrsm_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, short_wrsm_cfg())
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    trace = SimTrace.from_csv(tmp_path / "out" / "trace.csv")
    assert trace.column_names == WRSM_COLUMNS
    assert (tmp_path / "out" / "plot.gp").read_text() == PLOT_GP["wrsm"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["schema"] == "driveobs-summary/1"
    assert summary["checks"]["converged_after_injection"] is True
    # the window opens at 0.1 s, so no row lies before it
    assert summary["checks"]["held_before_injection"] is None
    assert summary["checks"]["flag_set_at_standstill"] is None


def test_simulate_wrsm_without_injection_window(tmp_path):
    cfg_dict = short_wrsm_cfg()
    cfg_dict["scenario"]["injection_windows"] = []
    cfg_dict["scenario"]["i_f_profile"] = [
        {"kind": "constant", "t0": 0.0, "t1": 0.3, "value": 4.0}]
    cfg = write_cfg(tmp_path, cfg_dict)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(summary["checks"]) == 5
    assert all(v is None for v in summary["checks"].values())


def test_simulate_im_outputs_and_schema(tmp_path):
    cfg = write_cfg(tmp_path, short_im_cfg())
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    trace = SimTrace.from_csv(tmp_path / "out" / "trace.csv")
    assert trace.column_names == IM_COLUMNS
    assert not (tmp_path / "out" / "plot.gp").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    # the run ends before its re-convergence window [d1 + 1.0, d1 + 1.5] s
    assert summary["checks"]["sensorless_reconverges"] is None
    check_stage_timings(summary)


def test_im_plot_script_text(tmp_path):
    """The IM plot.gp byte for byte (the WRSM one is pinned through
    simulate above): three panels from the IM ScenarioSpec."""
    cli._write_plot_script(tmp_path / "plot.gp", "im")
    assert (tmp_path / "plot.gp").read_bytes() == PLOT_GP["im"].encode()


def test_simulate_decimation(tmp_path):
    cfg = write_cfg(tmp_path, short_wrsm_cfg(decimate=10))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o1")])
    assert rc == 0
    t1 = SimTrace.from_csv(tmp_path / "o1" / "trace.csv")
    assert len(t1.t) == 301
    assert t1.t[1] == pytest.approx(1e-3)


def test_to_csv_streams_the_same_bytes(tmp_path):
    # longer than one block of rows, decimated by a step that does not
    # divide the block
    n = 3 * CSV_ROWS + 7
    cols = {"t": np.arange(n) * 1e-4, "x": RNG.normal(0.0, 1e3, n),
            "flag": (np.arange(n) % 5 == 0).astype(float)}
    SimTrace(columns=cols).to_csv(tmp_path / "trace.csv", decimate=3)
    with open(tmp_path / "one_shot.csv", "w", encoding="ascii") as fh:
        fh.write("t,x,flag\n")
        np.savetxt(fh, np.column_stack([c[::3] for c in cols.values()]),
                   fmt="%.12g", delimiter=",")
    assert (tmp_path / "trace.csv").read_bytes() == \
        (tmp_path / "one_shot.csv").read_bytes()


def test_write_rows_matches_savetxt_bytes(tmp_path):
    # more than one block; NaN, infinities, signed zeros and extremes
    table = RNG.normal(0.0, 1e3, (CSV_ROWS + 5, 4))
    table[::7, 0] = math.nan
    table[1, :] = [-0.0, math.inf, -math.inf, 5e-324]
    table[2, :] = [1e308, -1e-308, 0.0, 123456789012345.0]
    with open(tmp_path / "rows.csv", "w", encoding="ascii") as fh:
        write_rows(fh, table)
    with open(tmp_path / "savetxt.csv", "w", encoding="ascii") as fh:
        np.savetxt(fh, table, fmt="%.12g", delimiter=",")
    assert (tmp_path / "rows.csv").read_bytes() == \
        (tmp_path / "savetxt.csv").read_bytes()


def test_simulate_rejects_negative_seed_option(tmp_path, capsys):
    cfg = write_cfg(tmp_path, short_im_cfg())
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
               "--seed", "-1"])
    assert rc == 2
    assert "--seed" in assert_one_line_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, cfg_decimate",
                         [("0", 1), ("-1", 1), (None, 0), (None, "x"),
                          (None, 2.5)])
def test_simulate_rejects_decimate_below_one(tmp_path, capsys, flag,
                                             cfg_decimate):
    cfg = write_cfg(tmp_path, short_wrsm_cfg(decimate=cfg_decimate))
    out = tmp_path / "out"
    argv = ["simulate", "--config", cfg, "--out", str(out)]
    rc = main(argv + (["--decimate", flag] if flag else []))
    assert rc == 2
    assert not (out / "trace.csv").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "decimate must be at least 1" in err


def test_simulate_summary_wall_time_is_the_scenarios(tmp_path, monkeypatch):
    run = cli.run_wrsm_scenario

    def timed_run(scenario):
        trace = run(scenario)
        trace.meta["wall_time_s"] = 123.0
        return trace

    monkeypatch.setattr(cli, "run_wrsm_scenario", timed_run)
    cfg = write_cfg(tmp_path, short_wrsm_cfg())
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["wall_time_s"] == 123.0


class ScenarioCalled(Exception):
    pass


@pytest.mark.parametrize("kind", ["wrsm", "im"])
def test_simulate_calls_the_scenario_function_of_the_cli_module(
        tmp_path, monkeypatch, kind):
    # the benchmark wraps cli.run_wrsm_scenario and cli.run_im_scenario by
    # name, so simulate must look them up when it runs
    def called(scenario):
        raise ScenarioCalled(type(scenario).__name__)

    monkeypatch.setattr(cli, f"run_{kind}_scenario", called)
    cfg = write_cfg(tmp_path, short_wrsm_cfg() if kind == "wrsm"
                    else short_im_cfg())
    with pytest.raises(ScenarioCalled, match=f"{kind.capitalize()}Scenario"):
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])


def check_stage_timings(summary):
    timings = summary["timings"]
    assert set(timings) == {"plant", "channels", "filters", "csv"}
    assert all(v >= 0.0 for v in timings.values())
    # the CSV is written after the scenario, outside its wall time
    stages = timings["plant"] + timings["channels"] + timings["filters"]
    assert stages <= summary["wall_time_s"]


def failing_plant_rates(params):
    raise ProfileDomainError("t = 9 outside profile domain [0, 8.5]")


def test_simulate_unallocatable_trace_exit_3(tmp_path, capsys):
    # 1e14 rows of 19 columns exceed the address space, so the table's
    # allocation fails at once, before the plant worker starts
    cfg = {"schema": CONFIG_SCHEMA, "machine": {"kind": "wrsm"},
           "scenario": {"type": "wrsm", "t_end": 1.0, "dt_sim": 1e-14,
                        "trace_dt": 1e-14}}
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "simulation failed: Unable to allocate" in \
        assert_one_line_error(capsys)
    assert multiprocessing.active_children() == []


def test_simulate_plant_error_in_worker_exit_3(tmp_path, capsys,
                                               monkeypatch):
    # the plant runs in a worker process; its error keeps its type there
    from driveobs import scenarios
    monkeypatch.setattr(scenarios, "im_rates", failing_plant_rates)
    cfg = write_cfg(tmp_path, short_im_cfg())
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.splitlines() == ["driveobs: simulation failed: t = 9 outside "
                                "profile domain [0, 8.5]"]
    assert multiprocessing.active_children() == []


def test_cli_import_leaves_multiprocessing_unloaded():
    # the plant worker imports multiprocessing when a scenario runs, so it
    # adds nothing to the start-up of every command
    proc = subprocess.run(
        [sys.executable, "-c", "import driveobs.cli, sys; "
         "print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_simulate_summary_stage_timings(tmp_path):
    cfg = write_cfg(tmp_path, short_wrsm_cfg())
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    check_stage_timings(summary)
    # the plant worker's own time for the rows
    assert summary["plant_busy_s"] > 0.0


@pytest.mark.parametrize("kind", ["wrsm", "im"])
def test_simulate_default_profiles_short_t_end(tmp_path, kind):
    # only t_end set: the default profiles must still cover the run
    cfg = write_cfg(tmp_path, {
        "schema": CONFIG_SCHEMA, "machine": {"kind": kind},
        "scenario": {"type": kind, "t_end": 0.05},
        "output": {"plot_script": False}})
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    trace = SimTrace.from_csv(tmp_path / "out" / "trace.csv")
    assert trace.t[-1] == pytest.approx(0.05)


def test_simulate_summary_recomputable_from_csv(tmp_path):
    cfg = write_cfg(tmp_path, short_im_cfg())
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    # whiteness monitor present: noisy but converged filter stays near-white
    spd_innov = summary["innovations"]["spd_innov_a"]
    assert abs(spd_innov["lag1_autocorr"]) < 0.9
    assert np.isfinite(spd_innov["std"])
    trace = SimTrace.from_csv(tmp_path / "out" / "trace.csv")
    d0, d1 = summary["dwell"]
    sel = (trace.t >= d0 + 0.2) & (trace.t <= d1)
    recomputed = bool(np.nanmax(trace["sl_flux_err"][sel]) > 0.20)
    assert recomputed == summary["checks"]["sensorless_fails_in_dwell"]
    thr = summary["obs_threshold"]
    recomputed_cond = bool(
        np.nanmax(np.abs(trace["im_cond"][sel])) < thr)
    assert recomputed_cond == summary["checks"]["cond_small_in_dwell"]


def test_simulate_invalid_config_exit_2(tmp_path):
    cfg_dict = short_wrsm_cfg()
    cfg_dict["machine"]["params"] = {"L_2": -0.05e-3}   # L_q > L_d
    cfg = write_cfg(tmp_path, cfg_dict)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2


def test_simulate_missing_config_exit_2(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


# ---------------------------------------------------------------------------
# check


def test_check_spmsm_standstill_not_guaranteed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, sm_check_cfg(0.0))
    rc = main(["check", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert rc == 4
    assert out["determinant"] == 0.0
    assert out["guaranteed"] is False


def test_check_spmsm_spinning_guaranteed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, sm_check_cfg(100.0))
    rc = main(["check", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["determinant"] == pytest.approx(1.0e6, rel=1e-9)
    assert out["oracle_determinant"] == pytest.approx(1.0e6, rel=1e-4)


def test_check_im_on_line_not_guaranteed(tmp_path, capsys):
    on_line = -(IM_DEFAULT.R_r / IM_DEFAULT.p) * 10.0 / 0.05**2
    cfg = write_cfg(tmp_path, {
        "schema": CONFIG_SCHEMA,
        "machine": {"kind": "im"},
        "check": {"mode": "sensorless", "omega_e": on_line, "T_m": 10.0,
                  "psi_rd": 0.05}})
    rc = main(["check", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert rc == 4
    assert abs(out["margin"]) < 1e-6


@pytest.mark.parametrize("omega", [0.0, 100.0])
def test_check_reports_equilibrated_singular_values(tmp_path, capsys, omega):
    cfg = write_cfg(tmp_path, sm_check_cfg(omega))
    main(["check", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    sv = np.array(out["singular_values"])
    assert sv.shape == (4,) and np.all(np.diff(sv) <= 0.0)
    assert out["rank"] == np.sum(sv > SV_RANK_RTOL * sv[0])
    assert out["rank"] == (3 if omega == 0.0 else 4)


def test_check_dcm_sanity_bundled(capsys):
    rc = main(["check", "--config", str(bundled_config_path("dcm_sanity.json"))])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["determinant"] == pytest.approx(-400000.0, rel=1e-9)


def test_check_wrsm_field_transient_restores_standstill(tmp_path, capsys):
    # a changing field current moves the observability vector even at
    # standstill, so the point is guaranteed despite omega = 0
    cfg = write_cfg(tmp_path, {
        "schema": CONFIG_SCHEMA, "machine": {"kind": "wrsm"},
        "check": {"omega": 0.0, "i_d": 2.0, "i_q": 15.0, "i_f": 4.0,
                  "di_f": 500.0}})
    rc = main(["check", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert abs(out["margin"]) > 2.0
    static = write_cfg(tmp_path, {
        "schema": CONFIG_SCHEMA, "machine": {"kind": "wrsm"},
        "check": {"omega": 0.0, "i_d": 2.0, "i_q": 15.0, "i_f": 4.0}},
        name="static.json")
    assert main(["check", "--config", static]) == 4


def test_simulate_honors_param_overrides(tmp_path):
    cfg_dict = short_wrsm_cfg()
    cfg_dict["machine"]["params"] = {"R_f": 13.0}
    cfg = write_cfg(tmp_path, cfg_dict)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    trace = SimTrace.from_csv(tmp_path / "out" / "trace.csv")
    # steady field voltage reflects the overridden resistance: R_f * i_f
    sel = (trace.t > 0.05) & (trace.t < 0.1)
    assert np.allclose(trace["v_f"][sel], 13.0 * 4.0, rtol=1e-3)


def test_check_without_block_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {"schema": CONFIG_SCHEMA,
                               "machine": {"kind": "pm_dcm"}})
    assert main(["check", "--config", cfg]) == 2


def test_check_degenerate_flux_exit_2(tmp_path):
    # 1e-300 is positive, but its square underflows to zero
    for psi_rd in (-1.0, 1e-300):
        cfg = write_cfg(tmp_path, {
            "schema": CONFIG_SCHEMA, "machine": {"kind": "im"},
            "check": {"omega_e": 0.0, "T_m": 1.0, "psi_rd": psi_rd}})
        assert main(["check", "--config", cfg]) == 2, psi_rd


# ---------------------------------------------------------------------------
# sweep


def fit_line_slope(csv_path, tau_r):
    """Zero set of the determinant, fit through the origin.

    The strictly positive curvature factor (1 + tau_r^2 omega^2) is divided
    out first so that linear interpolation finds the roots exactly.
    """
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    we, Tm, det = data[:, 0], data[:, 1], data[:, 2]
    det = det / (1.0 + tau_r**2 * we**2)
    roots = []
    for T in np.unique(Tm):
        sel = Tm == T
        w = we[sel]
        d = det[sel]
        order = np.argsort(w)
        w, d = w[order], d[order]
        sign_change = np.flatnonzero(np.diff(np.sign(d)) != 0)
        for j in sign_change:
            w0 = w[j] - d[j] * (w[j + 1] - w[j]) / (d[j + 1] - d[j])
            roots.append((T, w0))
    roots = np.asarray(roots)
    slope = np.linalg.lstsq(roots[:, :1], roots[:, 1], rcond=None)[0][0]
    return slope, roots


def test_sweep_line_fit_within_one_percent(tmp_path):
    rc = main(["sweep", "--config", str(bundled_config_path("sweep_line.json")),
               "--out", str(tmp_path)])
    assert rc == 0
    slope, roots = fit_line_slope(tmp_path / "sweep.csv", IM_DEFAULT.tau_r)
    expected = -(IM_DEFAULT.R_r / IM_DEFAULT.p) / 0.05**2
    assert abs(slope - expected) / abs(expected) < 0.01
    assert len(roots) >= 40


def test_sweep_syrm_zero_current_row(tmp_path):
    cfg = write_cfg(tmp_path, {
        "schema": CONFIG_SCHEMA, "machine": {"kind": "syrm"},
        "sweep": {"i_d": {"min": -10.0, "max": 10.0, "n": 5},
                  "i_q": {"min": 0.0, "max": 0.0, "n": 1},
                  "omega": 100.0}})
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    row = data[(data[:, 0] == 0.0) & (data[:, 1] == 0.0)]
    assert row.shape[0] == 1 and row[0, 2] == 0.0


def test_sweep_single_cell(tmp_path):
    cfg = write_cfg(tmp_path, {
        "schema": CONFIG_SCHEMA, "machine": {"kind": "im"},
        "sweep": {"omega_e": {"min": 10.0, "max": 10.0, "n": 1},
                  "T_m": {"min": 5.0, "max": 5.0, "n": 1},
                  "psi_rd": 0.05}})
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert data.shape[0] == 1


def test_sweep_degenerate_grid_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {
        "schema": CONFIG_SCHEMA, "machine": {"kind": "im"},
        "sweep": {"omega_e": {"min": 1.0, "max": -1.0, "n": 3},
                  "T_m": {"min": 0.0, "max": 1.0, "n": 3}}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("driveobs: ")
    assert "Traceback" not in err
    return err


def test_sweep_out_under_regular_file_exit_2(tmp_path, capsys):
    blocker = tmp_path / "regfile"
    blocker.write_text("")
    rc = main(["sweep", "--config", str(bundled_config_path("sweep_line.json")),
               "--out", str(blocker / "sub")])
    assert rc == 2
    assert "cannot create output directory" in assert_one_line_error(capsys)


@pytest.mark.parametrize("command, name", [
    ("simulate", "trace.csv"), ("simulate", "summary.json"),
    ("simulate", "plot.gp"), ("sweep", "sweep.csv")])
def test_unwritable_output_file_exit_2(tmp_path, capsys, command, name):
    """A directory in an output file's place ends in one line, exit 2."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    if command == "simulate":
        cfg_dict = short_wrsm_cfg()
        cfg_dict["scenario"]["t_end"] = 0.01
        cfg = write_cfg(tmp_path, cfg_dict)
    else:
        cfg = str(bundled_config_path("sweep_line.json"))
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = assert_one_line_error(capsys)
    assert err.startswith("driveobs: cannot write output: ") and name in err


@pytest.mark.parametrize("kind, sweep", [
    ("im", {"omega_e": {"min": -1.0, "max": 1.0, "n": 2.5}}),
    ("im", {"omega_e": {"min": -1.0, "max": 1.0, "n": "3"}}),
    ("im", {"omega_e": {"min": -1.0, "max": 1.0, "n": False}}),
    ("im", {"T_m": {"min": "a", "max": 1.0, "n": 3}}),
    ("im", {"T_m": {"min": -1.0, "max": float("nan"), "n": 3}}),
    ("im", {"psi_rd": "0.05"}),
    ("im", {"psi_rd": float("inf")}),
    ("im", {"threshold": True}),
    ("syrm", {"omega": "x"}),
    ("wrsm", {"i_f": None}),
])
def test_sweep_rejects_malformed_values(tmp_path, capsys, kind, sweep):
    axes = ("omega_e", "T_m") if kind == "im" else ("i_d", "i_q")
    block = {a: {"min": -1.0, "max": 1.0, "n": 3} for a in axes}
    cfg = write_cfg(tmp_path, {"schema": CONFIG_SCHEMA,
                               "machine": {"kind": kind},
                               "sweep": {**block, **sweep}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "sweep.csv").exists()
    assert_one_line_error(capsys)


WRONGLY_TYPED = [
    ("check", "spmsm", "params", "R_s", "0.1"),
    ("check", "spmsm", "params", "R_s", True),
    ("check", "spmsm", "params", "p", 2.5),
    ("check", "spmsm", "check", "omega", "x"),
    ("simulate", "wrsm", "params", "L_f", None),
    ("simulate", "wrsm", "scenario", "noise_std", "x"),
    ("simulate", "wrsm", "scenario", "t_end", False),
    ("simulate", "wrsm", "scenario", "seed", 1.5),
    ("simulate", "wrsm", "scenario", "seed", "7"),
    ("simulate", "wrsm", "scenario", "seed", -1),
    ("simulate", "wrsm", "scenario", "run_ekf", "false"),
    ("simulate", "wrsm", "scenario", "run_ekf", 0),
    ("check", "spmsm", "params", "J", float("nan")),
    ("simulate", "wrsm", "scenario", "noise_std", float("nan")),
    ("simulate", "wrsm", "scenario", "t_end", float("inf")),
    ("simulate", "wrsm", "scenario", "obs_threshold", float("nan")),
    ("simulate", "wrsm", "scenario", "obs_threshold", 0.0),
    ("simulate", "wrsm", "scenario", "obs_threshold", -1.0),
    ("simulate", "wrsm", "scenario", "flag_window", -1.0),
    # -dt_sim divides by 0 in the vector-angle rate filter
    ("simulate", "wrsm", "scenario", "omega_o_filter_tau", -1e-5),
    # a negative noise level would run without noise
    ("simulate", "wrsm", "scenario", "noise_std", -1.0),
    ("simulate", "wrsm", "output", "plot_script", "false"),
    ("simulate", "wrsm", "output", "plot_script", 1),
    # keys of the IM scenario alone
    ("simulate", "im", "params", "R_r", "0.5"),
    ("simulate", "im", "scenario", "omega_rated", "62.8"),
    ("simulate", "im", "scenario", "omega_rated", True),
    ("simulate", "im", "scenario", "omega_rated", -1.0),
    ("simulate", "im", "scenario", "omega_s_filter_tau", None),
    ("simulate", "im", "scenario", "omega_s_filter_tau", float("nan")),
    ("simulate", "im", "scenario", "ekf_r_speed", "0.25"),
    ("simulate", "im", "scenario", "ekf_r_speed", float("inf")),
    ("simulate", "im", "scenario", "ekf_r_speed", 0.0),
    ("simulate", "im", "scenario", "dwell", "3"),
    ("simulate", "im", "scenario", "dwell", [3.0, "5"]),
    ("simulate", "im", "scenario", "dwell", [3.0, None]),
    ("simulate", "im", "scenario", "noise_std", -1.0),
]


# a row on the SPMSM (check) or the WRSM (simulate) leaves its kind out of
# the test name
@pytest.mark.parametrize("command, kind, where, key, value", WRONGLY_TYPED,
                         ids=["-".join(map(str, row if row[1] == "im"
                                           else row[:1] + row[2:]))
                              for row in WRONGLY_TYPED])
def test_wrongly_typed_values_exit_2(tmp_path, capsys, monkeypatch, command,
                                     kind, where, key, value):
    def no_run(scenario):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_wrsm_scenario", no_run)
    monkeypatch.setattr(cli, "run_im_scenario", no_run)
    if command == "check":
        cfg = sm_check_cfg(100.0, kind)
    else:
        cfg = short_wrsm_cfg() if kind == "wrsm" else short_im_cfg()
    block = cfg["machine"].setdefault("params", {}) if where == "params" \
        else cfg[where]
    block[key] = value
    argv = [command, "--config", write_cfg(tmp_path, cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert key in assert_one_line_error(capsys)


@pytest.mark.parametrize("command, kind, where, value, code", [
    # L_q = L_0 - L_2 must stay above 0
    ("check", "wrsm", {"params": {"L_2": 0.75e-3}}, None, 2),
    # the parameter checks square M_f
    ("check", "wrsm", {"params": {"M_f": 5.7e297}}, None, 2),
    # slip_frequency squares psi_rd
    ("check", "im", {"check": {"psi_rd": 1e300}}, None, 2),
    ("check", "pm_dcm", {"params": {"K": 1e299}}, None, 2),
    # the PI limits are -v_limit and v_limit
    ("simulate", "wrsm", {"scenario": {"v_limit": 0.0}}, "v_limit", 2),
    # im_condition squares tau_r * omega_e
    ("simulate", "im", {"params": {"R_r": 1.5e-303},
                        "scenario": {"t_end": 2e-3}}, None, 3),
    # L_0 - L_2 rounds to 0, so det L(0) is 0 in the float kernel
    ("check", "syrm", {"params": {"L_d": 1.0, "L_q": 1e-17}},
     "|det L| below 1e-18", 2),
    # the voltage amplitude divides the frequency by omega_rated
    ("simulate", "im", {"scenario": {"omega_rated": 0.0}}, "omega_rated", 2),
    # -dt_sim divides by 0 in the flux-angle rate filter
    ("simulate", "im", {"scenario": {"omega_s_filter_tau": -5e-6}},
     "omega_s_filter_tau", 2),
    # a flag window longer than the trace is the running maximum
    ("simulate", "wrsm", {"scenario": {"flag_window": 1e300}}, None, 0),
    # a start estimate past the overflow bound is checked before the first
    # predict, whose rates would overflow
    ("simulate", "im", {"scenario": {"x0_est_phys": [0, 0, 0, 0, 1e300, 0]}},
     "filter diverged", 3),
])
def test_extreme_values_exit_without_traceback(tmp_path, capsys, command,
                                               kind, where, value, code):
    cfg = {"schema": CONFIG_SCHEMA, "machine": {"kind": kind}, "check": {}}
    if command == "simulate":
        cfg = short_wrsm_cfg() if kind == "wrsm" else short_im_cfg()
    for block, entries in where.items():
        target = cfg["machine"] if block == "params" else cfg
        target.setdefault(block, {}).update(entries)
    argv = [command, "--config", write_cfg(tmp_path, cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    if code == 0:
        assert capsys.readouterr().err == ""
        return
    message = assert_one_line_error(capsys)
    if value is not None:
        assert value in message


@pytest.mark.parametrize("kind, point, code, message", [
    ("wrsm", {"omega": 1e200, "i_d": 1.0, "i_f": 2.0}, 2, "Singular matrix"),
    ("hesm", {"omega": 1e200, "i_f": -1e200}, 2, "SVD did not converge"),
    ("im", {"omega_e": -1e200}, 2, "Singular matrix"),
    ("series_dcm", {"i_a": -1e200}, 2, "SVD did not converge"),
    ("pm_dcm", {"i_a": 1e200}, 0, None),
    ("ipmsm", {"omega": math.nan}, 2, "check.omega must be a finite number, "
     "got nan"),
])
def test_check_at_overflow_range_states(tmp_path, kind, point, code, message):
    """The rates of one state run on Python floats, which overflow to inf
    without numpy's RuntimeWarning; ``check`` keeps the exit code and the
    message that the numpy scalars gave. A fresh interpreter keeps the
    command's own warning filters."""
    cfg = {"schema": CONFIG_SCHEMA, "machine": {"kind": kind}, "check": point}
    proc = subprocess.run([sys.executable, "-m", "driveobs.cli", "check",
                           "--config", write_cfg(tmp_path, cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == code
    if message is None:
        assert json.loads(proc.stdout)["guaranteed"]
    else:
        assert proc.stderr.splitlines()[-1] == f"driveobs: {message}"
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind, key, value", [
    ("hesm", "L_q", 0.8e-3),                  # L_d = 0.8 mH
    ("hesm", "L_q", 0.8e-3 * (1.0 - 1e-6)),
    ("wrsm", "L_2", 0.0),                     # L_d = L_0 + L_2
    ("wrsm", "L_2", 0.5e-6 * 0.75e-3),
])
def test_check_at_equal_inductances_matches_oracle(tmp_path, capsys, kind,
                                                   key, value):
    """At L_q = L_d the q component of the observability vector is
    -M_f^2/L_f * i_q, not 0: closed form and oracle agree there and 1e-6
    (relative) away, within criterion 1's 1e-4. At this standstill point
    the field-current rate turns the vector at well under the 2 rad/s
    threshold, so ``check`` exits 4 (not guaranteed)."""
    cfg = {"schema": CONFIG_SCHEMA,
           "machine": {"kind": kind, "params": {key: value}},
           "check": {"omega": 0.0, "i_d": 1.0, "i_q": 5.0, "i_f": 2.0,
                     "di_f": 30.0}}
    assert main(["check", "--config", write_cfg(tmp_path, cfg)]) == 4
    out = json.loads(capsys.readouterr().out)
    worst = abs(abs(out["oracle_determinant"]) - abs(out["determinant"])) \
        / abs(out["determinant"])
    machine = make_machine(kind, params_from_dict(kind, {key: value}))
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = np.array([rng.normal(0, 10), rng.normal(0, 10), rng.normal(0, 5),
                      rng.normal(0, 100), rng.uniform(-np.pi, np.pi)])
        rep = observability_report(machine, x, rng.normal(0, 20, 3))
        worst = max(worst, abs(abs(rep.oracle_determinant)
                               - abs(rep.determinant)) / abs(rep.determinant))
    assert worst <= 1e-4


SEGMENT = {"kind": "constant", "t0": 0.0, "t1": 0.3, "value": 0.0}
SINE = {"kind": "sine", "t0": 0.0, "t1": 0.3, "offset": 4.0}


@pytest.mark.parametrize("scenario, key, value", [
    ("wrsm", "ekf_r_diag", [1.0, 1.0]),
    ("wrsm", "ekf_r_diag", [1.0, "x", 1.0]),
    ("wrsm", "ekf_q_diag", 1.0),
    ("wrsm", "ekf_p0_diag", [0.1, 0.1, 0.1, 10.0, 0.0]),
    ("wrsm", "speed_profile", 5),
    ("wrsm", "speed_profile", [{**SEGMENT, "t1": "0.3"}]),
    ("wrsm", "speed_profile", [{**SEGMENT, "value": "x"}]),
    ("wrsm", "speed_profile", [{**SEGMENT, "value": float("nan")}]),
    ("wrsm", "i_f_profile", [{**SINE, "terms": [[0.5, "x", 0.0]]}]),
    ("wrsm", "i_f_profile", [{**SINE, "terms": 0.5}]),
    ("wrsm", "injection_windows", None),
    ("wrsm", "injection_windows", [[0.1]]),
    ("wrsm", "injection_windows", [0.1, 0.2]),
    ("im", "x0_est_phys", [0.0, 0.0, 0.0]),
    ("im", "dwell", [0.5, None]),
    ("im", "ekf_r_speed", -0.25),
    ("im", "load_profile", {"kind": "constant"}),
    ("im", "x0_est_phys", [float("nan")] + [0.0] * 5),
    ("im", "t_end", float("inf")),
    # a key of another kind, which would otherwise be ignored
    ("wrsm", "speed_profile", [{"kind": "ramp", "t0": 0.0, "t1": 0.3,
                                "value": 100.0}]),
    ("wrsm", "speed_profile", [{**SEGMENT, "v0": 100.0}]),
    ("wrsm", "i_f_profile", [{**SEGMENT, "terms": [[0.5, 1e3, 0.0]]}]),
    ("wrsm", "speed_profile", [{**SEGMENT, "kind": ["constant"]}]),
])
def test_malformed_lists_and_segments_exit_2(tmp_path, capsys, monkeypatch,
                                             scenario, key, value):
    def no_run(scenario):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, f"run_{scenario}_scenario", no_run)
    cfg = short_wrsm_cfg() if scenario == "wrsm" else short_im_cfg()
    cfg["scenario"][key] = value
    argv = ["simulate", "--config", write_cfg(tmp_path, cfg),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert key in assert_one_line_error(capsys)


@pytest.mark.parametrize("omega, where, threshold", [
    (0.0, "check", 0.0),
    (0.0, "check", -1.0),
    (100.0, "option", "nan"),
    (100.0, "option", "inf"),
])
def test_check_threshold_must_be_finite_and_above_0(tmp_path, capsys, omega,
                                                    where, threshold):
    # each would otherwise read a verdict: standstill guaranteed at a
    # threshold of 0 or below, 100 rad/s not guaranteed at a NaN or
    # infinite one
    cfg = sm_check_cfg(omega)
    argv = ["check"]
    if where == "check":
        cfg["check"]["threshold"] = threshold
    else:
        argv += ["--threshold", threshold]
    assert main(argv + ["--config", write_cfg(tmp_path, cfg)]) == 2
    assert "threshold" in assert_one_line_error(capsys)


@pytest.mark.parametrize("option, code", [([], 0), (["--threshold", "5"], 4)])
def test_check_threshold_option_wins_over_the_config(tmp_path, capsys, option,
                                                     code):
    # a 3 rad/s margin: guaranteed at the config's 2, not at the option's 5
    cfg = sm_check_cfg(3.0)
    cfg["check"]["threshold"] = 2.0
    argv = ["check", "--config", write_cfg(tmp_path, cfg)] + option
    assert main(argv) == code
    out = json.loads(capsys.readouterr().out)
    assert out["margin"] == 3.0 and out["guaranteed"] == (code == 0)


@pytest.mark.parametrize("kind, value", [
    ("pm_dcm", "bogus"),
    ("spmsm", 5),
    ("series_dcm", "pm"),
    ("ipmsm", "hesm"),
])
def test_contradicting_params_kind_exit_2(tmp_path, capsys, kind, value):
    cfg = write_cfg(tmp_path, {"schema": CONFIG_SCHEMA,
                               "machine": {"kind": kind,
                                           "params": {"kind": value}},
                               "check": {}})
    assert main(["check", "--config", cfg]) == 2
    assert "kind" in assert_one_line_error(capsys)


@pytest.mark.parametrize("kind", SM_KINDS)
def test_field_keys_only_on_field_machines(tmp_path, capsys, kind):
    """``i_f`` and ``di_f`` need a field winding; ``check`` and ``sweep``
    reject them on the brushless machines rather than ignore them."""
    field = DEFAULT_PARAMS[kind].has_field
    axis = {"min": -1.0, "max": 1.0, "n": 3}
    for command, block, keys in (
            ("check", {"omega": 100.0, "i_f": 5.0, "di_f": 3.0},
             "['di_f', 'i_f']"),
            ("sweep", {"i_d": axis, "i_q": axis, "i_f": 5.0}, "['i_f']")):
        cfg = write_cfg(tmp_path, {"schema": CONFIG_SCHEMA,
                                   "machine": {"kind": kind},
                                   command: block})
        argv = [command, "--config", cfg]
        if command == "sweep":
            argv += ["--out", str(tmp_path / kind)]
        rc = main(argv)
        if field:
            assert rc in (0, 4)
            assert capsys.readouterr().err == ""
        else:
            assert rc == 2
            assert f"unknown keys in {command}: {keys}" in \
                assert_one_line_error(capsys)
    assert (tmp_path / kind / "sweep.csv").exists() == field


@pytest.mark.parametrize("kind", MACHINE_KINDS)
def test_every_machine_kind_from_params_to_check(tmp_path, capsys, kind):
    machine = make_machine(kind, params_from_dict(kind, {}))
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, machine.n_states)
    u = rng.normal(0.0, 1.0, machine.n_inputs)
    for speed_measured in (False, True) if kind == "im" else (False,):
        oracle = machine_observability_matrix(machine, x, u,
                                              speed_measured=speed_measured)
        assert oracle.matrix.shape == (machine.n_states,) * 2
        assert oracle.rank == machine.n_states
    cfg = write_cfg(tmp_path, {"schema": CONFIG_SCHEMA,
                               "machine": {"kind": kind}, "check": {}})
    assert main(["check", "--config", cfg]) in (0, 4)
    assert json.loads(capsys.readouterr().out)["machine"] == kind


# ---------------------------------------------------------------------------
# entry point


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "driveobs.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
