"""Command-line interface: exit codes, file outputs, published schemas."""

import json
import subprocess
import sys

import numpy as np
import pytest

from driveobs import cli
from driveobs.cli import main
from driveobs.config import CONFIG_SCHEMA, bundled_config_path
from driveobs.params import IM_DEFAULT
from driveobs.trace import SimTrace

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
    assert (tmp_path / "out" / "plot.gp").exists()
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


def test_simulate_decimation(tmp_path):
    cfg = write_cfg(tmp_path, short_wrsm_cfg(decimate=10))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o1")])
    assert rc == 0
    t1 = SimTrace.from_csv(tmp_path / "o1" / "trace.csv")
    assert len(t1.t) == 301
    assert t1.t[1] == pytest.approx(1e-3)


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


@pytest.mark.parametrize("command, where, key, value", [
    ("check", "params", "R_s", "0.1"),
    ("check", "params", "R_s", True),
    ("check", "params", "p", 2.5),
    ("check", "check", "omega", "x"),
    ("simulate", "params", "L_f", None),
    ("simulate", "scenario", "noise_std", "x"),
    ("simulate", "scenario", "t_end", False),
    ("simulate", "scenario", "seed", 1.5),
    ("simulate", "scenario", "seed", "7"),
])
def test_wrongly_typed_values_exit_2(tmp_path, capsys, monkeypatch, command,
                                     where, key, value):
    def no_run(scenario):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_wrsm_scenario", no_run)
    if command == "check":
        cfg = sm_check_cfg(100.0)
    else:
        cfg = short_wrsm_cfg()
    block = cfg["machine"].setdefault("params", {}) if where == "params" \
        else cfg[where]
    block[key] = value
    argv = [command, "--config", write_cfg(tmp_path, cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert key in assert_one_line_error(capsys)


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
