"""The benchmark's checks can fail: corrupted outputs are caught.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest
perfbench``.
"""

import dataclasses
import math

import numpy as np
import pytest

import checks
import inputs
from driveobs.config import scenario_from_config, validate_config
from driveobs.observability import OBS_THRESHOLD_DEFAULT, observability_report
from driveobs.profiles import SignalProfile
from driveobs.scenarios import ImScenario, run_im_scenario, run_wrsm_scenario
from driveobs.summary import summarize
from driveobs.trace import rolling_abs_max


def _scenario(cfg):
    validate_config(cfg)
    return scenario_from_config(cfg)


def _csv(trace, tmp_path, decimate):
    path = tmp_path / "trace.csv"
    trace.to_csv(path, decimate=decimate)
    return checks.read_csv(path)


@pytest.fixture(scope="module")
def wrsm_trace():
    return run_wrsm_scenario(_scenario(inputs.wrsm_config(3)))


def _wrsm_failures(trace, tmp_path, obs_violated, corrupt=None):
    names, data = _csv(trace, tmp_path, inputs.WRSM_DECIMATE)
    if corrupt:
        corrupt(names, data)
    decimated = {n: c[::inputs.WRSM_DECIMATE] for n, c in trace.columns.items()}
    return checks.check_wrsm(summarize(trace), trace.meta, trace["margin"],
                             obs_violated, decimated, names, data)


def test_wrsm_run_passes(wrsm_trace, tmp_path):
    assert _wrsm_failures(wrsm_trace, tmp_path,
                          wrsm_trace["obs_violated"]) == []


def test_wrsm_flipped_flag_run_fails(wrsm_trace, tmp_path):
    flag = wrsm_trace["obs_violated"].copy()
    start = int(np.argmax(flag > 0.5))
    flag[start:start + 50] = 1.0 - flag[start:start + 50]
    fails = _wrsm_failures(wrsm_trace, tmp_path, flag)
    assert any("obs_violated differs" in f for f in fails)


def test_wrsm_corrupt_csv_fails(wrsm_trace, tmp_path):
    def corrupt(names, data):
        data[10, names.index("theta_err")] += 1e-3

    fails = _wrsm_failures(wrsm_trace, tmp_path, wrsm_trace["obs_violated"],
                           corrupt)
    assert "CSV values differ from the trace" in fails


@pytest.fixture(scope="module")
def im_trace():
    """A short run through zero stator frequency; too short for the
    summary checks, long enough for the recomputed channels."""
    cfg = inputs.im_config(0)
    sc = _scenario(cfg)
    profile = SignalProfile.constant(0.0, 0.3, 0.0)
    sc = dataclasses.replace(sc, t_end=0.3, freq_profile=profile,
                             load_profile=profile, dwell=(0.0, 0.3))
    return run_im_scenario(sc)


def _im_failures(trace, names, data):
    return checks.check_im(summarize(trace), trace.meta, names, data,
                           ImScenario().params)


def test_im_cond_recomputed(im_trace, tmp_path):
    names, data = _csv(im_trace, tmp_path, 1)
    fails = _im_failures(im_trace, names, data)
    assert not any("im_cond" in f for f in fails)


def test_im_perturbed_cond_fails(im_trace, tmp_path):
    names, data = _csv(im_trace, tmp_path, 1)
    data[100:200, names.index("im_cond")] += 1e-3
    fails = _im_failures(im_trace, names, data)
    assert any("im_cond differs from the paper's formula" in f
               for f in fails)


def test_windowed_flag_matches_program():
    x = np.random.default_rng(4).normal(0.0, 3.0, 500)
    for width in (1, 7, 100):
        assert np.array_equal(checks.windowed_flag(x, width, 2.0),
                              rolling_abs_max(x, width) < 2.0)


@pytest.fixture(scope="module")
def oracle_reports():
    machines = {f: inputs.family_machine(f) for f in inputs.FAMILIES}
    out = []
    for point in inputs.oracle_points(5):
        machine = machines[point["family"]]
        rep = observability_report(
            machine, point["x"], point["u"], point["u_dot"],
            speed_measured=point["family"] == "im_with_speed")
        out.append((point, rep, machine))
    return out


def test_oracle_batch_passes(oracle_reports):
    assert {p["family"] for p, _, _ in oracle_reports} == set(inputs.FAMILIES)
    for point, rep, machine in oracle_reports:
        assert checks.check_report(point, rep, machine,
                                   OBS_THRESHOLD_DEFAULT) == []


def test_oracle_scaled_determinant_fails(oracle_reports):
    for point, rep, machine in oracle_reports:
        if point["case"] != "generic":
            continue
        bad = dataclasses.replace(
            rep, oracle_determinant=rep.oracle_determinant * 1.001)
        assert checks.check_report(point, bad, machine,
                                   OBS_THRESHOLD_DEFAULT), point["family"]


def test_oracle_wrong_guarantee_fails(oracle_reports):
    for point, rep, machine in oracle_reports:
        if point["case"] == "generic":
            continue
        bad = dataclasses.replace(rep, guaranteed=not rep.guaranteed)
        assert checks.check_report(point, bad, machine,
                                   OBS_THRESHOLD_DEFAULT), point["case"]


def test_threshold_scale_is_the_determinant_off_the_zero_set():
    """At standstill the SM scale is the determinant at omega = threshold."""
    from driveobs.observability import sm_determinant
    from driveobs.params import SPMSM_DEFAULT
    machine = inputs.family_machine("spmsm")
    point = {"family": "spmsm", "x": np.array([1.0, 2.0, 0.0, 0.3])}
    c, s = math.cos(0.3), math.sin(0.3)
    i_d, i_q = c * 1.0 + s * 2.0, -s * 1.0 + c * 2.0
    assert checks.threshold_scale(point, machine, 2.0) == pytest.approx(
        abs(sm_determinant(SPMSM_DEFAULT, 2.0, i_d, i_q)), rel=1e-12)
