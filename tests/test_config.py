"""Config schema: strict validation and scenario construction."""

import json

import pytest

from driveobs.config import (CONFIG_SCHEMA, ConfigError, load_bundled_config,
                             load_config, scenario_from_config,
                             validate_config)
from driveobs.scenarios import ImScenario, WrsmScenario

BUNDLED = ("wrsm_standstill.json", "im_zero_freq.json", "dcm_sanity.json",
           "sweep_line.json")


def minimal(kind="wrsm", **extra):
    cfg = {"schema": CONFIG_SCHEMA, "machine": {"kind": kind}}
    cfg.update(extra)
    return cfg


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_configs_validate(name):
    cfg = load_bundled_config(name)
    assert cfg["schema"] == CONFIG_SCHEMA


def test_unknown_top_level_key_rejected():
    cfg = minimal()
    cfg["scenarios"] = {}
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config(cfg)


def test_wrong_schema_version_rejected():
    cfg = minimal()
    cfg["schema"] = "driveobs-config/99"
    with pytest.raises(ConfigError, match="schema"):
        validate_config(cfg)


def test_unknown_machine_kind_rejected():
    with pytest.raises(ConfigError, match="machine kind"):
        validate_config(minimal(kind="bldc"))


def test_invalid_params_rejected():
    cfg = minimal()
    cfg["machine"]["params"] = {"L_2": -0.05e-3}   # makes L_q > L_d
    with pytest.raises(ConfigError, match="L_d >= L_q"):
        validate_config(cfg)


def test_unknown_param_key_rejected():
    cfg = minimal()
    cfg["machine"]["params"] = {"L_x": 1.0}
    with pytest.raises(ConfigError, match="unknown parameter"):
        validate_config(cfg)


def test_scenario_type_must_match_machine():
    cfg = minimal(kind="im", scenario={"type": "wrsm"})
    with pytest.raises(ConfigError, match="machine.kind"):
        validate_config(cfg)


def test_scenario_unknown_key_rejected():
    cfg = minimal(scenario={"type": "wrsm", "dt": 1e-5})
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config(cfg)


def test_sweep_degenerate_grid_rejected():
    cfg = minimal(kind="im", sweep={
        "omega_e": {"min": 10.0, "max": -10.0, "n": 5},
        "T_m": {"min": -1.0, "max": 1.0, "n": 5}})
    with pytest.raises(ConfigError, match="degenerate"):
        validate_config(cfg)


@pytest.mark.parametrize("axis_spec, message", [
    ({"min": -1.0, "max": 1.0, "n": 2.5}, "integer"),
    ({"min": -1.0, "max": 1.0, "n": "3"}, "integer"),
    ({"min": -1.0, "max": 1.0, "n": True}, "integer"),
    ({"min": -1.0, "max": 1.0, "n": 0}, "integer"),
    ({"min": "-1", "max": 1.0, "n": 3}, "finite number"),
    ({"min": -1.0, "max": float("inf"), "n": 3}, "finite number"),
    ({"min": False, "max": 1.0, "n": 3}, "finite number"),
])
def test_sweep_axis_types_rejected(axis_spec, message):
    cfg = minimal(kind="im", sweep={
        "omega_e": axis_spec, "T_m": {"min": -1.0, "max": 1.0, "n": 5}})
    with pytest.raises(ConfigError, match=message):
        validate_config(cfg)


@pytest.mark.parametrize("kind", ["wrsm", "im"])
def test_scenario_seed_may_be_null(kind):
    # the type comes from the defaults of both scenarios: None and 1234
    cfg = minimal(kind=kind, scenario={"type": kind, "seed": None})
    validate_config(cfg)
    assert scenario_from_config(cfg).seed is None


def test_scenario_from_config_builds_defaults():
    cfg = load_bundled_config("wrsm_standstill.json")
    sc = scenario_from_config(cfg)
    assert isinstance(sc, WrsmScenario)
    assert sc.t_end == 6.0
    cfg_im = load_bundled_config("im_zero_freq.json")
    sc_im = scenario_from_config(cfg_im)
    assert isinstance(sc_im, ImScenario)
    assert sc_im.seed == 1234 and sc_im.noise_std == 1.0


def test_scenario_profiles_from_json(tmp_path):
    cfg = minimal(scenario={
        "type": "wrsm",
        "t_end": 0.2,
        "speed_profile": [
            {"kind": "constant", "t0": 0.0, "t1": 0.1, "value": 0.0},
            {"kind": "ramp", "t0": 0.1, "t1": 0.2, "v0": 0.0, "v1": 50.0}],
        "i_f_profile": [
            {"kind": "sine", "t0": 0.0, "t1": 0.2, "offset": 4.0,
             "terms": [[0.5, 6283.185307179586, 0.0]]}],
        "injection_windows": [[0.0, 0.2]],
    })
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    sc = scenario_from_config(load_config(path))
    assert sc.speed_profile.value(0.15) == pytest.approx(25.0)
    assert sc.i_f_profile.value(0.0) == pytest.approx(4.0)


def test_scenario_profile_must_cover_duration():
    cfg = minimal(scenario={
        "type": "wrsm", "t_end": 2.0,
        "speed_profile": [
            {"kind": "constant", "t0": 0.0, "t1": 1.0, "value": 0.0}],
    })
    with pytest.raises(ConfigError, match="cover"):
        scenario_from_config(cfg)


def test_scenario_grid_ratio_checked():
    cfg = minimal(scenario={"type": "wrsm", "dt_sim": 3e-5})
    with pytest.raises(ConfigError, match="integer multiple"):
        scenario_from_config(cfg)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/driveobs.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
