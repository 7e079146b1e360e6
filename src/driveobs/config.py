"""JSON run configuration: strict validation and scenario construction.

The schema is versioned; unknown keys are rejected everywhere so that typos
fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from importlib import resources

import numpy as np

from .params import (DEFAULT_PARAMS, MACHINE_KINDS, params_from_dict,
                     params_to_dict)
from .profiles import Segment, SignalProfile
from .scenarios import ImScenario, WrsmScenario

CONFIG_SCHEMA = "driveobs-config/1"

SM_KINDS = ("wrsm", "ipmsm", "spmsm", "syrm", "hesm")


class ConfigError(ValueError):
    """Configuration file is malformed or violates an invariant."""


def _require_keys(block: dict, allowed, where: str, required=()):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _require_numbers(block: dict, defaults: dict, where: str):
    """Reject a value unlike every default of its field (a list per key) if
    one is a number: an int takes an int, a float any number, None null."""
    for key, value in block.items():
        types = {type(d) for d in defaults.get(key, ())}
        if types & {int, float} and type(value) not in types | {int}:
            raise ConfigError(f"{where}.{key} must have the type of "
                              f"{' or '.join(map(repr, defaults[key]))}, "
                              f"got {value!r}")


def _require_finite(block: dict, keys, where: str):
    for key in keys:
        if type(block[key]) not in (int, float) \
                or not abs(block[key]) <= sys.float_info.max:
            raise ConfigError(f"{where}.{key} must be a finite number, got "
                              f"{block[key]!r}")


def _segments_from_json(items, where: str) -> SignalProfile:
    segs = []
    for i, item in enumerate(items):
        _require_keys(item, ("kind", "t0", "t1", "value", "v0", "v1",
                             "offset", "terms"), f"{where}[{i}]",
                      required=("kind", "t0", "t1"))
        kind = item["kind"]
        try:
            if kind == "constant":
                segs.append(Segment.constant(item["t0"], item["t1"],
                                             item.get("value", 0.0)))
            elif kind == "ramp":
                segs.append(Segment.ramp(item["t0"], item["t1"],
                                         item.get("v0", 0.0),
                                         item.get("v1", 0.0)))
            elif kind == "sine":
                segs.append(Segment.sine(item["t0"], item["t1"],
                                         item.get("offset", 0.0),
                                         [tuple(trm) for trm in
                                          item.get("terms", [])]))
            else:
                raise ConfigError(f"{where}[{i}]: unknown segment kind {kind!r}")
        except ValueError as exc:
            raise ConfigError(f"{where}[{i}]: {exc}") from exc
    try:
        return SignalProfile(tuple(segs))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> dict:
    """Load and validate a config file; returns the raw (validated) dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    _require_keys(cfg, ("schema", "machine", "scenario", "check", "sweep",
                        "output"), "config", required=("schema", "machine"))
    if cfg["schema"] != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported schema {cfg['schema']!r}, "
                          f"expected {CONFIG_SCHEMA!r}")
    _require_keys(cfg["machine"], ("kind", "params"), "machine",
                  required=("kind",))
    kind = cfg["machine"]["kind"]
    if kind not in MACHINE_KINDS:
        raise ConfigError(f"unknown machine kind {kind!r}")
    params = cfg["machine"].get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("machine.params must be an object")
    _require_numbers(params, {k: [v] for k, v in params_to_dict(
        DEFAULT_PARAMS[kind]).items()}, "machine.params")
    try:
        params_from_dict(kind, params)
    except ValueError as exc:
        raise ConfigError(f"machine.params: {exc}") from exc
    if "output" in cfg:
        _require_keys(cfg["output"], ("decimate", "plot_script"), "output")
        decimate = cfg["output"].get("decimate", 1)
        if not isinstance(decimate, int) or isinstance(decimate, bool) \
                or decimate < 1:
            raise ConfigError("output.decimate must be at least 1 and an "
                              f"integer, got {decimate!r}")
    for block, validator in (("scenario", _validate_scenario),
                             ("check", _validate_check),
                             ("sweep", _validate_sweep)):
        if block in cfg:
            validator(cfg, cfg[block])


def _scenario_keys(cls) -> tuple:
    """Keys of a scenario block: its type plus every scenario field but the
    machine parameters, which live in the machine block."""
    return ("type",) + tuple(f.name for f in dataclasses.fields(cls)
                             if f.name != "params")


_WRSM_SCENARIO_KEYS = _scenario_keys(WrsmScenario)
_IM_SCENARIO_KEYS = _scenario_keys(ImScenario)
_SCENARIO_DEFAULTS = {}   # the defaults of each field in either scenario
for _f in dataclasses.fields(WrsmScenario) + dataclasses.fields(ImScenario):
    _SCENARIO_DEFAULTS.setdefault(_f.name, []).append(_f.default)


def _validate_scenario(cfg, block):
    _require_keys(block, set(_WRSM_SCENARIO_KEYS) | set(_IM_SCENARIO_KEYS),
                  "scenario", required=("type",))
    stype = block["type"]
    if stype == "wrsm":
        _require_keys(block, _WRSM_SCENARIO_KEYS, "scenario")
        if cfg["machine"]["kind"] != "wrsm":
            raise ConfigError("wrsm scenario requires machine.kind == 'wrsm'")
    elif stype == "im":
        _require_keys(block, _IM_SCENARIO_KEYS, "scenario")
        if cfg["machine"]["kind"] != "im":
            raise ConfigError("im scenario requires machine.kind == 'im'")
    else:
        raise ConfigError(f"unknown scenario type {stype!r}")
    _require_numbers(block, _SCENARIO_DEFAULTS, "scenario")


def _validate_check(cfg, block):
    kind = cfg["machine"]["kind"]
    if kind in SM_KINDS:
        allowed = ("omega", "i_d", "i_q", "i_f", "di_d", "di_q", "di_f",
                   "threshold")
    elif kind == "im":
        allowed = ("mode", "omega_e", "T_m", "psi_rd", "threshold")
    else:
        allowed = ("i_a", "threshold")
    _require_keys(block, allowed, "check")
    if kind == "im" and block.get("mode", "sensorless") not in (
            "sensorless", "with_speed"):
        raise ConfigError("check.mode must be 'sensorless' or 'with_speed'")
    _require_finite(block, sorted(set(block) - {"mode"}), "check")


def _validate_sweep(cfg, block):
    kind = cfg["machine"]["kind"]
    if kind == "im":
        _require_keys(block, ("omega_e", "T_m", "psi_rd", "threshold"),
                      "sweep", required=("omega_e", "T_m"))
        axes = ("omega_e", "T_m")
    elif kind in SM_KINDS:
        _require_keys(block, ("i_d", "i_q", "omega", "i_f", "threshold"),
                      "sweep", required=("i_d", "i_q"))
        axes = ("i_d", "i_q")
    else:
        raise ConfigError("sweep supports SM and IM machines only")
    _require_finite(block, sorted(set(block) - set(axes)), "sweep")
    for axis in axes:
        spec = block[axis]
        _require_keys(spec, ("min", "max", "n"), f"sweep.{axis}",
                      required=("min", "max", "n"))
        _require_finite(spec, ("min", "max"), f"sweep.{axis}")
        if type(spec["n"]) is not int or spec["n"] < 1 \
                or (spec["n"] > 1 and spec["max"] <= spec["min"]):
            raise ConfigError(f"sweep.{axis} grid is degenerate: n must be "
                              "an integer of at least 1 and max above min")


def scenario_from_config(cfg: dict):
    """Build the scenario object described by a validated config."""
    if "scenario" not in cfg:
        raise ConfigError("config has no scenario block")
    block = dict(cfg["scenario"])
    stype = block.pop("type")
    kind = cfg["machine"]["kind"]
    params = params_from_dict(kind, cfg["machine"].get("params", {}))
    kwargs = {}
    if stype == "wrsm":
        profile_keys = {"speed_profile": "scenario.speed_profile",
                        "i_f_profile": "scenario.i_f_profile"}
        tuple_keys = ("ekf_q_diag", "ekf_r_diag", "ekf_p0_diag")
        cls = WrsmScenario
    else:
        profile_keys = {"freq_profile": "scenario.freq_profile",
                        "load_profile": "scenario.load_profile"}
        tuple_keys = ("ekf_q_diag_phys", "x0_est_phys")
        cls = ImScenario
    for key, val in block.items():
        if key in profile_keys:
            kwargs[key] = _segments_from_json(val, profile_keys[key])
        elif key in tuple_keys or key in ("injection_windows", "dwell"):
            kwargs[key] = tuple(tuple(v) if isinstance(v, list) else v
                                for v in val) if key == "injection_windows" \
                else tuple(val)
        else:
            kwargs[key] = val
    try:
        return cls(params=params, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def bundled_config_path(name: str):
    """Filesystem path of a packaged example config."""
    return resources.files("driveobs").joinpath("configs", name)


def load_bundled_config(name: str) -> dict:
    with bundled_config_path(name).open("r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    validate_config(cfg)
    return cfg
