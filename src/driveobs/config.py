"""JSON run configuration: strict validation and scenario construction.

The schema is versioned; unknown keys are rejected everywhere so that typos
fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from importlib import resources

from .params import (DEFAULT_PARAMS, MACHINE_KINDS, SM_KINDS,
                     params_from_dict, params_to_dict)
from .profiles import Segment, SignalProfile
from .scenarios import SPECS

CONFIG_SCHEMA = "driveobs-config/1"


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


def _finite(value) -> bool:
    """Whether a value is a number (an int or a float, not a bool) and
    neither infinite nor NaN."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _list_like(value, default: tuple) -> bool:
    """Whether a value is a list shaped like a tuple default: as many finite
    numbers as a tuple of numbers has, any count of such lists for a tuple
    of tuples."""
    if not isinstance(value, list):
        return False
    if default and type(default[0]) is tuple:
        return all(_list_like(v, default[0]) for v in value)
    return len(value) == len(default) and all(map(_finite, value))


def _require_numbers(block: dict, defaults: dict, where: str):
    """Reject a value unlike every default of its field (a list per key) if
    one is a number, a bool or a tuple: an int takes an int, a float any
    number, a bool a bool, None null, a tuple a list of its shape
    (``_list_like``). Every number must be finite."""
    for key, value in block.items():
        types = {type(d) for d in defaults.get(key, ())}
        if float in types:
            types.add(int)
        if types & {int, float, bool} and type(value) not in types:
            raise ConfigError(f"{where}.{key} must have the type of "
                              f"{' or '.join(map(repr, defaults[key]))}, "
                              f"got {value!r}")
        if type(value) in (int, float):
            _require_finite(block, (key,), where)
        for d in defaults.get(key, ()):
            if type(d) is tuple and not _list_like(value, d):
                shape = f"lists of {len(d[0])} finite numbers" \
                    if type(d[0]) is tuple else f"{len(d)} finite numbers"
                raise ConfigError(f"{where}.{key} must be a list of {shape}, "
                                  f"got {value!r}")


def _require_finite(block: dict, keys, where: str):
    for key in keys:
        if not _finite(block[key]):
            raise ConfigError(f"{where}.{key} must be a finite number, got "
                              f"{block[key]!r}")


# the keys of each segment kind with their defaults, in the order of the
# arguments after t0, t1 of the Segment classmethod of that name
_SEGMENT_KEYS = {"constant": {"value": 0.0}, "ramp": {"v0": 0.0, "v1": 0.0},
                 "sine": {"offset": 0.0, "terms": ()}}


def _segments_from_json(items, where: str) -> SignalProfile:
    if not isinstance(items, list):
        raise ConfigError(f"{where} must be a list of segments, got {items!r}")
    segs = []
    for i, item in enumerate(items):
        at = f"{where}[{i}]"
        kind = item.get("kind") if isinstance(item, dict) else None
        if not isinstance(kind, str) or kind not in _SEGMENT_KEYS:
            raise ConfigError(f"{at} must be an object with a kind of "
                              f"{sorted(_SEGMENT_KEYS)}, got {item!r}")
        keys = _SEGMENT_KEYS[kind]
        _require_keys(item, ("kind", "t0", "t1", *keys), at,
                      required=("t0", "t1"))
        _require_finite(item, sorted(set(item) - {"kind", "terms"}), at)
        if not _list_like(item.get("terms", []), ((0.0, 0.0, 0.0),)):
            raise ConfigError(f"{at}.terms must be a list of "
                              "[amplitude, omega, phase] lists of finite "
                              "numbers")
        try:
            segs.append(getattr(Segment, kind)(
                item["t0"], item["t1"],
                *(item.get(key, val) for key, val in keys.items())))
        except ValueError as exc:
            raise ConfigError(f"{at}: {exc}") from exc
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
    except (ValueError, ArithmeticError) as exc:   # overflow at extremes
        raise ConfigError(f"machine.params: {exc}") from exc
    if "output" in cfg:
        _require_keys(cfg["output"], ("decimate", "plot_script"), "output")
        decimate = cfg["output"].get("decimate", 1)
        if not isinstance(decimate, int) or isinstance(decimate, bool) \
                or decimate < 1:
            raise ConfigError("output.decimate must be at least 1 and an "
                              f"integer, got {decimate!r}")
        if not isinstance(cfg["output"].get("plot_script", True), bool):
            raise ConfigError("output.plot_script must be true or false, "
                              f"got {cfg['output']['plot_script']!r}")
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


# the scenario class of each scenario type, which is also its machine kind
_SCENARIOS = {kind: spec.scenario for kind, spec in SPECS.items()}
_SCENARIO_DEFAULTS = {}   # the defaults of each field in any scenario
for _f in (f for cls in _SCENARIOS.values() for f in dataclasses.fields(cls)):
    _SCENARIO_DEFAULTS.setdefault(_f.name, []).append(_f.default)


def _validate_scenario(cfg, block):
    _require_keys(block, {key for cls in _SCENARIOS.values()
                          for key in _scenario_keys(cls)},
                  "scenario", required=("type",))
    stype = block["type"]
    if stype not in _SCENARIOS:
        raise ConfigError(f"unknown scenario type {stype!r}")
    _require_keys(block, _scenario_keys(_SCENARIOS[stype]), "scenario")
    if cfg["machine"]["kind"] != stype:
        raise ConfigError(f"{stype} scenario requires machine.kind == "
                          f"{stype!r}")
    _require_numbers(block, _SCENARIO_DEFAULTS, "scenario")


def _validate_check(cfg, block):
    kind = cfg["machine"]["kind"]
    if kind in SM_KINDS:
        allowed = ("omega", "i_d", "i_q", "di_d", "di_q", "threshold") + (
            ("i_f", "di_f") if DEFAULT_PARAMS[kind].has_field else ())
    elif kind == "im":
        allowed = ("mode", "omega_e", "T_m", "psi_rd", "threshold")
    else:
        allowed = ("i_a", "threshold")
    _require_keys(block, allowed, "check")
    if kind == "im" and block.get("mode", "sensorless") not in (
            "sensorless", "with_speed"):
        raise ConfigError("check.mode must be 'sensorless' or 'with_speed'")
    _require_finite(block, sorted(set(block) - {"mode"}), "check")
    if "threshold" in block and block["threshold"] <= 0:
        raise ConfigError("check.threshold must be above 0, got "
                          f"{block['threshold']!r}")


def _validate_sweep(cfg, block):
    kind = cfg["machine"]["kind"]
    if kind == "im":
        _require_keys(block, ("omega_e", "T_m", "psi_rd"), "sweep",
                      required=("omega_e", "T_m"))
        axes = ("omega_e", "T_m")
    elif kind in SM_KINDS:
        _require_keys(block, ("i_d", "i_q", "omega") + (
            ("i_f",) if DEFAULT_PARAMS[kind].has_field else ()), "sweep",
            required=("i_d", "i_q"))
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


def _tuples(value):
    """A JSON list as a tuple, a list of lists as a tuple of tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def scenario_from_config(cfg: dict):
    """Build the scenario object described by a validated config: each
    ``*_profile`` key from its segments, each list as a tuple."""
    if "scenario" not in cfg:
        raise ConfigError("config has no scenario block")
    block = dict(cfg["scenario"])
    cls = _SCENARIOS[block.pop("type")]
    kind = cfg["machine"]["kind"]
    params = params_from_dict(kind, cfg["machine"].get("params", {}))
    kwargs = {key: _segments_from_json(val, f"scenario.{key}")
              if key.endswith("_profile") else _tuples(val)
              for key, val in block.items()}
    try:
        return cls(params=params, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def bundled_config_path(name: str):
    """Filesystem path of a packaged example config."""
    return resources.files("driveobs").joinpath("configs", name)
