"""Property test of the command-line contract: whatever the argv and the
config, a run ends in a documented exit code (0, 2, 3 or 4) with no
traceback."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driveobs import cli
from driveobs.config import CONFIG_SCHEMA
from driveobs.params import DEFAULT_PARAMS, SM_KINDS, params_to_dict
from driveobs.scenarios import ImScenario, WrsmScenario

EXIT_CODES = {0, 2, 3, 4}

# numbers of every kind, the non-finite ones included, and values of every
# JSON type a field can wrongly take
NUMBERS = st.one_of(
    st.sampled_from([0, 1, -1, 0.0, -0.5, 1e-300, 1e300, math.nan,
                     math.inf, -math.inf]),
    st.floats(-50.0, 50.0), st.integers(-3, 40))
WRONG = st.one_of(NUMBERS, st.none(), st.booleans(), st.text(max_size=3),
                  st.lists(NUMBERS, max_size=4),
                  st.lists(st.lists(NUMBERS, max_size=4), max_size=2))


def mostly(draw) -> bool:
    """True nine times in ten, so that most draws get past the first check
    and reach the code behind it."""
    return draw(st.integers(0, 9)) > 0


def like(draw, default):
    """A value shaped like a field's default, its numbers drawn from
    ``NUMBERS``; now and then a wrong value of any type."""
    if not mostly(draw):
        return draw(WRONG)
    if isinstance(default, tuple):
        return [like(draw, d) for d in default]
    if isinstance(default, bool):
        return draw(st.booleans())
    if default is None or isinstance(default, (int, float)):
        return draw(NUMBERS)
    return draw(WRONG)


def scaled(draw, default):
    """A machine parameter: its default scaled by a factor, now and then
    ``like`` it."""
    if type(default) is float and mostly(draw):
        return default * draw(st.sampled_from(
            [0.5, 0.9, 1.1, 2.0, 0.0, -1.0, 1e-300, 1e300]))
    return like(draw, default)


def segments(draw, t_end):
    segment = st.fixed_dictionaries(
        {"kind": st.sampled_from(["constant", "ramp", "sine", "step"]),
         "t0": st.one_of(st.just(0.0), NUMBERS),
         "t1": st.one_of(st.just(t_end), st.just(math.inf), NUMBERS)},
        optional={"value": NUMBERS, "v0": NUMBERS, "v1": NUMBERS,
                  "offset": NUMBERS, "terms": st.lists(st.lists(
                      NUMBERS, min_size=3, max_size=3), max_size=2)})
    return draw(st.lists(segment, min_size=1, max_size=3)) if mostly(draw) \
        else draw(WRONG)


# fields that set the cost of a run stay at their defaults or take one of a
# few values, or a wrong value that cannot be a long run; t_end is drawn at
# most 20 ms, 2 ms and below included
COSTLY = {"t_end": (0.0, 1e-5, 2e-3, 1e-2), "dt_sim": (1e-5, 1e-4),
          "trace_dt": (1e-4, 1e-3)}
WRONG_COSTLY = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.sampled_from([0, -1, 0.0, -1e-3, math.nan,
                                          math.inf, -math.inf]))
SCENARIOS = {"wrsm": WrsmScenario, "im": ImScenario}
PROFILES = ("speed_profile", "i_f_profile", "freq_profile", "load_profile")


def scenario_block(draw, kind):
    fields = {f.name: f.default for f in dataclasses.fields(SCENARIOS[kind])
              if f.name not in ("params",) + tuple(COSTLY)}
    t_end = draw(st.one_of(st.floats(-0.002, 0.02),
                           st.sampled_from(COSTLY["t_end"])))
    block = {"type": kind if mostly(draw) else draw(WRONG),
             "t_end": t_end if mostly(draw) else draw(WRONG_COSTLY)}
    for key in draw(st.lists(st.sampled_from(sorted(fields) + ["bogus"]),
                             unique=True, max_size=3)):
        block[key] = segments(draw, t_end) if key in PROFILES \
            else like(draw, fields.get(key))
    for key in draw(st.lists(st.sampled_from(["dt_sim", "trace_dt"]),
                             unique=True, max_size=1)):
        block[key] = draw(st.sampled_from(COSTLY[key])) if mostly(draw) \
            else draw(WRONG_COSTLY)
    return block


def point_blocks(draw, kind):
    if kind == "im":
        keys = ["mode", "omega_e", "T_m", "psi_rd", "threshold"]
    elif kind in SM_KINDS:
        keys = ["omega", "i_d", "i_q", "i_f", "di_d", "di_q", "di_f",
                "threshold"]
    else:
        keys = ["i_a", "threshold"]
    check = {key: draw(st.sampled_from(["sensorless", "with_speed"]))
             if key == "mode" and mostly(draw) else like(draw, 0.0)
             for key in draw(st.lists(st.sampled_from(keys + ["bogus"]),
                                      unique=True, max_size=3))}
    sweep = {axis: {"min": like(draw, 0.0), "max": like(draw, 0.0),
                    "n": draw(st.integers(-1, 6)) if mostly(draw)
                    else draw(WRONG)}
             for axis in (("omega_e", "T_m") if kind == "im"
                          else ("i_d", "i_q"))}
    if not mostly(draw):
        sweep["psi_rd" if kind == "im" else "omega"] = like(draw, 0.0)
    return check, sweep


@st.composite
def configs(draw, command):
    """A config for ``command``: mostly of a machine kind it serves, with
    the block it reads and now and then another one."""
    kinds = {"simulate": ["wrsm", "im"],
             "sweep": ["im", *SM_KINDS]}.get(command, sorted(DEFAULT_PARAMS))
    kind = draw(st.sampled_from(kinds if mostly(draw)
                                else sorted(DEFAULT_PARAMS)))
    defaults = params_to_dict(DEFAULT_PARAMS[kind])
    params = {key: scaled(draw, defaults.get(key)) for key in draw(st.lists(
        st.sampled_from(sorted(defaults) + ["bogus"]), unique=True,
        max_size=2))}
    cfg = {"schema": CONFIG_SCHEMA,
           "machine": {"kind": kind, "params": params}}
    check, sweep = point_blocks(draw, kind)
    blocks = {"check": check, "sweep": sweep,
              "output": {"decimate": draw(st.integers(1, 5)) if mostly(draw)
                         else draw(WRONG),
                         "plot_script": draw(st.booleans())}}
    if kind in SCENARIOS:
        blocks["scenario"] = scenario_block(draw, kind)
    own = {"simulate": ("scenario", "output")}.get(command, (command,))
    for name, block in blocks.items():
        if (name in own) == mostly(draw):
            cfg[name] = block
    # now and then drop or add a top-level key, or spoil a block
    if not mostly(draw):
        del cfg[draw(st.sampled_from(sorted(cfg)))]
    if not mostly(draw):
        cfg[draw(st.sampled_from(["bogus", "schema", "machine", "scenario",
                                  "check", "sweep", "output"]))] = \
            draw(WRONG)
    return cfg


OPTIONS = {"simulate": {"--decimate": st.integers(1, 5),
                        "--seed": st.integers(0, 2**70)},
           "check": {"--threshold": st.floats(1e-3, 10.0)},
           "sweep": {}}
WRONG_OPTION_VALUES = st.one_of(
    st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e999", "2.5", "x",
                     ""]),
    st.integers(-2**70, 2**70))


@st.composite
def runs(draw):
    """An argv and the config file it names: mostly a command with its own
    options and a config for it. ``--config`` and ``--out`` are followed by
    placeholders that the test turns into paths."""
    command = draw(st.sampled_from(sorted(OPTIONS))) if mostly(draw) \
        else draw(st.sampled_from(["bogus", "-h", ""]))
    own = OPTIONS.get(command, {})
    argv = [command]
    for option in draw(st.lists(st.sampled_from(sorted(own)), unique=True)
                       if own and mostly(draw) else st.just([]) if mostly(draw)
                       else st.lists(st.sampled_from(
                           ["--decimate", "--seed", "--threshold",
                            "--bogus"]), unique=True, max_size=2)):
        value = draw(own[option]) if option in own and mostly(draw) \
            else draw(WRONG_OPTION_VALUES)
        argv += [option, str(value)]
    argv.append("--config")
    if (command != "check") == mostly(draw):
        argv.append("--out")
    if not mostly(draw):
        argv.pop(draw(st.integers(1, len(argv) - 1)))
    text = json.dumps(draw(configs(command))) if mostly(draw) \
        else draw(st.sampled_from(["", "{", "[]", "null", "3"]))
    return argv, text, mostly(draw)


def run_cli(argv):
    """Exit code and standard error of ``driveobs argv``. numpy's
    RuntimeWarnings at extreme inputs print as they do from the console
    script, instead of failing the run as they do elsewhere in the suite."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:    # argparse's usage errors and --help
            code = exc.code
    return code, err.getvalue()


def run_in(tmp, argv, text, config_exists):
    """Write ``text`` as the config (or not) and run ``argv`` with its
    placeholders replaced; returns the exit code and the standard error."""
    config = Path(tmp) / "cfg.json"
    config.write_text(text)
    paths = {"--config": str(config if config_exists
                             else Path(tmp) / "missing.json"),
             "--out": str(Path(tmp) / "out")}
    return run_cli([a for opt in argv
                    for a in ((opt, paths[opt]) if opt in paths else (opt,))])


# derandomized, so that every run of the suite draws the same examples
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_any_argv_and_config_ends_in_a_documented_exit_code(run):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_in(tmp, *run)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err, err
