"""Byte identity of the command outputs, as a committed check.

``tests/golden.json`` holds the SHA-256 of the exit code and standard
output of ``check`` at each machine kind's defaults and on
``dcm_sanity.json``, and of the ``sweep.csv`` that ``sweep`` writes from
``sweep_line.json`` and from a WRSM grid with a field current. It also
records the numpy version and the machine (``platform.machine()``) that
wrote it, since the last digits of a float can differ across either.

A change that moves one of these outputs on purpose rewrites the manifest,
from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and says which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from driveobs.cli import main
from driveobs.config import CONFIG_SCHEMA, bundled_config_path
from driveobs.params import MACHINE_KINDS

MANIFEST = Path(__file__).with_name("golden.json")
AXIS = {"min": -10.0, "max": 10.0, "n": 21}

CASES = {
    **{f"check/{kind}": ("check", {"schema": CONFIG_SCHEMA,
                                   "machine": {"kind": kind}, "check": {}})
       for kind in MACHINE_KINDS},
    "check/dcm_sanity.json": ("check", "dcm_sanity.json"),
    "sweep/sweep_line.json": ("sweep", "sweep_line.json"),
    "sweep/wrsm_field": ("sweep", {"schema": CONFIG_SCHEMA,
                                   "machine": {"kind": "wrsm"},
                                   "sweep": {"i_d": AXIS, "i_q": AXIS,
                                             "omega": 100.0, "i_f": 4.0}}),
}


def digest(name: str) -> str:
    """The SHA-256 of a case's output: ``check``'s exit code and standard
    output, or the bytes of ``sweep.csv`` after an exit code of 0."""
    command, config = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(config, str):
            path = str(bundled_config_path(config))
        else:
            path = str(Path(tmp) / "config.json")
            Path(path).write_text(json.dumps(config), encoding="utf-8")
        out = io.StringIO()
        argv = [command, "--config", path]
        if command == "sweep":
            argv += ["--out", tmp]
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if command == "check":
            data = f"{code}\n{out.getvalue()}".encode()
        else:
            assert code == 0
            data = (Path(tmp) / "sweep.csv").read_bytes()
    return hashlib.sha256(data).hexdigest()


def platform_tags() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_case(manifest):
    assert sorted(manifest["digests"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_manifest(manifest, name):
    recorded = {key: manifest[key] for key in platform_tags()}
    assert digest(name) == manifest["digests"][name], (
        f"{name} moved; the manifest was written with {recorded}, this run "
        f"has {platform_tags()}. If the change is intended, rewrite it with "
        "`PYTHONPATH=src python tests/test_golden.py`")


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(
        {**platform_tags(), "digests": {name: digest(name)
                                        for name in sorted(CASES)}},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
