"""Set-up of one workload in a fresh interpreter, then exit.

``run.py`` times this whole process from outside, interpreter start-up
included, and reads the two stage times it prints: the import of
``driveobs.cli`` and, for the scenario workloads, ``load_config`` plus
``scenario_from_config``. For ``oracle_points`` the second stage builds the
eight machine models instead.
"""

import json
import sys
import time

t0 = time.perf_counter()
from driveobs import cli  # noqa: E402
t1 = time.perf_counter()

workload, config = sys.argv[1], sys.argv[2]
if workload == "oracle_points":
    import inputs
    for family in inputs.FAMILIES:
        inputs.family_machine(family)
else:
    cli.scenario_from_config(cli.load_config(config))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_ms": 1e3 * (t2 - t1)}))
