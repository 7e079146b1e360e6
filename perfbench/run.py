"""driveobs benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a fresh process of
its own (``workload.py``) with BLAS/OpenMP pinned to one thread; this
process, which needs only the standard library, writes the seeded configs,
times fresh-interpreter set-ups, times a fixed reference loop before and
after, and prints the result as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

DEADLINE_S = 170.0
SETUP_PROBES = 9          # fresh start-ups per run; setup_s is their median
TRACED_SETUP_PROBES = 5   # per scenario config, for the per-layer set-up stages
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def reference_loop() -> float:
    """Seconds for a fixed stdlib-only loop; shows host drift between runs."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1_000_000):
        acc += math.sin(i * 1e-3) * 0.5
    return time.perf_counter() - t0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def last_json_line(text: str) -> dict:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1])


def run_checked(cmd, env, cwd, timeout) -> str:
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{Path(cmd[1]).name} exited with "
                           f"{proc.returncode}")
    return proc.stdout


def setup_probes(workload: str, config: Path, n: int, env, root: Path,
                 deadline: float) -> tuple:
    """Wall times of ``n`` fresh set-ups, and the stage times they print."""
    walls, stages = [], []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(config)]
    for _ in range(n):
        t0 = time.perf_counter()
        out = run_checked(cmd, env, root, deadline - time.monotonic())
        walls.append(time.perf_counter() - t0)
        stages.append(last_json_line(out))
    return walls, stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd().resolve()
    if not (root / "src" / "driveobs" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/driveobs",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(root)
    ref_before = reference_loop()

    # configs and fresh-interpreter set-up
    scenario_names = (inputs.SCENARIOS if args.trace else
                      [w for w in inputs.SCENARIOS if w == args.workload])
    for name in scenario_names:
        inputs.write_config(name, args.seed, workdir / f"{name}.json")
    metrics = {}
    try:
        if args.trace:
            stages = []
            for name in inputs.SCENARIOS:
                stages += setup_probes(name, workdir / f"{name}.json",
                                       TRACED_SETUP_PROBES, env, root,
                                       deadline)[1]
            metrics["cli.import_s"] = (statistics.median(
                s["import_s"] for s in stages), "s")
            metrics["config.load_ms"] = (statistics.median(
                s["load_ms"] for s in stages), "ms")
        else:
            walls, _ = setup_probes(args.workload,
                                    workdir / f"{args.workload}.json",
                                    SETUP_PROBES, env, root, deadline)
            metrics["setup_s"] = (statistics.median(walls), "s")

        cmd = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--root", str(root)]
        child = last_json_line(run_checked(cmd, env, root,
                                           deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    ref_after = reference_loop()

    if args.trace:
        metrics.update({k: tuple(v) for k, v in child["metrics"].items()})
    else:
        metrics["wall_s"] = (statistics.median(child["walls"]), "s")
        metrics["peak_rss_mb"] = (child["peak_rss_mb"], "MB")
    failures = child["failures"]
    failed = sum(1 for f in failures if f)
    for fails in [f for f in failures if f][:5] + [child["run_failures"]]:
        for msg in fails:
            print(f"perfbench: check failed: {msg}", file=sys.stderr)

    figures = {
        "reference_loop_s.before": ref_before,
        "reference_loop_s.after": ref_after,
        "operations": len(child.get("walls", failures)),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        **child["figures"],
    }
    for name, value in figures.items():
        print(f"figure {name} {value}")
    result = {
        "correct": not child["run_failures"],
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "figures": figures,
                   "walls": child.get("walls")}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
