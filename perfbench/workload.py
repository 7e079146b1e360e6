"""One workload in one fresh process: timed operations, then checks.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. It prints one JSON line with the operation times, the peak resident
set and the check results; ``run.py`` turns that into the benchmark result.

Each operation is checked right after it, outside its timed region, and its
output is then dropped, so memory and disk use stay flat however many
operations a run makes. The checks allocate less than an operation (an
``im_zero_freq`` run peaks at 54 MB after its first ``simulate`` and stays
there through the check), so the peak resident set is the program's.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import inputs


def _import_checked(root: Path):
    import driveobs
    src = (root / "src").resolve()
    if src not in Path(driveobs.__file__).resolve().parents:
        raise SystemExit(f"driveobs imported from {driveobs.__file__}, "
                         f"not from {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(workload, seconds: float) -> tuple:
    """Run whole rounds of ``workload(k)``, each followed by the untimed
    ``workload.check(k)``, until another round would take the timed total
    past ``seconds``; at least one. Returns the wall time of each round and
    the process CPU time over the wall time of all rounds."""
    walls, cpu = [], 0.0
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        workload(len(walls))
        walls.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        workload.check(len(walls) - 1)
        if sum(walls) + walls[-1] > seconds:
            return walls, cpu / sum(walls)


# ---------------------------------------------------------------------------
# scenario workloads


class ScenarioRunner:
    """``driveobs simulate`` through ``driveobs.cli.main``, in-process.

    The scenario function the CLI calls is wrapped once so that the
    scenario object, the run's meta facts and, for WRSM, the full-rate
    columns the checks need are kept; the wrapper adds one call per run.
    """

    def __init__(self, workload: str, config: Path, seed: int, workdir: Path,
                 keep_trace: bool = False):
        from driveobs import cli
        self.cli = cli
        self.workload = workload
        self.config = config
        self.seed = seed
        self.workdir = workdir
        self.keep_trace = keep_trace
        self.attr = ("run_wrsm_scenario" if workload == "wrsm_standstill"
                     else "run_im_scenario")
        self.captured = {}
        self.errors = {}
        self.failures = []
        self.hashes = []
        self._op = None
        inner = self._inner = getattr(cli, self.attr)

        def capture(scenario):
            trace = inner(scenario)
            self.captured[self._op] = self._extract(scenario, trace)
            return trace

        setattr(cli, self.attr, capture)

    def _extract(self, scenario, trace) -> dict:
        kept = {"scenario": scenario, "meta": dict(trace.meta)}
        if self.keep_trace:
            kept["trace"] = trace
        if self.workload == "wrsm_standstill":
            kept["margin"] = trace["margin"].copy()
            kept["obs_violated"] = trace["obs_violated"].copy()
            kept["decimated"] = {
                name: col[::inputs.WRSM_DECIMATE].copy()
                for name, col in trace.columns.items()}
        return kept

    def out_dir(self, op: int) -> Path:
        return self.workdir / f"op{op:03d}"

    def __call__(self, op: int):
        self._op = op
        argv = ["simulate", "--config", str(self.config),
                "--out", str(self.out_dir(op))]
        if self.workload == "im_zero_freq":
            argv += ["--seed", str(self.seed)]
        try:
            rc = self.cli.main(argv)
        except Exception as exc:   # an operation that raises has failed
            self.errors[op] = f"simulate raised {exc!r}"
            return
        if rc != 0:
            self.errors[op] = f"simulate exited with {rc}"

    def check(self, op: int):
        """Check one operation, record its failures and trace hash, then
        drop its output."""
        fails, digest = self._check(op)
        self.failures.append(fails)
        self.hashes.append(digest)
        if not self.keep_trace:
            self.captured.pop(op, None)
            shutil.rmtree(self.out_dir(op), ignore_errors=True)

    def _check(self, op: int) -> tuple:
        if op in self.errors:
            return [self.errors[op]], None
        out = self.out_dir(op)
        with open(out / "summary.json", encoding="ascii") as fh:
            summary = json.load(fh)
        names, data = checks.read_csv(out / "trace.csv")
        kept = self.captured[op]
        if self.workload == "wrsm_standstill":
            fails = checks.check_wrsm(summary, kept["meta"], kept["margin"],
                                      kept["obs_violated"], kept["decimated"],
                                      names, data)
        else:
            fails = checks.check_im(summary, kept["meta"], names, data,
                                    kept["scenario"].params)
        return fails, checks.file_sha256(out / "trace.csv")

    def close(self):
        setattr(self.cli, self.attr, self._inner)
        for path in self.workdir.glob("op*"):
            shutil.rmtree(path, ignore_errors=True)

    def hash_failures(self) -> list:
        distinct = sorted({h for h in self.hashes if h is not None})
        return ([] if len(distinct) <= 1 else
                [f"{self.workload}: trace hashes differ between operations: "
                 f"{distinct}"])


def run_scenario(workload, config, seed, seconds, workdir) -> dict:
    runner = ScenarioRunner(workload, config, seed, workdir)
    walls, cpu_share = timed_rounds(runner, seconds)
    rss = peak_rss_mb()
    runner.close()
    return {"walls": walls, "peak_rss_mb": rss, "failures": runner.failures,
            "run_failures": runner.hash_failures(),
            "figures": {"cpu_over_wall": cpu_share, "trace_sha256": next(
                (h for h in runner.hashes if h is not None), None)}}


# ---------------------------------------------------------------------------
# oracle workload


class OracleBatch:
    """One batch of ``observability_report`` calls over the seeded points."""

    def __init__(self, seed: int):
        from driveobs.observability import (OBS_THRESHOLD_DEFAULT,
                                            observability_report)
        self.report = observability_report
        self.threshold = OBS_THRESHOLD_DEFAULT
        self.points = inputs.oracle_points(seed)
        self.machines = {f: inputs.family_machine(f) for f in inputs.FAMILIES}
        self.results = None
        self.failures = []

    def call(self, point):
        return self.report(self.machines[point["family"]], point["x"],
                           point["u"], point["u_dot"],
                           speed_measured=point["family"] == "im_with_speed")

    def __call__(self, op: int):
        self.results = []
        for point in self.points:
            try:
                self.results.append(self.call(point))
            except Exception as exc:   # a report that raises has failed
                self.results.append(exc)

    def check(self, op: int):
        """Check the last batch; one failure list per report."""
        for point, rep in zip(self.points, self.results):
            if isinstance(rep, Exception):
                self.failures.append([f"{point['family']} {point['case']} "
                                      f"raised {rep!r}"])
            else:
                self.failures.append(checks.check_report(
                    point, rep, self.machines[point["family"]],
                    self.threshold))
        self.results = None


def run_oracle(seed, seconds) -> dict:
    batch = OracleBatch(seed)
    walls, cpu_share = timed_rounds(batch, seconds)
    return {"walls": walls, "peak_rss_mb": peak_rss_mb(),
            "failures": batch.failures, "run_failures": [],
            "figures": {"cpu_over_wall": cpu_share,
                        "points_per_batch": len(batch.points)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    root, workdir = Path(args.root), Path(args.workdir)
    _import_checked(root)
    if args.trace:
        import layers
        result = layers.traced_run(args.seed, workdir)
    elif args.workload == "oracle_points":
        result = run_oracle(args.seed, args.seconds)
    else:
        config = workdir / f"{args.workload}.json"
        result = run_scenario(args.workload, config, args.seed, args.seconds,
                              workdir)
    import numpy
    result["figures"]["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
