"""Traced run: spans around each layer call and per-layer replays.

Every traced run covers all three workloads, whichever ``--workload`` names,
so that it can print every per-layer metric. For each scenario it runs
``simulate`` once untraced and once with spans around the calls the CLI
makes into ``config``, ``scenarios``, ``summary`` and ``trace``; the
difference of the two wall times is the tracing overhead. It then replays
each inner layer from outside through its public functions on the inputs and
measurements of the traced run: profile lookups at the times the scenario
samples them, the plant without filters, each filter over the recorded
inputs, and the closed-form channels over the trace. The oracle workload is
traced per report and per observability matrix.

Spans (name, start, end, parent) stay in memory and are written to
``spans.json`` in the run directory when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from contextlib import contextmanager

import numpy as np

import checks
import inputs
from workload import OracleBatch, ScenarioRunner

LIE_REPEATS = 3
# The physical-coordinate integration rounds differently from the scaled
# one; over the 2.7 s run the two agree to about 1e-14 of each column's
# largest magnitude. The scaled one repeats the scenario's arithmetic.
TRUTH_UNSCALED_RTOL = 1e-10
TRUTH_SCALED_RTOL = 1e-12
REPLAY_RTOL = 1e-6
ROW_FAMILY = {"wrsm": "sm_field", "ipmsm": "sm_brushless",
              "spmsm": "sm_brushless", "syrm": "sm_brushless",
              "im_with_speed": "im_with_speed",
              "im_sensorless": "im_sensorless",
              "pm_dcm": "dcm", "series_dcm": "dcm"}


class Spans:
    """In-memory span records: id, name, parent id, start and end."""

    def __init__(self):
        self.records = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.records), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str, parent=None) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name
                   and (parent is None or r["parent"] == parent["id"]))

    def count(self, name: str) -> int:
        return sum(1 for r in self.records if r["name"] == name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records, fh)


@contextmanager
def wrapped(spans: Spans, targets):
    """Replace ``owner.attr`` by a span-recording wrapper for each
    ``(owner, attr, span_name)``; the originals come back on exit."""
    saved = []
    for owner, attr, name in targets:
        inner = getattr(owner, attr)

        def wrapper(*args, _inner=inner, _name=name, **kwargs):
            with spans.span(_name):
                return _inner(*args, **kwargs)

        saved.append((owner, attr, inner))
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, inner in reversed(saved):
            setattr(owner, attr, inner)


# ---------------------------------------------------------------------------
# replays


def _step_times(sc):
    n = int(round(sc.t_end / sc.dt_sim))
    times = [s * sc.dt_sim for s in range(n + 1)]
    h = sc.dt_sim
    return n, times, [t + 0.5 * h for t in times[:-1]], \
        [t + h for t in times[:-1]]


def replay_profiles(spans, tag, sc) -> int:
    """Profile lookups at the times the scenario makes them; returns the
    lookup count."""
    n, times, mids, ends = _step_times(sc)
    if tag == "wrsm":
        sv, si = sc.speed_profile.value, sc.speed_profile.integral
        fv, fd = sc.i_f_profile.value, sc.i_f_profile.derivative
        with spans.span("profiles.lookups"):
            for t in times:
                sv(t), si(t), fv(t), fd(t)
            for t in mids:
                sv(t), si(t)
            for t in ends:
                sv(t), si(t)
        return 4 * len(times) + 4 * n
    fv, fi = sc.freq_profile.value, sc.freq_profile.integral
    lv = sc.load_profile.value
    n_sub = int(round(sc.trace_dt / sc.dt_sim))
    rows = times[::n_sub]
    with spans.span("profiles.lookups"):
        for t in times:
            lv(t), fv(t), fi(t)
        for t in rows:
            fv(t)
        for t in mids:
            fv(t), fi(t)
        for t in ends:
            fv(t), fi(t)
    return 3 * len(times) + len(rows) + 4 * n


def _replay_filter(spans, name, inst, U, Y):
    from driveobs.ekf import ekf_predict, ekf_update
    with spans.span(name):
        for k in range(1, len(Y)):
            inst = ekf_predict(inst, U[k - 1])
            inst, _ = ekf_update(inst, Y[k])
    return inst


def _close(a, b) -> bool:
    return abs(a - b) <= REPLAY_RTOL * max(1.0, abs(b))


def replay_wrsm(spans, sc, trace) -> tuple:
    """Plant, filter and channels of the WRSM run; returns (plant steps,
    filter steps, channel samples, replay mismatches)."""
    from driveobs.ekf import EkfConfig, make_ekf
    from driveobs.machines import SynchronousMachine
    from driveobs.observability import sm_condition_ratio, sm_determinant
    from driveobs.scenarios import run_wrsm_scenario, wrsm_current_rates

    n_steps = int(round(sc.t_end / sc.dt_sim))
    with spans.span("scenarios.plant"):
        run_wrsm_scenario(dataclasses.replace(sc, run_ekf=False))

    c = trace.columns
    x0 = np.array([c["i_sa"][0], c["i_sb"][0], c["i_f"][0], 0.0,
                   sc.speed_profile.integral(0.0) + sc.theta0_error])
    cfg = EkfConfig(Q=np.diag(sc.ekf_q_diag), R=np.diag(sc.ekf_r_diag),
                    P0=np.diag(sc.ekf_p0_diag), x0=x0, Ts=sc.trace_dt)
    U = np.column_stack([c["v_sa"], c["v_sb"], c["v_f"]])
    Y = np.column_stack([c["i_sa"], c["i_sb"], c["i_f"]])
    inst = _replay_filter(spans, "ekf.wrsm",
                          make_ekf(SynchronousMachine(sc.params), cfg), U, Y)
    mismatch = [] if _close(inst.x[3], c["ekf_omega"][-1]) else [
        "WRSM filter replay ends away from the traced estimate"]

    p = sc.params
    rates = wrsm_current_rates(p)
    rows = []
    for k in range(len(c["t"])):
        w, th = c["omega"][k], c["theta"][k]
        i_d, i_q = c["i_sd"][k], c["i_sq"][k]
        dia, dib, dif = rates(c["i_sa"][k], c["i_sb"][k], c["i_f"][k], w, th,
                              c["v_sa"][k], c["v_sb"][k], c["v_f"][k])
        c1, s1 = math.cos(th), math.sin(th)
        rows.append((w, i_d, i_q, c["i_f"][k], (c1 * dia + s1 * dib) + w * i_q,
                     (-s1 * dia + c1 * dib) - w * i_d, dif))
    with spans.span("observability.channels"):
        for w, i_d, i_q, i_f, did, diq, dif in rows:
            sm_determinant(p, w, i_d, i_q, i_f, did, diq, dif)
            sm_condition_ratio(p, i_d, i_q, i_f)
    return n_steps, len(Y) - 1, len(rows), mismatch


def _im_filter_config(sc, machine, speed_measured):
    from driveobs.ekf import EkfConfig
    S = machine.scale_vector
    r = [sc.ekf_r_current_phys * S[0]**2, sc.ekf_r_current_phys * S[1]**2]
    if speed_measured:
        r.append(sc.ekf_r_speed)
    return EkfConfig(Q=np.diag(np.asarray(sc.ekf_q_diag_phys) * sc.trace_dt
                               * S**2),
                     R=np.diag(r), P0=np.diag(sc.ekf_p0_phys * S**2),
                     x0=np.asarray(sc.x0_est_phys, float) * S, Ts=sc.trace_dt)


def replay_im(spans, sc, trace, op_failures) -> tuple:
    """Plant, both filters and channels of the IM run; checks the truth
    against both integrations. Returns (plant steps, filter steps per
    filter, channel samples, replay mismatches)."""
    from driveobs.ekf import make_ekf
    from driveobs.machines import InductionMachine
    from driveobs.observability import (im_condition, im_determinant,
                                        slip_frequency)
    from driveobs.scenarios import im_rates, run_im_truth

    n_steps = int(round(sc.t_end / sc.dt_sim))
    with spans.span("scenarios.plant"):
        truth = run_im_truth(sc)
    c = trace.columns
    op_failures += checks.check_truth(truth.columns, c, TRUTH_SCALED_RTOL)
    with spans.span("check.im_truth_unscaled"):
        physical = run_im_truth(sc, scaled=False)
    op_failures += checks.check_truth(physical.columns, c, TRUTH_UNSCALED_RTOL)

    p = sc.params
    machine = InductionMachine(p)
    L_sig, kr = p.L_sigma, p.k_r
    n = len(c["t"])
    noise = (np.random.default_rng(sc.seed).normal(
        0.0, sc.noise_std * L_sig, (n, 2)) if sc.noise_std > 0
        else np.zeros((n, 2)))
    y_i = np.column_stack([c["i_sa"], c["i_sb"]]) * L_sig + noise
    U = np.column_stack([c["v_sa"], c["v_sb"]])
    mismatch = []
    for tag, speed_measured in (("spd", True), ("sl", False)):
        Y = np.column_stack([y_i, c["omega_e"]]) if speed_measured else y_i
        inst = make_ekf(machine, _im_filter_config(sc, machine, speed_measured),
                        speed_measured=speed_measured)
        inst = _replay_filter(spans, f"ekf.im_{tag}", inst, U, Y)
        if not _close(inst.x[4], c[f"{tag}_omega_e"][-1]):
            mismatch.append(f"IM {tag} filter replay ends away from the "
                            "traced estimate")

    rates = im_rates(p)
    rows = []
    for k in range(n):
        x = np.array([c["i_sa"][k] * L_sig, c["i_sb"][k] * L_sig,
                      c["psi_ra"][k] * kr, c["psi_rb"][k] * kr,
                      c["omega_e"][k], c["T_r"][k]])
        xdot = np.array(rates(*x, c["v_sa"][k], c["v_sb"][k]) + (0.0,))
        rows.append((x, xdot, c["omega_s"][k], c["T_m"][k], c["psi_rd"][k]))
    with spans.span("observability.channels"):
        for x, xdot, omega_s, T_m, psi_rd in rows:
            im_determinant(p, "with_speed", x, xdot)
            im_determinant(p, "sensorless", x, xdot)
            im_condition(p, x[4], xdot[4], omega_s)
            if psi_rd > 1e-9:
                slip_frequency(p, T_m, psi_rd)
    return n_steps, n - 1, n, mismatch


# ---------------------------------------------------------------------------
# traced workloads


def trace_scenario(spans, name, seed, workdir, failures, run_failures) -> dict:
    from driveobs import cli
    from driveobs.trace import SimTrace

    tag = "wrsm" if name == "wrsm_standstill" else "im"
    runner = ScenarioRunner(name, workdir / f"{name}.json", seed, workdir,
                            keep_trace=True)
    out = {}
    with spans.span(name):
        t0 = time.perf_counter()
        runner(0)
        out["wall_s"] = time.perf_counter() - t0
        targets = [(cli, "load_config", "config.load_config"),
                   (cli, "scenario_from_config", "config.scenario_from_config"),
                   (cli, runner.attr, f"scenarios.{runner.attr}"),
                   (cli, "summarize", "summary.summarize"),
                   (cli, "write_summary", "trace.write_summary"),
                   (cli, "_write_plot_script", "cli.write_plot_script"),
                   (SimTrace, "to_csv", "trace.to_csv")]
        with spans.span("cli.simulate") as op, wrapped(spans, targets):
            t0 = time.perf_counter()
            runner(1)
            out["traced_wall_s"] = time.perf_counter() - t0
        out["csv_s"] = spans.total("trace.to_csv", op)
        out["summarize_s"] = spans.total("summary.summarize", op)
        out["csv_mb"] = (runner.out_dir(1) / "trace.csv").stat().st_size / 1e6
        runner.check(0)
        runner.check(1)
        run_failures += runner.hash_failures()
        out["sha256"] = runner.hashes[1]
        ops = runner.failures
        if 1 in runner.captured:
            kept = runner.captured[1]
            sc, trace = kept["scenario"], kept["trace"]
            out["lookups"] = replay_profiles(spans, tag, sc)
            if tag == "wrsm":
                steps, filt, rows, mismatch = replay_wrsm(spans, sc, trace)
            else:
                steps, filt, rows, mismatch = replay_im(spans, sc, trace,
                                                        ops[1])
            out.update(steps=steps, filter_steps=filt, channel_rows=rows)
            run_failures += mismatch
        runner.close()
        failures += ops
    return out


def trace_oracle(spans, seed, failures) -> dict:
    from driveobs.lie import machine_observability_matrix

    batch = OracleBatch(seed)
    out = {}
    with spans.span("oracle_points"):
        t0 = time.perf_counter()
        batch(0)
        out["wall_s"] = time.perf_counter() - t0
        batch.check(0)
        batch.results = []
        with spans.span("observability.batch"):
            t0 = time.perf_counter()
            for point in batch.points:
                with spans.span("observability.report"):
                    try:
                        batch.results.append(batch.call(point))
                    except Exception as exc:   # counted as a failed report
                        batch.results.append(exc)
            out["traced_wall_s"] = time.perf_counter() - t0
        batch.check(1)
        failures += batch.failures
        for _ in range(LIE_REPEATS):
            for point in batch.points:
                family = point["family"]
                with spans.span(f"lie.{ROW_FAMILY[family]}"):
                    machine_observability_matrix(
                        batch.machines[family], point["x"], point["u"],
                        point["u_dot"],
                        speed_measured=family == "im_with_speed")
    return out


def traced_run(seed: int, workdir) -> dict:
    spans = Spans()
    failures, run_failures = [], []
    with spans.span("traced_run"):
        sc = {name: trace_scenario(spans, name, seed, workdir, failures,
                                   run_failures)
              for name in inputs.SCENARIOS}
        oracle = trace_oracle(spans, seed, failures)
    spans.write(workdir / "spans.json")
    w, im = sc["wrsm_standstill"], sc["im_zero_freq"]
    if "steps" not in w or "steps" not in im:
        return {"metrics": {}, "failures": failures,
                "run_failures": run_failures + ["a scenario run failed, so "
                                                "its layers were not replayed"],
                "figures": {}}

    def per(name):   # total span time of each scenario's replay
        return [spans.total(name, r) for r in spans.records
                if r["name"] in inputs.SCENARIOS]

    prof, plant, chan = (per("profiles.lookups"), per("scenarios.plant"),
                         per("observability.channels"))
    ekf = {k: spans.total(f"ekf.{k}") for k in ("wrsm", "im_spd", "im_sl")}
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    lookups = (w["lookups"], im["lookups"])
    put("profiles.lookup_ns", 1e9 * sum(prof) / sum(lookups), "ns")
    put("profiles.lookup_ns.wrsm", 1e9 * prof[0] / lookups[0], "ns")
    put("profiles.lookup_ns.im", 1e9 * prof[1] / lookups[1], "ns")
    put("profiles.lookups", sum(lookups), "count")
    steps = (w["steps"], im["steps"])
    put("scenarios.truth_step_ns", 1e9 * sum(plant) / sum(steps), "ns")
    put("scenarios.truth_step_ns.wrsm", 1e9 * plant[0] / steps[0], "ns")
    put("scenarios.truth_step_ns.im", 1e9 * plant[1] / steps[1], "ns")
    put("scenarios.plant_steps", sum(steps), "count")
    put("ekf.step_us.wrsm", 1e6 * ekf["wrsm"] / w["filter_steps"], "us")
    put("ekf.step_us.im_spd", 1e6 * ekf["im_spd"] / im["filter_steps"], "us")
    put("ekf.step_us.im_sl", 1e6 * ekf["im_sl"] / im["filter_steps"], "us")
    put("ekf.steps", w["filter_steps"] + 2 * im["filter_steps"], "count")
    rows = (w["channel_rows"], im["channel_rows"])
    put("observability.channel_us", 1e6 * sum(chan) / sum(rows), "us")
    put("observability.channel_us.wrsm", 1e6 * chan[0] / rows[0], "us")
    put("observability.channel_us.im", 1e6 * chan[1] / rows[1], "us")
    put("observability.report_ms", 1e3 * spans.total("observability.report")
        / spans.count("observability.report"), "ms")
    for fam in ("sm_field", "sm_brushless", "im_with_speed", "im_sensorless",
                "dcm"):
        put(f"lie.matrix_ms.{fam}", 1e3 * spans.total(f"lie.{fam}")
            / spans.count(f"lie.{fam}"), "ms")
    put("lie.matrices", sum(spans.count(f"lie.{f}")
                            for f in set(ROW_FAMILY.values())), "count")
    for key, unit in (("csv_s", "s"), ("csv_mb", "MB"), ("summarize_s", "s")):
        layer = "summary.summarize_s" if key == "summarize_s" \
            else f"trace.{key}"
        put(layer, w[key] + im[key], unit)
        put(f"{layer}.wrsm", w[key], unit)
        put(f"{layer}.im", im[key], unit)
    for name, res in (("wrsm_standstill", w), ("im_zero_freq", im),
                      ("oracle_points", oracle)):
        put(f"tracing.overhead_s.{name}",
            res["traced_wall_s"] - res["wall_s"], "s")
    put("layers.wall_s.wrsm_standstill", w["wall_s"], "s")
    put("layers.sum_s.wrsm_standstill",
        plant[0] + ekf["wrsm"] + w["csv_s"] + w["summarize_s"], "s")
    put("layers.wall_s.im_zero_freq", im["wall_s"], "s")
    put("layers.sum_s.im_zero_freq",
        plant[1] + ekf["im_spd"] + ekf["im_sl"] + chan[1] + im["csv_s"]
        + im["summarize_s"], "s")
    return {"metrics": m, "failures": failures, "run_failures": run_failures,
            "figures": {"trace_sha256.wrsm_standstill": w["sha256"],
                        "trace_sha256.im_zero_freq": im["sha256"],
                        "spans": len(spans.records)}}
