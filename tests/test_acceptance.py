"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The two scenario fixtures are shared with the rest of the suite, so
their wall-clock budgets are measured on the actual runs.
"""

import math
import time

import numpy as np
import pytest

from driveobs.lie import machine_observability_matrix
from driveobs.machines import (InductionMachine, SynchronousMachine,
                               make_machine, park)
from driveobs.observability import (dcm_determinant, im_determinant,
                                    sm_channels, sm_determinant)
from driveobs.params import (IM_DEFAULT, IPMSM_DEFAULT, SPMSM_DEFAULT,
                             SYRM_DEFAULT, WRSM_DEFAULT)
from driveobs.scenarios import (ImScenario, WrsmScenario, run_im_scenario,
                                run_im_truth, run_wrsm_scenario)

RNG = np.random.default_rng(20240202)


def report(number: int, parts: dict, detail: str = ""):
    ok = all(parts.values())
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: " + ", ".join(
        name for name, good in parts.items() if not good)


def sm_closed_form(machine, x, u):
    return sm_channels(machine, x, machine.f(x, u))[-1]


def random_point(kind, machine, rng=RNG):
    if kind in ("wrsm", "hesm"):
        x = np.array([rng.normal(0, 10), rng.normal(0, 10), rng.normal(0, 5),
                      rng.normal(0, 100), rng.uniform(-np.pi, np.pi)])
        u = rng.normal(0, 20, 3)
        ud = np.zeros(3)
    elif kind in ("ipmsm", "spmsm", "syrm"):
        x = np.array([rng.normal(0, 10), rng.normal(0, 10),
                      rng.normal(0, 100), rng.uniform(-np.pi, np.pi)])
        u = rng.normal(0, 20, 2)
        ud = np.zeros(2)
    elif kind == "im":
        x = rng.normal(0, 1, 6) * np.array([2e-3, 2e-3, 0.05, 0.05, 100, 5])
        u = rng.normal(0, 1, 2)
        ud = rng.normal(0, 10, 2)
    else:
        x = np.array([rng.normal(0, 5), rng.normal(0, 50), rng.normal(0, 1)])
        u = rng.normal(0, 10, 1)
        ud = rng.normal(0, 10, 1)
    return x, u, ud


# the eight machine rows: label, machine, speed measured (IM only)
FAMILIES = (
    ("pm_dcm", make_machine("pm_dcm"), None),
    ("series_dcm", make_machine("series_dcm"), None),
    ("wrsm", SynchronousMachine(WRSM_DEFAULT), None),
    ("ipmsm", SynchronousMachine(IPMSM_DEFAULT), None),
    ("spmsm", SynchronousMachine(SPMSM_DEFAULT), None),
    ("syrm", SynchronousMachine(SYRM_DEFAULT), None),
    ("im_with_speed", InductionMachine(IM_DEFAULT), True),
    ("im_sensorless", InductionMachine(IM_DEFAULT), False),
)

# ``f`` calls per oracle matrix over n states and m inputs: 2n for the
# order-1 rows; for order-2 rows 4n stencil points of 2n + 1 calls, plus 2m
# when the input rate is nonzero
F_CALLS_PER_MATRIX = {"pm_dcm": 114, "series_dcm": 114, "wrsm": 10,
                      "ipmsm": 8, "spmsm": 8, "syrm": 8, "im_with_speed": 12,
                      "im_sensorless": 420}


def test_criterion_1_closed_form_oracle_equivalence():
    """All eight machine rows match the numeric oracle at 100 points each."""
    t0 = time.perf_counter()
    n_points = 100
    parts = {}
    ratios = []
    for label, machine, speed_measured in FAMILIES:
        worst = 0.0
        for _ in range(n_points):
            kind = machine.kind
            x, u, ud = random_point(kind, machine)
            if kind in ("pm_dcm", "series_dcm"):
                closed = dcm_determinant(machine.params, x[0])
                res = machine_observability_matrix(machine, x, u, ud)
            elif kind == "im":
                mode = "with_speed" if speed_measured else "sensorless"
                closed = im_determinant(machine.params, mode, x,
                                        machine.f(x, u))
                res = machine_observability_matrix(
                    machine, x, u, ud, speed_measured=speed_measured)
            else:
                closed = sm_closed_form(machine, x, u)
                res = machine_observability_matrix(machine, x, u)
            err = abs(abs(res.determinant) - abs(closed)) / max(abs(closed),
                                                                1e-300)
            worst = max(worst, err)
            if label == "im_sensorless":
                ratios.append(res.determinant / closed)
        parts[f"{label} worst {worst:.2e}"] = worst <= 1e-4
    ratio_dev = float(np.max(np.abs(np.asarray(ratios) - 1.0)))
    parts[f"sensorless scale state-independent ({ratio_dev:.2e})"] = \
        ratio_dev <= 1e-6
    elapsed = time.perf_counter() - t0
    parts[f"runtime {elapsed:.1f}s < 10s"] = elapsed < 10.0
    report(1, parts, "closed-form determinants match the Lie-derivative "
                     f"oracle within 1e-4 ({elapsed:.1f} s)")


def test_oracle_f_calls_per_matrix(monkeypatch):
    """The oracle's work, counted without a clock: ``f`` calls per matrix."""
    rng = np.random.default_rng(11)
    for label, machine, speed_measured in FAMILIES:
        x, u, ud = random_point(machine.kind, machine, rng)
        calls, f = [], machine.f
        monkeypatch.setattr(machine, "f",
                            lambda z, w: calls.append(1) or f(z, w))
        machine_observability_matrix(machine, x, u, ud,
                                     speed_measured=bool(speed_measured))
        monkeypatch.undo()
        assert len(calls) == F_CALLS_PER_MATRIX[label], label


def test_criterion_2_im_with_speed_determinant():
    p = IM_DEFAULT
    det0 = im_determinant(p, "with_speed", np.zeros(6), np.zeros(6))
    expected = -(p.p / p.J) * (1.0 / p.tau_r**2)
    parts = {
        "matches formula": det0 == pytest.approx(expected, rel=1e-12),
        "magnitude >= 8.4e4 (1% of 8.43e4)":
            abs(det0) == pytest.approx(8.43e4, rel=0.01) and abs(det0) >= 8.4e4,
        "strictly negative over +-1000 rad/s": all(
            im_determinant(p, "with_speed",
                           np.array([0, 0, 0, 0, we, 0.0]), np.zeros(6)) < 0
            for we in np.linspace(-1000, 1000, 201)),
    }
    report(2, parts, f"measured-speed determinant {det0:.4g}")


def test_criterion_3_standstill_sm_loss():
    parts = {}
    dets = [sm_determinant(SPMSM_DEFAULT, 0.0, RNG.normal(0, 30),
                           RNG.normal(0, 30))
            for _ in range(100)]
    parts["spmsm determinant identically zero at standstill"] = \
        all(d == 0.0 for d in dets)
    wrsm = make_machine("wrsm")
    I = np.array([2.0, 15.0, 4.0])
    u = np.array([WRSM_DEFAULT.R_s * I[0], WRSM_DEFAULT.R_s * I[1],
                  WRSM_DEFAULT.R_f * I[2]])
    res = machine_observability_matrix(
        wrsm, np.array([I[0], I[1], I[2], 0.0, 0.0]), u)
    parts[f"wrsm standstill rank {res.rank} < 5"] = res.rank < 5
    sp = make_machine("spmsm")
    i_dq = np.array([3.0, 4.0])
    res_sp = machine_observability_matrix(
        sp, np.array([i_dq[0], i_dq[1], 0.0, 0.0]),
        SPMSM_DEFAULT.R_s * i_dq)
    parts[f"spmsm standstill rank {res_sp.rank} < 4"] = res_sp.rank < 4
    report(3, parts, "synchronous machines lose the rank condition at "
                     "standstill with constant currents")


def test_criterion_4_wrsm_injection_scenario(wrsm_run):
    trace, wall = wrsm_run
    t = trace.t
    pre = trace.window_mask(0.1, 0.99)
    w0, w1 = trace.meta["injection_windows"][0]
    idx_settled = int(np.searchsorted(t, w0 + 0.5))
    quiet = (trace.window_mask(0.1, 0.99) | trace.window_mask(1.7, 4.4)
             | trace.window_mask(5.3, 6.0))
    w_o = np.abs(trace["omega_o"])
    parts = {
        "position error held > 0.2 rad before injection":
            float(np.min(np.abs(trace["theta_err"][pre]))) > 0.2,
        "converged < 0.05 rad within 0.5 s of injection":
            abs(trace["theta_err"][idx_settled]) < 0.05,
        "omega_o active inside window 1":
            float(np.max(w_o[trace.window_mask(w0 + 0.02, w1)])) >= 2.0,
        "omega_o active inside window 2":
            float(np.max(w_o[trace.window_mask(4.52, 5.0)])) >= 2.0,
        "omega_o quiet outside windows":
            float(np.max(w_o[quiet])) < 0.5,
        f"runtime {wall:.0f}s < 60s": wall < 60.0,
    }
    report(4, parts, "standstill loss and HF-injection recovery reproduced")


def test_criterion_5_im_zero_frequency_scenario(im_run):
    trace, wall = im_run
    d0, d1 = trace.meta["dwell"]
    spd = trace["spd_flux_err"]
    sl = trace["sl_flux_err"]
    parts = {
        "with-speed flux error < 5% throughout":
            float(np.nanmax(spd[trace.window_mask(0.5, trace.meta["t_end"])]))
            < 0.05,
        "sensorless flux error > 20% in the dwell":
            float(np.nanmax(sl[trace.window_mask(d0 + 0.2, d1)])) > 0.20,
        "sensorless back < 5% within 1 s of leaving zero":
            float(np.nanmax(sl[trace.window_mask(d1 + 1.05, d1 + 1.5)])) < 0.05,
        "condition < 2 rad/s during the dwell":
            float(np.nanmax(np.abs(
                trace["im_cond"][trace.window_mask(d0 + 0.05, d1)]))) < 2.0,
        f"runtime {wall:.0f}s < 120s": wall < 120.0,
    }
    report(5, parts, "zero-stator-frequency observability loss reproduced")


def test_criterion_6_unobservability_line_fit(tmp_path):
    from driveobs.cli import main
    from driveobs.config import bundled_config_path
    from test_cli import fit_line_slope

    rc = main(["sweep", "--config",
               str(bundled_config_path("sweep_line.json")),
               "--out", str(tmp_path)])
    slope, roots = fit_line_slope(tmp_path / "sweep.csv", IM_DEFAULT.tau_r)
    expected = -(IM_DEFAULT.R_r / IM_DEFAULT.p) / 0.05**2
    rel = abs(slope - expected) / abs(expected)
    parts = {
        "sweep ran": rc == 0,
        "zero set found on most rows": len(roots) >= 40,
        f"slope {slope:.5f} vs {expected:.5f} rel {rel:.2e} < 1%": rel < 0.01,
    }
    report(6, parts, "determinant zero set reproduces the speed-torque line")


def test_criterion_7_ekf_invariants_and_determinism(wrsm_run, im_run):
    tr_w, _ = wrsm_run
    tr_i, _ = im_run
    steps = tr_w.meta["ekf_steps"] + tr_i.meta["ekf_steps"]
    parts = {
        f"{steps} filter steps >= 1e5": steps >= 1e5,
        "wrsm P symmetry < 1e-9": tr_w.meta["ekf_p_max_asym"] < 1e-9,
        "im P symmetry < 1e-9": tr_i.meta["ekf_p_max_asym"] < 1e-9,
        "wrsm P eigenvalues >= -1e-9 relative":
            tr_w.meta["ekf_p_min_eig_ratio"] >= -1e-9,
        "im P eigenvalues >= -1e-9 relative":
            tr_i.meta["ekf_p_min_eig_ratio"] >= -1e-9,
    }
    again_w = run_wrsm_scenario(WrsmScenario())
    parts["wrsm rerun bitwise identical"] = all(
        np.array_equal(tr_w[n], again_w[n], equal_nan=True)
        for n in tr_w.column_names)
    again_i = run_im_scenario(ImScenario())
    parts["im rerun bitwise identical"] = all(
        np.array_equal(tr_i[n], again_i[n], equal_nan=True)
        for n in tr_i.column_names)
    report(7, parts, "covariance stays symmetric PSD; reruns are bitwise equal")


def test_criterion_8_numerics(im_run):
    import test_rk4

    m_w = SynchronousMachine(WRSM_DEFAULT)
    m_i = InductionMachine(IM_DEFAULT)

    def u_wrsm(t):
        return np.array([0.2 * math.sin(300 * t), 0.2 * math.cos(300 * t),
                         26.0 + 5.0 * math.sin(100 * t)])

    def u_im(t):
        return np.array([math.cos(60 * t), math.sin(60 * t)])

    order_w = test_rk4._convergence_order(
        m_w.f, np.array([1.0, -1.0, 4.0, 50.0, 0.1]), u_wrsm, 20e-3, 2e-4)
    order_i = test_rk4._convergence_order(
        m_i.f, np.array([1e-3, 0.0, 0.02, 0.0, 10.0, 2.0]), u_im, 20e-3, 2e-4)

    worst_park = 0.0
    for _ in range(200):
        v = RNG.normal(0, 10, 2)
        th = RNG.uniform(-40, 40)
        back = park(park(v, th, "to_dq"), th, "to_ab")
        worst_park = max(worst_park, float(np.max(np.abs(back - v))))

    # the fixture's plant columns are run_im_truth(ImScenario(run_ekf=False),
    # scaled=True) bit for bit, so only the unscaled plant runs here
    a, _ = im_run
    b = run_im_truth(ImScenario(run_ekf=False), scaled=False)
    worst_traj = 0.0
    for name in ("i_sa", "i_sb", "psi_ra", "psi_rb", "omega_e"):
        scale = float(np.max(np.abs(a[name]))) or 1.0
        worst_traj = max(worst_traj,
                         float(np.max(np.abs(a[name] - b[name]))) / scale)

    parts = {
        f"wrsm RK4 order {order_w:.2f} >= 3.9": order_w >= 3.9,
        f"im RK4 order {order_i:.2f} >= 3.9": order_i >= 3.9,
        f"park round trip {worst_park:.2e} <= 1e-12": worst_park <= 1e-12,
        f"scaled/unscaled trajectories {worst_traj:.2e} <= 1e-8":
            worst_traj <= 1e-8,
    }
    report(8, parts, "integration order, transform exactness and model "
                     "scaling equivalence hold")
