"""Extended Kalman filter: recursion contracts, invariants, failure modes."""

from dataclasses import replace

import numpy as np
import pytest

from driveobs.ekf import (EkfConfig, EkfDivergenceError,
                          SingularInnovationError, ekf_predict, ekf_step,
                          ekf_update, linearize, make_ekf)
from driveobs.machines import SynchronousMachine, make_machine
from driveobs.params import SPMSM_DEFAULT
from driveobs.rk4 import rk4_step

RNG = np.random.default_rng(31)

TINY = 1e-30  # stand-in for an exactly-zero noise matrix (must stay PD)


class StillModel:
    """No dynamics, full-state measurement. For recursion hand-checks."""

    def __init__(self, n=1):
        self.n = n
        self.kind = "still"

    def f(self, x, u):
        x = np.asarray(x, float)
        return np.zeros_like(x)

    def output_indices(self, speed_measured=False):
        return tuple(range(self.n))


def still_ekf(n=1, q=TINY, r=1.0, p0=1.0, x0=None):
    cfg = EkfConfig(Q=q * np.eye(n), R=r * np.eye(n), P0=p0 * np.eye(n),
                    x0=np.zeros(n) if x0 is None else np.asarray(x0, float),
                    Ts=1e-3)
    return make_ekf(StillModel(n), cfg)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_asymmetric_q():
    with pytest.raises(ValueError, match="symmetric"):
        EkfConfig(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1),
                  P0=np.eye(2), x0=np.zeros(2), Ts=1e-3)


def test_config_rejects_indefinite_r():
    with pytest.raises(ValueError, match="positive definite"):
        EkfConfig(Q=np.eye(2), R=-np.eye(1), P0=np.eye(2),
                  x0=np.zeros(2), Ts=1e-3)


def test_config_rejects_bad_ts_and_dims():
    with pytest.raises(ValueError, match="Ts"):
        EkfConfig(Q=np.eye(1), R=np.eye(1), P0=np.eye(1), x0=np.zeros(1),
                  Ts=0.0)
    with pytest.raises(ValueError, match="dimensions"):
        EkfConfig(Q=np.eye(2), R=np.eye(1), P0=np.eye(2), x0=np.zeros(3),
                  Ts=1e-3)


def test_make_ekf_checks_output_dimension():
    m = make_machine("pm_dcm")
    cfg = EkfConfig(Q=np.eye(3), R=np.eye(2), P0=np.eye(3), x0=np.zeros(3),
                    Ts=1e-3)
    with pytest.raises(ValueError, match="outputs"):
        make_ekf(m, cfg)


# ---------------------------------------------------------------------------
# prediction


def test_predict_identity_for_null_dynamics():
    inst = still_ekf(n=2, q=TINY)
    out = ekf_predict(inst, np.zeros(2))
    assert np.allclose(out.x, inst.x)
    assert np.allclose(out.P, inst.P, atol=1e-29)


def test_predict_accumulates_q_each_step():
    q = 0.125
    inst = still_ekf(n=1, q=q, p0=1.0)
    P = 1.0
    for _ in range(5):
        inst = ekf_predict(inst, np.zeros(1))
        P = P + q      # F = I for a frozen state
        assert inst.P[0, 0] == pytest.approx(P, rel=1e-12)


def test_predict_matches_discretized_truth_for_linear_model():
    m = make_machine("pm_dcm")
    Ts = 1e-4
    x = np.array([1.0, 20.0, 0.3])
    u = np.array([5.0])
    cfg = EkfConfig(Q=TINY * np.eye(3), R=np.eye(1), P0=np.eye(3), x0=x,
                    Ts=Ts)
    inst = make_ekf(m, cfg)
    out = ekf_predict(inst, u)
    x_true = rk4_step(m.f, x, lambda t: u, 0.0, Ts)
    # explicit first-order prediction is within O(Ts^2) of the true flow;
    # the local error constant is the state acceleration A*f
    rate, A = linearize(m.f, x, u)
    accel = np.max(np.abs(A @ rate))
    assert np.max(np.abs(out.x - x_true)) < Ts**2 * accel


def test_predict_divergence_error():
    inst = still_ekf(n=1, q=1.0, p0=1.0)
    inst = replace(inst, config=replace(inst.config, overflow=2.5))
    inst = ekf_predict(inst, np.zeros(1))     # P = 2
    with pytest.raises(EkfDivergenceError):
        ekf_predict(inst, np.zeros(1))        # P = 3 > bound


# ---------------------------------------------------------------------------
# update


def test_update_scalar_gain_half():
    inst = still_ekf(n=1, q=TINY, r=1.0, p0=1.0)
    out, innov = ekf_update(inst, np.array([2.0]))
    assert innov[0] == pytest.approx(2.0)
    assert out.x[0] == pytest.approx(1.0)     # K = 0.5
    assert out.P[0, 0] == pytest.approx(0.5)


def test_update_huge_r_keeps_estimate():
    inst = still_ekf(n=3, q=TINY, r=1e12, p0=1.0,
                     x0=np.array([1.0, -2.0, 3.0]))
    out, _ = ekf_update(inst, np.array([5.0, 5.0, 5.0]))
    assert np.max(np.abs(out.x - inst.x)) < 1e-6


def test_update_high_gain_snaps_to_measurement():
    inst = still_ekf(n=2, q=TINY, r=1e-9, p0=1e3,
                     x0=np.array([10.0, -10.0]))
    y = np.array([1.0, 2.0])
    out, _ = ekf_update(inst, y)
    assert np.max(np.abs(out.x - y)) < 1e-6


def test_update_singular_innovation_error():
    inst = still_ekf(n=1, q=TINY, r=1.0, p0=1.0)
    # corrupt the tuning past validation (simulates config corruption)
    object.__setattr__(inst.config, "R", np.array([[-2.0]]))
    with pytest.raises(SingularInnovationError):
        ekf_update(inst, np.array([0.0]))


def test_update_matches_output_matrix_form():
    """Selecting the measured states (speed included, so not a prefix)
    equals the update written with a 0/1 output matrix C."""
    m = make_machine("im")
    B = RNG.normal(0, 1, (6, 6))
    P = B @ B.T + np.eye(6)
    R = np.diag([0.5, 0.7, 0.9])
    x0 = RNG.normal(0, 1, 6)
    inst = make_ekf(m, EkfConfig(Q=np.eye(6), R=R, P0=P, x0=x0, Ts=1e-4),
                    speed_measured=True)
    y = RNG.normal(0, 1, 3)
    out, innov = ekf_update(inst, y)
    C = np.zeros((3, 6))
    C[0, 0] = C[1, 1] = C[2, 4] = 1.0
    K = P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
    IKC = np.eye(6) - K @ C
    assert np.array_equal(innov, y - C @ x0)
    assert np.allclose(out.x, x0 + K @ innov, rtol=1e-12, atol=0)
    assert np.allclose(out.P, IKC @ P @ IKC.T + K @ R @ K.T, rtol=1e-12,
                       atol=1e-14)


# ---------------------------------------------------------------------------
# full steps on machines


def test_pm_dcm_converges_from_wrong_start():
    m = make_machine("pm_dcm")
    Ts = 1e-4
    cfg = EkfConfig(Q=np.eye(3), R=np.eye(1), P0=np.eye(3),
                    x0=np.zeros(3), Ts=Ts)
    inst = make_ekf(m, cfg)
    x = np.array([0.5, 30.0, 0.8])            # true initial state
    err0 = np.linalg.norm(x - inst.x)
    u = np.array([12.0])
    for k in range(2000):
        x = rk4_step(m.f, x, lambda t: u, k * Ts, Ts)
        inst, _ = ekf_step(inst, u, x[:1])
    assert np.linalg.norm(x - inst.x) < 0.01 * err0


def test_consistent_replay_keeps_innovations_small():
    def worst_innovation(Ts):
        m = make_machine("pm_dcm")
        x = np.array([1.0, 10.0, 0.5])
        cfg = EkfConfig(Q=TINY * np.eye(3), R=np.eye(1), P0=TINY * np.eye(3),
                        x0=x.copy(), Ts=Ts)
        inst = make_ekf(m, cfg)
        u = np.array([8.0])
        worst = 0.0
        for k in range(int(0.02 / Ts)):
            x = rk4_step(m.f, x, lambda t: u, k * Ts, Ts)
            inst, innov = ekf_step(inst, u, x[:1])
            worst = max(worst, np.max(np.abs(innov)))
        return worst

    # dead-reckoned replay drift comes from the first-order prediction only:
    # small against the ampere-scale signal and shrinking linearly with Ts
    w1 = worst_innovation(1e-4)
    w2 = worst_innovation(1e-5)
    assert w1 < 0.03
    assert w2 < 0.2 * w1


def test_spmsm_standstill_position_not_corrected():
    p = SPMSM_DEFAULT
    m = SynchronousMachine(p)
    Ts = 1e-4
    i_dq = np.array([2.0, 5.0])
    u = np.array([p.R_s * i_dq[0], p.R_s * i_dq[1]])   # steady at theta = 0
    x_true = np.array([i_dq[0], i_dq[1], 0.0, 0.0])
    theta_err0 = 0.5
    cfg = EkfConfig(Q=np.diag([1, 1, 200, 5.0]), R=np.eye(2),
                    P0=np.diag([0.1, 0.1, 10.0, 1.0]),
                    x0=np.array([i_dq[0], i_dq[1], 0.0, theta_err0]), Ts=Ts)
    inst = make_ekf(m, cfg)
    for _ in range(2000):
        inst, _ = ekf_step(inst, u, x_true[:2])
    assert abs(inst.x[3] - theta_err0) < 0.05 * theta_err0


def test_covariance_invariants_over_long_run():
    m = make_machine("series_dcm")
    Ts = 1e-4
    cfg = EkfConfig(Q=0.1 * np.eye(3), R=np.eye(1), P0=np.eye(3),
                    x0=np.array([1.0, 5.0, 0.1]), Ts=Ts)
    inst = make_ekf(m, cfg)
    x = np.array([1.2, 6.0, 0.15])
    u = np.array([3.0])
    for k in range(3000):
        x = rk4_step(m.f, x, lambda t: u, k * Ts, Ts)
        inst, _ = ekf_step(inst, u, x[:1])
        assert np.max(np.abs(inst.P - inst.P.T)) < 1e-9
        if k % 100 == 0:
            eig = np.linalg.eigvalsh(inst.P)
            assert eig[0] >= -1e-9 * eig[-1]


def test_deterministic_reruns():
    def run():
        m = make_machine("pm_dcm")
        cfg = EkfConfig(Q=np.eye(3), R=np.eye(1), P0=np.eye(3),
                        x0=np.zeros(3), Ts=1e-4)
        inst = make_ekf(m, cfg)
        xs = []
        x = np.array([0.5, 30.0, 0.8])
        u = np.array([12.0])
        for k in range(300):
            x = rk4_step(m.f, x, lambda t: u, k * 1e-4, 1e-4)
            inst, _ = ekf_step(inst, u, x[:1])
            xs.append(inst.x.copy())
        return np.array(xs)

    a, b = run(), run()
    assert np.array_equal(a, b)
