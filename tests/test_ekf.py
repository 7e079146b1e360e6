"""Extended Kalman filter: recursion contracts, invariants, failure modes."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from driveobs.ekf import (EkfConfig, EkfDivergenceError,
                          SingularInnovationError, central_differences,
                          ekf_predict, ekf_update, linearize, make_ekf,
                          update)
from driveobs.machines import (InductionMachine, SynchronousMachine,
                               make_machine)
from driveobs.params import IM_DEFAULT, SPMSM_DEFAULT, WRSM_DEFAULT
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
# linearization: the IM's Jacobian tensor against central differences

# the scales of perfbench's IM points, and states far beyond them
IM_SCALES = [np.array([2e-3, 2e-3, 0.05, 0.05, 100.0, 5.0]),
             np.full(6, 1e3)]


def wide_differences(f, x, u):
    """Central differences with the one step ``max(1, max |x|)`` along every
    state: exact for a quadratic kernel up to the rounding of ``f``, which
    the filter's 1e-6 relative step amplifies to about 1e-8 of the largest
    entry at |x| ~ 1e3."""
    h = max(1.0, np.abs(x).max())
    E = h * np.eye(x.size)
    return (f((x + E).T, u) - f((x - E).T, u)) / (2.0 * h)


@pytest.mark.parametrize("scale", IM_SCALES, ids=["points", "large"])
def test_im_tensor_jacobian_matches_central_differences(scale):
    m = InductionMachine(IM_DEFAULT)
    X = RNG.normal(0, 1, (200, 6)) * scale
    for x, u in zip(X, RNG.normal(0, 1, (200, 2)) * scale[0] * 1e3):
        _, A = linearize(m, x, u)
        refs = [wide_differences(m.f, x, u)]
        if scale[0] < 1.0:    # the filter's stencil, where it is as exact
            refs.append(central_differences(m.f, x[None], u)[1][0])
        for ref in refs:
            assert np.abs(A - ref).max() <= 1e-10 * np.abs(ref).max()


def test_im_tensor_jacobian_does_not_depend_on_u():
    m = InductionMachine(IM_DEFAULT)
    X = RNG.normal(0, 1, (2, 6)) * IM_SCALES[0]
    _, A = linearize(m, X, np.zeros(2))
    for u in RNG.normal(0, 100, (10, 2)):
        assert np.array_equal(linearize(m, X, u)[1], A)


def test_im_tensor_path_rate_is_f_bit_for_bit():
    m = InductionMachine(IM_DEFAULT)
    for scale in IM_SCALES:
        X, u = RNG.normal(0, 1, (3, 6)) * scale, RNG.normal(0, 1, 2).tolist()
        rate, _ = linearize(m, X, u)
        assert np.array_equal(rate, [m.f(x, u) for x in X])
        assert np.array_equal(linearize(m, X[0], u)[0], m.f(X[0], u))


def test_quadratic_declaration_on_an_sm_fails_the_check():
    class DeclaredSm(SynchronousMachine):
        quadratic = True    # wrong: the SM kernel is trigonometric in theta

    m = DeclaredSm(WRSM_DEFAULT)
    with pytest.raises(ValueError, match="not affine in the state"):
        linearize(m, np.ones(5), np.zeros(3))


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
    rate, A = linearize(m, x, u)
    accel = np.max(np.abs(A @ rate))
    assert np.max(np.abs(out.x - x_true)) < Ts**2 * accel


def test_predict_divergence_error():
    inst = still_ekf(n=1, q=1.0, p0=1.0)
    inst = replace(inst, config=replace(inst.config, overflow=2.5))
    inst = ekf_predict(inst, np.zeros(1))     # P = 2
    with pytest.raises(EkfDivergenceError):
        ekf_predict(inst, np.zeros(1))        # P = 3 > bound


@pytest.mark.parametrize("field", ["P", "x"])
def test_predict_nan_is_divergence(field):
    # a NaN compares false with the bound, so it must fail the check too
    inst = still_ekf(n=2)
    arr = getattr(inst, field).copy()
    arr.flat[1] = np.nan
    with pytest.raises(EkfDivergenceError):
        ekf_predict(replace(inst, **{field: arr}), np.zeros(2))


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


def test_update_nan_covariance_is_singular_innovation():
    # a NaN innovation covariance fails on every LAPACK, including those
    # whose Cholesky returns a NaN factor instead of raising
    inst = replace(still_ekf(n=2), P=np.full((2, 2), np.nan))
    with pytest.raises(SingularInnovationError):
        ekf_update(inst, np.zeros(2))


def linalg_update(X, P, Y, C, R):
    """``update`` written with ``np.linalg.cholesky`` and ``np.linalg.solve``,
    whose LAPACK gufuncs it calls directly."""
    innovation = Y - (C @ X[:, :, None])[:, :, 0]
    PCt = P @ C.swapaxes(1, 2)
    S = C @ PCt + R
    np.linalg.cholesky(S)
    K = np.linalg.solve(S, PCt.swapaxes(1, 2)).swapaxes(1, 2)
    IKC = np.eye(X.shape[1]) - K @ C
    P = IKC @ P @ IKC.swapaxes(1, 2) + K @ R @ K.swapaxes(1, 2)
    return X + (K @ innovation[:, :, None])[:, :, 0], P, innovation


def random_bank(B, m, n=5):
    """Estimates, SPD covariances, measurements, 0/1 selections of ``m`` of
    ``n`` states and SPD measurement covariances of a bank of ``B``."""
    G = RNG.normal(0, 1, (B, n, n))
    H = RNG.normal(0, 1, (B, m, m))
    C = np.zeros((B, m, n))
    for b in range(B):
        C[b, np.arange(m), RNG.permutation(n)[:m]] = 1.0
    return (RNG.normal(0, 1, (B, n)), G @ G.swapaxes(1, 2) + np.eye(n),
            RNG.normal(0, 1, (B, m)), C, H @ H.swapaxes(1, 2) + np.eye(m))


@pytest.mark.parametrize("B, m", itertools.product((1, 2, 3), (1, 2, 3)))
def test_update_gufuncs_match_np_linalg_bit_for_bit(B, m):
    """A numpy whose private LAPACK gufuncs moved or changed fails here."""
    for _ in range(5):
        args = random_bank(B, m)
        for a, b in zip(update(*args), linalg_update(*args)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("R_diag", [(-5.0, 1.0), (np.nan, 1.0),
                                    (np.inf, 1.0)],
                         ids=["indefinite", "nan", "inf"])
def test_failed_factor_is_singular_innovation_without_warning(R_diag):
    X, P, Y, C, _ = random_bank(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularInnovationError):
            update(X, P, Y, C, np.tile(np.diag(R_diag), (2, 1, 1)))


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
        inst, _ = ekf_update(ekf_predict(inst, u), x[:1])
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
            inst, innov = ekf_update(ekf_predict(inst, u), x[:1])
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
        inst, _ = ekf_update(ekf_predict(inst, u), x_true[:2])
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
        inst, _ = ekf_update(ekf_predict(inst, u), x[:1])
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
            inst, _ = ekf_update(ekf_predict(inst, u), x[:1])
            xs.append(inst.x.copy())
        return np.array(xs)

    a, b = run(), run()
    assert np.array_equal(a, b)
