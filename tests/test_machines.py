"""Machine models: transforms, inductances, dynamics, outputs, Jacobians."""

import math

import numpy as np
import pytest

from driveobs.ekf import linearize
from driveobs.machines import (J2, InductionMachine, SingularInductanceError,
                               SynchronousMachine, im_rates_unscaled,
                               make_machine, park, wrap_angle)
from driveobs.params import (BrushlessSmParams, WrsmParams, HESM_DEFAULT,
                             IM_DEFAULT, IPMSM_DEFAULT, MACHINE_KINDS,
                             PM_DCM_DEFAULT, SERIES_DCM_DEFAULT, WRSM_DEFAULT)
from test_scenarios import sm_reference

RNG = np.random.default_rng(2024)


def dq_derivative(d_ab, i_dq, omega, theta):
    """Total time derivative of the dq current vector: the rotated
    stationary-frame derivative less the frame's rotation,
    d(i_dq)/dt = R(-theta) d(i_ab)/dt - omega J2 i_dq."""
    return park(d_ab, theta, "to_dq") - omega * (J2 @ np.asarray(i_dq))


# ---------------------------------------------------------------------------
# Park transform


def test_park_identity_rotation():
    assert np.allclose(park([1, 0], 0.0, "to_dq"), [1, 0])


def test_park_quarter_turn():
    assert np.allclose(park([0, 1], np.pi / 2, "to_dq"), [1, 0], atol=1e-15)


def test_park_round_trip():
    v = np.array([0.3, -0.7])
    back = park(park(v, 1.234, "to_dq"), 1.234, "to_ab")
    assert np.max(np.abs(back - v)) < 1e-12


def test_park_norm_preserving():
    for _ in range(50):
        v = RNG.normal(0, 10, 2)
        th = RNG.uniform(-50, 50)
        for d in ("to_dq", "to_ab"):
            assert abs(np.linalg.norm(park(v, th, d)) - np.linalg.norm(v)) < 1e-12


def test_park_bad_direction():
    with pytest.raises(ValueError):
        park([1, 0], 0.0, "sideways")


def test_wrap_angle_range():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    xs = RNG.uniform(-50, 50, 200)
    w = wrap_angle(xs)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert np.allclose(np.cos(w), np.cos(xs)) and np.allclose(np.sin(w), np.sin(xs))


# ---------------------------------------------------------------------------
# inductance matrix of the test-local reference model


def test_wrsm_inductance_at_zero_angle():
    L, _, _ = sm_reference(WRSM_DEFAULT, 0.0)
    p = WRSM_DEFAULT
    expected = np.array([[p.L_d, 0.0, p.M_f],
                         [0.0, p.L_q, 0.0],
                         [p.M_f, 0.0, p.L_f]])
    assert np.allclose(L, expected)


def test_wrsm_inductance_symmetric_positive():
    thetas = np.linspace(-np.pi, np.pi, 360, endpoint=False)
    L, _, _ = sm_reference(WRSM_DEFAULT, thetas)
    assert np.max(np.abs(L - np.swapaxes(L, -1, -2))) == 0.0
    eig = np.linalg.eigvalsh(L)
    assert np.min(eig) > 0.0


def test_wrsm_inductance_derivatives_match_finite_differences():
    p = WRSM_DEFAULT
    h = 1e-5
    for th in (0.7, -2.1, 3.0):
        L, Lp, _ = sm_reference(p, th)
        Lp_fd = (sm_reference(p, th + h)[0] - sm_reference(p, th - h)[0]) \
            / (2 * h)
        scale = np.max(np.abs(Lp))
        assert np.max(np.abs(Lp - Lp_fd)) < 1e-8 * scale


# ---------------------------------------------------------------------------
# dynamics


def test_wrsm_zero_state_is_equilibrium():
    m = SynchronousMachine(WRSM_DEFAULT)
    xdot = m.f(np.zeros(5), np.zeros(3))
    assert np.all(xdot == 0.0)


def test_im_speed_derivative_example():
    m = InductionMachine(IM_DEFAULT)
    x = np.array([0, 0, 0, 0, 0, 5.0])
    assert m.f(x, np.zeros(2))[4] == pytest.approx(-2000.0)


def test_pm_dcm_input_only():
    m = make_machine("pm_dcm")
    xdot = m.f(np.zeros(3), np.array([1.0]))
    assert xdot[0] == pytest.approx(1.0 / PM_DCM_DEFAULT.L_a)
    assert xdot[1] == 0.0 and xdot[2] == 0.0


def test_series_dcm_zero_current_rate():
    m = make_machine("series_dcm")
    v = 3.7
    xdot = m.f(np.array([0.0, 25.0, 1.0]), np.array([v]))
    assert xdot[0] == pytest.approx(v / SERIES_DCM_DEFAULT.L_total)


def test_singular_inductance_raises():
    tiny = BrushlessSmParams(kind="spmsm", R_s=0.01, L_d=1e-10, L_q=1e-10,
                             psi_r=0.01, J=1e-2, p=2)
    with pytest.raises(SingularInductanceError):
        SynchronousMachine(tiny)


def test_im_scaled_unscaled_agreement():
    m = InductionMachine(IM_DEFAULT)
    S = m.scale_vector
    rates_unscaled = im_rates_unscaled(IM_DEFAULT)
    for _ in range(100):
        x = RNG.normal(0, 1, 6) * np.array([2e-3, 2e-3, 0.05, 0.05, 100, 5])
        u = RNG.normal(0, 1, 2)
        d_scaled = m.f(x, u)[:5]
        d_mapped = S[:5] * np.array(rates_unscaled(*(x / S), *u))
        denom = np.abs(d_scaled) + 1e-12
        assert np.max(np.abs(d_scaled - d_mapped) / denom) < 1e-10


def test_brushless_matches_wrsm_restriction():
    """Brushless stator rows equal the wound-rotor model with i_f held fixed."""
    bl = SynchronousMachine(IPMSM_DEFAULT)
    pw = WrsmParams(R_s=IPMSM_DEFAULT.R_s, R_f=6.5, L_0=IPMSM_DEFAULT.L_0,
                    L_2=IPMSM_DEFAULT.L_2, M_f=5.7e-3, L_f=0.85, J=1e-2, p=2)
    wr = SynchronousMachine(pw)
    i_f = IPMSM_DEFAULT.psi_r / pw.M_f
    for _ in range(20):
        ia, ib = RNG.normal(0, 10, 2)
        w = RNG.normal(0, 100)
        th = RNG.uniform(-np.pi, np.pi)
        vs = RNG.normal(0, 20, 2)
        d_bl = bl.f(np.array([ia, ib, w, th]), vs)
        # field voltage that freezes the field current
        L, Lp, _ = sm_reference(pw, th)
        I3 = np.array([ia, ib, i_f])
        v_f = L[2, :2] @ d_bl[:2] + pw.R_f * i_f + w * (Lp[2] @ I3)
        d_wr = wr.f(np.array([ia, ib, i_f, w, th]),
                    np.array([vs[0], vs[1], v_f]))
        assert abs(d_wr[2]) < 1e-8 * max(1.0, np.max(np.abs(d_wr[:2])))
        assert np.allclose(d_wr[:2], d_bl[:2], rtol=1e-9, atol=1e-9)


def test_hesm_adds_magnet_flux_to_field_model():
    hesm = SynchronousMachine(HESM_DEFAULT)
    assert hesm.has_field and hesm.psi_r > 0
    x = np.array([1.0, 2.0, 3.0, 50.0, 0.3])
    u = np.array([1.0, 2.0, 20.0])
    base = SynchronousMachine(
        WrsmParams(R_s=HESM_DEFAULT.R_s, R_f=HESM_DEFAULT.R_f,
                   L_0=HESM_DEFAULT.L_0, L_2=HESM_DEFAULT.L_2,
                   M_f=HESM_DEFAULT.M_f, L_f=HESM_DEFAULT.L_f, J=1e-2, p=2))
    d_hesm = hesm.f(x, u)
    d_wrsm = base.f(x, u)
    # difference is exactly the magnet back-EMF channel
    L = sm_reference(base.params, 0.3)[0]
    emf = HESM_DEFAULT.psi_r * 50.0 * np.array(
        [-math.sin(0.3), math.cos(0.3), 0.0])
    expected = d_wrsm[:3] - np.linalg.solve(L, emf)
    assert np.allclose(d_hesm[:3], expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# outputs


def test_output_indices_are_the_measured_states():
    im = InductionMachine(IM_DEFAULT)
    assert im.output_indices() == (0, 1)
    assert im.output_indices(speed_measured=True) == (0, 1, 4)
    assert make_machine("wrsm").output_indices() == (0, 1, 2)
    assert make_machine("ipmsm").output_indices() == (0, 1)
    assert make_machine("pm_dcm").output_indices() == (0,)


# ---------------------------------------------------------------------------
# Jacobians of the filter's linearization


def test_jacobians_directional_derivative_oracle():
    m = SynchronousMachine(WRSM_DEFAULT)
    for _ in range(10):
        x = np.array([RNG.normal(0, 10), RNG.normal(0, 10), RNG.normal(0, 5),
                      RNG.normal(0, 100), RNG.uniform(-np.pi, np.pi)])
        u = RNG.normal(0, 20, 3)
        rate, A = linearize(m, x, u)
        assert np.array_equal(rate, m.f(x, u))
        delta = RNG.normal(0, 1, 5) * 1e-4
        lhs = A @ delta
        rhs = (m.f(x + delta, u) - m.f(x - delta, u)) / 2.0
        assert np.max(np.abs(lhs - rhs)) < 1e-5 * max(np.max(np.abs(rhs)), 1.0)


def test_im_jacobian_rows_match_printed_entries():
    m = InductionMachine(IM_DEFAULT)
    p = IM_DEFAULT
    x = np.array([1e-3, -2e-3, 0.04, -0.01, 80.0, 3.0])
    _, A = linearize(m, x, np.array([0.5, -0.2]))
    # current-rate sensitivities to flux and speed
    assert A[0, 2] == pytest.approx(1.0 / p.tau_r, rel=1e-6)
    assert A[0, 3] == pytest.approx(x[4], rel=1e-6)
    assert A[0, 4] == pytest.approx(x[3], rel=1e-5)       # +psi_t_beta
    assert A[1, 2] == pytest.approx(-x[4], rel=1e-6)
    assert A[1, 3] == pytest.approx(1.0 / p.tau_r, rel=1e-6)
    assert A[1, 4] == pytest.approx(-x[2], rel=1e-5)      # -psi_t_alpha
    # speed-rate row
    cJ = p.c / p.J
    assert A[4, 0] == pytest.approx(-cJ * x[3], rel=1e-5)
    assert A[4, 1] == pytest.approx(cJ * x[2], rel=1e-5)
    assert A[4, 2] == pytest.approx(cJ * x[1], rel=1e-5)
    assert A[4, 3] == pytest.approx(-cJ * x[0], rel=1e-5)
    assert A[4, 5] == pytest.approx(-p.p / p.J, rel=1e-6)


def test_pm_dcm_jacobian_constant():
    m = make_machine("pm_dcm")
    u = np.array([5.0])
    _, A1 = linearize(m, np.array([1.0, 10.0, 0.2]), u)
    _, A2 = linearize(m, np.array([-3.0, 200.0, 1.5]), u)
    assert np.allclose(A1, A2, atol=1e-9)


def probe_states(m):
    """Columns of states for ``m``: seven random ones, then theta at 0, pi
    and -pi (a synchronous machine's angle; elsewhere the last state), zero
    currents and a negative speed."""
    n = m.n_states
    speed = {"im": 4, "pm_dcm": 1, "series_dcm": 1}.get(m.kind, n - 2)
    xs = RNG.normal(0, 10, (n, 10))
    xs[-1, 7:] = 0.0, np.pi, -np.pi
    xs[list(m.output_indices()), 8] = 0.0
    xs[speed, 9] = -abs(xs[speed, 9])
    return xs


def test_batched_f_matches_single():
    for kind in MACHINE_KINDS:
        m = make_machine(kind)
        xs = probe_states(m)
        u = RNG.normal(0, 10, m.n_inputs)
        for inputs in (u.tolist(), tuple(u.tolist()), u):
            batch = m.f(xs, inputs)
            for j in range(xs.shape[1]):
                single = m.f(xs[:, j], inputs)
                assert single.dtype == np.float64
                assert single.shape == (m.n_states,)
                assert np.array_equal(single, batch[:, j])


@pytest.mark.parametrize("kind", MACHINE_KINDS)
def test_single_state_kernel_runs_on_floats(kind, monkeypatch):
    """One state reaches the rate kernel as Python floats, a batch as numpy
    rows: the kernel's arithmetic on numpy scalars costs about four times as
    much."""
    m = make_machine(kind)
    calls = []
    kernel = m.rates

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(m, "rates", spy)
    xs = probe_states(m)
    us = RNG.normal(0, 10, (m.n_inputs, xs.shape[1]))
    m.f(xs[:, 0], us[:, 0])
    assert all(type(a) is float for a in calls[-1])
    m.f(xs, us)
    assert all(isinstance(a, np.ndarray) and a.shape == (xs.shape[1],)
               for a in calls[-1])


def test_single_state_nonfinite_matches_batch():
    """inf, nan and 1e200 entries give one state the bits of its batch
    column, NaN signs included, and raise nothing: Python floats overflow to
    inf like numpy, and the kernels divide only by nonzero constants and
    det L."""
    for kind in MACHINE_KINDS:
        m = make_machine(kind)
        n = m.n_states
        base = probe_states(m)[:, 0]
        cols = []
        for v in (np.inf, -np.inf, np.nan, 1e200, -1e200):
            cols.append(np.full(n, v))
            for i in range(n):
                cols.append(base.copy())
                cols[-1][i] = v
        xs = np.column_stack(cols)
        for u in (RNG.normal(0, 10, m.n_inputs), np.full(m.n_inputs, 1e200),
                  np.full(m.n_inputs, np.nan)):
            with np.errstate(all="ignore"):
                batch = m.f(xs, u)
                singles = [m.f(xs[:, j], u) for j in range(xs.shape[1])]
            for j, single in enumerate(singles):
                assert np.array_equal(single, batch[:, j], equal_nan=True)
                assert np.array_equal(np.signbit(single),
                                      np.signbit(batch[:, j]))


def test_dq_derivative_consistency():
    """Total dq derivative reproduces the standard rotor-frame dynamics."""
    p = IPMSM_DEFAULT
    m = SynchronousMachine(p)
    for _ in range(10):
        x = np.array([RNG.normal(0, 10), RNG.normal(0, 10),
                      RNG.normal(0, 100), RNG.uniform(-np.pi, np.pi)])
        u = RNG.normal(0, 20, 2)
        th, w = x[3], x[2]
        xd = m.f(x, u)
        idq = park(x[:2], th, "to_dq")
        vdq = park(u, th, "to_dq")
        didq = dq_derivative(xd[:2], idq, w, th)
        did_ref = (vdq[0] - p.R_s * idq[0] + w * p.L_q * idq[1]) / p.L_d
        diq_ref = (vdq[1] - p.R_s * idq[1] - w * (p.L_d * idq[0] + p.psi_r)) / p.L_q
        assert didq[0] == pytest.approx(did_ref, rel=1e-9)
        assert didq[1] == pytest.approx(diq_ref, rel=1e-9)
