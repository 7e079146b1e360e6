"""Numeric observability-matrix builder against independently known matrices."""

import numpy as np
import pytest

from driveobs.lie import (DimensionMismatchError, ROW_SPECS, fd_jacobian,
                          lie_output_derivative,
                          machine_observability_matrix,
                          numeric_observability_matrix)
from driveobs.machines import make_machine
from driveobs.params import IM_DEFAULT, PM_DCM_DEFAULT, WRSM_DEFAULT

RNG = np.random.default_rng(5)


def armature_current(x):
    return x[:1]


def stator_currents(x):
    return x[:2]


def kalman_matrix_pm_dcm():
    """Hand-built observability matrix of the linear PM machine."""
    p = PM_DCM_DEFAULT
    Ra, La, K, J, fv = p.R_a, p.L_a, p.K, p.J, p.f_v
    A = np.array([[-Ra / La, -K / La, 0.0],
                  [K / J, -fv / J, -1.0 / J],
                  [0.0, 0.0, 0.0]])
    C = np.array([[1.0, 0.0, 0.0]])
    return np.vstack([C, C @ A, C @ A @ A])


def test_pm_dcm_matches_kalman_matrix():
    # the model is linear so the matrix is state-independent; the origin
    # keeps the finite differences free of cancellation noise
    m = make_machine("pm_dcm")
    res = machine_observability_matrix(m, np.zeros(3), np.zeros(1))
    ref = kalman_matrix_pm_dcm()
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.max(np.abs(res.matrix - ref) / scale) < 1e-6
    assert res.rank == 3
    # at a generic point the entries agree to finite-difference noise
    res2 = machine_observability_matrix(m, np.array([2.0, 50.0, 0.5]),
                                        np.array([10.0]))
    assert np.max(np.abs(res2.matrix - ref)) < 1e-3 * np.max(np.abs(ref))


def test_im_with_speed_first_derivative_rows():
    """Rows of the measured-speed matrix match the printed entries."""
    m = make_machine("im")
    p = IM_DEFAULT
    x = np.array([1e-3, -2e-3, 0.04, -0.01, 80.0, 3.0])
    u = np.array([0.5, -0.2])
    res = machine_observability_matrix(m, x, u, speed_measured=True)
    M = res.matrix
    a, itr, cJ = p.a, 1.0 / p.tau_r, p.c / p.J
    expected = np.array([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [a, 0, itr, x[4], x[3], 0],
        [0, a, -x[4], itr, -x[2], 0],
        [-cJ * x[3], cJ * x[2], cJ * x[1], -cJ * x[0], 0, -p.p / p.J],
    ])
    assert np.max(np.abs(M - expected)) < 1e-5 * np.max(np.abs(expected))


def test_sm_standstill_rank_deficient():
    m = make_machine("wrsm")
    I = np.array([2.0, 15.0, 4.0])
    u = np.array([WRSM_DEFAULT.R_s * 2.0, WRSM_DEFAULT.R_s * 15.0,
                  WRSM_DEFAULT.R_f * 4.0])  # steady voltages: currents constant
    x = np.array([I[0], I[1], I[2], 0.0, 0.0])
    res = machine_observability_matrix(m, x, u)
    assert res.rank < 5
    # the position column vanishes identically, so the determinant does too
    assert abs(res.determinant) < 1e-12


def test_nonsquare_requires_flag():
    m = make_machine("pm_dcm")
    x = np.array([1.0, 1.0, 0.0])
    u = np.array([1.0])
    with pytest.raises(DimensionMismatchError):
        numeric_observability_matrix(m.f, armature_current, x, u,
                                     row_spec=((0, 0), (0, 1)))
    res = numeric_observability_matrix(m.f, armature_current, x, u,
                                       row_spec=((0, 0), (0, 1)),
                                       want_determinant=False)
    assert res.determinant is None
    assert res.matrix.shape == (2, 3)


def test_high_order_with_input_rate_unsupported():
    m = make_machine("pm_dcm")
    with pytest.raises(NotImplementedError):
        lie_output_derivative(m.f, armature_current, np.zeros(3), np.ones(1),
                              u_dot=np.ones(1), order=3)


def test_zero_order_is_output():
    m = make_machine("im")
    x = RNG.normal(0, 1, 6)
    val = lie_output_derivative(m.f, stator_currents, x,
                                np.zeros(2), order=0)
    assert np.allclose(val, x[:2])


def test_first_order_is_current_rate():
    m = make_machine("im")
    x = RNG.normal(0, 1, 6) * np.array([1e-3, 1e-3, 0.05, 0.05, 50, 5])
    u = RNG.normal(0, 1, 2)
    val = lie_output_derivative(m.f, stator_currents, x, u, order=1)
    assert np.allclose(val, m.f(x, u)[:2], rtol=1e-9, atol=1e-12)


def test_row_specs_shapes():
    assert len(ROW_SPECS["sm_field"]) == 5
    assert len(ROW_SPECS["sm_brushless"]) == 4
    assert len(ROW_SPECS["im_with_speed"]) == 6
    assert len(ROW_SPECS["im_sensorless"]) == 6
    assert len(ROW_SPECS["dcm"]) == 3


def test_series_dcm_matrix_entries():
    """Hand-differentiated rows of the bilinear DC machine."""
    from driveobs.params import SERIES_DCM_DEFAULT as p

    m = make_machine("series_dcm")
    i, Om, Tl = 3.0, 40.0, 0.8
    v = 6.0
    x = np.array([i, Om, Tl])
    u = np.array([v])
    res = machine_observability_matrix(m, x, u, np.zeros(1))
    R, L, K, J, fv = p.R_total, p.L_total, p.K, p.J, p.f_v
    row2 = np.array([-(R + K * Om) / L, -K * i / L, 0.0])
    row3 = np.array([
        (R + K * Om)**2 / L**2 - K * (3 * K * i**2 - Tl - fv * Om) / (J * L),
        -K * (v - 2 * i * (R + K * Om)) / L**2 + K * fv * i / (J * L),
        K * i / (J * L),
    ])
    assert np.allclose(res.matrix[0], [1.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(res.matrix[1], row2, rtol=1e-6,
                       atol=1e-8 * np.max(np.abs(row2)))
    assert np.allclose(res.matrix[2], row3, rtol=1e-4,
                       atol=1e-5 * np.max(np.abs(row3)))


def test_im_sensorless_second_derivative_rows():
    """Order-2 rows match the hand-differentiated expressions entrywise."""
    m = make_machine("im")
    p = IM_DEFAULT
    a, b, c = p.a, p.b, p.c
    itr = 1.0 / p.tau_r
    cJ = c / p.J
    x = np.array([1.5e-3, -2.5e-3, 0.035, -0.012, 70.0, 4.0])
    u = np.array([0.8, -0.3])
    ia, ib, pa, pb, we = x[0], x[1], x[2], x[3], x[4]
    dwe = m.f(x, u)[4]
    res = machine_observability_matrix(m, x, u, np.zeros(2))
    d11 = a**2 - (a - b) * itr - cJ * pb**2
    d12 = -(a - b) * we + cJ * pa * pb
    d21 = (a - b) * we + cJ * pa * pb
    d22 = a**2 - (a - b) * itr - cJ * pa**2
    e11 = a * itr - itr**2 + we**2 + cJ * ib * pb
    e12 = a * we - 2 * we * itr + dwe - cJ * ia * pb
    e21 = -a * we + 2 * we * itr - dwe - cJ * ib * pa
    e22 = a * itr - itr**2 + we**2 + cJ * ia * pa
    f11 = 2 * we * pa - (a - b) * ib + (a - 2 * itr) * pb
    f12 = -(p.p / p.J) * pb
    # the speed-sensitivity coefficient is (a - 2/tau_r) on both rows: the
    # quarter-turn contributions of the leakage and rotation terms keep the
    # same relative sign in alpha and beta
    f21 = 2 * we * pb + (a - b) * ia - (a - 2 * itr) * pa
    f22 = (p.p / p.J) * pa
    expected5 = np.array([d11, d12, e11, e12, f11, f12])
    expected6 = np.array([d21, d22, e21, e22, f21, f22])
    for row, expected in ((res.matrix[4], expected5),
                          (res.matrix[5], expected6)):
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(row - expected)) < 1e-5 * scale


@pytest.mark.parametrize("order", [2, 4])
def test_fd_jacobian_never_evaluates_the_centre(order):
    A = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]])
    z0 = np.array([0.3, -1.2, 2.0])

    def fun(z):
        if np.array_equal(z, z0):
            raise AssertionError("evaluated at the centre")
        return A @ z

    assert np.allclose(fd_jacobian(fun, z0, order=order), A, rtol=1e-8,
                       atol=1e-8)
