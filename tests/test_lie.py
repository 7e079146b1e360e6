"""Numeric observability-matrix builder against independently known matrices."""

import numpy as np
import pytest

from driveobs.lie import (DimensionMismatchError, fd_jacobian,
                          machine_observability_matrix,
                          numeric_observability_matrix, output_derivative)
from driveobs.machines import make_machine
from driveobs.observability import (im_steady_operating_point, slip_frequency,
                                    sm_operating_point)
from driveobs.params import IM_DEFAULT, PM_DCM_DEFAULT, WRSM_DEFAULT

RNG = np.random.default_rng(5)


def lie_output_derivative(f, outputs, x, u, u_dot=None, order=1):
    """``order``-th total time derivative of the output ``x[outputs]`` at
    one state."""
    return output_derivative(f, outputs, u, u_dot, order)(np.asarray(x, float))


ARMATURE_CURRENT = (0,)
STATOR_CURRENTS = (0, 1)


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


def test_nonsquare_selection_raises():
    """No rows, too few and too many rows for the three states all raise."""
    m = make_machine("pm_dcm")
    x = np.array([1.0, 1.0, 0.0])
    u = np.array([1.0])
    for row_spec in ((), ((0, 0), (0, 1)), ((0, 0), (0, 1), (0, 2), (0, 3))):
        with pytest.raises(DimensionMismatchError, match=f"gives "
                           f"{len(row_spec)}x3, need square"):
            numeric_observability_matrix(m.f, ARMATURE_CURRENT, x, u,
                                         row_spec=row_spec)


def test_high_order_with_input_rate_unsupported():
    m = make_machine("pm_dcm")
    with pytest.raises(NotImplementedError):
        lie_output_derivative(m.f, ARMATURE_CURRENT, np.zeros(3), np.ones(1),
                              u_dot=np.ones(1), order=3)


def test_zero_order_is_output():
    m = make_machine("im")
    x = RNG.normal(0, 1, 6)
    val = lie_output_derivative(m.f, STATOR_CURRENTS, x,
                                np.zeros(2), order=0)
    assert np.allclose(val, x[:2])


def test_first_order_is_current_rate():
    m = make_machine("im")
    x = RNG.normal(0, 1, 6) * np.array([1e-3, 1e-3, 0.05, 0.05, 50, 5])
    u = RNG.normal(0, 1, 2)
    val = lie_output_derivative(m.f, STATOR_CURRENTS, x, u, order=1)
    assert np.allclose(val, m.f(x, u)[:2], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind, speed_measured", [
    ("pm_dcm", False), ("series_dcm", False), ("wrsm", False),
    ("ipmsm", False), ("spmsm", False), ("syrm", False), ("im", True),
    ("im", False)])
def test_selection_rows_and_first_order_are_exact(kind, speed_measured):
    """Order-0 rows are identity rows and order 1 is ``f[outputs]``, bit for
    bit, whatever the input rate."""
    m = make_machine(kind)
    x = RNG.normal(0.3, 1.0, m.n_states)
    u = RNG.normal(0.0, 1.0, m.n_inputs)
    u_dot = RNG.normal(0.0, 1.0, m.n_inputs)
    outputs = m.output_indices(speed_measured)
    res = machine_observability_matrix(m, x, u, u_dot,
                                       speed_measured=speed_measured)
    for row, (i, order) in zip(res.matrix, m.lie_rows(speed_measured)):
        if order == 0:
            assert np.array_equal(row, np.eye(m.n_states)[outputs[i]])
    assert np.array_equal(
        lie_output_derivative(m.f, outputs, x, u, u_dot, order=0),
        x[list(outputs)])
    assert np.array_equal(
        lie_output_derivative(m.f, outputs, x, u, u_dot, order=1),
        m.f(x, u)[list(outputs)])


def test_row_specs_shapes():
    assert len(make_machine("wrsm").lie_rows()) == 5
    assert len(make_machine("hesm").lie_rows()) == 5
    assert len(make_machine("ipmsm").lie_rows()) == 4
    assert len(make_machine("im").lie_rows(speed_measured=True)) == 6
    assert len(make_machine("im").lie_rows()) == 6
    assert len(make_machine("series_dcm").lie_rows()) == 3


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


# ---------------------------------------------------------------------------
# the oracle against an independent reference: the nested recursion, which
# re-enters the output derivative for every perturbed state and input, with
# its own copy of the steps and stencils


REF_INNER_STEP, REF_ROW_STEP, REF_ROW_STEP_HIGH = 1e-5, 1e-6, 2e-3


def reference_fd_jacobian(fun, z, rel_step, order):
    """Column by column, each from its own perturbed copies of ``z``."""
    z = np.asarray(z, float)
    columns = []
    for i in range(z.size):
        h = rel_step * max(1.0, abs(z[i]))

        def ev(d, i=i):
            zz = z.copy()
            zz[i] += d
            return np.asarray(fun(zz), float)

        if order == 2:
            columns.append((ev(h) - ev(-h)) / (2.0 * h))
        else:
            columns.append((8.0 * (ev(h) - ev(-h)) - (ev(2 * h) - ev(-2 * h)))
                           / (12.0 * h))
    return np.column_stack(columns)


def reference_derivative(f, idx, x, u, u_dot, order):
    x, u = np.asarray(x, float), np.asarray(u, float)
    fx = np.asarray(f(x, u), float)
    if order == 1:
        return fx[idx]

    def lower(z, w):
        return reference_derivative(f, idx, z, w, None, order - 1)

    val = reference_fd_jacobian(lambda z: lower(z, u), x, REF_INNER_STEP,
                                2) @ fx
    if u_dot is not None and np.any(u_dot):
        val = val + reference_fd_jacobian(lambda w: lower(x, w), u,
                                          REF_INNER_STEP, 2) \
            @ np.asarray(u_dot, float)
    return val


def reference_lie_matrix(machine, x, u, u_dot, speed_measured):
    """Matrix, determinant and equilibrated singular values."""
    idx = list(machine.output_indices(speed_measured))
    row_spec = machine.lie_rows(speed_measured)
    blocks = {0: np.eye(len(x))[idx]}
    for order in sorted({o for _, o in row_spec} - {0}):
        step, stencil = ((REF_ROW_STEP, 2) if order == 1
                         else (REF_ROW_STEP_HIGH, 4))
        blocks[order] = reference_fd_jacobian(
            lambda z, order=order: reference_derivative(
                machine.f, idx, z, u, u_dot, order), x, step, stencil)
    M = np.vstack([blocks[o][i] for i, o in row_spec])
    Me = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
    Me = Me / np.maximum(np.linalg.norm(Me, axis=0, keepdims=True), 1e-300)
    return M, float(np.linalg.det(M)), np.linalg.svd(Me, compute_uv=False)


def pinned_points(kind, rng):
    """Three generic points with nonzero input rates, then SM standstill or
    the IM on the line of steady operating points."""
    m = make_machine(kind)
    points = []
    for _ in range(3):
        x = rng.normal(0.0, 1.0, m.n_states)
        if kind == "im":
            x *= np.array([2e-3, 2e-3, 0.05, 0.05, 100.0, 5.0])
        elif kind.endswith("dcm"):
            x *= np.array([5.0, 50.0, 1.0])
        else:
            x[:-2] *= 10.0
            x[-2:] *= (100.0, np.pi)
        u = rng.normal(0.0, 10.0, m.n_inputs)
        u_dot = rng.normal(0.0, 10.0, m.n_inputs)
        points.append((x, u, u_dot))
    if kind == "im":
        T_m, psi_rd = rng.uniform(2.0, 15.0), rng.uniform(0.02, 0.08)
        points.append(im_steady_operating_point(
            IM_DEFAULT, -slip_frequency(IM_DEFAULT, T_m, psi_rd), T_m,
            psi_rd))
    elif not kind.endswith("dcm"):
        i_f = rng.uniform(1.0, 6.0) if m.has_field else None
        x, u = sm_operating_point(m.params, 0.0, *rng.normal(0, 10, 2), i_f)
        points.append((x, u, None))
    return m, points


@pytest.mark.parametrize("kind, speed_measured", [
    ("pm_dcm", False), ("series_dcm", False), ("wrsm", False),
    ("ipmsm", False), ("spmsm", False), ("syrm", False), ("im", True),
    ("im", False)])
def test_oracle_bits_match_nested_recursion(kind, speed_measured):
    m, points = pinned_points(kind, np.random.default_rng(19))
    for x, u, u_dot in points:
        res = machine_observability_matrix(m, x, u, u_dot,
                                           speed_measured=speed_measured)
        M, det, sv = reference_lie_matrix(m, x, u, u_dot, speed_measured)
        assert np.array_equal(res.matrix, M)
        assert np.array_equal(res.determinant, det)
        assert np.array_equal(res.singular_values, sv)


@pytest.mark.parametrize("order", [2, 4])
def test_fd_jacobian_matches_columnwise_reference(order):
    """Same bits and C order as stacking the columns; ``fun`` may keep its
    argument."""
    z0 = np.array([0.3, -1.2, 2e3, 0.0])
    kept = []

    def fun(z):
        kept.append(z)
        return np.array([z[0] * z[1], np.sin(z[2]), z[3] ** 3 - z[0]])

    J = fd_jacobian(fun, z0, rel_step=1e-4, order=order)
    assert J.flags["C_CONTIGUOUS"]
    assert np.array_equal(J, reference_fd_jacobian(fun, z0, 1e-4, order))
    assert len({id(z) for z in kept}) == len(kept)
    assert all(np.count_nonzero(z != z0) == 1 for z in kept)
