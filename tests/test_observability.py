"""Closed-form observability conditions against the numeric oracle."""

import math

import numpy as np
import pytest

from driveobs.lie import machine_observability_matrix
from driveobs.machines import (J2, InductionMachine, SynchronousMachine,
                               make_machine, park)
from driveobs.observability import (DegenerateFluxError, closed_forms,
                                    dcm_determinant, flux_angular_velocity,
                                    im_condition, im_determinant,
                                    im_steady_operating_point,
                                    observability_report, slip_frequency,
                                    sm_channels, sm_condition_ratio,
                                    sm_determinant, sm_observability_vector,
                                    sm_operating_point)
from driveobs.params import (BrushlessSmParams, HESM_DEFAULT, IM_DEFAULT,
                             IPMSM_DEFAULT, PM_DCM_DEFAULT,
                             SERIES_DCM_DEFAULT, SM_KINDS, SPMSM_DEFAULT,
                             SYRM_DEFAULT, WRSM_DEFAULT)

RNG = np.random.default_rng(77)


def sm_omega_o(params, i_sd, i_sq, i_f=None, di_sd=0.0, di_sq=0.0,
               di_f=0.0):
    """Angular velocity of the observability vector in the rotor frame; NaN
    when the vector is zero (angle undefined)."""
    psi_od, psi_oq, dd, dq = sm_observability_vector(
        params, i_sd, i_sq, i_f, di_sd, di_sq, di_f)
    return flux_angular_velocity((psi_od, psi_oq), (dd, dq))


def unobservability_line(params, omega_e, T_m, psi_rd):
    """Speed on the not-guaranteed line ``omega_e = -slip(T_m)`` (zero
    stator frequency) for torque ``T_m``, plus the distance to it."""
    on_line = -slip_frequency(params, T_m, psi_rd)
    return on_line, omega_e - on_line


def im_steady_determinant(params, omega_e, T_m, psi_rd):
    """Sensorless determinant at a synthetic steady operating point: the
    steady flux (k_r psi_rd, 0) rotates at the stator frequency omega_e +
    slip at constant speed."""
    omega_s = omega_e + slip_frequency(params, T_m, psi_rd)
    psi = params.k_r * psi_rd
    return im_determinant(params, "sensorless",
                          (0.0, 0.0, psi, 0.0, omega_e, T_m),
                          (0.0, 0.0, 0.0, omega_s * psi, 0.0, 0.0))


SPMSM_SPEC = BrushlessSmParams(kind="spmsm", R_s=0.01, L_d=1e-3, L_q=1e-3,
                               psi_r=0.1, J=1e-2, p=2)


def random_sm_point(machine):
    if machine.has_field:
        x = np.array([RNG.normal(0, 10), RNG.normal(0, 10), RNG.normal(0, 5),
                      RNG.normal(0, 100), RNG.uniform(-np.pi, np.pi)])
        u = RNG.normal(0, 20, 3)
    else:
        x = np.array([RNG.normal(0, 10), RNG.normal(0, 10),
                      RNG.normal(0, 100), RNG.uniform(-np.pi, np.pi)])
        u = RNG.normal(0, 20, 2)
    return x, u


def closed_form_at(machine, x, u):
    """Closed-form determinant evaluated at a dynamic operating point."""
    return sm_channels(machine, x, machine.f(x, u))[-1]


# ---------------------------------------------------------------------------
# observability vector


def test_vector_spmsm_constant():
    vec = sm_observability_vector(SPMSM_SPEC, i_sd=12.0, i_sq=-3.0,
                                  di_sd=50.0, di_sq=7.0)
    assert vec == (0.1, 0.0, 0.0, 0.0)


def test_vector_wrsm_setpoint_values():
    psi_od, psi_oq, dpsi_od, dpsi_oq = sm_observability_vector(
        WRSM_DEFAULT, 2.0, 15.0, i_f=4.0, di_sd=10.0, di_sq=-20.0, di_f=30.0)
    assert psi_od == pytest.approx(1e-4 * 2 + 5.7e-3 * 4, rel=1e-12)
    L_oq = 1e-4 - 5.7e-3**2 / 0.85
    assert psi_oq == pytest.approx(L_oq * 15, rel=1e-12)
    assert psi_od == pytest.approx(0.0230, abs=5e-5)
    assert psi_oq == pytest.approx(9.27e-4, abs=5e-7)
    assert dpsi_od == pytest.approx(1e-4 * 10 + 5.7e-3 * 30, rel=1e-12)
    assert dpsi_oq == pytest.approx(L_oq * -20, rel=1e-12)


def test_vector_zero_angle_undefined():
    assert sm_observability_vector(SYRM_DEFAULT, 0.0, 0.0) == (0.0,) * 4
    assert math.isnan(sm_omega_o(SYRM_DEFAULT, 0.0, 0.0))


def test_vector_requires_field_current():
    with pytest.raises(ValueError, match="i_f"):
        sm_observability_vector(WRSM_DEFAULT, 1.0, 1.0)


def test_hesm_vector_adds_magnet_flux():
    psi_od = sm_observability_vector(HESM_DEFAULT, 2.0, 15.0, i_f=4.0)[0]
    base = HESM_DEFAULT.L_delta * 2.0 + HESM_DEFAULT.M_f * 4.0
    assert psi_od == pytest.approx(base + HESM_DEFAULT.psi_r, rel=1e-12)


def test_spmsm_theta_o_identically_zero():
    # the vector is the magnet flux along d: angle 0 whatever the currents
    for _ in range(20):
        psi_od, psi_oq, _, _ = sm_observability_vector(
            SPMSM_SPEC, RNG.normal(0, 50), RNG.normal(0, 50))
        assert psi_od == 0.1 and psi_oq == 0.0


# ---------------------------------------------------------------------------
# SM determinants vs oracle


def test_spmsm_determinant_zero_at_standstill():
    for _ in range(10):
        det = sm_determinant(SPMSM_SPEC, 0.0, RNG.normal(0, 30),
                             RNG.normal(0, 30))
        assert det == 0.0


def test_spmsm_determinant_spec_value():
    det = sm_determinant(SPMSM_SPEC, 100.0, 5.0, -3.0)
    assert det == pytest.approx(0.1**2 / 1e-3**2 * 100.0, rel=1e-12)


def test_spmsm_determinant_odd_linear_in_speed():
    i_sd, i_sq = 4.0, -7.0
    base = sm_determinant(SPMSM_SPEC, 50.0, i_sd, i_sq)
    assert sm_determinant(SPMSM_SPEC, -50.0, i_sd, i_sq) == pytest.approx(-base)
    assert sm_determinant(SPMSM_SPEC, 100.0, i_sd, i_sq) == pytest.approx(2 * base)


def test_syrm_determinant_zero_at_zero_current():
    assert sm_determinant(SYRM_DEFAULT, 123.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("kind,params,n_points,tol", [
    ("wrsm", WRSM_DEFAULT, 50, 1e-4),
    ("ipmsm", IPMSM_DEFAULT, 30, 1e-4),
    ("spmsm", SPMSM_DEFAULT, 30, 1e-4),
    ("syrm", SYRM_DEFAULT, 30, 1e-4),
    ("hesm", HESM_DEFAULT, 30, 1e-4),
])
def test_sm_determinant_matches_oracle(kind, params, n_points, tol):
    machine = SynchronousMachine(params)
    for _ in range(n_points):
        x, u = random_sm_point(machine)
        closed = closed_form_at(machine, x, u)
        res = machine_observability_matrix(machine, x, u)
        assert abs(abs(res.determinant) - abs(closed)) <= tol * abs(closed)
        # sign convention agrees as well for the chosen row order
        assert np.sign(res.determinant) == np.sign(closed)


def test_margin_determinant_equivalence():
    """Determinant factors exactly as D * (omega - ratio * omega_o)."""
    machine = SynchronousMachine(WRSM_DEFAULT)
    p = WRSM_DEFAULT
    for _ in range(30):
        x, u = random_sm_point(machine)
        psi_od, _, omega_o, ratio, det = sm_channels(machine, x,
                                                     machine.f(x, u))
        w, i_q = x[3], park(x[:2], x[4], "to_dq")[1]
        fc = p.field_coupling
        D = (psi_od**2 + (p.L_delta - fc) * p.L_delta * i_q**2) \
            / ((p.L_d - fc) * p.L_q)
        assert det == pytest.approx(D * (w - ratio * omega_o), rel=1e-9)


def test_condition_ratio():
    assert sm_condition_ratio(IPMSM_DEFAULT, 3.0, 8.0) == 1.0
    assert sm_condition_ratio(WRSM_DEFAULT, 3.0, 0.0, i_f=2.0) == 1.0
    r = sm_condition_ratio(WRSM_DEFAULT, 2.0, 15.0, i_f=4.0)
    assert 0.0 < r < 1.0
    syrm_zero = BrushlessSmParams(kind="syrm", R_s=0.01, L_d=0.8e-3,
                                  L_q=0.4e-3, psi_r=0.0, J=1e-2, p=2)
    assert math.isnan(sm_condition_ratio(syrm_zero, 0.0, 0.0))


# ---------------------------------------------------------------------------
# induction machine


def test_im_with_speed_value_at_zero_speed():
    p = IM_DEFAULT
    x = np.zeros(6)
    det = im_determinant(p, "with_speed", x, np.zeros(6))
    expected = -(p.p / p.J) / p.tau_r**2
    assert det == pytest.approx(expected, rel=1e-12)
    assert abs(det) == pytest.approx(8.43e4, rel=0.01)


def test_im_with_speed_strictly_negative():
    p = IM_DEFAULT
    for we in np.linspace(-1000, 1000, 101):
        x = np.array([0, 0, 0, 0, we, 0.0])
        assert im_determinant(p, "with_speed", x, np.zeros(6)) < 0


def test_im_sensorless_zero_for_frozen_flux():
    p = IM_DEFAULT
    x = np.array([1e-3, -2e-3, 0.03, 0.01, 40.0, 2.0])
    xdot = np.zeros(6)
    assert im_determinant(p, "sensorless", x, xdot) == 0.0


def test_im_determinants_match_oracle():
    machine = InductionMachine(IM_DEFAULT)
    p = IM_DEFAULT
    for _ in range(30):
        x = RNG.normal(0, 1, 6) * np.array([2e-3, 2e-3, 0.05, 0.05, 100, 5])
        u = RNG.normal(0, 1, 2)
        ud = RNG.normal(0, 10, 2)
        xd = machine.f(x, u)
        res_w = machine_observability_matrix(machine, x, u, speed_measured=True)
        closed_w = im_determinant(p, "with_speed", x, xd)
        assert abs(res_w.determinant - closed_w) < 1e-5 * abs(closed_w)
        res_s = machine_observability_matrix(machine, x, u, ud)
        closed_s = im_determinant(p, "sensorless", x, xd)
        assert abs(res_s.determinant - closed_s) < 1e-4 * abs(closed_s)


def test_sensorless_oracle_scale_state_independent():
    # the scaled-coordinate oracle needs no rescaling
    machine = InductionMachine(IM_DEFAULT)
    scale = 1.0
    ratios = []
    for _ in range(30):
        x = RNG.normal(0, 1, 6) * np.array([2e-3, 2e-3, 0.05, 0.05, 100, 5])
        u = RNG.normal(0, 1, 2)
        res = machine_observability_matrix(machine, x, u, RNG.normal(0, 10, 2))
        closed = im_determinant(IM_DEFAULT, "sensorless", x, machine.f(x, u))
        ratios.append(res.determinant / closed)
    ratios = np.asarray(ratios)
    assert np.max(np.abs(ratios - scale)) < 1e-6


def test_im_condition_values():
    p = IM_DEFAULT
    assert im_condition(p, 50.0, 0.0, 2 * math.pi * 50) == pytest.approx(
        314.159265, abs=1e-6)
    assert im_condition(p, 10.0, 0.0, 0.0) == 0.0


def test_im_condition_returns_flux_frequency_for_steady_rotation():
    p = IM_DEFAULT
    omega_s = 37.5
    for ang in np.linspace(0, 2 * np.pi, 17):
        psi = 0.03 * np.array([math.cos(ang), math.sin(ang)])
        dpsi = omega_s * np.array([-psi[1], psi[0]])
        ws = flux_angular_velocity(psi, dpsi)
        assert ws == pytest.approx(omega_s, rel=1e-12)
        assert im_condition(p, 55.0, 0.0, ws) == pytest.approx(omega_s, abs=1e-6)


def test_flux_angular_velocity_zero_vector():
    assert math.isnan(flux_angular_velocity([0.0, 0.0], [1.0, 0.0]))


def test_unobservability_line():
    p = IM_DEFAULT
    on_line, dist = unobservability_line(p, 0.0, 0.0, psi_rd=0.05)
    assert on_line == 0.0 and dist == 0.0
    on_line, _ = unobservability_line(p, 0.0, 10.0, psi_rd=0.05)
    assert on_line == pytest.approx(-(1.5e-3 / 4) * 10 / 0.0025, rel=1e-12)
    assert on_line == pytest.approx(-1.5, rel=1e-12)
    # generator-mode quadrants: speed on the line opposes the torque sign
    for T_m in (-20.0, -1.0, 1.0, 20.0):
        ol, _ = unobservability_line(p, 0.0, T_m, psi_rd=0.05)
        assert ol * T_m < 0
    with pytest.raises(DegenerateFluxError):
        unobservability_line(p, 0.0, 1.0, psi_rd=0.0)


def test_im_steady_point_consistency():
    """Constructed steady states satisfy the dynamics and torque relation."""
    p = IM_DEFAULT
    machine = InductionMachine(p)
    for (we, Tm) in [(-1.5, 10.0), (40.0, 5.0), (10.0, -8.0), (0.0, 0.0)]:
        x, u, u_dot = im_steady_operating_point(p, we, Tm, psi_rd=0.05)
        xd = machine.f(x, u)
        omega_s = we + slip_frequency(p, Tm, 0.05)
        assert xd[4] == pytest.approx(0.0, abs=1e-9 * max(abs(Tm), 1.0))
        # currents and fluxes rotate rigidly at the stator frequency
        assert np.allclose(xd[2:4], omega_s * np.array([-x[3], x[2]]),
                           rtol=1e-9, atol=1e-12)
        assert np.allclose(xd[0:2], omega_s * np.array([-x[1], x[0]]),
                           rtol=1e-9, atol=1e-12)
        # torque equals the requested value
        T = (p.p / p.L_sigma) * (x[1] * x[2] - x[0] * x[3])
        assert T == pytest.approx(Tm, rel=1e-9, abs=1e-12)


def test_im_steady_determinant_zero_exactly_on_line():
    p = IM_DEFAULT
    psi_rd = 0.05
    for Tm in (-10.0, 3.0, 10.0):
        on_line, _ = unobservability_line(p, 0.0, Tm, psi_rd)
        det_on = im_steady_determinant(p, on_line, Tm, psi_rd)
        det_off = im_steady_determinant(p, on_line + 5.0, Tm, psi_rd)
        assert abs(det_on) < 1e-9 * abs(det_off)


def test_im_zero_set_matches_oracle_rank():
    """Closed form vanishing coincides with oracle rank deficiency."""
    p = IM_DEFAULT
    machine = InductionMachine(p)
    x_on, u_on, ud_on = im_steady_operating_point(p, -1.5, 10.0, 0.05)
    res_on = machine_observability_matrix(machine, x_on, u_on, ud_on)
    assert res_on.rank < 6
    x_off, u_off, ud_off = im_steady_operating_point(p, 40.0, 10.0, 0.05)
    res_off = machine_observability_matrix(machine, x_off, u_off, ud_off)
    assert res_off.rank == 6
    closed_off = im_determinant(p, "sensorless", x_off, machine.f(x_off, u_off))
    assert abs(closed_off) > 0


# ---------------------------------------------------------------------------
# operating points solved from the rate kernels


@pytest.mark.parametrize("kind", SM_KINDS + ("im",))
def test_operating_points_reproduce_the_requested_rates(kind):
    rng = np.random.default_rng(16)
    machine = make_machine(kind)
    p = machine.params
    for _ in range(50):
        if kind == "im":
            we, Tm = rng.normal(0, 100), rng.normal(0, 20)
            psi_rd = rng.uniform(0.01, 0.1)
            x, u, _ = im_steady_operating_point(p, we, Tm, psi_rd)
            # currents and fluxes rotate at the stator frequency
            omega_s = we + slip_frequency(p, Tm, psi_rd)
            want = omega_s * np.concatenate([J2 @ x[:2], J2 @ x[2:4]])
        else:
            i_f = rng.normal(0, 5) if p.has_field else None
            di = rng.normal(0, 100, 3)
            w, th = rng.normal(0, 300), rng.uniform(-np.pi, np.pi)
            x, u = sm_operating_point(p, w, *rng.normal(0, 10, 2), i_f, *di,
                                      theta=th)
            want = park(di[:2], th, "to_ab") + w * (J2 @ x[:2])
            if p.has_field:
                want = np.append(want, di[2])
        got = machine.f(x, u)[:len(want)]
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", SM_KINDS)
def test_sm_standstill_determinant_is_exactly_zero(kind):
    """With no speed and no current rate the input is exactly R i, so the
    rates, and with them the determinant, vanish exactly at any position;
    ``check`` takes theta = 0, where a zero dq current gives a zero input."""
    rng = np.random.default_rng(17)
    machine = make_machine(kind)
    p = machine.params
    for j in range(100):
        i_f = rng.normal(0, 5) if p.has_field else None
        i_dq = rng.normal(0, 10, 2) * (rng.uniform(size=2) < 0.6)
        theta = rng.uniform(-np.pi, np.pi) if j % 2 else 0.0
        x, u = sm_operating_point(p, 0.0, *i_dq, i_f, theta=theta)
        rep = observability_report(machine, x, u)
        assert rep.determinant == 0.0
        assert not rep.guaranteed and rep.rank < machine.n_states


# ---------------------------------------------------------------------------
# closed forms on arrays


def points(*columns):
    """The columns split into points of Python floats."""
    return list(zip(*(np.asarray(c, float).tolist() for c in columns)))


def assert_pointwise(on_columns, at_points):
    """A column evaluation against the N evaluations at each point, stacked
    as its last axis: the same shape, dtype and bits, the sign of a zero
    and NaN included (a square is a product on both, not ``pow`` on a
    float). One scalar on the columns stands for every point: a value the
    evaluation does not define there."""
    at_points = np.stack(at_points, axis=-1)
    if np.ndim(on_columns):
        assert np.shape(on_columns) == at_points.shape
    on_columns = np.broadcast_to(on_columns, at_points.shape)
    assert on_columns.dtype == at_points.dtype
    assert on_columns.tobytes() == at_points.tobytes()


def assert_verdicts_are_points(machine, X, U, at, **kwargs):
    """``closed_forms`` on the columns ``X``, ``U`` against its value at
    each of the points ``at``, a list of ``(x, u)``, field by field."""
    verdict = closed_forms(machine, X, machine.f(X, U), **kwargs)
    at_points = [closed_forms(machine, x, machine.f(x, u), **kwargs)
                 for x, u in at]
    for k, column in enumerate(verdict):
        assert_pointwise(column, [v[k] for v in at_points])


@pytest.mark.parametrize("params", [WRSM_DEFAULT, HESM_DEFAULT, IPMSM_DEFAULT,
                                    SPMSM_DEFAULT, SYRM_DEFAULT])
def test_sm_closed_forms_on_arrays(params):
    n = 200
    w, i_sd, i_sq, i_f = RNG.normal(0, 100, n), *RNG.normal(0, 10, (3, n))
    di_sd, di_sq, di_f = RNG.normal(0, 1e3, (3, n))
    i_sd[:3] = i_sq[:3] = i_f[:3] = 0.0   # zero currents
    i_sq[3:6] = 0.0                       # zero q current alone
    field = SynchronousMachine(params).has_field
    pts = [dict(i_sd=a, i_sq=b, i_f=c if field else None, di_sd=d, di_sq=e,
                di_f=g)
           for a, b, c, d, e, g in points(i_sd, i_sq, i_f, di_sd, di_sq, di_f)]
    if not field:
        i_f = None

    det = sm_determinant(params, w, i_sd, i_sq, i_f, di_sd, di_sq, di_f)
    assert_pointwise(det, [sm_determinant(params, wk, **pt)
                           for wk, pt in zip(w.tolist(), pts)])
    omega_o = sm_omega_o(params, i_sd, i_sq, i_f, di_sd, di_sq, di_f)
    assert_pointwise(omega_o, [sm_omega_o(params, **pt) for pt in pts])
    ratio = sm_condition_ratio(params, i_sd, i_sq, i_f)
    assert_pointwise(ratio, [sm_condition_ratio(params, pt["i_sd"],
                                                pt["i_sq"], pt["i_f"])
                             for pt in pts])
    # the ratio is exactly 1 where only i_sq vanishes
    assert np.all(ratio[3:6] == 1.0)
    # without a magnet, zero currents leave a zero vector: no velocity and
    # no ratio there (psi_od = i_sq = 0)
    zero_vector = getattr(params, "psi_r", 0.0) == 0.0
    assert np.all(np.isnan(omega_o[:3]) == zero_vector)
    assert np.all(np.isnan(ratio[:3]) == zero_vector)
    assert not np.any(np.isnan(ratio[3:]))

    # the operating points and their verdicts on columns, half of them off
    # theta = 0, are the points' bit for bit
    machine = SynchronousMachine(params)
    theta = np.where(np.arange(n) % 2, RNG.uniform(-np.pi, np.pi, n), 0.0)
    X, U = sm_operating_point(params, w, i_sd, i_sq, i_f, di_sd, di_sq, di_f,
                              theta)
    at = [sm_operating_point(params, wk, theta=tk, **pt)
          for wk, tk, pt in zip(w.tolist(), theta.tolist(), pts)]
    assert {(x.shape, u.shape) for x, u in at} == {
        ((machine.n_states,), (machine.n_inputs,))}
    assert_pointwise(X, [x for x, _ in at])
    assert_pointwise(U, [u for _, u in at])
    assert_verdicts_are_points(machine, X, U, at)


def test_flux_angular_velocity_on_arrays():
    psi, dpsi = RNG.normal(0, 0.05, (2, 100)), RNG.normal(0, 5, (2, 100))
    psi[:, :2] = 0.0
    ws = flux_angular_velocity(psi, dpsi)
    assert_pointwise(ws, [flux_angular_velocity(p[:2], p[2:])
                          for p in points(*psi, *dpsi)])
    assert np.all(np.isnan(ws[:2])) and not np.any(np.isnan(ws[2:]))


def test_im_closed_forms_on_arrays():
    p = IM_DEFAULT
    X = RNG.normal(0, 1, (6, 200)) * np.array(
        [2e-3, 2e-3, 0.05, 0.05, 100, 5])[:, None]
    X[2:4, :2] = 0.0
    Xdot = InductionMachine(p).f(X, RNG.normal(0, 1, 2))
    for mode in ("with_speed", "sensorless"):
        assert_pointwise(im_determinant(p, mode, X, Xdot),
                         [im_determinant(p, mode, x[:6], x[6:])
                          for x in points(*X, *Xdot)])
    assert_pointwise(im_condition(p, X[4], Xdot[4], X[0] * 1e4),
                     [im_condition(p, a, b, c)
                      for a, b, c in points(X[4], Xdot[4], X[0] * 1e4)])
    T_m, psi_rd = RNG.normal(0, 10, 200), RNG.uniform(0.01, 0.1, 200)
    assert_pointwise(slip_frequency(p, T_m, psi_rd),
                     [slip_frequency(p, a, b) for a, b in points(T_m, psi_rd)])

    # the steady operating points and their verdicts on columns are the
    # points' bit for bit, with one flux for the whole grid as the sweep
    # uses it too
    machine = InductionMachine(p)
    for flux in (psi_rd, 0.05):
        columns = im_steady_operating_point(p, X[4], T_m, flux)
        at = [im_steady_operating_point(p, *pt)
              for pt in points(*np.broadcast_arrays(X[4], T_m, flux))]
        assert {tuple(a.shape for a in pt) for pt in at} == {
            ((6,), (2,), (2,))}
        for k, column in enumerate(columns):
            assert_pointwise(column, [pt[k] for pt in at])
    for speed_measured in (False, True):
        assert_verdicts_are_points(machine, columns[0], columns[1],
                                   [pt[:2] for pt in at],
                                   speed_measured=speed_measured)


@pytest.mark.parametrize("bad", [0.0, -0.01, 1e-300])
def test_slip_frequency_rejects_any_degenerate_flux(bad):
    psi_rd = np.array([0.05, bad, 0.02])
    with pytest.raises(DegenerateFluxError):
        slip_frequency(IM_DEFAULT, np.ones(3), psi_rd)
    with pytest.raises(DegenerateFluxError):
        slip_frequency(IM_DEFAULT, 1.0, bad)


# ---------------------------------------------------------------------------
# DC machines


def test_dcm_determinants():
    pm, ser = PM_DCM_DEFAULT, SERIES_DCM_DEFAULT
    assert dcm_determinant(ser, 0.0) == 0.0
    expected_pm = -pm.K**2 / (pm.J * pm.L_a**2)
    assert dcm_determinant(pm, 0.0) == pytest.approx(expected_pm, rel=1e-12)
    assert dcm_determinant(pm, 123.0) == dcm_determinant(pm, -5.0)


def test_series_dcm_matches_oracle():
    machine = make_machine("series_dcm")
    for _ in range(20):
        x = np.array([RNG.normal(0, 5), RNG.normal(0, 50), RNG.normal(0, 1)])
        u = RNG.normal(0, 10, 1)
        ud = RNG.normal(0, 10, 1)
        res = machine_observability_matrix(machine, x, u, ud)
        closed = dcm_determinant(SERIES_DCM_DEFAULT, x[0])
        assert abs(res.determinant - closed) <= 1e-6 * max(abs(closed), 1e-9)


# ---------------------------------------------------------------------------
# combined report


def test_report_spmsm_standstill_not_guaranteed():
    machine = SynchronousMachine(SPMSM_SPEC)
    x, u = sm_operating_point(SPMSM_SPEC, 0.0, 1.0, 2.0)
    rep = observability_report(machine, x, u)
    assert rep.determinant == 0.0
    assert not rep.guaranteed
    assert rep.rank < 4


def test_report_spmsm_spinning_guaranteed():
    machine = SynchronousMachine(SPMSM_SPEC)
    x, u = sm_operating_point(SPMSM_SPEC, 100.0, 1.0, 2.0)
    rep = observability_report(machine, x, u)
    assert rep.determinant == pytest.approx(1e6, rel=1e-9)
    assert rep.guaranteed and rep.rank == 4
    assert rep.margin == pytest.approx(100.0, rel=1e-9)


def test_report_margin_measures_the_determinant_zero_set():
    # a field machine whose vector has a q component: the determinant
    # vanishes at omega = ratio * omega_o with ratio != 1, where the
    # distance to omega_o alone is hundreds of rad/s
    p = WRSM_DEFAULT
    ratio = sm_condition_ratio(p, 0.0, 1.0, 0.0)
    omega_o = sm_omega_o(p, 0.0, 1.0, 0.0, di_f=10.0)
    assert ratio == pytest.approx(0.6178, rel=1e-4)
    assert abs(omega_o - ratio * omega_o) > 300.0
    machine = SynchronousMachine(p)
    for omega, guaranteed in ((ratio * omega_o, False),
                              (ratio * omega_o + 3.0, True)):
        x, u = sm_operating_point(p, omega, 0.0, 1.0, i_f=0.0, di_f=10.0)
        rep = observability_report(machine, x, u)
        assert rep.guaranteed is guaranteed
        # the margin and the determinant vanish together
        assert rep.margin == pytest.approx(omega - ratio * omega_o,
                                           abs=1e-9)
        if not guaranteed:
            assert abs(rep.margin) < 1e-9
            assert abs(rep.determinant) < 1e-12


def test_report_im_with_speed_always_guaranteed():
    machine = InductionMachine(IM_DEFAULT)
    x, u, _ = im_steady_operating_point(IM_DEFAULT, -1.5, 10.0, 0.05)
    rep = observability_report(machine, x, u, speed_measured=True)
    assert rep.guaranteed and rep.determinant < 0


def test_report_im_sensorless_on_line():
    machine = InductionMachine(IM_DEFAULT)
    x, u, ud = im_steady_operating_point(IM_DEFAULT, -1.5, 10.0, 0.05)
    rep = observability_report(machine, x, u, ud)
    assert not rep.guaranteed
    assert abs(rep.margin) < 1e-6
