"""Closed-form local-observability conditions for electric drives.

Synchronous machines get a rank-condition determinant plus the equivalent
flux-like "observability vector" whose angular velocity relative to the rotor
decides observability; the induction machine gets determinants with and
without speed measurement, the angular-frequency condition and the
not-guaranteed line in the speed-torque plane; DC machines get their
constant/current-scaled determinants. The closed forms are plain arithmetic:
each argument may be a Python float or a numpy array of operating points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lie import machine_observability_matrix
from .machines import J2, DcMachine, InductionMachine, SynchronousMachine, park
from .params import DcmParams, ImParams

#: |margin| (rad/s) below which observability is declared "not guaranteed".
OBS_THRESHOLD_DEFAULT = 2.0


class DegenerateFluxError(ValueError):
    """Direct rotor flux must be positive to define the slip relation."""


# ---------------------------------------------------------------------------
# synchronous machines


def sm_observability_vector(params, i_sd, i_sq, i_f=None, di_sd=0.0,
                            di_sq=0.0, di_f=0.0):
    """
    Observability vector of a synchronous machine in the rotor frame and its
    rate, ``(psi_od, psi_oq, dpsi_od, dpsi_oq)``, from the rotor-frame
    currents and their total derivatives.

    d-component: saliency flux plus the rotor excitation flux of the magnet
    and the field winding (active flux); q-component: the q current through
    ``L_delta - field_coupling``, the saliency less what the field winding
    takes off the d axis.
    """
    LD = params.L_delta
    L_oq = LD - params.field_coupling
    if params.has_field:
        if i_f is None:
            raise ValueError(f"{params.kind} requires the field current i_f")
        psi_od = LD * i_sd + (params.M_f * i_f + params.psi_r)
        dpsi_od = LD * di_sd + params.M_f * di_f
    else:
        psi_od, dpsi_od = LD * i_sd + params.psi_r, LD * di_sd
    return psi_od, L_oq * i_sq, dpsi_od, L_oq * di_sq


def sm_determinant(params, omega: float, i_sd: float, i_sq: float,
                   i_f: Optional[float] = None, di_sd: float = 0.0,
                   di_sq: float = 0.0, di_f: float = 0.0) -> float:
    """
    Closed-form determinant of the SM observability matrix.

    Operating-point current derivatives are *total* rotor-frame derivatives
    (see ``sm_channels``); pass zeros for a steady state. The field
    coupling is 0 for brushless machines, so one expression covers every
    kind.
    """
    psi_od, _, dpsi_od, _ = sm_observability_vector(
        params, i_sd, i_sq, i_f, di_sd, di_sq, di_f)
    LD, fc = params.L_delta, params.field_coupling
    L_oq, den = LD - fc, (params.L_d - fc) * params.L_q
    speed_term = (psi_od**2 + L_oq * LD * i_sq**2) / den
    transient_term = L_oq / den * (dpsi_od * i_sq - psi_od * di_sq)
    return speed_term * omega + transient_term


def sm_condition_ratio(params, i_sd, i_sq, i_f=None) -> float:
    """
    Exact factor relating the determinant zero-set to the vector velocity.

    The determinant vanishes iff ``omega == ratio * omega_o``; the ratio is
    identically 1 for brushless machines and NaN when both the d-component
    and i_sq vanish.
    """
    psi_od = sm_observability_vector(params, i_sd, i_sq, i_f)[0]
    LD = params.L_delta
    L_oq = LD - params.field_coupling
    num = psi_od**2 + L_oq * L_oq * i_sq**2
    den = psi_od**2 + L_oq * LD * i_sq**2
    return num / np.where(den == 0.0, math.nan, den)   # NaN where den == 0


def sm_channels(machine: SynchronousMachine, x, xdot):
    """
    Closed-form channels ``(psi_od, psi_oq, omega_o, ratio, det)`` of a
    synchronous machine at a state ``x``, one (n,) point, (n, N) columns or
    a tuple of columns, with the current rates ``xdot``: the observability
    vector, its angular velocity, ``sm_condition_ratio`` and
    ``sm_determinant``. The dq current rates add the frame's rotation,
    d(i_dq)/dt = R(-theta) d(i_ab)/dt - omega J2 i_dq.
    """
    k, p = machine.n_currents, machine.params
    omega, c, s = x[k], np.cos(x[k + 1]), np.sin(x[k + 1])
    i_d, i_q = c * x[0] + s * x[1], -s * x[0] + c * x[1]
    di_d = (c * xdot[0] + s * xdot[1]) + omega * i_q
    di_q = (-s * xdot[0] + c * xdot[1]) - omega * i_d
    i_f, di_f = (x[2], xdot[2]) if machine.has_field else (None, 0.0)
    currents = (i_d, i_q, i_f, di_d, di_q, di_f)
    psi = sm_observability_vector(p, *currents)
    return (*psi[:2], flux_angular_velocity(psi[:2], psi[2:]),
            sm_condition_ratio(p, i_d, i_q, i_f),
            sm_determinant(p, omega, *currents))


# ---------------------------------------------------------------------------
# induction machine


def im_determinant(params: ImParams, mode: str, state, state_dot) -> float:
    """
    Closed-form IM observability determinant.

    Parameters
    ----------
    params : ImParams
    mode : str
        "with_speed" (currents + speed measured) or "sensorless".
    state, state_dot : array_like
        Scaled state and its time derivative (as from ``InductionMachine.f``):
        a (6,) point, (6, n) columns or a tuple. The sensorless expression is
        written in unscaled fluxes; scaling is undone internally.
    """
    we = state[4]
    if mode == "with_speed":
        return -(params.p / params.J) * (we**2 + 1.0 / params.tau_r**2)
    if mode != "sensorless":
        raise ValueError("mode must be 'with_speed' or 'sensorless'")
    kr, tr = params.k_r, params.tau_r
    pa, pb = state[2] / kr, state[3] / kr
    dpa, dpb, dwe = state_dot[2] / kr, state_dot[3] / kr, state_dot[4]
    cross = dpa * pb - dpb * pa
    return (params.p / params.J) * (kr**2 / tr**2) * (
        tr * dwe * (pa * pa + pb * pb) - (1.0 + tr**2 * we**2) * cross)


def flux_angular_velocity(psi, dpsi) -> float:
    """Angular velocity of a rotating two-vector; NaN for a zero vector."""
    mag2 = psi[0]**2 + psi[1]**2
    # a zero denominator becomes NaN: no raise on floats, no warning on arrays
    return (psi[0] * dpsi[1] - psi[1] * dpsi[0]) / np.where(
        mag2 == 0.0, math.nan, mag2)


def im_condition(params: ImParams, omega_e: float, domega_e: float,
                 omega_s: float) -> float:
    """
    IM sensorless observability condition value (rad/s).

    Zero means observability is not guaranteed; the first term is the rate
    of the slip-angle arctangent, the second the stator flux frequency.
    """
    tr = params.tau_r
    return tr * domega_e / (1.0 + tr**2 * omega_e**2) + omega_s


def slip_frequency(params: ImParams, T_m: float, psi_rd: float) -> float:
    """Rotor-current angular frequency for a given torque and direct flux."""
    psi_sq = psi_rd**2
    if np.count_nonzero((psi_rd <= 0.0) | (psi_sq == 0.0)):
        raise DegenerateFluxError("psi_rd must be positive, with a square "
                                  "that does not underflow")
    return (params.R_r / params.p) * T_m / psi_sq


def im_steady_determinant(params: ImParams, omega_e: float, T_m: float,
                          psi_rd: float) -> float:
    """
    Sensorless determinant at a synthetic steady operating point.

    The steady flux (k_r psi_rd, 0) rotates at the stator frequency
    omega_e + slip at constant speed.
    """
    omega_s = omega_e + slip_frequency(params, T_m, psi_rd)
    psi = params.k_r * psi_rd
    return im_determinant(params, "sensorless",
                          (0.0, 0.0, psi, 0.0, omega_e, T_m),
                          (0.0, 0.0, 0.0, omega_s * psi, 0.0, 0.0))


def affine_solve(g, target, n: int) -> np.ndarray:
    """
    The ``v`` of length ``n`` with ``g(v) == target``, for ``g`` affine in v.

    The matrix of ``g`` comes from ``n + 1`` calls; two Newton steps from 0
    follow, the second removing the rounding of the first. No step can
    round onto a zero entry, so an entry below the rounding of the largest
    is set to zero.
    """
    g0 = g(np.zeros(n))
    G = np.column_stack([g(e) - g0 for e in np.eye(n)])
    v = np.linalg.solve(G, target - g0)
    v = v + np.linalg.solve(G, target - g(v))
    return np.where(np.abs(v) < np.finfo(float).eps * np.max(np.abs(v)),
                    0.0, v)


def im_steady_operating_point(params: ImParams, omega_e: float, T_m: float,
                              psi_rd: float):
    """
    Consistent steady state (x, u, u_dot) for a rotating-flux operating point.

    The flux vector has magnitude ``psi_rd`` and rotates at the stator
    frequency implied by the slip relation. The currents, solved from the
    flux rows of the kernel, and the voltages, solved from its current rows,
    rotate rigidly at that frequency too; the speed and the resistant torque
    stay constant. Useful for pointwise checks and sweeps.
    """
    omega_s = omega_e + slip_frequency(params, T_m, psi_rd)
    machine = InductionMachine(params)
    psi_t = np.array([params.k_r * psi_rd, 0.0])
    rest = np.array([psi_t[0], psi_t[1], omega_e, T_m])
    it = affine_solve(
        lambda i: machine.f(np.concatenate([i, rest]), np.zeros(2))[2:4],
        omega_s * (J2 @ psi_t), 2)
    x = np.concatenate([it, rest])
    u = affine_solve(lambda v: machine.f(x, v)[:2], omega_s * (J2 @ it), 2)
    u_dot = omega_s * (J2 @ u)
    return x, u, u_dot


def sm_operating_point(params, omega: float, i_sd: float, i_sq: float,
                       i_f: Optional[float] = None, di_sd: float = 0.0,
                       di_sq: float = 0.0, di_f: float = 0.0,
                       theta: float = 0.0):
    """
    State and input realizing the requested rotor-frame currents and rates.

    Solves the machine's current rates at position ``theta`` for the input,
    so that the dynamics reproduce exactly the given total dq current
    derivatives.
    """
    machine = SynchronousMachine(params)
    currents = park([i_sd, i_sq], theta, "to_ab")
    dI = park([di_sd, di_sq], theta, "to_ab") + omega * (J2 @ currents)
    if machine.has_field:
        if i_f is None:
            raise ValueError("field machines need i_f")
        currents, dI = np.append(currents, i_f), np.append(dI, di_f)
    x = np.concatenate([currents, [omega, theta]])
    k = machine.n_currents
    u = affine_solve(lambda v: machine.f(x, v)[:k], dI, machine.n_inputs)
    return x, u


# ---------------------------------------------------------------------------
# DC machines


def dcm_determinant(params: DcmParams, i_a: float = 0.0) -> float:
    """Observability determinant of a DC machine."""
    L = params.L_total
    if params.kind == "pm":
        return -params.K**2 / (params.J * L**2)
    return -params.K**2 / (params.J * L**2) * i_a**2


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class ObservabilityReport:
    """Closed-form and numeric observability diagnostics at one point."""

    determinant: float
    oracle_determinant: float
    margin: float
    rank: int
    condition_number: float
    singular_values: tuple = ()   # of the equilibrated oracle matrix
    psi_od: float = math.nan
    psi_oq: float = math.nan
    guaranteed: bool = False


def observability_report(machine, x, u, u_dot=None,
                         speed_measured: bool = False,
                         threshold: float = OBS_THRESHOLD_DEFAULT
                         ) -> ObservabilityReport:
    """
    Evaluate closed form, numeric oracle and condition margin at one point.

    The operating-point derivatives entering the closed forms come from the
    machine dynamics at (x, u).
    """
    x, u = np.asarray(x, float), np.asarray(u, float)
    xdot = machine.f(x, u)
    psi_od = psi_oq = math.nan

    if isinstance(machine, SynchronousMachine):
        psi_od, psi_oq, omega_o, ratio, det = sm_channels(machine, x, xdot)
        # the distance to the determinant's zero set omega = ratio * omega_o
        margin = x[machine.n_currents] - ratio * omega_o
        guaranteed = abs(margin) >= threshold
    elif isinstance(machine, InductionMachine):
        mode = "with_speed" if speed_measured else "sensorless"
        det = im_determinant(machine.params, mode, x, xdot)
        if speed_measured:
            margin = math.nan
            guaranteed = True  # determinant is strictly negative for all states
        else:
            kr = machine.params.k_r
            omega_s = flux_angular_velocity(x[2:4] / kr, xdot[2:4] / kr)
            margin = im_condition(machine.params, x[4], xdot[4], omega_s)
            guaranteed = abs(margin) >= threshold
    elif isinstance(machine, DcMachine):
        det = dcm_determinant(machine.params, x[0])
        margin = math.nan
        guaranteed = abs(det) > 1e-30
    else:
        raise TypeError(f"unsupported machine {machine!r}")

    oracle = machine_observability_matrix(machine, x, u, u_dot,
                                          speed_measured=speed_measured)
    return ObservabilityReport(
        determinant=float(det),
        oracle_determinant=float(oracle.determinant),
        margin=float(margin),
        rank=oracle.rank,
        condition_number=oracle.condition_number,
        singular_values=tuple(oracle.singular_values.tolist()),
        psi_od=psi_od,
        psi_oq=psi_oq,
        guaranteed=bool(guaranteed),
    )
