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
from .machines import (J2, DcMachine, InductionMachine, SynchronousMachine,
                       dq_derivative, park, wrap_angle)
from .params import BrushlessSmParams, DcmParams, ImParams, WrsmParams

#: |margin| (rad/s) below which observability is declared "not guaranteed".
OBS_THRESHOLD_DEFAULT = 2.0


class DegenerateFluxError(ValueError):
    """Direct rotor flux must be positive to define the slip relation."""


# ---------------------------------------------------------------------------
# synchronous machines


@dataclass(frozen=True)
class ObservabilityVector:
    """Rotor-frame flux-like vector governing SM observability."""

    psi_od: float
    psi_oq: float

    @property
    def theta_o(self) -> float:
        """Vector angle in the rotor frame, (-pi, pi]; NaN for a zero vector."""
        if self.psi_od == 0.0 and self.psi_oq == 0.0:
            return math.nan
        return float(wrap_angle(math.atan2(self.psi_oq, self.psi_od)))


def _sm_kind(params) -> str:
    if isinstance(params, WrsmParams):
        return "wrsm"
    if isinstance(params, BrushlessSmParams):
        return params.kind
    raise TypeError("params must be WrsmParams or BrushlessSmParams")


def _rotor_flux_const(params, i_f: Optional[float]) -> float:
    """Rotor-side excitation flux entering the d-axis component."""
    kind = _sm_kind(params)
    flux = 0.0
    if kind in ("wrsm", "hesm"):
        if i_f is None:
            raise ValueError(f"{kind} requires the field current i_f")
        flux += params.M_f * i_f
    if kind != "wrsm":
        flux += params.psi_r
    return flux


def sm_observability_vector(params, i_sd: float, i_sq: float,
                            i_f: Optional[float] = None) -> ObservabilityVector:
    """
    Observability vector of a synchronous machine in the rotor frame.

    d-component: saliency flux plus total rotor excitation flux (active
    flux); q-component: saliency flux weighted by the field-leakage factor.
    """
    psi_od = params.L_delta * i_sd + _rotor_flux_const(params, i_f)
    psi_oq = params.sigma_delta * params.L_delta * i_sq
    return ObservabilityVector(psi_od=psi_od, psi_oq=psi_oq)


def sm_observability_vector_rate(params, i_sd, i_sq, i_f=None,
                                 di_sd=0.0, di_sq=0.0, di_f=0.0):
    """Time derivative of the observability-vector components."""
    kind = _sm_kind(params)
    dq_rate = params.L_delta * di_sd
    if kind in ("wrsm", "hesm"):
        dq_rate += params.M_f * di_f
    return dq_rate, params.sigma_delta * params.L_delta * di_sq


def sm_omega_o(params, i_sd, i_sq, i_f=None, di_sd=0.0, di_sq=0.0,
               di_f=0.0) -> float:
    """
    Angular velocity of the observability vector in the rotor frame.

    NaN when the vector is zero (angle undefined).
    """
    vec = sm_observability_vector(params, i_sd, i_sq, i_f)
    dd, dq = sm_observability_vector_rate(params, i_sd, i_sq, i_f,
                                          di_sd, di_sq, di_f)
    return flux_angular_velocity((vec.psi_od, vec.psi_oq), (dd, dq))


def sm_determinant(params, omega: float, i_sd: float, i_sq: float,
                   i_f: Optional[float] = None, di_sd: float = 0.0,
                   di_sq: float = 0.0, di_f: float = 0.0) -> float:
    """
    Closed-form determinant of the SM observability matrix.

    Operating-point current derivatives are *total* rotor-frame derivatives
    (see ``dq_derivative``); pass zeros for a steady state. The wound-rotor
    leakage factors collapse to 1 for brushless machines, so one expression
    covers every kind.
    """
    sd, sD, LD = params.sigma_d, params.sigma_delta, params.L_delta
    Ld, Lq = params.L_d, params.L_q
    psi_od = LD * i_sd + _rotor_flux_const(params, i_f)
    d_flux_rate, _ = sm_observability_vector_rate(params, i_sd, i_sq, i_f,
                                                  di_sd, di_sq, di_f)
    speed_term = (psi_od**2 + sD * LD**2 * i_sq**2) / (sd * Ld * Lq)
    transient_term = (sD / sd) * (LD / (Ld * Lq)) * (
        d_flux_rate * i_sq - psi_od * di_sq)
    return speed_term * omega + transient_term


def sm_condition_ratio(params, i_sd, i_sq, i_f=None) -> float:
    """
    Exact factor relating the determinant zero-set to the vector velocity.

    The determinant vanishes iff ``omega == ratio * omega_o``; the ratio is
    identically 1 for brushless machines and NaN when both the d-component
    and i_sq vanish.
    """
    sD, LD = params.sigma_delta, params.L_delta
    psi_od = LD * i_sd + _rotor_flux_const(params, i_f)
    num = psi_od**2 + sD**2 * LD**2 * i_sq**2
    den = psi_od**2 + sD * LD**2 * i_sq**2
    return num / np.where(den == 0.0, math.nan, den)   # NaN where den == 0


def sm_condition_margin(omega: float, omega_o: float) -> float:
    """Observability margin: rotor speed minus vector angular velocity."""
    return omega - omega_o


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


def sensorless_oracle_scale(params: ImParams) -> float:
    """
    Constant relating the scaled-coordinate numeric determinant to the
    closed form.

    The scaled-model observability matrix already absorbs the current/flux
    rescaling, so the factor is exactly 1; it is kept explicit (and asserted
    state-independent in the tests) as part of the report contract.
    """
    return 1.0


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


def unobservability_line(params: ImParams, omega_e: float, T_m: float,
                         psi_rd: float):
    """
    Speed on the not-guaranteed line for torque ``T_m``, plus the distance.

    The line is ``omega_e = -slip(T_m)`` (zero stator frequency); it lies in
    the generator-mode quadrants of the speed-torque plane.
    """
    on_line = -slip_frequency(params, T_m, psi_rd)
    return on_line, omega_e - on_line


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


def im_steady_operating_point(params: ImParams, omega_e: float, T_m: float,
                              psi_rd: float):
    """
    Consistent steady state (x, u, u_dot) for a rotating-flux operating point.

    The flux vector has magnitude ``psi_rd`` and rotates at the stator
    frequency implied by the slip relation; currents, voltages and the
    resistant torque are chosen so every state derivative except the flux
    rotation is zero. Useful for pointwise checks and sweeps.
    """
    omega_s = omega_e + slip_frequency(params, T_m, psi_rd)
    a, b = params.a, params.b
    kr, tr = params.k_r, params.tau_r
    psi_t = np.array([kr * psi_rd, 0.0])
    dpsi_t = omega_s * (J2 @ psi_t)
    gamma_psi = psi_t / tr - omega_e * (J2 @ psi_t)
    it = -(dpsi_t + gamma_psi) / (a - b)
    dit = omega_s * (J2 @ it)
    u = dit - a * it - gamma_psi
    u_dot = omega_s * (J2 @ u)
    x = np.array([it[0], it[1], psi_t[0], psi_t[1], omega_e, T_m])
    return x, u, u_dot


def sm_operating_point(params, omega: float, i_sd: float, i_sq: float,
                       i_f: Optional[float] = None, di_sd: float = 0.0,
                       di_sq: float = 0.0, di_f: float = 0.0,
                       theta: float = 0.0):
    """
    State and input realizing the requested rotor-frame currents and rates.

    Inverts the voltage equation at position ``theta`` so that the machine
    dynamics reproduce exactly the given total dq current derivatives.
    """
    machine = SynchronousMachine(params)
    i_ab = park([i_sd, i_sq], theta, "to_ab")
    di_ab = park([di_sd, di_sq], theta, "to_ab") \
        + omega * (J2 @ np.asarray(i_ab))
    if machine.has_field:
        if i_f is None:
            raise ValueError("field machines need i_f")
        currents = np.array([i_ab[0], i_ab[1], i_f])
        dI = np.array([di_ab[0], di_ab[1], di_f])
        R = np.array([params.R_s, params.R_s, params.R_f])
    else:
        currents = np.asarray(i_ab)
        dI = np.asarray(di_ab)
        R = np.array([params.R_s, params.R_s])
    L, Lp = machine.inductance(theta)
    u = L @ dI + R * currents + omega * (Lp @ currents)
    if machine.psi_r != 0.0:
        u = u + machine.psi_r * omega * np.array(
            [-math.sin(theta), math.cos(theta)] + ([0.0] if machine.has_field
                                                   else []))
    x = np.concatenate([currents, [omega, theta]])
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
    oracle_scale: float = 1.0
    psi_od: float = math.nan
    psi_oq: float = math.nan
    guaranteed: bool = False

    def to_dict(self) -> dict:
        return {
            "determinant": self.determinant,
            "oracle_determinant": self.oracle_determinant,
            "margin": self.margin,
            "rank": self.rank,
            "condition_number": self.condition_number,
            "oracle_scale": self.oracle_scale,
            "psi_od": self.psi_od,
            "psi_oq": self.psi_oq,
            "guaranteed": self.guaranteed,
        }


def observability_report(machine, x, u, u_dot=None,
                         speed_measured: bool = False,
                         threshold: float = OBS_THRESHOLD_DEFAULT
                         ) -> ObservabilityReport:
    """
    Evaluate closed form, numeric oracle and condition margin at one point.

    The operating-point derivatives entering the closed forms come from the
    machine dynamics at (x, u).
    """
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    xdot = machine.f(x, u)
    psi_od = psi_oq = math.nan
    oracle_scale = 1.0

    if isinstance(machine, SynchronousMachine):
        k = machine.n_currents
        omega, theta = x[k], x[k + 1]
        i_dq = park(x[:2], theta, "to_dq")
        di_dq = dq_derivative(xdot[:2], i_dq, omega, theta)
        i_f = x[2] if machine.has_field else None
        di_f = xdot[2] if machine.has_field else 0.0
        det = sm_determinant(machine.params, omega, i_dq[0], i_dq[1], i_f,
                             di_dq[0], di_dq[1], di_f)
        omega_o = sm_omega_o(machine.params, i_dq[0], i_dq[1], i_f,
                             di_dq[0], di_dq[1], di_f)
        margin = sm_condition_margin(omega, omega_o)
        vec = sm_observability_vector(machine.params, i_dq[0], i_dq[1], i_f)
        psi_od, psi_oq = vec.psi_od, vec.psi_oq
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
            oracle_scale = sensorless_oracle_scale(machine.params)
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
        oracle_determinant=float(oracle.determinant) / oracle_scale,
        margin=float(margin),
        rank=oracle.rank,
        condition_number=oracle.condition_number,
        oracle_scale=oracle_scale,
        psi_od=psi_od,
        psi_oq=psi_oq,
        guaranteed=bool(guaranteed),
    )
