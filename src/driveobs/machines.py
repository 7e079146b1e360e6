"""Continuous-time machine models: dynamics, output maps, coordinate transforms.

All synchronous-machine states live in the stationary two-phase frame for the
stator currents (field current, when present, in the rotor frame); the
induction machine uses the scaled stationary-frame model (currents multiplied
by the transient inductance, rotor fluxes by the rotor coupling factor).
"""

from __future__ import annotations

import math

import numpy as np

from .params import (BrushlessSmParams, DcmParams, ImParams, WrsmParams,
                     DEFAULT_PARAMS)

DET_L_FLOOR = 1e-18  # refuse inductance-matrix inversion below this (SI units)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])  # quarter-turn rotation


class SingularInductanceError(ValueError):
    """Inductance matrix is numerically singular (nonphysical parameters)."""


def wrap_angle(x):
    """Wrap an angle (scalar or array) to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), 2.0 * np.pi)


def park(xy, theta: float, direction: str = "to_dq") -> np.ndarray:
    """
    Rotate a two-vector between stationary (alpha-beta) and rotor (dq) frames.

    ``to_dq`` applies the inverse rotation of ``to_ab``; both preserve the
    Euclidean norm.
    """
    c, s = math.cos(theta), math.sin(theta)
    x, y = float(xy[0]), float(xy[1])
    if direction == "to_dq":
        return np.array([c * x + s * y, -s * x + c * y])
    if direction == "to_ab":
        return np.array([c * x - s * y, s * x + c * y])
    raise ValueError(f"direction must be 'to_dq' or 'to_ab', got {direction!r}")


def dq_derivative(d_ab, i_dq, omega: float, theta: float) -> np.ndarray:
    """
    Total time derivative of the dq current vector.

    Combines the rotated stationary-frame derivative with the frame-rotation
    term: d(i_dq)/dt = R(-theta)*d(i_ab)/dt - omega*J2*i_dq.
    """
    rot = park(d_ab, theta, "to_dq")
    return rot - omega * (J2 @ np.asarray(i_dq, float))


# ---------------------------------------------------------------------------
# rate kernels: plain arithmetic, so the arguments may be Python floats or
# numpy rows (one column per state)


def sm_current_rates(params, has_field: bool, psi_r: float):
    """
    Current derivatives of a synchronous machine.

    With a field winding the kernel is ``rates(ia, ib, i_f, w, c, s, va, vb,
    vf) -> (dia, dib, dif)``, else ``rates(ia, ib, w, c, s, va, vb) -> (dia,
    dib)``, where ``c, s`` are the cosine and sine of the rotor position.
    Solves L(theta) di/dt = v - R i - w L'(theta) i - e(theta) with the
    adjugate of L; the magnet back-EMF e vanishes with ``psi_r`` (wrsm,
    syrm).
    """
    p = params
    Rs, L0, L2 = p.R_s, p.L_0, p.L_2

    if not has_field:
        def rates(ia, ib, w, c1, s1, va, vb):
            c2 = 2.0 * c1 * c1 - 1.0
            s2 = 2.0 * s1 * c1
            l11 = L0 + L2 * c2
            l12 = L2 * s2
            l22 = L0 - L2 * c2
            lp11 = -2.0 * L2 * s2
            lp12 = 2.0 * L2 * c2
            lp22 = 2.0 * L2 * s2
            e = psi_r * w
            r1 = va - Rs * ia - w * (lp11 * ia + lp12 * ib) + e * s1
            r2 = vb - Rs * ib - w * (lp12 * ia + lp22 * ib) - e * c1
            inv = 1.0 / (l11 * l22 - l12 * l12)
            return ((l22 * r1 - l12 * r2) * inv, (l11 * r2 - l12 * r1) * inv)

        return rates

    Rf, Mf, Lf = p.R_f, p.M_f, p.L_f

    def rates(ia, ib, i_f, w, c1, s1, va, vb, vf):
        c2 = 2.0 * c1 * c1 - 1.0
        s2 = 2.0 * s1 * c1
        l11 = L0 + L2 * c2
        l12 = L2 * s2
        l13 = Mf * c1
        l22 = L0 - L2 * c2
        l23 = Mf * s1
        l33 = Lf
        lp11 = -2.0 * L2 * s2
        lp12 = 2.0 * L2 * c2
        lp13 = -Mf * s1
        lp22 = 2.0 * L2 * s2
        lp23 = Mf * c1
        e = psi_r * w
        r1 = va - Rs * ia - w * (lp11 * ia + lp12 * ib + lp13 * i_f) + e * s1
        r2 = vb - Rs * ib - w * (lp12 * ia + lp22 * ib + lp23 * i_f) - e * c1
        r3 = vf - Rf * i_f - w * (lp13 * ia + lp23 * ib)
        a11 = l22 * l33 - l23 * l23
        a12 = l13 * l23 - l12 * l33
        a13 = l12 * l23 - l13 * l22
        det = l11 * a11 + l12 * a12 + l13 * a13
        a22 = l11 * l33 - l13 * l13
        a23 = l12 * l13 - l11 * l23
        a33 = l11 * l22 - l12 * l12
        inv = 1.0 / det
        return ((a11 * r1 + a12 * r2 + a13 * r3) * inv,
                (a12 * r1 + a22 * r2 + a23 * r3) * inv,
                (a13 * r1 + a23 * r2 + a33 * r3) * inv)

    return rates


def im_rates(p: ImParams):
    """
    Derivatives of the scaled induction-machine model:
    ``rates(ia, ib, pa, pb, we, Tr, va, vb)`` returns the rates of the first
    five states (the resistant torque is constant).
    """
    a, b = p.a, p.b
    itr = 1.0 / p.tau_r
    ab = a - b
    c_J = p.c / p.J
    p_J = p.p / p.J

    def rates(ia, ib, pa, pb, we, Tr, va, vb):
        # gamma(omega) @ v = v/tau_r - omega*J2 v
        return (va + a * ia + itr * pa + we * pb,
                vb + a * ib + itr * pb - we * pa,
                -(itr * pa + we * pb) - ab * ia,
                -(itr * pb - we * pa) - ab * ib,
                c_J * (ib * pa - ia * pb) - p_J * Tr)

    return rates


def im_rates_unscaled(p: ImParams):
    """The same derivatives in physical coordinates (i_s in A, psi_r in Wb)."""
    rl = p.R_sigma / p.L_sigma
    kl = p.k_r / p.L_sigma
    il = 1.0 / p.L_sigma
    itr = 1.0 / p.tau_r
    mtr = p.M / p.tau_r
    pk_J = p.p**2 * p.k_r / p.J
    p_J = p.p / p.J

    def rates(ia, ib, pa, pb, we, Tr, va, vb):
        ga = itr * pa + we * pb
        gb = itr * pb - we * pa
        return (-rl * ia + kl * ga + il * va,
                -rl * ib + kl * gb + il * vb,
                -ga + mtr * ia,
                -gb + mtr * ib,
                pk_J * (ib * pa - ia * pb) - p_J * Tr)

    return rates


# ---------------------------------------------------------------------------
# machines: ``output_indices`` names the measured states, so the output map
# is ``y = x[output_indices()]``


class SynchronousMachine:
    """
    Synchronous machine in the stationary frame.

    Covers the wound-rotor machine and its brushless special cases. With a
    field winding (wrsm, hesm) the state is (i_alpha, i_beta, i_f, omega,
    theta) with input (v_alpha, v_beta, v_f); brushless kinds drop the field
    row. Speed has no modeled dynamics (d omega/dt = 0); position integrates
    the speed. Only the currents are measured.
    """

    def __init__(self, params):
        if isinstance(params, WrsmParams):
            self.kind = "wrsm"
            self.psi_r = 0.0
        elif isinstance(params, BrushlessSmParams):
            self.kind = params.kind
            self.psi_r = params.psi_r
        else:
            raise TypeError("params must be WrsmParams or BrushlessSmParams")
        self.params = params
        self.has_field = self.kind in ("wrsm", "hesm")
        self.n_currents = 3 if self.has_field else 2
        self.n_states = self.n_currents + 2
        self.n_inputs = self.n_currents
        # det L(theta) does not depend on theta
        p = params
        det = p.L_q * (p.L_d * p.L_f - p.M_f**2) if self.has_field \
            else p.L_d * p.L_q
        if abs(det) < DET_L_FLOOR:
            raise SingularInductanceError(
                f"|det L| below {DET_L_FLOOR:g}; parameters are nonphysical")
        self.rates = sm_current_rates(params, self.has_field, self.psi_r)

    def inductance(self, theta):
        """Inductance matrix and its position derivative.

        Returns (L, L') — 3x3 with a field winding, else the 2x2 stator
        block. Accepts an array of angles, returning stacked (..., k, k).
        """
        th = np.asarray(theta, float)
        p = self.params
        L0, L2 = p.L_0, p.L_2
        c2, s2 = np.cos(2 * th), np.sin(2 * th)
        k = self.n_currents
        shape = th.shape + (k, k)
        L = np.zeros(shape)
        Lp = np.zeros(shape)
        L[..., 0, 0] = L0 + L2 * c2
        L[..., 0, 1] = L[..., 1, 0] = L2 * s2
        L[..., 1, 1] = L0 - L2 * c2
        Lp[..., 0, 0] = -2 * L2 * s2
        Lp[..., 0, 1] = Lp[..., 1, 0] = 2 * L2 * c2
        Lp[..., 1, 1] = 2 * L2 * s2
        if self.has_field:
            c1, s1 = np.cos(th), np.sin(th)
            Mf, Lf = p.M_f, p.L_f
            L[..., 0, 2] = L[..., 2, 0] = Mf * c1
            L[..., 1, 2] = L[..., 2, 1] = Mf * s1
            L[..., 2, 2] = Lf
            Lp[..., 0, 2] = Lp[..., 2, 0] = -Mf * s1
            Lp[..., 1, 2] = Lp[..., 2, 1] = Mf * c1
        return L, Lp

    def f(self, x, u):
        """State derivative. ``x`` may be a single state (n,) or batched (n, m)."""
        x = np.asarray(x, float)
        k = self.n_currents
        w, th = x[k], x[k + 1]
        dI = self.rates(*x[:k], w, np.cos(th), np.sin(th),
                        *np.asarray(u, float))
        return np.array(dI + (np.zeros_like(w), w))

    def output_indices(self, speed_measured: bool = False):
        """The currents; a speed sensor is modeled for the IM only."""
        return tuple(range(self.n_currents))


class InductionMachine:
    """
    Induction machine in scaled stationary-frame coordinates.

    State (L_sigma*i_alpha, L_sigma*i_beta, k_r*psi_alpha, k_r*psi_beta,
    omega_e, T_r) with input (v_alpha, v_beta). The resistant torque is a
    slowly-varying state (dT_r/dt = 0). The stator currents are measured,
    and the speed too when a speed sensor is fitted.
    """

    n_states = 6
    n_inputs = 2

    def __init__(self, params: ImParams):
        self.params = params
        self.kind = "im"
        self.rates = im_rates(params)

    def f(self, x, u):
        """State derivative. ``x`` may be a single state (n,) or batched (n, m)."""
        x = np.asarray(x, float)
        dx = self.rates(*x, *np.asarray(u, float))
        return np.array(dx + (np.zeros_like(x[5]),))

    @property
    def scale_vector(self) -> np.ndarray:
        """Diagonal of the physical-to-scaled state transform."""
        p = self.params
        return np.array([p.L_sigma, p.L_sigma, p.k_r, p.k_r, 1.0, 1.0])

    def output_indices(self, speed_measured: bool = False):
        return (0, 1, 4) if speed_measured else (0, 1)


class DcMachine:
    """DC machine: permanent-magnet (linear) or series-excited (bilinear).
    Only the armature current is measured."""

    n_states = 3
    n_inputs = 1

    def __init__(self, params: DcmParams):
        self.params = params
        self.kind = "pm_dcm" if params.kind == "pm" else "series_dcm"

    def f(self, x, u):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        single = x.ndim == 1
        X = x[:, None] if single else x
        p = self.params
        ia, Om, Tl = X
        v = np.broadcast_to(u[:, None] if u.ndim == 1 else u, (1,) + ia.shape)[0]
        L, R = p.L_total, p.R_total
        if p.kind == "pm":
            dia = (v - R * ia - p.K * Om) / L
            dOm = (p.K * ia - Tl) / p.J - (p.f_v / p.J) * Om
        else:
            dia = (v - R * ia - p.K * ia * Om) / L
            dOm = (p.K * ia * ia - Tl) / p.J - (p.f_v / p.J) * Om
        out = np.vstack([dia, dOm, np.zeros_like(Tl)])
        return out[:, 0] if single else out

    def output_indices(self, speed_measured: bool = False):
        """The armature current; a speed sensor is modeled for the IM only."""
        return (0,)


def make_machine(kind: str, params=None):
    """Instantiate the machine model for a kind string."""
    if params is None:
        params = DEFAULT_PARAMS[kind]
    if kind == "wrsm" or kind in ("ipmsm", "spmsm", "syrm", "hesm"):
        return SynchronousMachine(params)
    if kind == "im":
        return InductionMachine(params)
    if kind in ("pm_dcm", "series_dcm"):
        return DcMachine(params)
    raise ValueError(f"unknown machine kind {kind!r}")
