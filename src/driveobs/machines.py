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
                     DEFAULT_PARAMS, SM_KINDS)

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


# ---------------------------------------------------------------------------
# rate kernels: plain arithmetic, with the same bits on floats or numpy rows


def kernel_args(x, u):
    """``x``, ``u`` and the zero rate for a kernel: Python floats for one
    state (n,), 3-6x as fast as numpy scalars; numpy rows for a batch."""
    x = np.asarray(x, float)
    if x.ndim == 1:
        return x.tolist(), np.asarray(u, float).tolist(), 0.0
    return x, u, np.zeros(x.shape[1:])


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


def dcm_rates(p: DcmParams):
    """
    Derivatives of the DC machine: ``rates(ia, Om, Tl, v)`` returns the
    rates of the armature current and the speed (the load torque is
    constant). The series machine's field flux ``K ia`` takes the place of
    the magnet's ``K``.
    """
    L, R, K, J, fv_J = p.L_total, p.R_total, p.K, p.J, p.f_v / p.J
    series = p.kind == "series"

    def rates(ia, Om, Tl, v):
        k = K * ia if series else K
        return ((v - R * ia - k * Om) / L, (k * ia - Tl) / J - fv_J * Om)

    return rates


# ---------------------------------------------------------------------------
# machines: ``output_indices`` names the measured states, so the output map
# is ``y = x[output_indices()]``; ``lie_rows`` lists the (output, derivative
# order) pairs that the numeric oracle stacks into a square matrix


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
        if not isinstance(params, (WrsmParams, BrushlessSmParams)):
            raise TypeError("params must be WrsmParams or BrushlessSmParams")
        self.params = params
        self.kind, self.psi_r = params.kind, params.psi_r
        self.has_field = params.has_field
        self.n_currents = 3 if self.has_field else 2
        self.n_states = self.n_currents + 2
        self.n_inputs = self.n_currents
        # det L(0) as the rate kernel forms it at c = 1, s = 0, where l12,
        # l23 and a12 vanish; L_0 - L_2 may round to 0 where L_q does not
        p = params
        l11, l22 = p.L_0 + p.L_2, p.L_0 - p.L_2
        det = l11 * (l22 * p.L_f) - p.M_f * (p.M_f * l22) if self.has_field \
            else l11 * l22
        if abs(det) < DET_L_FLOOR:
            raise SingularInductanceError(
                f"|det L| below {DET_L_FLOOR:g}; parameters are nonphysical")
        self.rates = sm_current_rates(params, self.has_field, self.psi_r)

    def f(self, x, u):
        """Rates of one state (n,) on Python floats, or of a batch (n, m) on
        numpy rows, with the same bits; see ``kernel_args``."""
        x, u, zero = kernel_args(x, u)
        k = self.n_currents
        w, th = x[k], x[k + 1]
        c, s = np.cos(th), np.sin(th)
        if isinstance(th, float):
            c, s = float(c), float(s)
        return np.array(self.rates(*x[:k], w, c, s, *u) + (zero, w))

    def output_indices(self, speed_measured: bool = False):
        """The currents; a speed sensor is modeled for the IM only."""
        return tuple(range(self.n_currents))

    def lie_rows(self, speed_measured: bool = False):
        """Every current, then the rates of the two stator currents."""
        return tuple((i, 0) for i in range(self.n_currents)) + ((0, 1), (1, 1))


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
    # the kernel is bilinear in the state (we·pb, we·pa, ib·pa, ia·pb) and
    # affine in u, so the filter's Jacobian comes from ekf.jacobian_tensor
    quadratic = True

    def __init__(self, params: ImParams):
        self.params = params
        self.kind = "im"
        self.rates = im_rates(params)

    def f(self, x, u):
        """Rates of one state (n,) on Python floats, or of a batch (n, m) on
        numpy rows, with the same bits; see ``kernel_args``."""
        x, u, zero = kernel_args(x, u)
        return np.array(self.rates(*x, *u) + (zero,))

    @property
    def scale_vector(self) -> np.ndarray:
        """Diagonal of the physical-to-scaled state transform."""
        p = self.params
        return np.array([p.L_sigma, p.L_sigma, p.k_r, p.k_r, 1.0, 1.0])

    def output_indices(self, speed_measured: bool = False):
        return (0, 1, 4) if speed_measured else (0, 1)

    def lie_rows(self, speed_measured: bool = False):
        """The outputs and their rates; sensorless, the currents' second
        rates too."""
        if speed_measured:
            return ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
        return ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))


class DcMachine:
    """DC machine: permanent-magnet (linear) or series-excited (bilinear).
    Only the armature current is measured."""

    n_states = 3
    n_inputs = 1

    def __init__(self, params: DcmParams):
        self.params = params
        self.kind = "pm_dcm" if params.kind == "pm" else "series_dcm"
        self.rates = dcm_rates(params)

    def f(self, x, u):
        """Rates of one state (n,) on Python floats, or of a batch (n, m) on
        numpy rows, with the same bits; see ``kernel_args``."""
        x, u, zero = kernel_args(x, u)
        return np.array(self.rates(*x, *u) + (zero,))

    def output_indices(self, speed_measured: bool = False):
        """The armature current; a speed sensor is modeled for the IM only."""
        return (0,)

    def lie_rows(self, speed_measured: bool = False):
        """The armature current and its first two rates."""
        return ((0, 0), (0, 1), (0, 2))


def make_machine(kind: str, params=None):
    """Instantiate the machine model for a kind string."""
    if kind not in DEFAULT_PARAMS:
        raise ValueError(f"unknown machine kind {kind!r}")
    if params is None:
        params = DEFAULT_PARAMS[kind]
    if kind in SM_KINDS:
        return SynchronousMachine(params)
    if kind == "im":
        return InductionMachine(params)
    return DcMachine(params)
