"""Continuous-time machine models: dynamics, output maps, coordinate transforms.

All synchronous-machine states live in the stationary two-phase frame for the
stator currents (field current, when present, in the rotor frame); the
induction machine uses the scaled stationary-frame model (currents multiplied
by the transient inductance, rotor fluxes by the rotor coupling factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
# state containers


@dataclass(frozen=True)
class SmState:
    """Synchronous-machine state. ``i_f`` is None for brushless kinds."""

    i_alpha: float
    i_beta: float
    omega: float
    theta: float
    i_f: Optional[float] = None

    @property
    def theta_wrapped(self) -> float:
        return float(wrap_angle(self.theta))

    def as_array(self) -> np.ndarray:
        if self.i_f is None:
            return np.array([self.i_alpha, self.i_beta, self.omega, self.theta])
        return np.array([self.i_alpha, self.i_beta, self.i_f,
                         self.omega, self.theta])

    @classmethod
    def from_array(cls, x, has_field: bool) -> "SmState":
        x = np.asarray(x, float)
        if has_field:
            return cls(x[0], x[1], x[3], x[4], i_f=x[2])
        return cls(x[0], x[1], x[2], x[3])


@dataclass(frozen=True)
class ImState:
    """Induction-machine state in scaled coordinates."""

    it_alpha: float   # L_sigma * i_s_alpha (V·s)
    it_beta: float
    pt_alpha: float   # k_r * psi_r_alpha (Wb)
    pt_beta: float
    omega_e: float    # electrical rotor speed (rad/s)
    T_r: float        # resistant torque (N·m)

    def as_array(self) -> np.ndarray:
        return np.array([self.it_alpha, self.it_beta, self.pt_alpha,
                         self.pt_beta, self.omega_e, self.T_r])

    @classmethod
    def from_array(cls, x) -> "ImState":
        x = np.asarray(x, float)
        return cls(*x)

    def currents(self, params: ImParams) -> np.ndarray:
        """Unscaled stator currents (A)."""
        return np.array([self.it_alpha, self.it_beta]) / params.L_sigma

    def fluxes(self, params: ImParams) -> np.ndarray:
        """Unscaled rotor fluxes (Wb)."""
        return np.array([self.pt_alpha, self.pt_beta]) / params.k_r


@dataclass(frozen=True)
class DcmState:
    """DC machine state: armature current, mechanical speed, load torque."""

    i_a: float
    Omega: float
    T_l: float

    def as_array(self) -> np.ndarray:
        return np.array([self.i_a, self.Omega, self.T_l])

    @classmethod
    def from_array(cls, x) -> "DcmState":
        x = np.asarray(x, float)
        return cls(*x)


# ---------------------------------------------------------------------------
# finite-difference Jacobian (shared by machine linearization and the
# observability-matrix builder)


def fd_jacobian(fun, z, rel_step=1e-6, order=2):
    """
    Central-difference Jacobian of ``fun`` at ``z``.

    Per-component step ``rel_step * max(1, |z_i|)``. ``order=4`` selects the
    five-point fourth-order central stencil.
    """
    z = np.asarray(z, float)
    f0 = np.asarray(fun(z), float)
    J = np.empty((f0.size, z.size))
    for i in range(z.size):
        h = rel_step * max(1.0, abs(z[i]))

        def ev(d, i=i):
            zz = z.copy()
            zz[i] += d
            return np.asarray(fun(zz), float)

        if order == 2:
            J[:, i] = (ev(h) - ev(-h)) / (2.0 * h)
        elif order == 4:
            J[:, i] = (8.0 * (ev(h) - ev(-h)) - (ev(2 * h) - ev(-2 * h))) / (12.0 * h)
        else:
            raise ValueError("order must be 2 or 4")
    return J


def fd_state_jacobian(f_batched, x, rel_step=1e-6):
    """Central-difference Jacobian using one batched dynamics evaluation."""
    x = np.asarray(x, float)
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    X = np.repeat(x[:, None], 2 * n, axis=1)
    idx = np.arange(n)
    X[idx, idx] += h
    X[idx, n + idx] -= h
    F = np.asarray(f_batched(X), float)
    return (F[:, :n] - F[:, n:]) / (2.0 * h[None, :])


# ---------------------------------------------------------------------------
# machines


class SynchronousMachine:
    """
    Synchronous machine in the stationary frame.

    Covers the wound-rotor machine and its brushless special cases. With a
    field winding (wrsm, hesm) the state is (i_alpha, i_beta, i_f, omega,
    theta) with input (v_alpha, v_beta, v_f); brushless kinds drop the field
    row. Speed has no modeled dynamics (d omega/dt = 0); position integrates
    the speed.
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
        self.n_outputs = self.n_currents

    def inductance(self, theta):
        """Inductance matrix and its first two position derivatives.

        Returns (L, L', L'') — 3x3 with a field winding, else the 2x2 stator
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
        Lpp = np.zeros(shape)
        L[..., 0, 0] = L0 + L2 * c2
        L[..., 0, 1] = L[..., 1, 0] = L2 * s2
        L[..., 1, 1] = L0 - L2 * c2
        Lp[..., 0, 0] = -2 * L2 * s2
        Lp[..., 0, 1] = Lp[..., 1, 0] = 2 * L2 * c2
        Lp[..., 1, 1] = 2 * L2 * s2
        Lpp[..., 0, 0] = -4 * L2 * c2
        Lpp[..., 0, 1] = Lpp[..., 1, 0] = -4 * L2 * s2
        Lpp[..., 1, 1] = 4 * L2 * c2
        if self.has_field:
            c1, s1 = np.cos(th), np.sin(th)
            Mf, Lf = p.M_f, p.L_f
            L[..., 0, 2] = L[..., 2, 0] = Mf * c1
            L[..., 1, 2] = L[..., 2, 1] = Mf * s1
            L[..., 2, 2] = Lf
            Lp[..., 0, 2] = Lp[..., 2, 0] = -Mf * s1
            Lp[..., 1, 2] = Lp[..., 2, 1] = Mf * c1
            Lpp[..., 0, 2] = Lpp[..., 2, 0] = -Mf * c1
            Lpp[..., 1, 2] = Lpp[..., 2, 1] = -Mf * s1
        return L, Lp, Lpp

    def f(self, x, u):
        """State derivative. ``x`` may be a single state (n,) or batched (n, m)."""
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        single = x.ndim == 1
        X = x[:, None] if single else x
        k = self.n_currents
        I = X[:k]                      # (k, m)
        omega = X[k]
        theta = X[k + 1]
        L, Lp, _ = self.inductance(theta)          # (m, k, k)
        det = np.linalg.det(L)
        if np.any(np.abs(det) < DET_L_FLOOR):
            raise SingularInductanceError(
                f"|det L| below {DET_L_FLOOR:g}; parameters are nonphysical")
        p = self.params
        R = np.zeros(k)
        R[:2] = p.R_s
        if self.has_field:
            R[2] = p.R_f
        U = np.broadcast_to(u[:, None] if u.ndim == 1 else u, I.shape)
        rhs = U - R[:, None] * I - omega * np.einsum("mij,jm->im", Lp, I)
        if self.psi_r != 0.0:
            rhs = rhs.copy()
            rhs[0] -= self.psi_r * omega * (-np.sin(theta))
            rhs[1] -= self.psi_r * omega * np.cos(theta)
        dI = np.linalg.solve(L, rhs.T[:, :, None])[:, :, 0].T   # (k, m)
        out = np.vstack([dI, np.zeros_like(omega)[None, :], omega[None, :]])
        return out[:, 0] if single else out

    def h(self, x):
        """Measured outputs: the machine currents."""
        x = np.asarray(x, float)
        return x[:self.n_currents].copy()

    def output_matrix(self) -> np.ndarray:
        C = np.zeros((self.n_outputs, self.n_states))
        C[:, :self.n_currents] = np.eye(self.n_currents)
        return C

    def jacobians(self, x, u):
        """(A, C): state Jacobian by central differences, exact output map."""
        A = fd_state_jacobian(lambda X: self.f(X, u), x)
        return A, self.output_matrix()


class InductionMachine:
    """
    Induction machine in scaled stationary-frame coordinates.

    State (L_sigma*i_alpha, L_sigma*i_beta, k_r*psi_alpha, k_r*psi_beta,
    omega_e, T_r) with input (v_alpha, v_beta). The resistant torque is a
    slowly-varying state (dT_r/dt = 0).
    """

    n_states = 6
    n_inputs = 2

    def __init__(self, params: ImParams):
        self.params = params
        self.kind = "im"

    def f(self, x, u):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        single = x.ndim == 1
        X = x[:, None] if single else x
        p = self.params
        a, b, c = p.a, p.b, p.c
        itr = 1.0 / p.tau_r
        ia, ib, pa, pb, we, Tr = X
        u0, u1 = u[0], u[1]   # scalar or per-column row; broadcasts either way
        out = np.empty_like(X)
        # gamma(omega) @ v = v/tau_r - omega*J2 v, applied per column
        out[0] = u0 + a * ia + itr * pa + we * pb
        out[1] = u1 + a * ib + itr * pb - we * pa
        out[2] = -(itr * pa + we * pb) - (a - b) * ia
        out[3] = -(itr * pb - we * pa) - (a - b) * ib
        out[4] = (c / p.J) * (ib * pa - ia * pb) - (p.p / p.J) * Tr
        out[5] = 0.0
        return out[:, 0] if single else out

    def f_unscaled(self, x, u):
        """Dynamics in physical coordinates (i_s in A, psi_r in Wb)."""
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        p = self.params
        I = x[:2]
        Psi = x[2:4]
        we, Tr = x[4], x[5]
        gam = np.eye(2) / p.tau_r - we * J2
        dI = (-(p.R_sigma / p.L_sigma) * I + (p.k_r / p.L_sigma) * (gam @ Psi)
              + u / p.L_sigma)
        dPsi = -(gam @ Psi) + (p.M / p.tau_r) * I
        dwe = (p.p**2 / p.J) * p.k_r * (I @ (J2 @ Psi)) - (p.p / p.J) * Tr
        return np.concatenate([dI, dPsi, [dwe, 0.0]])

    @property
    def scale_vector(self) -> np.ndarray:
        """Diagonal of the physical-to-scaled state transform."""
        p = self.params
        return np.array([p.L_sigma, p.L_sigma, p.k_r, p.k_r, 1.0, 1.0])

    def h(self, x, speed_measured: bool = False):
        x = np.asarray(x, float)
        if speed_measured:
            return np.array([x[0], x[1], x[4]])
        return x[:2].copy()

    def output_matrix(self, speed_measured: bool = False) -> np.ndarray:
        n_y = 3 if speed_measured else 2
        C = np.zeros((n_y, 6))
        C[0, 0] = C[1, 1] = 1.0
        if speed_measured:
            C[2, 4] = 1.0
        return C

    def jacobians(self, x, u, speed_measured: bool = False):
        A = fd_state_jacobian(lambda X: self.f(X, u), x)
        return A, self.output_matrix(speed_measured)


class DcMachine:
    """DC machine: permanent-magnet (linear) or series-excited (bilinear)."""

    n_states = 3
    n_inputs = 1
    n_outputs = 1

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

    def h(self, x):
        x = np.asarray(x, float)
        return x[:1].copy()

    def output_matrix(self) -> np.ndarray:
        return np.array([[1.0, 0.0, 0.0]])

    def jacobians(self, x, u):
        A = fd_state_jacobian(lambda X: self.f(X, u), x)
        return A, self.output_matrix()


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
