"""Discrete-time extended Kalman filter, generic over the machine models.

Values in, values out: every step returns a new instance, so filters can be
advanced independently on any thread. Prediction uses an explicit first-order
discretization of the dynamics and of the state Jacobian; the covariance
update uses the symmetry-preserving (Joseph) form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np


class EkfDivergenceError(RuntimeError):
    """Estimate or covariance exceeded the overflow bound (filter blow-up)."""


class SingularInnovationError(np.linalg.LinAlgError):
    """Innovation covariance is not positive definite (corrupt tuning)."""


def _check_spd(M, name: str) -> np.ndarray:
    M = np.asarray(M, float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(M).max())):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None
    return M


@dataclass(frozen=True)
class EkfConfig:
    """
    EKF tuning: process/measurement noise, initial state and covariance.

    ``Q``, ``R`` and ``P0`` must be symmetric positive definite; larger ``Q``
    relative to ``R`` gives a faster, noisier observer. ``Ts`` is the filter
    sample period (s). ``overflow`` bounds any estimate/covariance entry
    before a divergence error is raised.
    """

    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray
    x0: np.ndarray
    Ts: float
    overflow: float = 1e12

    def __post_init__(self):
        object.__setattr__(self, "Q", _check_spd(self.Q, "Q"))
        object.__setattr__(self, "R", _check_spd(self.R, "R"))
        object.__setattr__(self, "P0", _check_spd(self.P0, "P0"))
        object.__setattr__(self, "x0", np.asarray(self.x0, float))
        if self.Ts <= 0:
            raise ValueError("Ts must be positive")
        if self.Q.shape[0] != self.x0.size or self.P0.shape[0] != self.x0.size:
            raise ValueError("Q/P0 dimensions must match x0")


@dataclass(frozen=True)
class EkfInstance:
    """Filter state: current estimate, covariance, tuning, machine model and
    the indices of the measured states."""

    x: np.ndarray
    P: np.ndarray
    config: EkfConfig
    machine: object
    outputs: np.ndarray

    @property
    def Ts(self) -> float:
        return self.config.Ts


def make_ekf(machine, config: EkfConfig,
             speed_measured: bool = False) -> EkfInstance:
    """Fresh filter instance at the configured initial state/covariance."""
    outputs = np.array(machine.output_indices(speed_measured))
    if config.R.shape[0] != outputs.size:
        raise ValueError(f"R is {config.R.shape[0]}x{config.R.shape[0]}, "
                         f"model has {outputs.size} outputs")
    return EkfInstance(x=config.x0.copy(), P=config.P0.copy(),
                       config=config, machine=machine, outputs=outputs)


def linearize(f, x, u, rel_step: float = 1e-6):
    """
    Rate ``f(x, u)`` and its state Jacobian by central differences, from one
    batched call of ``f``: the centre column plus the 2n perturbed states,
    each component stepped by ``rel_step * max(1, |x_i|)``.
    """
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    X = np.repeat(x[:, None], 2 * n + 1, axis=1)
    idx = np.arange(n)
    X[idx, 1 + idx] += h
    X[idx, 1 + n + idx] -= h
    F = np.asarray(f(X, u), float)
    return F[:, 0], (F[:, 1:n + 1] - F[:, n + 1:]) / (2.0 * h[None, :])


def _check_overflow(inst: EkfInstance):
    bound = inst.config.overflow
    if not np.all(np.isfinite(inst.x)) or np.abs(inst.x).max() > bound \
            or np.abs(inst.P).max() > bound:
        raise EkfDivergenceError(
            "estimate or covariance exceeded the overflow bound "
            f"({bound:g}); filter diverged")


def ekf_predict(inst: EkfInstance, u) -> EkfInstance:
    """Propagate estimate and covariance one sample ahead."""
    Ts = inst.Ts
    rate, A = linearize(inst.machine.f, inst.x, u)
    x_next = inst.x + Ts * rate
    F = np.eye(inst.x.size) + Ts * A
    P_next = F @ inst.P @ F.T + inst.config.Q
    P_next = 0.5 * (P_next + P_next.T)
    out = replace(inst, x=x_next, P=P_next)
    _check_overflow(out)
    return out


def ekf_update(inst: EkfInstance, y) -> Tuple[EkfInstance, np.ndarray]:
    """Correct the estimate with a measurement; returns (instance, innovation).

    The output map selects states, so ``C P C^T``, ``P C^T`` and ``K C``
    are slices of ``P`` and ``K``.
    """
    idx = inst.outputs
    P, R = inst.P, inst.config.R
    innovation = np.asarray(y, float) - inst.x[idx]
    S = P[np.ix_(idx, idx)] + R
    S = 0.5 * (S + S.T)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise SingularInnovationError(
            "innovation covariance not positive definite") from None
    K = np.linalg.solve(S, P[:, idx].T).T
    x_next = inst.x + K @ innovation
    IKC = np.eye(inst.x.size)
    IKC[:, idx] -= K
    P_next = IKC @ P @ IKC.T + K @ R @ K.T
    P_next = 0.5 * (P_next + P_next.T)
    out = replace(inst, x=x_next, P=P_next)
    _check_overflow(out)
    return out, innovation


def ekf_step(inst: EkfInstance, u, y) -> Tuple[EkfInstance, np.ndarray]:
    """One predict-then-correct cycle."""
    return ekf_update(ekf_predict(inst, u), y)
