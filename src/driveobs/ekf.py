"""Discrete-time extended Kalman filter, generic over the machine models.

``predict`` and ``update`` step a bank of B filters on one machine and one
input at once: estimates ``(B, n)``, covariances ``(B, n, n)`` and 0/1
measurement-selection matrices ``(B, m, n)``. The instance functions are the
bank's B = 1 case; values in, values out, each step returns a new instance.
Prediction uses an explicit first-order discretization of the dynamics and
of the state Jacobian; the covariance update uses the Joseph form. The
innovation covariance is factored and solved with the LAPACK gufuncs behind
``np.linalg.cholesky`` and ``np.linalg.solve``, called directly: the same
bits, without the wrappers' per-call argument checks and error-state setup.

``predict`` and ``update`` are check-free arithmetic: their callers check
for overflow (``check_overflow``) and symmetrize the Joseph-form product
that ``update`` returns, so a bank loop checks once per step and can
measure the asymmetry that the symmetrization removes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Tuple

import numpy as np
from numpy.linalg import _umath_linalg

# the gufuncs that np.linalg.cholesky and np.linalg.solve wrap (numpy >= 1.24)
_cholesky, _solve = _umath_linalg.cholesky_lo, _umath_linalg.solve

REL_STEP = 1e-6  # relative step of the Jacobian's central differences


class EkfDivergenceError(RuntimeError):
    """Estimate or covariance exceeded the overflow bound (filter blow-up)."""


class SingularInnovationError(np.linalg.LinAlgError):
    """Innovation covariance is not positive definite (corrupt tuning)."""


def _check_spd(M, name: str) -> np.ndarray:
    """``M`` checked and made exactly symmetric, unchanged if it was."""
    M = np.asarray(M, float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(M).max())):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class EkfConfig:
    """
    EKF tuning: process/measurement noise, initial state and covariance.

    ``Q``, ``R`` and ``P0`` must be symmetric positive definite and are
    stored as ``0.5 (M + Mᵀ)``, which is exactly symmetric; larger ``Q``
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


def make_ekf(machine, config: EkfConfig,
             speed_measured: bool = False) -> EkfInstance:
    """Fresh filter instance at the configured initial state/covariance."""
    outputs = np.array(machine.output_indices(speed_measured))
    if config.R.shape[0] != outputs.size:
        raise ValueError(f"R is {config.R.shape[0]}x{config.R.shape[0]}, "
                         f"model has {outputs.size} outputs")
    return EkfInstance(x=config.x0.copy(), P=config.P0.copy(),
                       config=config, machine=machine, outputs=outputs)


def linearize(f, x, u):
    """
    Rate ``f(x, u)`` and its state Jacobian by central differences, for one
    state ``(n,)`` or a bank ``(B, n)`` sharing ``u``, from one call of ``f``
    on the columns ``x + h·[0, I, −I]``, ``h_i = REL_STEP * max(1, |x_i|)``;
    both are views into that call's result.
    """
    X = x.reshape(-1, x.shape[-1])
    B, n = X.shape
    h = REL_STEP * np.maximum(1.0, np.abs(X))
    cols = X.T[:, :, None] + h.T[:, :, None] * _eye_and_stencil(n)[1]
    F = f(cols.reshape(n, -1), u).reshape(n, B, -1)
    rate = F[:, :, 0].T
    A = ((F[:, :, 1:n + 1] - F[:, :, n + 1:]) / (2.0 * h)).swapaxes(0, 1)
    return (rate, A) if x.ndim == 2 else (rate[0], A[0])


@lru_cache(maxsize=None)
def _eye_and_stencil(n: int):
    """``I`` and ``linearize``'s ``[0, I, −I]`` for the state size ``n``;
    read-only, as every step shares them."""
    eye = np.eye(n)
    D = np.hstack([np.zeros((n, 1)), eye, -eye])[:, None]
    eye.flags.writeable = D.flags.writeable = False
    return eye, D


def check_overflow(x, P, bound: float):
    # a NaN fails the comparison as well as an entry past the bound
    if not (np.maximum.reduce(np.abs(x), None) <= bound
            and np.maximum.reduce(np.abs(P), None) <= bound):
        raise EkfDivergenceError(
            "estimate or covariance exceeded the overflow bound "
            f"({bound:g}); filter diverged")


def bank(insts):
    """``(X, P, Q, C, R)`` of filters on one state size. Padded to the
    largest output count ``m``, a member gets zero ``C`` rows and a unit
    ``R`` diagonal; with zero measurements there, its padded innovations
    and gains are 0."""
    n, m = insts[0].x.size, max(inst.outputs.size for inst in insts)
    C = np.zeros((len(insts), m, n))
    R = np.tile(np.eye(m), (len(insts), 1, 1))
    for b, inst in enumerate(insts):
        k = inst.outputs.size
        C[b, np.arange(k), inst.outputs] = 1.0
        R[b, :k, :k] = inst.config.R
    X, P, Q = (np.array(a) for a in zip(*(
        (inst.x, inst.P, inst.config.Q) for inst in insts)))
    return X, P, Q, C, R


def symmetrized(P):
    """``0.5 (P + Pᵀ)`` of a bank of covariances; exactly symmetric."""
    return 0.5 * (P + P.swapaxes(1, 2))


def predict(f, X, P, u, Ts: float, Q):
    """Propagate a bank ``X`` (B, n), ``P`` (B, n, n) one sample ``Ts``
    ahead under the rate ``f`` and the shared input ``u``; the returned
    covariance is exactly symmetric."""
    rate, A = linearize(f, X, u)
    F = _eye_and_stencil(X.shape[1])[0] + Ts * A
    return X + Ts * rate, symmetrized(F @ P @ F.swapaxes(1, 2) + Q)


def update(X, P, Y, C, R):
    """Correct a bank ``X`` (B, n), symmetric ``P`` (B, n, n) with
    measurements ``Y`` (B, m) of the states that ``C`` (B, m, n) selects;
    returns ``(X, Joseph-form P, innovations)``. That ``P`` is not yet
    symmetrized: the caller passes it through ``symmetrized``. With ``P``
    and ``R`` symmetric and ``C`` a 0/1 selection, the innovation
    covariance ``S`` is exactly symmetric."""
    innovation = Y - (C @ X[:, :, None])[:, :, 0]
    PCt = P @ C.swapaxes(1, 2)
    S = C @ PCt + R
    # a failed factor reads NaN; some LAPACKs factor a NaN matrix into NaN
    with np.errstate(invalid="ignore"):
        L = _cholesky(S)
    if not np.isfinite(L).all():
        raise SingularInnovationError(
            "innovation covariance not positive definite")
    K = _solve(S, PCt.swapaxes(1, 2)).swapaxes(1, 2)
    IKC = _eye_and_stencil(X.shape[1])[0] - K @ C
    P = IKC @ P @ IKC.swapaxes(1, 2) + K @ R @ K.swapaxes(1, 2)
    return X + (K @ innovation[:, :, None])[:, :, 0], P, innovation


def ekf_predict(inst: EkfInstance, u) -> EkfInstance:
    """Propagate estimate and covariance one sample ahead."""
    cfg = inst.config
    X, P = predict(inst.machine.f, inst.x[None], inst.P[None], u, cfg.Ts,
                   cfg.Q)
    check_overflow(X, P, cfg.overflow)
    return replace(inst, x=X[0], P=P[0])


def ekf_update(inst: EkfInstance, y) -> Tuple[EkfInstance, np.ndarray]:
    """Correct the estimate with a measurement; returns (instance,
    innovation)."""
    cfg, C = inst.config, np.eye(inst.x.size)[inst.outputs][None]
    X, P, innovation = update(inst.x[None], inst.P[None],
                              np.asarray(y, float)[None], C, cfg.R[None])
    P = symmetrized(P)
    check_overflow(X, P, cfg.overflow)
    return replace(inst, x=X[0], P=P[0]), innovation[0]
