"""Numeric observability-matrix builder from Lie derivatives of the output.

Acts as an independent cross-check for the closed-form rank-condition
determinants: rows are Jacobians of successive output time-derivatives.
The output selects states, so orders 0 and 1 and the order-0 rows are exact;
the rest comes from central finite differences of ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

SV_RANK_RTOL = 1e-9  # singular values below this fraction of the largest count as zero

# relative finite-difference steps: inside each output derivative, for the
# rows of order 1, and for the fourth-order stencil of order-2 rows
INNER_STEP = 1e-5
ROW_STEP = 1e-6
ROW_STEP_HIGH = 2e-3

# offsets of the central-difference stencils, in steps, by order
STENCIL_OFFSETS = {2: (1.0, -1.0), 4: (1.0, -1.0, 2.0, -2.0)}


class DimensionMismatchError(ValueError):
    """Row selection does not produce a square matrix."""


def fd_jacobian(fun, z, rel_step=1e-6, order=2):
    """
    Central-difference Jacobian of ``fun`` at ``z``.

    Per-component step ``rel_step * max(1, |z_i|)``. ``order=4`` selects the
    five-point fourth-order central stencil. ``fun`` is never evaluated at
    ``z`` itself, and each call gets a fresh array that it may keep. The
    Jacobian is C-ordered, as ``np.column_stack`` of its columns would be.
    """
    if order not in STENCIL_OFFSETS:
        raise ValueError("order must be 2 or 4")
    offsets = STENCIL_OFFSETS[order]
    z = np.asarray(z, float)
    steps, evals = [], []
    for i, zi in enumerate(z.tolist()):
        h = rel_step * max(1.0, abs(zi))
        steps.append(h)
        for k in offsets:
            zz = z.copy()
            zz[i] = zi + k * h
            evals.append(fun(zz))
    e = np.array(evals, float).reshape(z.size, len(offsets), -1)
    h = np.array(steps)[:, None]
    if order == 2:
        columns = (e[:, 0] - e[:, 1]) / (2.0 * h)
    else:
        columns = (8.0 * (e[:, 0] - e[:, 1]) - (e[:, 2] - e[:, 3])) / (12.0 * h)
    return columns.T.copy()


@dataclass(frozen=True)
class ObsMatrixResult:
    """Numeric observability matrix with its rank diagnostics."""

    matrix: np.ndarray
    determinant: float
    rank: int
    condition_number: float
    singular_values: np.ndarray


def output_derivative(f, outputs, u, u_dot=None, order: int = 1):
    """
    The map ``z -> d^order/dt^order z[outputs]`` at input ``u``.

    Orders 0 and 1 are exact: ``z[outputs]`` and ``f(z, u)[outputs]``. Each
    further order differentiates the one below along ``f`` and adds
    ``(d(prev)/du)·u_dot``; higher input rates are not modeled, which limits
    nonzero ``u_dot`` to order <= 2. ``outputs``, ``u`` and ``u_dot`` are
    converted here, once, not on every call of the map.
    """
    idx, u = list(outputs), np.asarray(u, float)
    if order == 0:
        return lambda z: z[idx]
    if order == 1:
        return lambda z: f(z, u)[idx]
    lower = output_derivative(f, idx, u, order=order - 1)
    if u_dot is None or not np.any(u_dot):
        return lambda z: fd_jacobian(lower, z, INNER_STEP) @ f(z, u)
    if order > 2:
        raise NotImplementedError(
            "orders above 2 would require higher input derivatives")
    u_dot = np.asarray(u_dot, float)
    return lambda z: (fd_jacobian(lower, z, INNER_STEP) @ f(z, u)
                      + fd_jacobian(lambda w: f(z, w)[idx], u, INNER_STEP)
                      @ u_dot)


def numeric_observability_matrix(f, outputs, x, u, u_dot=None,
                                 row_spec: Sequence[Tuple[int, int]] = ()
                                 ) -> ObsMatrixResult:
    """
    Stack Jacobian rows of output Lie derivatives into a square matrix and
    analyze its determinant and rank.

    Parameters
    ----------
    f, outputs : callable, sequence of int
        Dynamics ``f(x, u)`` and the measured states, ``y = x[outputs]``.
    x, u : array_like
        Operating point.
    u_dot : array_like, optional
        Input rate; enters output derivatives of order >= 2.
    row_spec : sequence of (output_index, derivative_order)
        Which rows to stack, in order; as many as ``x`` has entries.

    Order-0 rows are rows of the identity. Order-2 rows nest two central
    differences, which amplifies roundoff; a wider fourth-order stencil keeps
    the determinant accurate to ~1e-7 relative.
    """
    x = np.asarray(x, float)
    if len(row_spec) != x.size:    # an empty selection too
        raise DimensionMismatchError(
            f"row selection gives {len(row_spec)}x{x.size}, "
            "need square for a determinant")
    blocks = {0: np.eye(x.size)[list(outputs)]}
    for order in sorted({o for _, o in row_spec} - {0}):
        g = output_derivative(f, outputs, u, u_dot, order)
        step, stencil = (ROW_STEP, 2) if order == 1 else (ROW_STEP_HIGH, 4)
        blocks[order] = fd_jacobian(g, x, rel_step=step, order=stencil)
    M = np.vstack([blocks[o][i] for i, o in row_spec])
    det = float(np.linalg.det(M))
    # Rows and columns carry wildly different physical units; equilibrate
    # before the SVD so the rank threshold measures direction mixing, not
    # unit choices. Genuinely zero rows/columns are preserved.
    row_n = np.linalg.norm(M, axis=1, keepdims=True)
    Me = M / np.maximum(row_n, 1e-300)
    col_n = np.linalg.norm(Me, axis=0, keepdims=True)
    Me = Me / np.maximum(col_n, 1e-300)
    sv = np.linalg.svd(Me, compute_uv=False)
    rank = int(np.sum(sv > SV_RANK_RTOL * sv[0])) if sv[0] > 0 else 0
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return ObsMatrixResult(matrix=M, determinant=det, rank=rank,
                           condition_number=cond, singular_values=sv)


def machine_observability_matrix(machine, x, u, u_dot=None,
                                 speed_measured: bool = False) -> ObsMatrixResult:
    """Numeric observability matrix with the machine's ``lie_rows``."""
    return numeric_observability_matrix(
        machine.f, machine.output_indices(speed_measured), x, u, u_dot,
        row_spec=machine.lie_rows(speed_measured))
