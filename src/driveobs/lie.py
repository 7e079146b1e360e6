"""Numeric observability-matrix builder from Lie derivatives of the output.

Acts as an independent cross-check for the closed-form rank-condition
determinants: rows are Jacobians of successive output time-derivatives.
The output selects states, so orders 0 and 1 and the order-0 rows are exact;
the rest comes from central finite differences of ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

SV_RANK_RTOL = 1e-9  # singular values below this fraction of the largest count as zero

# relative finite-difference steps: inside each output derivative, for the
# rows of order 1, and for the fourth-order stencil of order-2 rows
INNER_STEP = 1e-5
ROW_STEP = 1e-6
ROW_STEP_HIGH = 2e-3


class DimensionMismatchError(ValueError):
    """Row selection does not produce a square matrix."""


def fd_jacobian(fun, z, rel_step=1e-6, order=2):
    """
    Central-difference Jacobian of ``fun`` at ``z``.

    Per-component step ``rel_step * max(1, |z_i|)``. ``order=4`` selects the
    five-point fourth-order central stencil. ``fun`` is never evaluated at
    ``z`` itself.
    """
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
        elif order == 4:
            columns.append((8.0 * (ev(h) - ev(-h)) - (ev(2 * h) - ev(-2 * h))) / (12.0 * h))
        else:
            raise ValueError("order must be 2 or 4")
    return np.column_stack(columns)


@dataclass(frozen=True)
class ObsMatrixResult:
    """Numeric observability matrix with its rank diagnostics."""

    matrix: np.ndarray
    determinant: Optional[float]
    rank: int
    condition_number: float
    singular_values: np.ndarray


def lie_output_derivative(f, outputs, x, u, u_dot=None,
                          order: int = 1) -> np.ndarray:
    """
    ``order``-th total time derivative of the output ``x[outputs]``.

    Orders 0 and 1 are exact: ``x[outputs]`` and ``f(x, u)[outputs]``. Each
    further order differentiates the one below along ``f`` and adds
    ``(d(prev)/du)·u_dot``; higher input rates are not modeled, which limits
    nonzero ``u_dot`` to order <= 2.
    """
    x, u = np.asarray(x, float), np.asarray(u, float)
    idx = list(outputs)
    has_udot = u_dot is not None and np.any(np.asarray(u_dot))
    if has_udot and order > 2:
        raise NotImplementedError(
            "orders above 2 would require higher input derivatives")
    if order == 0:
        return x[idx]
    fx = np.asarray(f(x, u), float)
    if order == 1:
        return fx[idx]

    def lower(z, w):
        return lie_output_derivative(f, idx, z, w, order=order - 1)

    val = fd_jacobian(lambda z: lower(z, u), x, rel_step=INNER_STEP) @ fx
    if has_udot:
        val = val + fd_jacobian(lambda w: lower(x, w), u,
                                rel_step=INNER_STEP) @ np.asarray(u_dot, float)
    return val


def numeric_observability_matrix(f, outputs, x, u, u_dot=None,
                                 row_spec: Sequence[Tuple[int, int]] = (),
                                 want_determinant: bool = True) -> ObsMatrixResult:
    """
    Stack Jacobian rows of output Lie derivatives and analyze their rank.

    Parameters
    ----------
    f, outputs : callable, sequence of int
        Dynamics ``f(x, u)`` and the measured states, ``y = x[outputs]``.
    x, u : array_like
        Operating point.
    u_dot : array_like, optional
        Input rate; enters output derivatives of order >= 2.
    row_spec : sequence of (output_index, derivative_order)
        Which rows to stack, in order.
    want_determinant : bool
        If True, require a square selection and report its determinant.

    Order-0 rows are rows of the identity. Order-2 rows nest two central
    differences, which amplifies roundoff; a wider fourth-order stencil keeps
    the determinant accurate to ~1e-7 relative.
    """
    x = np.asarray(x, float)
    if not row_spec:
        raise ValueError("row_spec must select at least one row")
    blocks = {0: np.eye(x.size)[list(outputs)]}
    for order in sorted({o for _, o in row_spec} - {0}):
        def g(z, order=order):
            return lie_output_derivative(f, outputs, z, u, u_dot, order)

        step, stencil = (ROW_STEP, 2) if order == 1 else (ROW_STEP_HIGH, 4)
        blocks[order] = fd_jacobian(g, x, rel_step=step, order=stencil)
    M = np.vstack([blocks[o][i] for i, o in row_spec])

    det = None
    if want_determinant:
        if M.shape[0] != M.shape[1]:
            raise DimensionMismatchError(
                f"row selection gives {M.shape[0]}x{M.shape[1]}, "
                "need square for a determinant")
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
