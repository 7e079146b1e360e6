"""Numeric observability-matrix builder from Lie derivatives of the output.

Acts as an independent cross-check for the closed-form rank-condition
determinants: rows are Jacobians of successive output time-derivatives,
everything differentiated by central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

SV_RANK_RTOL = 1e-9  # singular values below this fraction of the largest count as zero

# Row selections (output_component, derivative_order) per machine family.
ROW_SPECS = {
    "sm_field": ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)),
    "sm_brushless": ((0, 0), (1, 0), (0, 1), (1, 1)),
    "im_with_speed": ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)),
    "im_sensorless": ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)),
    "dcm": ((0, 0), (0, 1), (0, 2)),
}


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


def lie_output_derivative(f, h, x, u, u_dot=None, order: int = 1,
                          inner_step: float = 1e-5) -> np.ndarray:
    """
    Numeric ``order``-th total time derivative of the output at (x, u).

    Built recursively: order 0 is ``h(x)``; each further order is the
    state-directional derivative along ``f`` plus the explicit input-rate
    contribution ``(d(prev)/du)·u_dot``. Input rates beyond the first are
    not modeled, which limits nonzero ``u_dot`` to order <= 2.
    """
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    has_udot = u_dot is not None and np.any(np.asarray(u_dot))
    if has_udot and order > 2:
        raise NotImplementedError(
            "orders above 2 would require higher input derivatives")
    if order == 0:
        return np.asarray(h(x), float)

    def prev_of_x(z):
        return lie_output_derivative(f, h, z, u, u_dot=None,
                                     order=order - 1, inner_step=inner_step)

    val = fd_jacobian(prev_of_x, x, rel_step=inner_step) @ np.asarray(f(x, u), float)
    if has_udot:
        def prev_of_u(w):
            return lie_output_derivative(f, h, x, w, u_dot=None,
                                         order=order - 1, inner_step=inner_step)

        val = val + fd_jacobian(prev_of_u, u, rel_step=inner_step) @ np.asarray(u_dot, float)
    return val


def numeric_observability_matrix(f, h, x, u, u_dot=None,
                                 row_spec: Sequence[Tuple[int, int]] = (),
                                 want_determinant: bool = True,
                                 inner_step: float = 1e-5,
                                 row_step: float = 1e-6,
                                 row_step_high: float = 2e-3) -> ObsMatrixResult:
    """
    Stack Jacobian rows of output Lie derivatives and analyze their rank.

    Parameters
    ----------
    f, h : callable
        Dynamics ``f(x, u)`` and output map ``h(x)``.
    x, u : array_like
        Operating point.
    u_dot : array_like, optional
        Input rate; enters output derivatives of order >= 2.
    row_spec : sequence of (output_index, derivative_order)
        Which rows to stack, in order.
    want_determinant : bool
        If True, require a square selection and report its determinant.

    Rows of derivative order 2 use a wider fourth-order stencil: nesting two
    central differences amplifies roundoff, and the high-order stencil keeps
    the determinant accurate to ~1e-7 relative.
    """
    x = np.asarray(x, float)
    if not row_spec:
        raise ValueError("row_spec must select at least one row")
    blocks = {}
    for order in sorted({o for _, o in row_spec}):
        def g(z, order=order):
            return lie_output_derivative(f, h, z, u, u_dot, order, inner_step)

        if order <= 1:
            blocks[order] = fd_jacobian(g, x, rel_step=row_step)
        else:
            blocks[order] = fd_jacobian(g, x, rel_step=row_step_high, order=4)
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


def standard_row_spec(machine, speed_measured: bool = False):
    """Row selection used for each machine family."""
    kind = machine.kind
    if kind in ("wrsm", "hesm"):
        return ROW_SPECS["sm_field"]
    if kind in ("ipmsm", "spmsm", "syrm"):
        return ROW_SPECS["sm_brushless"]
    if kind == "im":
        return ROW_SPECS["im_with_speed" if speed_measured else "im_sensorless"]
    if kind in ("pm_dcm", "series_dcm"):
        return ROW_SPECS["dcm"]
    raise ValueError(f"unknown machine kind {kind!r}")


def machine_observability_matrix(machine, x, u, u_dot=None,
                                 speed_measured: bool = False,
                                 **kwargs) -> ObsMatrixResult:
    """Numeric observability matrix with the standard row selection."""
    spec = standard_row_spec(machine, speed_measured)
    idx = list(machine.output_indices(speed_measured))
    return numeric_observability_matrix(machine.f, lambda z: z[idx], x, u,
                                        u_dot, row_spec=spec, **kwargs)
