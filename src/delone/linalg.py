"""Dense small-dimension linear-algebra kernels.

Everything here works on plain ``numpy`` float64 arrays of dimension
1 <= n <= 8.  Determinants are computed by cofactor expansion for n <= 4
(exact evaluation order, no pivot-order dependence) and by LAPACK's LU with
partial pivoting for 5 <= n <= 8, for one matrix or a stack.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 8

#: Scale-relative degeneracy floor: a system with |det| below
#: DEGENERACY_REL * column_bound**n is treated as degenerate.
DEGENERACY_REL = 1e-12


def _det_cofactor(m: np.ndarray):
    """Cofactor expansion along the first row of a (..., n, n) stack, n <= 4."""
    n = m.shape[-1]
    if n == 1:
        return m[..., 0, 0]
    if n == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if n == 3:
        return (
            m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
        )
    total = 0.0
    for j in range(4):
        minor = m[..., 1:, [c for c in range(4) if c != j]]
        total = total + ((-1.0) ** j) * m[..., 0, j] * _det_cofactor(minor)
    return total


def determinant(m):
    """Determinant of a square matrix, or of each matrix of a (..., n, n)
    stack, n <= 8: cofactor expansion for n <= 4 (exact evaluation order,
    no pivot-order dependence), LAPACK's LU with partial pivoting above.

    |det| of the edge matrix of a simplex equals n! times its volume.
    A float for one matrix; 0.0 for an exactly singular one; never raises.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("determinant requires a square matrix")
    n = a.shape[-1]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    det = _det_cofactor(a) if n <= 4 else np.linalg.det(a)
    return float(det) if a.ndim == 2 else det
