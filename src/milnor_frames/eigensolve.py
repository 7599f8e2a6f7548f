"""Symmetric eigensolver: cyclic Jacobi rotations.

Small dense symmetric matrices are all this package ever diagonalizes,
and the Jacobi iteration is simple, accurate, and has no tunable state
beyond the convergence threshold.  A sweep visits every off-diagonal
pair (p, q) once and applies the Givens rotation that zeroes A[p, q];
iteration stops when the off-diagonal Frobenius norm drops below
``tol * ||A||_F``.  A matrix still above that after ``MAX_SWEEPS``
sweeps raises ``numpy.linalg.LinAlgError`` instead of returning
unconverged eigenvalues.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

CONVERGENCE_RTOL = 1e-12
MAX_SWEEPS = 60


def jacobi_eigh(a: np.ndarray, tol: float = CONVERGENCE_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns) with
    A @ V = V @ diag(w).  Raises ``numpy.linalg.LinAlgError`` when the
    iteration has not converged after ``MAX_SWEEPS`` sweeps.
    """
    A = np.array(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    n = A.shape[0]
    V = np.eye(n)
    norm = np.linalg.norm(A, "fro")
    if norm == 0.0:
        return np.zeros(n), V

    for _ in range(MAX_SWEEPS):
        off = np.linalg.norm(A - np.diag(np.diag(A)), "fro")
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                # smaller-angle root of t^2 + 2 t theta - 1 = 0
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0)) if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = A[q, p] = 0.0
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        # the last sweep may have converged; only its check is missing
        off = np.linalg.norm(A - np.diag(np.diag(A)), "fro")
        if off > tol * norm:
            raise np.linalg.LinAlgError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps "
                f"(off-diagonal norm {off:.3e}, target {tol * norm:.3e})"
            )

    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]
