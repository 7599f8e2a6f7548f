"""Symmetric eigensolver: cyclic Jacobi rotations in round-robin order.

Small dense symmetric matrices are all this package ever diagonalizes,
and the Jacobi iteration is simple, accurate, and has no tunable state
beyond the convergence threshold.  A sweep visits every off-diagonal
pair (p, q) once and applies the Givens rotation that zeroes A[p, q];
iteration stops when the off-diagonal Frobenius norm drops below
``tol * ||A||_F``.  A matrix still above that after ``MAX_SWEEPS``
sweeps raises ``numpy.linalg.LinAlgError`` instead of returning
unconverged eigenvalues.

The pairs of a sweep are visited in the parallel ("round-robin" or
chess-tournament) ordering of Brent & Luk (SIAM J. Sci. Stat. Comput.
6, 1985; Golub & Van Loan, *Matrix Computations*, §8.5): n - 1 rounds
(n rounded up to even) of disjoint pairs.  Rotations on disjoint pairs
commute, so each round is applied at once as one orthogonal J,
A <- J^T A J and V <- V J, with every rotation angle taken from the
matrix as it stood at the start of the round.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ShapeError

CONVERGENCE_RTOL = 1e-12
MAX_SWEEPS = 60


@lru_cache(maxsize=None)
def _rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin schedule: (p, q) index arrays, p < q, one per round.

    Slot 0 stays put and the other m - 1 slots rotate, over m = n + (n mod 2)
    slots; pairs on the padding slot are dropped, so every pair p < q
    appears in exactly one round.
    """
    m = n + n % 2
    slots = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (min(a, b), max(a, b))
            for a, b in zip(slots[: m // 2], reversed(slots[m // 2 :]))
            if max(a, b) < n
        ]
        if pairs:
            p, q = (np.array(ix, dtype=np.intp) for ix in zip(*pairs))
            p.setflags(write=False)
            q.setflags(write=False)
            rounds.append((p, q))
        slots = [slots[0], slots[-1], *slots[1:-1]]
    return tuple(rounds)


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
        for p, q in _rounds(n):
            apq = A[p, q]
            skip = np.abs(apq) <= 1e-300
            theta = (A[q, q] - A[p, p]) / (2.0 * np.where(skip, 1.0, apq))
            # smaller-angle root of t^2 + 2 t theta - 1 = 0
            t = np.where(theta == 0.0, 1.0, np.sign(theta) / (np.abs(theta) + np.hypot(theta, 1.0)))
            t[skip] = 0.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            J = np.eye(n)
            J[p, p] = J[q, q] = c
            J[p, q] = s
            J[q, p] = -s
            A = J.T @ A @ J
            A[p, q] = A[q, p] = 0.0
            V = V @ J
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
