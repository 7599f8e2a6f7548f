"""Symmetric eigenproblems: LAPACK's ``syevd`` behind two names.

Dense symmetric matrices are all this package ever diagonalizes, and
every eigen step goes through this module.

``jacobi_eigh``, called by ``curvature`` and by ``sampling`` (the
spectral norm of A^T A), returns eigenvalues only.  It is
``numpy.linalg.eigvalsh`` (O(n^3)) plus the checks that function lacks:
it returns ``[0, -0]`` for a NaN entry instead of raising, and ``inf``
for an eigenvalue past the float range, so a non-finite entry or
eigenvalue raises ``numpy.linalg.LinAlgError`` here.  Every finite
matrix is diagonalized, however large its entries.  The name stays
because ``perfbench`` traces it as the eigen layer of
``ricci_operator``; it goes when that layer is re-defined (ROADMAP
item 1).

``symmetric_eigenpairs``, called by ``derivations``, returns the
eigenvalues and eigenvectors of the n^2 x n^2 Leibniz Gram matrix.
That matrix is built from c / max|c| and is finite by construction, so
no finiteness pass is made: ``derivation_basis``'s certificate on the
Leibniz matrix is the loud failure.

``frame_reduction`` reads its condition number off the singular values
of the Gram matrix's triangular factor, not from an eigen step.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def jacobi_eigh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Raises ``ShapeError`` on a non-square input and
    ``numpy.linalg.LinAlgError`` on a non-finite entry or eigenvalue.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    if not np.isfinite(A).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    w = np.linalg.eigvalsh(A)
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("an eigenvalue overflows to a non-finite value")
    return w


def symmetric_eigenpairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a finite symmetric matrix, ascending, and its
    orthonormal eigenvectors as the columns of the second array.

    ``numpy.linalg.eigh`` as it stands, with no input check: the caller
    guarantees finite entries.
    """
    return np.linalg.eigh(a)
