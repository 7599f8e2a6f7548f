"""Symmetric eigenvalues: LAPACK's ``eigvalsh`` behind a traced name.

Small dense symmetric matrices are all this package ever diagonalizes,
and only their eigenvalues are ever read.  ``jacobi_eigh`` is
``numpy.linalg.eigvalsh`` (LAPACK ``syevd``, O(n^3)) plus the input
checks that function lacks: it returns ``[0, -0]`` for a NaN entry
instead of raising, so a non-finite entry or Frobenius norm raises
``numpy.linalg.LinAlgError`` here.  A finite Frobenius norm bounds every
eigenvalue, so the check covers the output too.

``curvature._report`` is the one caller in the package.  The name, left
from an earlier cyclic Jacobi iteration, stays because ``perfbench``
traces it as the eigen layer of ``ricci_operator``; it goes when that
layer is re-defined (ROADMAP item 1, step 1).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def jacobi_eigh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Raises ``ShapeError`` on a non-square input and
    ``numpy.linalg.LinAlgError`` on a non-finite entry or Frobenius norm.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(A, "fro")
    if not np.isfinite(norm):
        raise np.linalg.LinAlgError(f"matrix has a non-finite entry or norm ({norm})")
    return np.linalg.eigvalsh(A)
