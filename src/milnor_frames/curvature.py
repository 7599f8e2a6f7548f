"""Levi-Civita connection, Riemann tensor, Ricci operator, signatures.

All tensors live in an orthonormal frame.  With structure constants c
expressed in such a frame, the connection coefficients are

    gamma[i, j, k] = <nabla_{x_i} x_j, x_k>
                   = (c[k, i, j] + c[k, j, i] + c[i, j, k]) / 2,

the curvature is R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_{[X,Y]} Z, and the Ricci operator is Ric(X) = sum_i R(X, x_i) x_i.

For a generic metric G the frame comes from the triangular factor of G
(columns of the inverse transpose are orthonormal for G); the Ricci
eigenvalues do not depend on that choice.  For the two built-in
families with frame parameter λ the operator is also available in
closed form:

* ``rh2+abelian``: diag(-1 - λ²/2, -1 - λ²/2, 0, ..., 0, λ²/2)
* ``rh-line``: diagonal (-(n-2) - λ²/2, -λ²/2, -(n-2), ..., -(n-2),
  λ²/2 - (n-2)) plus the symmetric coupling (n-1)λ/2 in positions
  (2, n) and (n, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import jacobi_eigh
from .errors import DimensionError, ShapeError, UnsupportedFamilyError
from .frame_reduction import validate_gram
from .lie_core import Family, LieAlgebra, change_basis

SIGNATURE_TOL = 1e-8


@dataclass(frozen=True)
class ConnectionTable:
    """Connection coefficients gamma[i, j, k] = <nabla_{x_i} x_j, x_k>."""

    gamma: np.ndarray

    def __post_init__(self) -> None:
        gam = np.array(self.gamma, dtype=float)
        gam.setflags(write=False)
        object.__setattr__(self, "gamma", gam)


@dataclass(frozen=True)
class RicciReport:
    """Ricci operator in an orthonormal frame, with spectral summary."""

    ric: np.ndarray
    eigenvalues: np.ndarray
    signature: tuple[int, int, int]
    scalar_curvature: float

    def __post_init__(self) -> None:
        for name in ("ric", "eigenvalues"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def levi_civita(g: LieAlgebra) -> ConnectionTable:
    """Connection coefficients of the metric in which the basis of g is
    orthonormal (Koszul formula specialized to a frame).
    """
    c = g.c
    gamma = 0.5 * (
        np.einsum("kij->ijk", c) + np.einsum("kji->ijk", c) + c
    )
    return ConnectionTable(gamma=gamma)


def riemann(ct: ConnectionTable, g: LieAlgebra) -> np.ndarray:
    """Curvature tensor R[i, j, k, l] = <R(x_i, x_j) x_k, x_l>.

    R[i,j,k,l] = sum_m gamma[j,k,m] gamma[i,m,l] - (i <-> j)
    - c[i,j,m] gamma[m,k,l]; the two sums over m are matrix products of
    reshaped (n^2, n) and (n, n^2) tables.
    """
    gam = ct.gamma
    n = gam.shape[0]
    first = gam.reshape(n * n, n) @ gam.transpose(1, 0, 2).reshape(n, n * n)
    first = first.reshape(n, n, n, n).transpose(2, 0, 1, 3)
    bracket = (g.c.reshape(n * n, n) @ gam.reshape(n, n * n)).reshape(n, n, n, n)
    return first - first.transpose(1, 0, 2, 3) - bracket


def _ricci_matrix(g: LieAlgebra) -> np.ndarray:
    R = riemann(levi_civita(g), g)
    # Ric(x_a) = sum_i R(x_a, x_i) x_i; column a holds its coordinates.
    return np.einsum("aiil->la", R)


def _report(ric: np.ndarray, tol: float = SIGNATURE_TOL) -> RicciReport:
    w, _ = jacobi_eigh(ric)
    return RicciReport(
        ric=ric,
        eigenvalues=w,
        signature=_count_signature(w, tol),
        scalar_curvature=float(np.trace(ric)),
    )


def ricci_operator(g: LieAlgebra, G: np.ndarray) -> RicciReport:
    """Ricci operator of the metric G on g, reported in an orthonormal frame.

    The basis is orthonormalized by the triangular factor of G, the
    structure constants are pushed into that frame, and the Koszul /
    curvature pipeline contracts down to the operator.
    """
    G = validate_gram(G)
    if G.shape[0] != g.dim:
        raise ShapeError(f"Gram matrix is {G.shape[0]}x{G.shape[0]}, algebra has dim {g.dim}")
    L = np.linalg.cholesky(G)
    frame = np.linalg.inv(L).T
    g_frame = change_basis(g, frame)
    return _report(_ricci_matrix(g_frame))


def closed_form_ricci(family_tag: Family | str, n: int, lam: float) -> RicciReport:
    """Ricci operator of the family metric with frame parameter λ, n >= 3."""
    return _report(_closed_form_matrix(family_tag, n, lam))


def _closed_form_matrix(family_tag: Family | str, n: int, lam: float) -> np.ndarray:
    """The matrix of ``closed_form_ricci``, without the eigen step."""
    family = Family(family_tag)
    if n < 3:
        raise DimensionError(f"family algebras need n >= 3, got {n}")
    if lam < 0:
        raise ValueError(f"frame parameter must be nonnegative, got {lam}")
    ric = np.zeros((n, n))
    if family is Family.RH2_SUM_ABELIAN:
        ric[0, 0] = ric[1, 1] = -1.0 - lam * lam / 2.0
        ric[n - 1, n - 1] = lam * lam / 2.0
    elif family is Family.RH_LINE_SUM:
        ric[0, 0] = -(n - 2) - lam * lam / 2.0
        ric[1, 1] = -lam * lam / 2.0
        for i in range(2, n - 1):
            ric[i, i] = -(n - 2)
        ric[n - 1, n - 1] = lam * lam / 2.0 - (n - 2)
        ric[1, n - 1] = ric[n - 1, 1] = (n - 1) * lam / 2.0
    else:
        raise UnsupportedFamilyError("closed form exists only for the built-in families")
    return ric


def _count_signature(w: np.ndarray, tol: float) -> tuple[int, int, int]:
    s = float(np.max(np.abs(w))) if w.size else 0.0
    if s == 0.0:
        return (0, len(w), 0)
    neg = int(np.sum(w < -tol * s))
    pos = int(np.sum(w > tol * s))
    return (neg, len(w) - neg - pos, pos)


def signature(sym: np.ndarray, tol: float = SIGNATURE_TOL) -> tuple[int, int, int]:
    """Counts (negative, zero, positive) of eigenvalues of a symmetric matrix.

    The zero band is ``tol`` times the spectral radius, so the result is
    invariant under rescaling the matrix.
    """
    A = np.asarray(sym, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    scale = float(np.max(np.abs(A))) or 1.0
    if np.max(np.abs(A - A.T)) > tol * scale:
        raise ShapeError("matrix is not symmetric within tolerance")
    w, _ = jacobi_eigh(0.5 * (A + A.T))
    return _count_signature(w, tol)
