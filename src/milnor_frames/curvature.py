"""Levi-Civita connection, Riemann tensor, Ricci operator, signatures.

All tensors live in an orthonormal frame.  With structure constants c
expressed in such a frame, the connection coefficients are

    gamma[i, j, k] = <nabla_{x_i} x_j, x_k>
                   = (c[k, i, j] + c[k, j, i] + c[i, j, k]) / 2,

the curvature is R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_{[X,Y]} Z, and the Ricci operator is Ric(X) = sum_i R(X, x_i) x_i.

For a generic metric G the frame is the lower-triangular group element g
of ``frame_reduction`` ((g g^T)^{-1} = G, so the columns of g are
orthonormal for G), the frame that ``reduce`` also starts from, after
the same Gram checks; the Ricci eigenvalues do not depend on that
choice.  For the two built-in families with frame parameter λ the
operator is also available in closed form:

* ``rh2+abelian``: diag(-1 - λ²/2, -1 - λ²/2, 0, ..., 0, λ²/2)
* ``rh-line``: diagonal (-(n-2) - λ²/2, -λ²/2, -(n-2), ..., -(n-2),
  λ²/2 - (n-2)) plus the symmetric coupling (n-1)λ/2 in positions
  (2, n) and (n, 2).

Every eigenvalue comes from ``eigensolve.jacobi_eigh`` (LAPACK's
``eigvalsh`` behind finiteness checks).  A signature computed from a
matrix comes from ``_signature``, in ``_report`` and in the public
``signature``; the closed form's signature is exact instead, the member
of ``_signature_pair`` that its λ selects, because a band relative to
the spectral radius misreads the fixed eigenvalue -(n-2) at large λ and
the O(λ) eigenvalues at small λ.
``ricci_operator`` keeps its ``change_basis``, ``riemann`` and
``jacobi_eigh`` steps by name because ``perfbench`` traces them as its
layers, until the benchmark re-defines those layers (ROADMAP item 1);
``riemann`` refuses dimensions whose n^4-entry tensor would
exceed ``TENSOR_MAX_BYTES``, and that tensor is the only array it
allocates that grows as n^4: the other terms go through a buffer of
128 KiB or one n^3-entry slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import jacobi_eigh
from .errors import ShapeError, SingularMatrixError
from .frame_reduction import gram_to_group_element
from .lie_core import Family, LieAlgebra, _checked_family, _freeze, _refuse_above_cap, change_basis

SIGNATURE_TOL = 1e-8
_SLAB_ENTRIES = 1 << 14
"""Entries (128 KiB) of ``riemann``'s slab buffer.  n <= 8 takes all its
slabs in one product, n = 12 in two, n = 16 in four; one product per
slab would cost 30-60 us more per call at n = 4-12 in call overhead."""


@dataclass(frozen=True)
class RicciReport:
    """Ricci operator in an orthonormal frame, with spectral summary."""

    ric: np.ndarray
    eigenvalues: np.ndarray
    signature: tuple[int, int, int]
    scalar_curvature: float

    def __post_init__(self) -> None:
        for name in ("ric", "eigenvalues"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def levi_civita(g: LieAlgebra) -> np.ndarray:
    """Connection coefficients gamma[i, j, k] = <nabla_{x_i} x_j, x_k> of
    the metric in which the basis of g is orthonormal (Koszul formula
    specialized to a frame), as a read-only array.
    """
    c = g.c
    return _freeze(0.5 * (np.einsum("kij->ijk", c) + np.einsum("kji->ijk", c) + c))


def riemann(gam: np.ndarray, g: LieAlgebra) -> np.ndarray:
    """Curvature tensor R[i, j, k, l] = <R(x_i, x_j) x_k, x_l> from the
    connection coefficients ``gam = levi_civita(g)``.

    R[i,j,k,l] = sum_m gamma[j,k,m] gamma[i,m,l] - (i <-> j)
    - c[i,j,m] gamma[m,k,l].  The output R is the only array that grows
    as n^4: the c-term is written into it by one (n^2, n) x (n, n^2)
    product, and the two gamma-gamma terms are added slab by slab,
    T[s,j,k,l] = sum_m gamma[j,k,m] gamma[s,m,l] going into R[s] and out
    of R[:, s].  The slabs are computed a few s at a time, as one batched
    product into a reused buffer of at most ``_SLAB_ENTRIES`` entries, or
    of one n^3-entry slab where that is larger.  Raises ``DimensionError``
    before allocating when an n^4-entry array would exceed
    ``TENSOR_MAX_BYTES``.
    """
    n = gam.shape[0]
    _refuse_above_cap("the Riemann tensor", n, 4)
    R = np.empty((n, n, n, n))
    np.matmul(-g.c.reshape(n * n, n), gam.reshape(n, n * n), out=R.reshape(n * n, n * n))
    gam2 = gam.reshape(n * n, n)
    R_swapped = R.transpose(1, 0, 2, 3)
    b = max(1, _SLAB_ENTRIES // n**3)
    buf = np.empty((min(b, n), n * n, n))
    for s in range(0, n, b):
        T = buf[: min(b, n - s)]
        np.matmul(gam2, gam[s : s + b], out=T)
        T = T.reshape(-1, n, n, n)
        R[s : s + b] += T
        R_swapped[s : s + b] -= T
    return R


def _ricci_matrix(g: LieAlgebra) -> np.ndarray:
    # Ric(x_a) = sum_i R(x_a, x_i) x_i in column a; jacobi_eigh refuses an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("aiil->la", riemann(levi_civita(g), g))


def _report(ric: np.ndarray, sig: tuple[int, int, int] | None = None) -> RicciReport:
    """The eigen step: eigenvalues, signature and scalar curvature.  The
    signature is ``sig`` where given, else counted by ``_signature``.  A
    trace that overflows, which finite entries and eigenvalues allow, is
    refused."""
    w = jacobi_eigh(ric)
    with np.errstate(over="ignore"):
        scalar = float(np.trace(ric))
    if not np.isfinite(scalar):
        raise np.linalg.LinAlgError("the scalar curvature overflows to a non-finite value")
    sig = _signature(w) if sig is None else sig
    return RicciReport(ric=ric, eigenvalues=w, signature=sig, scalar_curvature=scalar)


def _signature(w: np.ndarray) -> tuple[int, int, int]:
    """Counts of w below, inside and above the band SIGNATURE_TOL * max|w|."""
    band = SIGNATURE_TOL * float(np.max(np.abs(w)))
    neg = int(np.sum(w < -band))
    pos = int(np.sum(w > band))
    return neg, len(w) - neg - pos, pos


def ricci_operator(g: LieAlgebra, G: np.ndarray) -> RicciReport:
    """Ricci operator of the metric G on g, reported in an orthonormal frame.

    G passes ``reduce``'s Gram gate, size first, in ``gram_to_group_element``;
    the frame is its group element g = U^{-T}, which has U's singular-value
    ratio, so a singular g is a singular G.  The structure constants are
    pushed into g and the Koszul / curvature pipeline contracts down to the
    operator.  For a family metric that ``reduce`` takes to (X, k, λ) the
    matrix is k Q Ric(λ) Q^T, with Q = sqrt(k) g^{-1} X orthogonal and Ric(λ) the closed form.
    """
    frame = gram_to_group_element(G, g.dim)
    try:
        moved = change_basis(g, frame)
    except SingularMatrixError as exc:
        raise SingularMatrixError("Gram matrix is singular to working precision") from exc
    return _report(_ricci_matrix(moved))


def _signature_pair(family: Family, n: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(degenerate member for λ = 0, member for λ > 0)."""
    if family is Family.RH2_SUM_ABELIAN:
        return (2, n - 2, 0), (2, n - 3, 1)
    return (n - 1, 1, 0), (n - 1, 0, 1)


def closed_form_ricci(family_tag: Family | str, n: int, lam: float) -> RicciReport:
    """Ricci operator of the family metric with frame parameter λ, n >= 3.

    The eigenvalues come from the eigen step; the signature is the
    λ > 0 member of ``_signature_pair`` for every λ > 0 and the
    degenerate member at λ = 0, exactly.
    """
    ric = _closed_form_matrix(family_tag, n, lam)
    degenerate, generic = _signature_pair(Family(family_tag), n)
    return _report(ric, generic if lam > 0.0 else degenerate)


def _closed_form_matrix(family_tag: Family | str, n: int, lam: float) -> np.ndarray:
    """The matrix of ``closed_form_ricci``, without the eigen step."""
    family = _checked_family(family_tag, n, lam)
    ric = np.zeros((n, n))
    if family is Family.RH2_SUM_ABELIAN:
        ric[0, 0] = ric[1, 1] = -1.0 - lam * lam / 2.0
        ric[n - 1, n - 1] = lam * lam / 2.0
    else:
        ric[0, 0] = -(n - 2) - lam * lam / 2.0
        ric[1, 1] = -lam * lam / 2.0
        for i in range(2, n - 1):
            ric[i, i] = -(n - 2)
        ric[n - 1, n - 1] = lam * lam / 2.0 - (n - 2)
        ric[1, n - 1] = ric[n - 1, 1] = (n - 1) * lam / 2.0
    return ric


def signature(sym: np.ndarray) -> tuple[int, int, int]:
    """Counts (negative, zero, positive) of eigenvalues of a symmetric matrix.

    The zero band is ``SIGNATURE_TOL`` times the spectral radius, so the
    result is invariant under rescaling the matrix; the symmetry check
    uses the same relative tolerance.
    """
    A = np.asarray(sym, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    scale = float(np.max(np.abs(A))) or 1.0
    if np.max(np.abs(A - A.T)) > SIGNATURE_TOL * scale:
        raise ShapeError("matrix is not symmetric within tolerance")
    return _signature(jacobi_eigh(0.5 * A + 0.5 * A.T))
