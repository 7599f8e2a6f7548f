"""Derivation algebras Der(g): a numerical null space, and the families' closed form.

A derivation is a linear map D with D[x, y] = [Dx, y] + [x, Dy].  The
defect of that identity over all basis pairs is a linear function of D,
so Der(g) is the null space of a fixed matrix L.  L and its n^2 x n^2
Gram matrix L^T L have the same right singular vectors, and the Gram's
singular values are L's squared, so we take one symmetric SVD of L^T L
and keep the vectors whose squared singular values fall below
``GRAM_RTOL`` times the largest one.  The Gram cannot resolve singular
values of L much below 1e-5 of the largest, so the kept block Z is then
certified on L itself: ||L Z^T||_F must stay within ``NULLSPACE_RTOL``
of L's largest singular value, or the rank is refused as unresolved.
The resulting basis matrices are orthonormal in the Frobenius inner
product.  L is built from c / max|c|; c is Lie already, as the
``LieAlgebra`` constructor is the one Jacobi gate.

For the two built-in families the answer has a rigid shape: the first
row vanishes, row 2 is supported on columns 1..2, column 2 vanishes
below row 2, and the trailing (n-2) x (n-2) block is free, giving
dimension (n-2)^2 + n.  ``family_derivation_basis`` builds that space
directly as elementary matrices, with no SVD, and ``pattern_check``
tests a computed basis against the pattern itself.

Which path serves whom: ``classify_metric`` needs no basis at all, since
its closed-form fit reads the same free pattern (``_forbidden_mask``);
``family_derivation_basis`` serves the CLI ``derivations`` subcommand
and, with ``conjugated_derivation_basis``, the dense ``solvsoliton_solve``
that is the fit's oracle.  The null space of ``derivation_basis`` serves
CUSTOM algebras, and in ``verify`` it is the independent oracle that
certifies the closed form.
The Leibniz matrix L, built on the pairs i < j, has n^4(n-1)/2 entries;
its Gram matrix is n^2 x n^2 at every n.  ``derivation_basis`` refuses
n > 24 (n^5 over ``TENSOR_MAX_BYTES``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .lie_core import LieAlgebra, _checked_family, _freeze, _refuse_above_cap

GRAM_RTOL = 1e-10  # relative to sigma_max^2: rank counts sigma >= 1e-5 sigma_max of L
NULLSPACE_RTOL = 1e-9  # relative to sigma_max: the bound on ||L Z^T||_F the null block must meet
PATTERN_TOL = 1e-8


@dataclass(frozen=True)
class DerivationBasis:
    """Basis of Der(g), a stack of shape (dim, n, n).

    ``derivation_basis`` and ``family_derivation_basis`` return
    Frobenius-orthonormal stacks; ``conjugated_derivation_basis`` returns
    the conjugated elements as they are, which are only a basis.
    """

    mats: np.ndarray

    def __post_init__(self) -> None:
        m = _freeze(self.mats)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ShapeError(f"expected (d, n, n) stack of matrices, got {m.shape}")
        object.__setattr__(self, "mats", m)

    @property
    def dim(self) -> int:
        return self.mats.shape[0]

    @property
    def n(self) -> int:
        return self.mats.shape[1]


def _leibniz_operator(g: LieAlgebra) -> np.ndarray:
    """Matrix of D -> (D[e_i,e_j] - [De_i,e_j] - [e_i,De_j]) over pairs i<j."""
    n = g.dim
    c = g.c
    iu, ju = np.triu_indices(n, k=1)
    pairs = np.arange(len(iu))
    # L[p, k, a, b] is the coefficient of D[a,b] in the k-th component of
    # the defect of pair p = (i, j): c[i,j,b] where a = k, minus
    # c[a,j,k] where b = i and c[i,a,k] where b = j.
    L = np.zeros((len(iu), n, n, n))
    L[:, np.arange(n), np.arange(n), :] = c[iu, ju][:, None, :]
    L[pairs, :, :, iu] -= c[:, ju, :].transpose(1, 2, 0)
    L[pairs, :, :, ju] -= c[iu].transpose(0, 2, 1)
    return L.reshape(len(iu) * n, n * n)


def derivation_basis(g: LieAlgebra) -> DerivationBasis:
    """Compute an orthonormal basis of Der(g).

    One symmetric SVD of the n^2 x n^2 Gram matrix L^T L of the Leibniz
    matrix L (numpy's ``eigh`` underneath), the same at every n: no QR
    and no size switch.  Singular values sigma of L with sigma^2 below
    ``GRAM_RTOL`` sigma_max^2 count as null, and the null block Z must
    then meet ||L Z^T||_F <= ``NULLSPACE_RTOL`` sigma_max; otherwise
    ``np.linalg.LinAlgError`` ("rank of the Leibniz matrix unresolved")
    is raised.  So a singular value in (1e-9, 1e-5) sigma_max is refused,
    never silently counted on either side.

    Accuracy: the residual above is a backward error on L itself, but the
    forward error of the span grows like eps (sigma_max / sigma_r)^2, with
    sigma_r the smallest nonzero singular value, where an SVD of L gives
    eps sigma_max / sigma_r.  Over 40 families (n = 4..8) pushed through
    bases P of fixed cond(P), the span projector stays within 2.9e-9 of
    the SVD of L's at cond(P) = 1e4 and within 2.5e-7 at 1e6, and the
    residual within 1.3e-11 sigma_max; at cond(P) = 1e6, 3 of the 40 are
    refused where an SVD of L still reads the right dimension (none at
    1e5 or below).

    L is built from c / max|c|, so Der(s c) = Der(c) at every float scale.
    The abelian algebra returns the full n^2-dimensional matrix space.
    Raises ``DimensionError`` before allocating anything of size n^4 or
    more when n^5 entries, a bound on L, would exceed ``TENSOR_MAX_BYTES``.
    """
    n = g.dim
    _refuse_above_cap("the Leibniz tensor of Der(g) by SVD", n, 5)
    top = float(np.max(np.abs(g.c)))
    L = _leibniz_operator(LieAlgebra._computed(g.c / (top or 1.0)))
    _, s2, vt = np.linalg.svd(L.T @ L, hermitian=True)
    smax = np.sqrt(s2[0]) if s2[0] > 0 else 1.0
    null = vt[int(np.sum(s2 >= GRAM_RTOL * smax**2)):]
    residual = float(np.linalg.norm(L @ null.T))
    if residual > NULLSPACE_RTOL * smax:
        raise np.linalg.LinAlgError(
            f"rank of the Leibniz matrix unresolved: null-space residual {residual:.2e} "
            f"exceeds {NULLSPACE_RTOL:g} of its largest singular value {smax:.2e}"
        )
    return DerivationBasis(mats=null.reshape(-1, n, n))


def is_derivation(g: LieAlgebra, D: np.ndarray, tol: float) -> tuple[bool, float]:
    """Check the Leibniz rule for one matrix; returns (verdict, defect).

    The defect is the max over all (i, j, k) of the k-th component of
    D[e_i,e_j] - [De_i,e_j] - [e_i,De_j].  Two matrix products give it:
    t = D^T c is [De_i, e_j], and since c is antisymmetric, [e_i, De_j]
    is -t with i and j swapped.
    """
    D = np.asarray(D, dtype=float)
    n = g.dim
    if D.shape != (n, n):
        raise ShapeError(f"expected a {n}x{n} matrix, got {D.shape}")
    c = g.c
    t = (D.T @ c.reshape(n, n * n)).reshape(n, n, n)
    lhs = (c.reshape(n * n, n) @ D.T).reshape(n, n, n)
    defect = float(np.abs(lhs - t + t.transpose(1, 0, 2)).max())
    return defect <= tol, defect


def _forbidden_mask(n: int) -> np.ndarray:
    mask = np.zeros((n, n), dtype=bool)
    mask[0, :] = True            # first row
    mask[1, 2:] = True           # row 2 beyond column 2
    mask[2:, 1] = True           # column 2 below row 2
    return mask


def family_derivation_basis(n: int) -> DerivationBasis:
    """Der(g) of either built-in family in closed form.

    The elementary matrices E_pq on the free positions of the family
    pattern, in row-major order; distinct E_pq are Frobenius-orthonormal,
    so the stack is a valid basis as it stands.  Both families share the
    pattern, so only the dimension is needed.
    """
    rows, cols = np.nonzero(~_forbidden_mask(n))
    mats = np.zeros((rows.size, n, n))
    mats[np.arange(rows.size), rows, cols] = 1.0
    return DerivationBasis(mats=mats)


def pattern_check(g: LieAlgebra, basis: DerivationBasis) -> bool:
    """Verify the family derivation shape against a computed basis.

    True iff every element vanishes on the forbidden positions, relative
    to the largest entry, and the elements restricted to the free
    positions have full rank, relative to their largest singular value:
    the span is the whole free space, whatever the scale, orthonormality
    or repeats of the elements.  Refuses CUSTOM algebras (``_checked_family``).
    """
    _checked_family(g.family_tag, g.dim)
    n = g.dim
    if basis.n != n:
        raise ShapeError(f"basis is {basis.n}x{basis.n}, algebra is {n}-dimensional")
    mats = basis.mats
    free = ~_forbidden_mask(n)
    scale = float(np.max(np.abs(mats), initial=0.0))
    if np.max(np.abs(mats[:, ~free]), initial=0.0) > PATTERN_TOL * scale:
        return False
    s = np.linalg.svd(mats[:, free], compute_uv=False)
    return int(np.sum(s > PATTERN_TOL * np.max(s, initial=0.0))) == np.count_nonzero(free)


def conjugated_derivation_basis(basis: DerivationBasis, lam: float) -> DerivationBasis:
    """Express Der(g) in the reduced frame: conjugate by g_λ = I - λ E_{n,2}.

    Matrix expressions transform by D -> g_λ^{-1} D g_λ; the conjugated
    family pattern picks up the coupling entry (n, 2) = λ (D_22 - D_nn).
    Element j of the result is g_λ^{-1} D_j g_λ, exactly.  Conjugation by
    the invertible g_λ keeps the elements independent, so the result is
    a basis of the conjugated Der(g), but not an orthonormal one for
    λ > 0; ``solvsoliton_solve`` does not need one.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"frame parameter must be finite and nonnegative, got {lam}")
    n = basis.n
    g_lam = np.eye(n)
    g_lam[n - 1, 1] = -lam
    # E_{n,2}^2 = 0, so the inverse is I + lam E_{n,2} exactly.
    g_inv = np.eye(n)
    g_inv[n - 1, 1] = lam
    return DerivationBasis(mats=g_inv @ basis.mats @ g_lam)
