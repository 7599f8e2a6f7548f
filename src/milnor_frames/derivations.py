"""Derivation algebras Der(g): a numerical null space, and the families' closed form.

A derivation is a linear map D with D[x, y] = [Dx, y] + [x, Dy].  The
defect of that identity over all basis pairs is a linear function of D,
so Der(g) is the null space of a fixed matrix; we extract it with an
SVD and keep the right singular vectors whose singular values fall
below 1e-9 times the largest one.  The resulting basis matrices are
orthonormal in the Frobenius inner product.

For the two built-in families the answer has a rigid shape: the first
row vanishes, row 2 is supported on columns 1..2, column 2 vanishes
below row 2, and the trailing (n-2) x (n-2) block is free, giving
dimension (n-2)^2 + n.  ``family_derivation_basis`` builds that space
directly as elementary matrices, with no SVD, and ``pattern_check``
compares a computed basis against it.

Which path serves whom: ``classify_metric`` needs no basis at all, since
its closed-form fit reads the same free pattern (``_forbidden_mask``);
``family_derivation_basis`` and ``conjugated_derivation_basis`` serve
``pattern_check`` and the dense ``solvsoliton_solve`` that is the fit's
oracle.  The SVD of ``derivation_basis`` serves CUSTOM algebras and the
CLI ``derivations`` subcommand, and in ``verify`` it is the independent
oracle that certifies the closed form.
The Leibniz tensor behind the SVD has n^5 entries, so ``derivation_basis``
refuses dimensions whose tensor would exceed ``lie_core.TENSOR_MAX_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UnsupportedFamilyError
from .lie_core import Family, LieAlgebra, _freeze, _refuse_above_cap, jacobi_defect

NULLSPACE_RTOL = 1e-9
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
    eye = np.eye(n)
    # T[i,j,k,a,b] is the coefficient of D[a,b] in the k-th component of
    # the pair-(i,j) defect.
    T = (
        np.einsum("ijb,ak->ijkab", c, eye)
        - np.einsum("ib,ajk->ijkab", eye, c)
        - np.einsum("jb,iak->ijkab", eye, c)
    )
    iu, ju = np.triu_indices(n, k=1)
    return T[iu, ju].reshape(len(iu) * n, n * n)


def derivation_basis(g: LieAlgebra) -> DerivationBasis:
    """Compute an orthonormal basis of Der(g).

    Requires jacobi_defect(g) < 1e-9.  The abelian algebra returns the
    full n^2-dimensional matrix space.  Raises ``DimensionError`` before
    allocating anything of size n^4 or more when the n^5-entry Leibniz
    tensor would exceed ``TENSOR_MAX_BYTES``.
    """
    n = g.dim
    _refuse_above_cap("the Leibniz tensor of Der(g) by SVD", n, 5)
    defect = jacobi_defect(g)
    if defect >= 1e-9:
        raise ValueError(f"not a Lie algebra (Jacobi defect {defect:g})")
    L = _leibniz_operator(g)
    # For n >= 3, L has more rows than columns and the thin V^T already
    # spans the null space; only n = 2 needs the full square V^T.
    _, s, vt = np.linalg.svd(L, full_matrices=L.shape[0] < L.shape[1])
    smax = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s >= NULLSPACE_RTOL * smax))
    mats = vt[rank:].reshape(-1, n, n)
    return DerivationBasis(mats=mats)


def is_derivation(g: LieAlgebra, D: np.ndarray, tol: float) -> tuple[bool, float]:
    """Check the Leibniz rule for one matrix; returns (verdict, defect).

    The defect is the max over all pairs (i, j) of the sup-norm of
    D[e_i,e_j] - [De_i,e_j] - [e_i,De_j]; for antisymmetric c that is the
    max over i < j, since the (j, i) entries are the negated (i, j) ones.
    """
    D = np.asarray(D, dtype=float)
    n = g.dim
    if D.shape != (n, n):
        raise ShapeError(f"expected a {n}x{n} matrix, got {D.shape}")
    c = g.c
    lhs = np.einsum("ijm,km->ijk", c, D)
    rhs = np.einsum("mi,mjk->ijk", D, c) + np.einsum("mj,imk->ijk", D, c)
    defect = float(np.max(np.abs(lhs - rhs)))
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

    True iff every basis element vanishes on the forbidden positions and
    the span reaches every free position, i.e. the span is the whole
    closed-form space of ``family_derivation_basis``.  Only defined for
    the built-in families.
    """
    if g.family_tag is Family.CUSTOM:
        raise UnsupportedFamilyError("pattern_check needs a built-in family")
    n = g.dim
    if basis.n != n:
        raise ShapeError(f"basis is {basis.n}x{basis.n}, algebra is {n}-dimensional")
    mats = basis.mats
    scale = max(1.0, float(np.max(np.abs(mats))) if mats.size else 1.0)
    if mats.size and np.max(np.abs(mats[:, _forbidden_mask(n)])) > PATTERN_TOL * scale:
        return False
    # Span check: projecting each closed-form element onto the basis must
    # leave no residual.
    flat = mats.reshape(basis.dim, n * n)
    free = family_derivation_basis(n).mats.reshape(-1, n * n)
    resid = free - (free @ flat.T) @ flat
    return bool(np.max(np.linalg.norm(resid, axis=1)) <= PATTERN_TOL)


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
