"""Derivation algebras Der(g): a numerical null space, and the families' closed form.

A derivation is a linear map D with D[x, y] = [Dx, y] + [x, Dy].  Its
defect over the basis pairs i < j is linear in D, so Der(g) is the null
space of a Leibniz matrix L.  L is never formed: ``_leibniz_gram``
assembles its n^2 x n^2 Gram matrix from c / max|c| in one n^4-entry
buffer, one ascending ``eigh`` of that (``eigensolve.symmetric_eigenpairs``)
keeps the eigenvectors with eigenvalues below ``GRAM_RTOL`` of the
largest, and ``_leibniz_defect`` certifies them on L itself, since the
Gram cannot resolve singular values of L much below 1e-5 of the
largest.  c is Lie already: the ``LieAlgebra`` constructor is the one
Jacobi gate.  This null space serves CUSTOM algebras, and in ``verify``
it is the oracle for the closed form.

For the two built-in families Der(g) has a rigid shape: the first row
vanishes, row 2 is supported on columns 1..2, column 2 vanishes below
row 2, and the trailing (n-2) x (n-2) block is free, giving dimension
(n-2)^2 + n.  ``family_derivation_basis`` builds it as elementary
matrices, with no eigen step, for the CLI ``derivations`` subcommand
and, with ``conjugated_derivation_basis``, for the dense
``solvsoliton_solve``; ``classify_metric``'s fit reads the pattern
itself (``_forbidden_mask``), and ``pattern_check`` tests a computed
basis against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import symmetric_eigenpairs
from .errors import ShapeError
from .lie_core import LieAlgebra, _checked_family, _checked_tol, _freeze, _refuse_above_cap

GRAM_RTOL = 1e-10  # relative to sigma_max^2: rank counts sigma >= 1e-5 sigma_max of L
NULLSPACE_RTOL = 1e-9  # relative to sigma_max: the bound on ||L Z^T||_F the null block must meet
PATTERN_TOL = 1e-8
_DEFECT_ENTRIES = 1 << 14  # certificate chunk (or one n^3 slab): stays in cache, 2.7x faster at n = 12


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


def _leibniz_gram(c: np.ndarray) -> np.ndarray:
    """L^T L from c in n^4 memory, without L's n^4(n-1)/2 entries.  The
    defect matrix J over all pairs (i, j) has J^T J = 2 L^T L, and
    L^T L = (I (x) A)/2 + (B (x) I) - (E + E^T) + F, with A = C1^T C1 and
    B = C0 C0^T (C1 = c.reshape(n^2, n), C0 = c.reshape(n, n^2)),
    E[a,b,a',b'] = sum_j c[b',j,b] c[a',j,a] and F[a,b,a',b'] =
    sum_k c[a,b',k] c[b,a',k]: two (n^2, n) x (n, n^2) products and two
    diagonal-block adds.  F - E - E^T is written into the one output
    buffer, so h, e and the Gram are the only n^4-entry arrays."""
    n = c.shape[0]
    c0, c1 = c.reshape(n, n * n), c.reshape(n * n, n)
    cj = c.transpose(0, 2, 1).reshape(n * n, n)  # cj[(a, b), j] = c[a, j, b]
    h = (c1 @ c1.T).reshape(n, n, n, n)  # F is h with its axes permuted
    e = (cj @ cj.T).reshape(n, n, n, n)  # E and E^T are e with its axes permuted
    gram = np.subtract(h.transpose(0, 2, 3, 1), e.transpose(1, 3, 0, 2), out=np.empty((n, n, n, n)))
    gram -= e.transpose(0, 2, 1, 3)
    diag = np.arange(n)
    gram[diag, :, diag, :] += 0.5 * (c1.T @ c1)
    gram[:, diag, :, diag] += c0 @ c0.T
    return gram.reshape(n * n, n * n)


def _leibniz_defect(c: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """D[e_i,e_j] - [De_i,e_j] - [e_i,De_j], component k, over all (i, j, k)
    for each D of an (m, n, n) stack Z: an (m, n, n, n) array whose
    Frobenius norm is sqrt(2) ||L Z^T||_F.  C1 D^T is the first term and
    t = D^T C0 is [De_i, e_j]; c is antisymmetric, so [e_i, De_j] is -t
    with i and j swapped."""
    n = c.shape[0]
    dt = mats.transpose(0, 2, 1)
    out = np.matmul(c.reshape(n * n, n), dt).reshape(-1, n, n, n)
    t = np.matmul(dt, c.reshape(n, n * n)).reshape(-1, n, n, n)
    out -= t
    out += t.transpose(0, 2, 1, 3)
    return out


def derivation_basis(g: LieAlgebra) -> DerivationBasis:
    """Compute an orthonormal basis of Der(g).

    One ascending ``eigh`` of the n^2 x n^2 Gram matrix L^T L
    (``eigensolve.symmetric_eigenpairs``) at every n: no SVD, no QR, no L
    and no size switch.  Eigenvalues w = sigma^2 below ``GRAM_RTOL``
    w_max count as null, a negative rounding eigenvalue of the
    semidefinite Gram included, sigma_max = sqrt(w_max), and the null
    block Z, the leading eigenvectors, must then meet
    ||L Z^T||_F <= ``NULLSPACE_RTOL`` sigma_max, its Leibniz defect taken
    about ``_DEFECT_ENTRIES`` entries at a time, or ``np.linalg.LinAlgError``
    ("rank of the Leibniz matrix unresolved") is raised: a singular value
    in (1e-9, 1e-5) sigma_max is refused, never counted on either side.
    The residual is a backward error on L; the span's forward error grows
    like eps (sigma_max / sigma_r)^2 (sigma_r the smallest nonzero
    singular value), where an SVD of L gives eps sigma_max / sigma_r.

    Both steps take c / max|c|, so Der(s c) = Der(c) at every float
    scale; the abelian algebra gives all n^2 matrices.  Raises
    ``DimensionError`` before allocating when n > 24: n^5 entries, the
    bound kept on the n^2 x n^2 eigen step, would exceed ``TENSOR_MAX_BYTES``.
    """
    n = g.dim
    _refuse_above_cap("the n^2 x n^2 eigen step of Der(g), sized as a tensor that", n, 5)
    c = g.c / (float(np.max(np.abs(g.c))) or 1.0)
    w, v = symmetric_eigenpairs(_leibniz_gram(c))
    smax = np.sqrt(w[-1]) if w[-1] > 0 else 1.0
    # the basis copies the null columns into one C-ordered stack, which the certificate reads
    basis = DerivationBasis(mats=v[:, : np.count_nonzero(w < GRAM_RTOL * smax**2)].T.reshape(-1, n, n))
    chunk = max(1, _DEFECT_ENTRIES // n**3)
    parts = (_leibniz_defect(c, basis.mats[s : s + chunk]) for s in range(0, basis.dim, chunk))
    residual = np.sqrt(0.5 * sum(float(np.vdot(d, d)) for d in parts))
    if residual > NULLSPACE_RTOL * smax:
        raise np.linalg.LinAlgError(
            f"rank of the Leibniz matrix unresolved: null-space residual {residual:.2e} "
            f"exceeds {NULLSPACE_RTOL:g} of its largest singular value {smax:.2e}"
        )
    return basis


def is_derivation(g: LieAlgebra, D: np.ndarray, tol: float) -> tuple[bool, float]:
    """Check the Leibniz rule for one matrix; returns (verdict, defect).

    The defect is the max over all (i, j, k) of the k-th component of
    D[e_i,e_j] - [De_i,e_j] - [e_i,De_j], the d = 1 case of
    ``_leibniz_defect``.  ``tol``, an absolute bound on the defect, must
    be positive and finite (``ValueError``).
    """
    _checked_tol(tol)
    D = np.asarray(D, dtype=float)
    if D.shape != (g.dim, g.dim):
        raise ShapeError(f"expected a {g.dim}x{g.dim} matrix, got {D.shape}")
    out = _leibniz_defect(g.c, D[None])
    defect = float(np.abs(out, out=out).max())
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
