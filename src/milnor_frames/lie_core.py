"""Lie algebras as dense structure-constant tensors.

A Lie algebra of dimension n is stored as a rank-3 tensor ``c`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k``.  Throughout the documentation and
in the text file format indices are 1-based, matching the usual
``e_1, ..., e_n`` notation; the arrays themselves are 0-based.

Two families are built in, both almost abelian: R e_1 ⋉ u with
u = span(e_2, ..., e_n) abelian and, in the frame with parameter λ,
ad(e_1)|u = A_λ (``_pattern_operator``), so c[0, 1:, 1:] = A_λ^T.  The
canonical basis is λ = 0: ``rh2+abelian`` has ``[e_1, e_2] = e_2`` and
``rh-line`` has ``[e_1, e_i] = e_i`` for ``i = 3..n``.

Every value is immutable after construction and every function here is
pure, so the module is safe to use from multiple threads.

Constants from outside the package (``LieAlgebra(...)``, which
:func:`parse_structure_constants` calls) are fully validated: shape,
finiteness, antisymmetry and, on c / max|c|, the Jacobi identity.
Constants the package computes itself (:func:`build_family`,
:func:`milnor_pattern`, :func:`change_basis`) are Lie by construction and
are only checked for finiteness, so an overflowing basis change still
raises ``ShapeError``.

``LieAlgebra(...)`` takes no family tag and is always CUSTOM: only
:func:`build_family` sets one, and one guard, ``_checked_family``,
refuses every other tag for the family-only operations.  Likewise
``_checked_tol`` is the one check of a caller's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DimensionError,
    ShapeError,
    SingularMatrixError,
    UnsupportedFamilyError,
)

ANTISYMMETRY_RTOL = 1e-12  # relative to max|c|, like the Jacobi gate
JACOBI_RTOL = 1e-12  # bound on the Jacobi defect of c / max|c|
SINGULAR_RTOL = 1e-12  # relative: a matrix is singular when s_min <= SINGULAR_RTOL * s_max

TENSOR_MAX_BYTES = 1 << 26
"""Largest dense float64 tensor one call builds: 64 MiB, which admits
n <= 203 for the n^3-entry structure tensor, n <= 53 for the n^4-entry
Riemann tensor and Jacobi contraction (so for every ``LieAlgebra(...)``),
and n <= 24 for n^5 entries, the bound ``derivation_basis`` keeps on its
n^2 x n^2 eigen step (it forms no n^5 array: 5.4 MiB peak at n = 24)."""


def _singular_ratio(M: np.ndarray) -> float:
    """s_max / s_min of a finite square M from one SVD, or inf when M is singular
    to working precision (s_min <= SINGULAR_RTOL s_max): every gate's one rule."""
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > SINGULAR_RTOL * s[0] else np.inf


def _refuse_above_cap(what: str, n: int, rank: int) -> None:
    """Raise ``DimensionError`` when ``what``, a float64 tensor of n^rank
    entries, would exceed ``TENSOR_MAX_BYTES``; call it before allocating."""
    size = 8 * n**rank
    if size > TENSOR_MAX_BYTES:
        raise DimensionError(
            f"{what} has n^{rank} entries, {size / 2**20:.0f} MiB at n = {n}, "
            f"over the {TENSOR_MAX_BYTES >> 20} MiB cap"
        )


class Family(str, Enum):
    """Tags for the built-in algebra families (values match the CLI)."""

    RH2_SUM_ABELIAN = "rh2+abelian"
    RH_LINE_SUM = "rh-line"
    CUSTOM = "custom"


FAMILIES = (Family.RH2_SUM_ABELIAN, Family.RH_LINE_SUM)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LieAlgebra:
    """Immutable structure-constant tensor plus a family tag.

    ``c[i, j, k]`` is the coefficient of ``e_k`` in ``[e_i, e_j]``
    (0-based here, 1-based in rendered output).  The constructor checks
    dim >= 2, the (dim, dim, dim) shape, finiteness, antisymmetry and the
    Jacobi identity of c / max|c| (``ValueError``; needs dim <= 53), and
    stores a read-only copy; it takes no tag, so its algebras are always
    CUSTOM.  The package's own producers go through ``_computed``, which
    checks finiteness only and is where ``build_family`` sets the tag.
    """

    dim: int
    c: np.ndarray
    family_tag: Family = field(default=Family.CUSTOM, init=False)

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DimensionError(f"need dim >= 2, got {self.dim}")
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ShapeError(
                f"structure tensor must be {3 * (self.dim,)}, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ShapeError("structure constants must be finite")
        top = float(np.max(np.abs(c)))
        skew = np.max(np.abs(c + c.transpose(1, 0, 2)))
        if skew > ANTISYMMETRY_RTOL * top:
            raise ShapeError(f"structure constants not antisymmetric (defect {skew:g})")
        defect = jacobi_defect(LieAlgebra._computed(c / (top or 1.0)))
        if defect > JACOBI_RTOL:
            raise ValueError(f"constants violate the Jacobi identity (defect {defect:g} of max|c|^2)")
        object.__setattr__(self, "c", _freeze(c))

    @classmethod
    def _computed(cls, c: np.ndarray, family_tag: Family = Family.CUSTOM) -> LieAlgebra:
        """Wrap an exactly antisymmetric float (n, n, n) array that the
        package just computed and no one else holds; it becomes read-only."""
        if not np.isfinite(c).all():
            raise ShapeError("structure constants must be finite")
        c.setflags(write=False)
        g = object.__new__(cls)
        object.__setattr__(g, "dim", len(c))
        object.__setattr__(g, "c", c)
        object.__setattr__(g, "family_tag", family_tag)
        return g


def _checked_family(family_tag: Family | str, n: int, lam: float = 0.0) -> Family:
    """The built-in family named by ``family_tag``; needs 0 <= λ < inf and
    n >= 3, with the n^3-entry structure tensor within ``TENSOR_MAX_BYTES``.
    Any other tag, CUSTOM or a string that names no family, is refused."""
    if family_tag not in FAMILIES:
        name = getattr(family_tag, "value", family_tag)
        raise UnsupportedFamilyError(f"operation needs a built-in family, got {name!r}")
    family = Family(family_tag)
    if n < 3:
        raise DimensionError(f"family algebras need n >= 3, got {n}")
    _refuse_above_cap("the structure tensor", n, 3)
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"frame parameter must be finite and nonnegative, got {lam}")
    return family


def _checked_tol(tol: float) -> None:
    """Refuse a tolerance that is NaN, infinite or not positive."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _pattern_operator(family: Family, n: int, lam: float) -> np.ndarray:
    """A_λ, the matrix of ad(e_1) on u = span(e_2, ..., e_n), a projector:
    (e_2 + λ e_n) e_2^T for ``rh2+abelian`` and P - λ e_n e_2^T, P = diag(0, 1, ..., 1),
    for ``rh-line``.  The one family branch outside ``verify``'s oracles."""
    A = np.zeros((n - 1, n - 1))
    if family is Family.RH2_SUM_ABELIAN:
        A[0, 0], A[-1, 0] = 1.0, lam
    else:
        A[1:, 1:] = np.eye(n - 2)
        A[-1, 0] -= lam  # from +0.0, so λ = 0 leaves no -0.0
    return A


def _almost_abelian_constants(A: np.ndarray) -> np.ndarray:
    """c of R e_1 ⋉ u with ad(e_1)|u = A: c[0, 1:, 1:] = A^T, exactly antisymmetric."""
    n = len(A) + 1
    c = np.zeros((n, n, n))
    c[0, 1:, 1:] = A.T
    c[1:, 0, 1:] -= A.T  # from +0.0: no -0.0 where A vanishes
    return c


def build_family(family_tag: Family | str, n: int) -> LieAlgebra:
    """Construct one of the two built-in families in its canonical basis.

    ``rh2+abelian`` has the single relation [e_1, e_2] = e_2;
    ``rh-line`` has [e_1, e_i] = e_i for i = 3..n.  Requires n >= 3.
    """
    family = _checked_family(family_tag, n)
    return LieAlgebra._computed(_almost_abelian_constants(_pattern_operator(family, n, 0.0)), family)


def milnor_pattern(family_tag: Family | str, n: int, lam: float) -> LieAlgebra:
    """Bracket relations of the reduced orthonormal frame with parameter λ:
    ad(x_1) = A_λ on span(x_2, ..., x_n) (``_pattern_operator``).

    For ``rh2+abelian``: [x_1, x_2] = x_2 + λ x_n.
    For ``rh-line``:     [x_1, x_2] = -λ x_n and [x_1, x_i] = x_i, i >= 3.
    """
    family = _checked_family(family_tag, n, lam)
    return LieAlgebra._computed(_almost_abelian_constants(_pattern_operator(family, n, lam)))


def bracket(g: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate [x, y], i.e. contract the structure tensor with two vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (g.dim,) or y.shape != (g.dim,):
        raise ShapeError(f"expected vectors of length {g.dim}, got {x.shape} and {y.shape}")
    return np.einsum("i,j,ijk->k", x, y, g.c)


def jacobi_defect(g: LieAlgebra) -> float:
    """Worst violation of the Jacobi identity over all basis triples.

    Returns ``max_{i,j,k} || [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] ||_inf``,
    which is 0 for a genuine Lie algebra.  Raises ``DimensionError``
    before allocating when the n^4-entry contraction would exceed
    ``TENSOR_MAX_BYTES``.
    """
    n = g.dim
    _refuse_above_cap("the Jacobi contraction", n, 4)
    # A[j,k,i,l] = sum_m c[j,k,m] c[i,m,l]; the three terms are A with
    # (i, j, k) cycled, summed in place so two n^4 arrays are alive at once.
    A = (g.c.reshape(n * n, n) @ g.c.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n, n)
    jac = A + A.transpose(1, 2, 0, 3)
    jac += A.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(jac, out=jac)))


def change_basis(g: LieAlgebra, basis: np.ndarray) -> LieAlgebra:
    """Push the structure constants through a new basis.

    ``basis`` is an invertible n x n matrix whose columns are the new basis
    vectors in old coordinates.  The returned constants c' satisfy
    ``[P col_i, P col_j] = sum_k c'[i, j, k] (P col_k)`` where P = basis.
    The family tag degrades to CUSTOM because the canonical relations are
    generally destroyed.

    The contraction is staged as three BLAS matrix products of O(n^4)
    each: the upper index of c with P^{-1}, then both lower indices with
    P (``_push_lower``).  A single four-operand contraction costs O(n^6)
    and, summing in a worse order, loses accuracy as well; the staged
    order keeps the error near cond(P) times machine epsilon.
    """
    n = g.dim
    P = np.asarray(basis, dtype=float)
    if P.shape != (n, n):
        raise ShapeError(f"basis matrix must be {n}x{n}, got {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ShapeError("basis matrix must be finite")
    if _singular_ratio(P) == np.inf:
        raise SingularMatrixError("basis matrix is singular to working precision")
    cp = _push_lower((g.c.reshape(n * n, n) @ np.linalg.inv(P).T).reshape(n, n, n), P)
    # Kill the antisymmetry drift from floating-point summation order.  The
    # result is exactly antisymmetric: 0.5*(a-b) is the negation of 0.5*(b-a).
    return LieAlgebra._computed(0.5 * (cp - cp.transpose(1, 0, 2)))


def _push_lower(t: np.ndarray, P: np.ndarray) -> np.ndarray:
    """sum_{i,j} P[i,a] P[j,b] t[i,j,k]: both lower indices of an (n, n, n)
    tensor through P, as one matrix product and one batched one."""
    return np.matmul(P.T, (P.T @ t.reshape(len(P), -1)).reshape(t.shape))


# --- structure-constants text format -------------------------------------
#
# line 1:            n
# following lines:   i j k v      (1-based, only pairs i < j listed)
#
# Antisymmetric completion is implied and unlisted entries are zero.


def parse_structure_constants(text: str) -> LieAlgebra:
    """Parse the structure-constants text format into a LieAlgebra."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty structure-constants input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the dimension, got {lines[0]!r}") from exc
    if n < 2:
        raise DimensionError(f"need dim >= 2, got {n}")
    # refuse before allocating: the constructor's Jacobi gate contracts n^4 entries
    _refuse_above_cap("the Jacobi contraction", n, 4)
    c = np.zeros((n, n, n))
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"expected 'i j k v', got {ln!r}")
        i, j, k = (int(p) for p in parts[:3])
        v = float(parts[3])
        if not (1 <= i < j <= n) or not (1 <= k <= n):
            raise ValueError(f"indices out of range (need 1 <= i < j <= n): {ln!r}")
        c[i - 1, j - 1, k - 1] = v
        c[j - 1, i - 1, k - 1] = -v
    return LieAlgebra(dim=n, c=c)
