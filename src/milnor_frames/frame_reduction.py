"""Reduction of an inner product to its canonical frame representative.

An inner product on R^n is a symmetric positive-definite Gram matrix G.
GL(n) acts transitively on inner products by g.<.,.> = <g^{-1}., g^{-1}.>,
so G corresponds to a group element g with (g g^T)^{-1} = G, determined
up to right multiplication by O(n).  For the two built-in families the
double coset of g under scaled automorphisms on the left and O(n) on
the right always meets the one-parameter set
{ g_λ = I - λ E_{n,2} : λ >= 0 }, and chasing that membership
constructively yields, for any G:

* a parameter λ >= 0,
* a scale k > 0,
* a frame matrix X whose columns are orthonormal for k G, and in which
  the bracket relations are the single-parameter family pattern
  ([x_1, x_2] = x_2 + λ x_n, resp. [x_1, x_2] = -λ x_n with
  [x_1, x_i] = x_i).

The group element g of G is lower triangular with positive diagonal,
g = [[A_1, 0], [A_3, A_4]] in blocks of sizes 2 and n - 2.  With
V = A_4^{-1} A_3 and any orthogonal B with B v_2 = (0, ..., 0, -λ),

    g = blockdiag(A_1, A_4) [[I, 0], [V, I]] = A g_λ blockdiag(I_2, B)

for a scaled automorphism A with A_11 = g_11; det B is free, since Aut(g)
holds all of GL(n - 2) on the trailing block (central in ``rh2+abelian``;
in ``rh-line`` ad(e_1) is the identity there and e_2 is central).  So
the frame is X = g blockdiag(I_2, B^T) / g_11, the scale is k = g_11^2,
and the unit automorphism ψ = A / g_11 = X (I + λ E_{n,2}) is X with its
entries (i, 2), i >= 3, set to zero: one Cholesky factorisation, no QR.
λ takes no inverse and no solve: with G = U U^T, U upper triangular, and
g = U^{-T}, V = A_4^{-1} A_3 = -U_12^T U_11^{-T} and U_11^{-T} e_2 = e_2 / U[1, 1]
(0-based), so v_2 = -U[1, 2:] / U[1, 1] and λ = ||U[1, 2:]|| / U[1, 1].

Parameters λ below 1e-9 are snapped to exactly 0 so downstream
classifiers see the boundary case sharply.

Every Gram matrix passes one gate, ``_factor_gram``, which validates and
factors it once; ``gram_to_group_element`` and ``_frame_parameter`` are
its only callers.  ``parse_gram`` reads the text format and leaves the
validation to that gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivations import _forbidden_mask
from .errors import NotPositiveDefiniteError, ShapeError, SingularMatrixError
from .lie_core import (
    SINGULAR_RTOL, LieAlgebra, _checked_family, _checked_tol, _freeze, _push_lower, change_basis,
    milnor_pattern,
)

DEFAULT_TOL = 1e-8
LAMBDA_SNAP = 1e-9
CONDITION_WARN = 1e12


def _factor_gram(G: np.ndarray, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The validated G and its reversed Cholesky factor U, G = U U^T with U
    upper triangular: the one Gram gate.  Checks, in order: square, n x n
    (n is the algebra's dimension, if given), finite, symmetric, definite.

    It stops at definiteness and leaves a singular G to the consumer's own
    SVD (``_frame_parameter``'s of U, ``change_basis``'s of g): one here
    would be a second SVD on every ``ricci_operator`` call, 12-22 us at
    n = 8-16 against about 0.5 ms per ``classify-large`` item."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ShapeError(f"Gram matrix must be square, got {G.shape}")
    if n is not None and len(G) != n:
        raise ShapeError(f"Gram matrix is {len(G)}x{len(G)}, algebra has dim {n}")
    # NaN compares false, so it would slip past the symmetry check below.
    if not np.all(np.isfinite(G)):
        raise ShapeError("Gram matrix must be finite")
    # '>': the bound underflows to 0 for subnormal G; halving first cannot overflow
    if np.max(np.abs(G - G.T)) > 1e-10 * float(np.max(np.abs(G))):
        raise ShapeError("Gram matrix is not symmetric")
    G = 0.5 * G + 0.5 * G.T
    try:
        U = np.linalg.cholesky(G[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("Gram matrix is not positive definite") from exc
    G.setflags(write=False)
    return G, U


def gram_to_group_element(G: np.ndarray, n: int | None = None) -> np.ndarray:
    """Group element g with (g g^T)^{-1} = G, i.e. <.,.>_G = g.<.,.>_0.

    Uses the reversed triangular factorization G = U U^T (U upper
    triangular with positive diagonal) and returns the lower-triangular
    g = U^{-T}.  With this convention the map is the identity on
    lower-triangular matrices with positive diagonal: if g is such a
    matrix, gram_to_group_element((g g^T)^{-1}) reproduces g.  Given n, G must be n x n.

    A G singular to working precision (cond(G) >= 1e24, s_min <= 1e-12
    s_max for U) is not refused here.  ``reduce`` and ``classify_metric``
    refuse it by ``_frame_parameter``'s SVD of U, and ``ricci_operator`` by
    ``change_basis``'s SVD of g, which has the same singular-value ratio.
    """
    return np.linalg.inv(_factor_gram(G, n)[1]).T


@dataclass(frozen=True)
class FrameResiduals:
    """Numerical certificates attached to a reduction."""

    orthonormality: float
    bracket_pattern: float
    condition_number: float
    conditioning_warning: bool


@dataclass(frozen=True)
class MilnorFrame:
    """Output of :func:`reduce`.

    ``frame`` has the frame vectors x_i as columns in canonical
    coordinates; ``k * frame.T @ G @ frame = I`` and the structure
    constants in this basis are the family pattern with parameter
    ``lam``.  ``automorphism`` is the bracket-preserving factor with
    unit (1,1) entry; ``scale_k`` is the square of the scalar split off
    from it.
    """

    lam: float
    scale_k: float
    frame: np.ndarray
    automorphism: np.ndarray
    residuals: FrameResiduals

    def __post_init__(self) -> None:
        for name in ("frame", "automorphism"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def _frame_parameter(
    g_alg: LieAlgebra, G: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """(λ, v_2, G, U, cond(G)) for a family metric, from the factor alone.

    λ and v_2 are read off U's second row (module docstring), with λ
    below ``LAMBDA_SNAP`` snapped to 0.  U, and so the frame
    X = g blockdiag(I_2, B^T) / g_11, is refused as singular when
    s_min <= ``SINGULAR_RTOL`` s_max; cond(G) = (s_max / s_min)^2.
    """
    _checked_family(g_alg.family_tag, g_alg.dim)
    G, U = _factor_gram(G, g_alg.dim)
    s = np.linalg.svd(U, compute_uv=False)
    if s[-1] <= SINGULAR_RTOL * s[0]:
        raise SingularMatrixError("Gram matrix is singular to working precision")
    v2 = -U[1, 2:] / U[1, 1]
    lam = float(np.linalg.norm(v2))
    if lam < LAMBDA_SNAP:
        lam = 0.0
    return lam, v2, G, U, float((s[0] / s[-1]) ** 2)


def reduce(g_alg: LieAlgebra, G: np.ndarray) -> MilnorFrame:
    """Reduce a family metric to its Milnor-type frame.

    Returns the parameter λ (that of ``_frame_parameter``), the scale k,
    the frame matrix, the automorphism factor, and residual certificates.
    A condition number above 1e12 only sets the ``conditioning_warning``
    flag; the reduction still runs.  k, the frame and the automorphism are
    read off g = A g_λ blockdiag(I_2, B) of the module docstring, with B
    one Householder reflection (and a sign) applied as a rank-1 update.
    An overflowing k (G near the subnormals) raises ``LinAlgError``.
    """
    lam, v2, G, U, cond = _frame_parameter(g_alg, G)
    n = g_alg.dim
    g = np.linalg.inv(U).T
    # X = g blockdiag(I_2, B^T) / g_11; g[:2, 2:] is zero.
    g11 = float(g[0, 0])
    X = g / g11
    if lam > 0.0:
        # Reflect v_2 onto σ e_m by I - 2 w w^T / w^T w, w = v_2 - σ e_m, with σ
        # signed against v_2[-1] so w does not cancel; at σ = +λ, negate x_n too.
        sigma = -lam if v2[-1] >= 0 else lam
        w = np.append(v2[:-1], v2[-1] - sigma)
        X[2:, 2:] = (g[2:, 2:] - np.outer(g[2:, 2:] @ w, 2.0 * w / (w @ w))) / g11
        if sigma > 0:
            X[2:, -1] *= -1.0
    k = g11 * g11
    if not np.isfinite(k):
        raise np.linalg.LinAlgError(f"scale k = g_11^2 overflows (g_11 = {g11:.3e})")
    # ψ = A / g_11, which is X (I + λ E_{n,2}) unless λ was snapped to 0.
    # Column 2 of A is zero below row 2: set it, not cancel it.
    psi = X.copy()
    psi[2:, 1] = 0.0

    ortho = float(np.max(np.abs(k * (X.T @ G @ X) - np.eye(n))))
    pattern = milnor_pattern(g_alg.family_tag, n, lam)
    bracket_defect = float(np.max(np.abs(change_basis(g_alg, X).c - pattern.c)))
    residuals = FrameResiduals(
        orthonormality=ortho,
        bracket_pattern=bracket_defect,
        condition_number=cond,
        conditioning_warning=cond > CONDITION_WARN,
    )
    return MilnorFrame(lam=lam, scale_k=k, frame=X, automorphism=psi, residuals=residuals)


def orbit_parameter_equal(
    g_alg: LieAlgebra, G1: np.ndarray, G2: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """Whether two metrics reduce to the same frame parameter.

    Compares the λ that ``reduce`` would return for G1 and for G2 within
    ``tol``, nothing more, and builds no frame.  By the moduli
    result for these families (the classes of left-invariant metrics up
    to isometry and scaling are {g_λ : λ >= 0}), equal λ implies the
    same scaled automorphism orbit, but no certificate φ with
    φ^T G1 φ proportional to G2 is computed yet (ROADMAP item 8).
    ``tol`` must be positive and finite (``ValueError``).
    """
    _checked_tol(tol)
    return abs(_frame_parameter(g_alg, G1)[0] - _frame_parameter(g_alg, G2)[0]) <= tol


def validate_aut_element(g_alg: LieAlgebra, M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Check membership of M in the scaled automorphism pattern group.

    With φ = M / M[1][1]: True iff φ vanishes where Der(g) does except at
    (1,1), since the scaled automorphisms have Lie algebra R I + Der(g),
    satisfies φ[x, y] = [φ x, φ y] over all basis pairs, and is invertible
    (the singular-value test of ``change_basis``).  Zero entries and the
    equation defect are held to one bound, tol max|φ|, which φ_11 = 1 must
    exceed, so s M gets the verdict of M for every scalar s != 0; ``tol``
    must be positive and finite (``ValueError``).  Refuses CUSTOM algebras,
    even pushed families, whose bases the pattern misses.
    """
    _checked_family(g_alg.family_tag, g_alg.dim)
    _checked_tol(tol)
    M = np.asarray(M, dtype=float)
    n = g_alg.dim
    if M.shape != (n, n):
        raise ShapeError(f"expected a {n}x{n} matrix, got {M.shape}")
    if M[0, 0] == 0.0:
        return False
    phi = M / M[0, 0]
    zero_positions = _forbidden_mask(n)
    zero_positions[0, 0] = False
    eq = (g_alg.c.reshape(n * n, n) @ phi.T).reshape(n, n, n) - _push_lower(g_alg.c, phi)
    defect = max(np.max(np.abs(phi[zero_positions])), np.max(np.abs(eq)))
    if not float(defect) <= tol * float(np.max(np.abs(phi))) < 1.0:
        return False
    s = np.linalg.svd(phi, compute_uv=False)
    return bool(s[-1] > SINGULAR_RTOL * s[0])


# --- Gram matrix text format: n lines of n space-separated decimals ------


def parse_gram(text: str) -> np.ndarray:
    """Parse the Gram matrix text format into a square float array.

    Only the text is checked: non-empty, square, every token a float.  The
    consumer's Gram gate (``_factor_gram``, inside ``reduce``,
    ``ricci_operator``, ``classify_metric`` or ``gram_to_group_element``)
    validates the array, size first, and factors it once.
    """
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rows.append([float(tok) for tok in ln.split()])
    if not rows:
        raise ValueError("empty Gram matrix input")
    if any(len(r) != len(rows) for r in rows):
        raise ShapeError("Gram matrix rows must all have length n")
    return np.array(rows)
