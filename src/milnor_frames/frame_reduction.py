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
V = A_4^{-1} A_3 and the rotation B with B v_2 = (0, ..., 0, -λ),

    g = blockdiag(A_1, A_4) [[I, 0], [V, I]] = A g_λ blockdiag(I_2, B)

for a scaled automorphism A with A_11 = g_11.  So the frame is
X = g blockdiag(I_2, B^T) / g_11, the scale is k = g_11^2, and the unit
automorphism ψ = A / g_11 = X (I + λ E_{n,2}) is X with its entries
(i, 2), i >= 3, set to zero: one Cholesky factorisation and one
(n-2)-dimensional solve, no QR.

Parameters λ below 1e-9 are snapped to exactly 0 so downstream
classifiers see the boundary case sharply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivations import _forbidden_mask
from .errors import NotPositiveDefiniteError, ShapeError, UnsupportedFamilyError
from .lie_core import FAMILIES, LieAlgebra, _freeze, change_basis, milnor_pattern

DEFAULT_TOL = 1e-8
LAMBDA_SNAP = 1e-9
CONDITION_WARN = 1e12


def _factor_gram(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``validate_gram`` and ``gram_to_group_element`` from one factorization."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ShapeError(f"Gram matrix must be square, got {G.shape}")
    # NaN compares false, so it would slip past the symmetry check below.
    if not np.all(np.isfinite(G)):
        raise ShapeError("Gram matrix must be finite")
    scale = float(np.max(np.abs(G))) or 1.0
    if np.max(np.abs(G - G.T)) >= 1e-10 * scale:
        raise ShapeError("Gram matrix is not symmetric")
    G = 0.5 * (G + G.T)
    try:
        U = np.linalg.cholesky(G[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("Gram matrix is not positive definite") from exc
    G.setflags(write=False)
    return G, np.linalg.inv(U).T


def validate_gram(G: np.ndarray) -> np.ndarray:
    """Check finiteness, symmetry and positive definiteness; return a frozen copy.

    Symmetry must hold within 1e-10 of the matrix scale; definiteness is
    certified by a successful triangular factorization.
    """
    return _factor_gram(G)[0]


def gram_to_group_element(G: np.ndarray) -> np.ndarray:
    """Group element g with (g g^T)^{-1} = G, i.e. <.,.>_G = g.<.,.>_0.

    Uses the reversed triangular factorization G = U U^T (U upper
    triangular with positive diagonal) and returns the lower-triangular
    g = U^{-T}.  With this convention the map is the identity on
    lower-triangular matrices with positive diagonal: if g is such a
    matrix, gram_to_group_element((g g^T)^{-1}) reproduces g.
    """
    return _factor_gram(G)[1]


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


def _rotation_onto_last_axis(v2: np.ndarray) -> tuple[float, np.ndarray]:
    """λ = ||v2|| and B with B v2 = (0, ..., 0, -λ), det B = +1 when m > 1.

    The m = 1 block admits no rotation, so a reflection absorbs the sign
    there (still bracket preserving for both families).
    """
    m = v2.shape[0]
    lam = float(np.linalg.norm(v2))
    if lam < LAMBDA_SNAP:
        return 0.0, np.eye(m)
    if m == 1:
        return lam, np.array([[-1.0]]) if v2[0] > 0 else np.eye(1)
    beta = v2[-1]
    # Householder target sign chosen to avoid cancellation in w.
    sigma = -lam if beta >= 0 else lam
    w = v2.copy()
    w[-1] -= sigma
    H = np.eye(m) - 2.0 * np.outer(w, w) / (w @ w)
    # The reflection has det -1.  When it already lands on -λ, flip the
    # first block coordinate, which the target vector does not touch;
    # otherwise flip the last, which takes +λ to -λ.
    flip = np.eye(m)
    i = 0 if sigma == -lam else m - 1
    flip[i, i] = -1.0
    return lam, flip @ H


def reduce(g_alg: LieAlgebra, G: np.ndarray) -> MilnorFrame:
    """Reduce a family metric to its Milnor-type frame.

    Returns the parameter λ, the scale k, the frame matrix, the
    automorphism factor, and residual certificates.  λ is deterministic
    for a fixed input.  A condition number above 1e12 only sets the
    ``conditioning_warning`` flag; the reduction still runs.  λ, k, the
    frame and the automorphism are read off the factorisation
    g = A g_λ blockdiag(I_2, B) of the module docstring.
    """
    if g_alg.family_tag not in FAMILIES:
        raise UnsupportedFamilyError("reduce needs a built-in family metric")
    G, g = _factor_gram(G)
    n = g_alg.dim
    if G.shape[0] != n:
        raise ShapeError(f"Gram matrix is {G.shape[0]}x{G.shape[0]}, algebra has dim {n}")

    cond = float(np.linalg.cond(G))

    # Both columns: a one-column solve rounds v_2, and so λ, differently.
    V = np.linalg.solve(g[2:, 2:], g[2:, :2])
    lam, B = _rotation_onto_last_axis(V[:, 1])

    # X = g blockdiag(I_2, B^T) / g_11; g[:2, 2:] is zero.
    g11 = float(g[0, 0])
    X = g / g11
    X[2:, 2:] = g[2:, 2:] @ B.T / g11
    k = g11 * g11
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

    Compares the reduced λ of ``reduce(g_alg, G1)`` and
    ``reduce(g_alg, G2)`` within ``tol``, nothing more.  By the moduli
    result for these families (the classes of left-invariant metrics up
    to isometry and scaling are {g_λ : λ >= 0}), equal λ implies the
    same scaled automorphism orbit, but no certificate φ with
    φ^T G1 φ proportional to G2 is computed yet (ROADMAP item 4).
    """
    lam1 = reduce(g_alg, G1).lam
    lam2 = reduce(g_alg, G2).lam
    return abs(lam1 - lam2) <= tol


def validate_aut_element(
    g_alg: LieAlgebra, M: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """Check membership of M in the scaled automorphism pattern group.

    True iff M vanishes where Der(g) does except at (1,1), since the
    scaled automorphisms have Lie algebra R I + Der(g), and, after
    dividing out the scalar c = M[1][1], satisfies the automorphism
    equation phi[x, y] = [phi x, phi y] within tol, over all basis pairs.
    """
    M = np.asarray(M, dtype=float)
    n = g_alg.dim
    if M.shape != (n, n):
        raise ShapeError(f"expected a {n}x{n} matrix, got {M.shape}")
    scale = float(np.max(np.abs(M))) or 1.0
    zero_positions = _forbidden_mask(n)
    zero_positions[0, 0] = False
    if np.max(np.abs(M[zero_positions])) > tol * scale:
        return False
    c_scalar = M[0, 0]
    if abs(c_scalar) <= tol * scale:
        return False
    phi = M / c_scalar
    lhs = np.einsum("ijm,km->ijk", g_alg.c, phi)
    rhs = np.einsum("mi,lj,mlk->ijk", phi, phi, g_alg.c)
    defect = float(np.max(np.abs(lhs - rhs)))
    return defect <= tol * max(1.0, scale)


# --- Gram matrix text format: n lines of n space-separated decimals ------


def parse_gram(text: str) -> np.ndarray:
    """Parse the Gram matrix text format and validate the result."""
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rows.append([float(tok) for tok in ln.split()])
    if not rows:
        raise ValueError("empty Gram matrix input")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("Gram matrix rows must all have length n")
    return validate_gram(np.array(rows))


def format_gram(G: np.ndarray) -> str:
    """Render a Gram matrix in the text format."""
    G = np.asarray(G, dtype=float)
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in G) + "\n"
