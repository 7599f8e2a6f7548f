"""Solvsoliton and Einstein verdicts: a closed-form fit for the families,
linear least squares for everything else.

An inner product on a solvable Lie algebra is a solvsoliton when
Ric = c I + D for a real c and a derivation D (Lauret, Ricci soliton
solvmanifolds, J. reine angew. Math. 650, 2011).  The fit minimizes
||Ric - c I - D||_F over span{I} + Der(g); the verdict compares the
optimal residual against a relative threshold.  The Einstein sub-check
is the special case D = 0 with c = trace/n.

For a reduced family metric the Ricci operator and Der(g) must live in
the same frame, so Der(g) gets conjugated by g_λ = I - λ E_{n,2}.  The
conjugated space has an orthogonal complement with an explicit basis of
3n - 4 matrices with disjoint supports, so ``classify_metric`` projects
onto it entrywise in O(n^2) (``_family_fit``).  ``solvsoliton_solve``
runs the dense O(n^6) least-squares solve against any derivation basis:
it serves CUSTOM input, and in ``verify`` and the tests it is the oracle
for the closed form.  Because both the solvsoliton property and the
residual threshold are scale invariant, classification runs at scale
k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import _closed_form_matrix
from .derivations import DerivationBasis, _forbidden_mask
from .errors import ShapeError
from .frame_reduction import DEFAULT_TOL, _frame_parameter
from .lie_core import LieAlgebra, _checked_tol, _freeze


@dataclass(frozen=True)
class SolitonVerdict:
    """Result of the Ric = c I + D fit.

    ``residual`` is the Frobenius norm of Ric - c I - D at the optimum;
    ``einstein_residual`` is the same with D forced to zero, so it can
    never be smaller.
    """

    is_solvsoliton: bool
    c: float
    derivation_coeffs: np.ndarray
    residual: float
    is_einstein: bool
    einstein_residual: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "derivation_coeffs", _freeze(self.derivation_coeffs))


def solvsoliton_solve(ric: np.ndarray, der_basis: DerivationBasis) -> SolitonVerdict:
    """Minimize ||ric - c I - sum_j a_j D_j||_F and threshold the residual
    at ``DEFAULT_TOL`` relative to ||ric||_F.

    ``ric`` and the basis must be expressed in the same frame.  An empty
    basis solves over span{I} alone.  Near-collinear columns are handled
    by a minimum-norm solve (pseudoinverse truncated at 1e-12 relative).
    """
    ric = np.asarray(ric, dtype=float)
    n = ric.shape[0]
    if ric.shape != (n, n):
        raise ShapeError(f"expected a square Ricci matrix, got {ric.shape}")
    if der_basis.dim and der_basis.n != n:
        raise ShapeError(
            f"derivation basis is {der_basis.n}x{der_basis.n}, Ricci is {n}x{n}"
        )
    cols = [np.eye(n).ravel()]
    cols.extend(D.ravel() for D in der_basis.mats)
    M = np.stack(cols, axis=1)
    b = ric.ravel()
    sol, _, _, _ = np.linalg.lstsq(M, b, rcond=1e-12)
    residual = float(np.linalg.norm(M @ sol - b))
    return _verdict(ric, float(sol[0]), sol[1:], residual, DEFAULT_TOL)


def _verdict(
    ric: np.ndarray, c: float, coeffs: np.ndarray, residual: float, tol: float
) -> SolitonVerdict:
    """Threshold a fit's residual and add the Einstein sub-check."""
    n = ric.shape[0]
    ric_norm = float(np.linalg.norm(ric))
    threshold = tol * ric_norm if ric_norm > 0 else tol
    c_einstein = float(np.trace(ric)) / n
    einstein_residual = float(np.linalg.norm(ric - c_einstein * np.eye(n)))
    return SolitonVerdict(
        is_solvsoliton=residual <= threshold,
        c=c,
        derivation_coeffs=coeffs,
        residual=residual,
        is_einstein=einstein_residual <= threshold,
        einstein_residual=einstein_residual,
    )


def _family_fit(ric: np.ndarray, lam: float, tol: float) -> SolitonVerdict:
    """The fit of ``solvsoliton_solve`` against the families' conjugated
    Der(g), in closed form.

    W = g_λ^{-1} Der(g) g_λ is cut out by: row 1 zero, row 2 zero from
    column 3 on, M_p2 = -λ M_pn for 3 <= p <= n-1, and
    M_n2 = λ (M_22 - M_nn).  Its orthogonal complement is spanned by
    e_1q, e_2q (q >= 3), e_p2 + λ e_pn and e_n2 - λ e_22 + λ e_nn, which
    have disjoint supports.  I - e_11 lies in W, so c = ric_11, and the
    residual N is ric projected onto every complement piece but e_11.
    The coefficients are the free entries of g_λ (ric - c I - N) g_λ^{-1},
    in row-major order: the coordinates against the conjugated
    ``family_derivation_basis`` that ``solvsoliton_solve`` returns.
    """
    n = ric.shape[0]
    last = n - 1
    mid = slice(2, last)
    c = float(ric[0, 0])
    N = np.zeros((n, n))
    N[0, 1:] = ric[0, 1:]
    N[1, 2:] = ric[1, 2:]
    a = (ric[mid, 1] + lam * ric[mid, last]) / (1.0 + lam * lam)
    N[mid, 1] = a
    N[mid, last] = lam * a
    b = (ric[last, 1] - lam * ric[1, 1] + lam * ric[last, last]) / (1.0 + 2.0 * lam * lam)
    N[last, 1] = b
    N[1, 1] = -lam * b
    N[last, last] = lam * b
    M = ric - N - c * np.eye(n)
    # back to the Der(g) frame: g_λ M g_λ^{-1} = M - λ E_{n,2} M + λ M E_{n,2},
    # since M_{2n} = 0 kills the λ^2 term
    D = M.copy()
    D[:, 1] += lam * M[:, last]
    D[last, :] -= lam * M[1, :]
    return _verdict(ric, c, D[~_forbidden_mask(n)], float(np.linalg.norm(N)), tol)


def classify_metric(
    g_alg: LieAlgebra, G: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[SolitonVerdict, float]:
    """Decide the solvsoliton condition for a family metric from its λ.

    λ is ``reduce``'s, bit for bit, read off the Gram matrix's factor
    (``_frame_parameter``) with no frame, inverse or bracket certificate.
    The closed-form Ricci operator at scale k = 1 is then fitted to
    Ric = c I + D in closed form (``_family_fit``): O(n^2) entrywise work,
    with no derivation basis and no least-squares solve.  ``solvsoliton_solve``
    on the conjugated Der(g) gives the same fit; it serves CUSTOM algebras,
    which are refused here, and is the oracle for this one in ``verify``.
    Returns the verdict with λ; it is solvsoliton exactly when λ = 0.
    ``tol``, the relative residual threshold, must be positive and finite
    (``ValueError``).
    """
    _checked_tol(tol)
    lam = _frame_parameter(g_alg, G)[0]
    ric = _closed_form_matrix(g_alg.family_tag, g_alg.dim, lam)
    return _family_fit(ric, lam, tol), lam
