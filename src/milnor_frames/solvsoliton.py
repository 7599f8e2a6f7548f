"""Solvsoliton and Einstein verdicts by linear least squares.

An inner product on a solvable Lie algebra is a solvsoliton when
Ric = c I + D for a real c and a derivation D.  With a derivation basis
in hand this is a linear least-squares problem over span{I} + Der(g);
the verdict compares the optimal residual against a relative threshold.
The Einstein sub-check is the special case D = 0 with c = trace/n.

For a reduced family metric the Ricci operator and the derivation basis
must live in the same frame, so the basis gets conjugated by
g_λ = I - λ E_{n,2} before solving.  Because both the solvsoliton
property and the residual threshold are scale invariant, classification
runs at scale k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import _closed_form_matrix
from .derivations import (
    DerivationBasis,
    conjugated_derivation_basis,
    family_derivation_basis,
)
from .errors import ShapeError
from .frame_reduction import DEFAULT_TOL, reduce
from .lie_core import LieAlgebra


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
        a = np.array(self.derivation_coeffs, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "derivation_coeffs", a)


def solvsoliton_solve(
    ric: np.ndarray, der_basis: DerivationBasis, tol: float = DEFAULT_TOL
) -> SolitonVerdict:
    """Minimize ||ric - c I - sum_j a_j D_j||_F and threshold the residual.

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

    ric_norm = float(np.linalg.norm(ric))
    threshold = tol * ric_norm if ric_norm > 0 else tol
    c_einstein = float(np.trace(ric)) / n
    einstein_residual = float(np.linalg.norm(ric - c_einstein * np.eye(n)))
    return SolitonVerdict(
        is_solvsoliton=residual <= threshold,
        c=float(sol[0]),
        derivation_coeffs=sol[1:],
        residual=residual,
        is_einstein=einstein_residual <= threshold,
        einstein_residual=einstein_residual,
    )


def classify_metric(
    g_alg: LieAlgebra, G: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[SolitonVerdict, float]:
    """Reduce a family metric and decide the solvsoliton condition.

    Runs the frame reduction, builds the closed-form Ricci operator at
    scale k = 1, conjugates the closed-form family Der(g) of
    ``family_derivation_basis`` into the frame, and solves.  The SVD of
    ``derivation_basis`` is not run here: it serves CUSTOM algebras, which
    ``reduce`` rejects, and certifies the closed form in ``verify``.
    Returns the verdict together with the frame parameter λ; the verdict
    is solvsoliton exactly when λ = 0.
    """
    frame = reduce(g_alg, G)
    ric = _closed_form_matrix(g_alg.family_tag, g_alg.dim, frame.lam)
    basis = conjugated_derivation_basis(family_derivation_basis(g_alg.dim), frame.lam)
    verdict = solvsoliton_solve(ric, basis, tol=tol)
    return verdict, frame.lam
