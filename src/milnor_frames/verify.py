"""Self-verification suite: the checks behind ``milnor-frames verify-paper``.

Each check exercises one end-to-end property of the two families, at
fixed tolerances, with deterministic sampling.  The functions return
:class:`CriterionResult` records instead of raising so the CLI and the
test suite can both consume them.

One check, ``block-characteristic-polynomial``, is expected to fail:
see its docstring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .curvature import (
    _almost_abelian_ricci, _report, _signature_pair, levi_civita, ricci_operator, riemann,
)
from .derivations import (
    conjugated_derivation_basis,
    derivation_basis,
    family_derivation_basis,
    pattern_check,
)
from .frame_reduction import DEFAULT_TOL, _frame_parameter, gram_to_group_element, reduce
from .lie_core import FAMILIES, Family, _pattern_operator, build_family, milnor_pattern
from .sampling import RandomMetricSpec, SplitMix64, sample_metric
from .solvsoliton import SolitonVerdict, classify_metric, solvsoliton_solve

LAMBDA_GRID = (0.0, 0.5, 1.0, 2.0, 7.3)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(name=name, passed=passed, detail=detail, elapsed=time.perf_counter() - t0)


# --- deterministic helpers -------------------------------------------------


def _pattern_automorphism(rng: SplitMix64, n: int) -> np.ndarray:
    """Random scaled automorphism with unit (1,1) entry.  The trailing block
    is a scaled orthogonal factor of either orientation, since the
    automorphisms hold all of GL(n - 2) there."""
    phi = np.eye(n)
    phi[1, 1] = 0.5 + 1.5 * abs(rng.uniform())
    phi[1, 0] = rng.uniform()
    for i in range(2, n):
        phi[i, 0] = 0.5 * rng.uniform()
    m = n - 2
    s = 0.5 + 1.5 * abs(rng.uniform())
    phi[2:, 2:] = s * np.linalg.qr(rng.matrix(m, m) + 2.0 * np.eye(m))[0]
    return phi


def _pushforward(G: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Gram matrix φ^{-T} G φ^{-1} of the metric pushed forward by φ; the
    consumer's Gram gate symmetrizes it."""
    phi_inv = np.linalg.inv(phi)
    return phi_inv.T @ G @ phi_inv


# --- expected connection and curvature tables ------------------------------


def _expected_connection(family: Family, n: int, lam: float) -> np.ndarray:
    """The complete list of nonzero connection coefficients per family."""
    gam = np.zeros((n, n, n))
    last = n - 1
    if family is Family.RH2_SUM_ABELIAN:
        gam[0, 1, last] = lam / 2
        gam[1, 0, 1] = -1.0
        gam[1, 0, last] = -lam / 2
        gam[0, last, 1] = -lam / 2
        gam[last, 0, 1] = -lam / 2
        gam[1, 1, 0] = 1.0
        gam[1, last, 0] = lam / 2
        gam[last, 1, 0] = lam / 2
    else:
        gam[0, 1, last] = -lam / 2
        gam[1, 0, last] = lam / 2
        gam[0, last, 1] = lam / 2
        gam[last, 0, 1] = lam / 2
        gam[last, 0, last] = -1.0
        gam[1, last, 0] = -lam / 2
        gam[last, 1, 0] = -lam / 2
        gam[last, last, 0] = 1.0
        for i in range(2, n - 1):
            gam[i, 0, i] = -1.0
            gam[i, i, 0] = 1.0
    return gam


def _expected_curvature_rows(
    family: Family, n: int, lam: float
) -> list[tuple[tuple[int, int, int], np.ndarray]]:
    """Tabulated rows R(x_i, x_j) x_k that feed the Ricci contraction."""

    def e(idx: int, coef: float = 1.0) -> np.ndarray:
        v = np.zeros(n)
        v[idx] = coef
        return v

    last = n - 1
    rows: list[tuple[tuple[int, int, int], np.ndarray]] = []
    if family is Family.RH2_SUM_ABELIAN:
        rows += [
            ((0, 1, 1), e(0, -(1 + 0.75 * lam**2))),
            ((0, last, last), e(0, 0.25 * lam**2)),
            ((1, 0, 0), e(1, -(1 + 0.75 * lam**2))),
            ((1, last, last), e(1, 0.25 * lam**2)),
            ((last, 0, 0), e(last, 0.25 * lam**2)),
            ((last, 1, 1), e(last, 0.25 * lam**2)),
        ]
    else:
        rows += [
            ((0, 1, 1), e(0, -0.75 * lam**2)),
            ((0, last, last), e(0, -(1 - 0.25 * lam**2))),
            ((1, 0, 0), e(1, -0.75 * lam**2) + e(last, lam)),
            ((1, last, last), e(1, 0.25 * lam**2)),
            ((last, 0, 0), e(1, lam) + e(last, -(1 - 0.25 * lam**2))),
            ((last, 1, 1), e(last, 0.25 * lam**2)),
        ]
        for i in range(2, n - 1):
            rows.append(((0, i, i), e(0, -1.0)))
            rows.append(((1, i, i), e(last, lam / 2)))
            rows.append(((last, i, i), e(1, lam / 2) + e(last, -1.0)))
            for j in range(n):
                if j not in (1, i):
                    rows.append(((i, j, j), e(i, -1.0)))
    return rows


# --- the checks -------------------------------------------------------------


def check_ricci_closed_form() -> CriterionResult:
    """Generic pipeline vs closed form, entrywise, for both families: on
    the frame metrics at λ in ``LAMBDA_GRID``, and on sampled metrics
    through ``reduce``, where Ric = k Q C(λ) Q^T with (λ, k, X) from
    ``reduce``, g = ``gram_to_group_element(G)`` and Q = sqrt(k) g^{-1} X,
    relative to max|Ric|."""
    t0 = time.perf_counter()
    worst = 0.0
    worst_sampled = 0.0
    seed_stream = SplitMix64(0x5EED0000)
    for family in FAMILIES:
        for n in range(3, 9):
            for lam in LAMBDA_GRID:
                alg = milnor_pattern(family, n, lam)
                got = ricci_operator(alg, np.eye(n)).ric
                want = _almost_abelian_ricci(_pattern_operator(family, n, lam))
                worst = max(worst, float(np.max(np.abs(got - want))))
            alg = build_family(family, n)
            for _ in range(20):
                G = sample_metric(RandomMetricSpec(seed=seed_stream.next_uint64()), n)
                got = ricci_operator(alg, G).ric
                fr = reduce(alg, G)
                Q = np.sqrt(fr.scale_k) * np.linalg.solve(gram_to_group_element(G), fr.frame)
                want = fr.scale_k * Q @ _almost_abelian_ricci(_pattern_operator(family, n, fr.lam)) @ Q.T
                worst_sampled = max(worst_sampled, float(np.max(np.abs(got - want)) / np.max(np.abs(got))))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-9 and worst_sampled <= 1e-9 and elapsed < 5.0
    return _result(
        "ricci-closed-form-equivalence",
        passed,
        f"max entrywise deviation {worst:.2e} on frame metrics, {worst_sampled:.2e} relative to "
        f"max|Ric| on sampled metrics through reduce (tol 1e-09), {elapsed:.2f}s (< 5s)",
        t0,
    )


def check_connection_curvature_tables() -> CriterionResult:
    """Tabulated connection and curvature components at λ in {0, 1, 2}."""
    t0 = time.perf_counter()
    worst_conn = 0.0
    worst_curv = 0.0
    for family in FAMILIES:
        for n in (3, 4, 6):
            for lam in (0.0, 1.0, 2.0):
                alg = milnor_pattern(family, n, lam)
                gam = levi_civita(alg)
                worst_conn = max(
                    worst_conn,
                    float(np.max(np.abs(gam - _expected_connection(family, n, lam)))),
                )
                R = riemann(gam, alg)
                for (i, j, k), want in _expected_curvature_rows(family, n, lam):
                    worst_curv = max(worst_curv, float(np.max(np.abs(R[i, j, k] - want))))
    passed = worst_conn <= 1e-10 and worst_curv <= 1e-10
    return _result(
        "connection-curvature-tables",
        passed,
        f"max connection deviation {worst_conn:.2e}, max curvature deviation "
        f"{worst_curv:.2e} (tol 1e-10)",
        t0,
    )


def check_reduction_soundness() -> CriterionResult:
    """Random-metric reduction postconditions (``reduce``'s own residual
    certificates, which the tests recompute) and λ invariances."""
    t0 = time.perf_counter()
    worst_ortho = 0.0
    worst_bracket = 0.0
    worst_invariance = 0.0
    lam_negative = False
    seed_stream = SplitMix64(0x5EED0001)
    for family in FAMILIES:
        for n in range(3, 7):
            alg = build_family(family, n)
            for _ in range(250):
                seed = seed_stream.next_uint64()
                G = sample_metric(RandomMetricSpec(seed=seed), n)
                fr = reduce(alg, G)
                if fr.lam < 0:
                    lam_negative = True
                worst_ortho = max(worst_ortho, fr.residuals.orthonormality)
                worst_bracket = max(worst_bracket, fr.residuals.bracket_pattern)

                scale = 0.1 + 9.9 * abs(seed_stream.uniform())
                lam_scaled = _frame_parameter(alg, scale * G)[0]
                phi = _pattern_automorphism(seed_stream, n)
                lam_pushed = _frame_parameter(alg, _pushforward(G, phi))[0]
                rel = max(1.0, fr.lam)
                worst_invariance = max(
                    worst_invariance,
                    abs(lam_scaled - fr.lam) / rel,
                    abs(lam_pushed - fr.lam) / rel,
                )
    elapsed = time.perf_counter() - t0
    passed = (
        worst_ortho <= 1e-8
        and worst_bracket <= 1e-8
        and worst_invariance <= 1e-8
        and not lam_negative
        and elapsed < 30.0
    )
    return _result(
        "reduction-soundness",
        passed,
        f"worst orthonormality {worst_ortho:.2e}, bracket {worst_bracket:.2e}, "
        f"λ invariance {worst_invariance:.2e} (tol 1e-08), λ >= 0: {not lam_negative}, "
        f"{elapsed:.2f}s (< 30s)",
        t0,
    )


def check_signature_dichotomy() -> CriterionResult:
    """Sampled signatures stay inside the declared pair; constructed
    metrics land on the predicted member."""
    t0 = time.perf_counter()
    failures: list[str] = []
    seed_stream = SplitMix64(0x5EED0002)
    for family in FAMILIES:
        for n in range(3, 7):
            alg = build_family(family, n)
            degenerate, generic = _signature_pair(_pattern_operator(family, n, 0.0))
            for _ in range(150):
                G = sample_metric(RandomMetricSpec(seed=seed_stream.next_uint64()), n)
                sig = ricci_operator(alg, G).signature
                if sig not in (degenerate, generic):
                    failures.append(f"{family.value} n={n}: sampled signature {sig}")
            for _ in range(5):
                phi = _pattern_automorphism(seed_stream, n)
                scale = 0.2 + 5.0 * abs(seed_stream.uniform())
                flat = _pushforward(scale * np.eye(n), phi)
                if ricci_operator(alg, flat).signature != degenerate:
                    failures.append(f"{family.value} n={n}: λ=0 metric missed {degenerate}")
                # the metric of g_λ = I - λ E_{n,2}, pushed on by φ
                g_lam = np.eye(n)
                g_lam[n - 1, 1] = -(0.3 + 3.0 * abs(seed_stream.uniform()))
                curved = _pushforward(np.eye(n), phi @ g_lam)
                if ricci_operator(alg, curved).signature != generic:
                    failures.append(f"{family.value} n={n}: λ>0 metric missed {generic}")
    passed = not failures
    detail = "all signatures in the declared pairs" if passed else "; ".join(failures[:4])
    return _result("ricci-signature-dichotomy", passed, detail, t0)


def check_block_characteristic_polynomial() -> CriterionResult:
    """Eigenvalues of twice the rh-line (x2, xn) Ricci block against the
    reference polynomial t^2 + 2(n-2) t - (n-1)^2 λ^2.

    Kept exactly as stated even though it fails for λ > 0: the reference
    polynomial drops the diagonal contribution of the block, whose true
    characteristic polynomial is t^2 + 2(n-2) t - λ^2 (λ^2 + (n-2)^2 + 1).
    The discrepancy λ^2 (2(n-2) - λ^2) is reported, not patched.
    """
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = ""
    for n in range(3, 9):
        for lam in (0.0, 1.0, 3.0):
            ric = _almost_abelian_ricci(_pattern_operator(Family.RH_LINE_SUM, n, lam))
            idx = np.ix_((1, n - 1), (1, n - 1))
            block = 2.0 * ric[idx]
            mu = _report(block).eigenvalues
            resid = float(np.max(np.abs(mu**2 + 2 * (n - 2) * mu - (n - 1) ** 2 * lam**2)))
            if resid > worst:
                worst, worst_at = resid, f"n={n}, λ={lam}"
    passed = worst <= 1e-8
    return _result(
        "block-characteristic-polynomial",
        passed,
        f"max |p(μ)| = {worst:.3e} at {worst_at} (tol 1e-08)",
        t0,
    )


def _soliton_residual_formula(family: Family, n: int, lam: float) -> float:
    """The optimal solvsoliton residual of the closed-form Ricci operator.

    ``rh2+abelian``: λ (1 + λ²) / √(1 + 2λ²);
    ``rh-line``: λ √((n-1)²/4 + (λ² - (n-3)/2)² / (1 + 2λ²)).
    Both vanish exactly at λ = 0.
    """
    lam2 = lam * lam
    if family is Family.RH2_SUM_ABELIAN:
        return lam * (1.0 + lam2) / np.sqrt(1.0 + 2.0 * lam2)
    return lam * np.sqrt((n - 1) ** 2 / 4.0 + (lam2 - (n - 3) / 2.0) ** 2 / (1.0 + 2.0 * lam2))


def check_solvsoliton_classification() -> CriterionResult:
    """Solvsoliton verdict iff λ = 0, and the canonical soliton constants.

    Every verdict of ``classify_metric``'s closed-form fit is also checked
    against the dense ``solvsoliton_solve`` on the conjugated closed-form
    Der(g), and its residual against ``_soliton_residual_formula``: the
    verdicts must agree, c and the residuals within 1e-10 ||Ric||, and the
    derivation coefficients within 1e-9 ||Ric||.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    deviations: list[tuple[float, float, float, float]] = []
    margins: list[float] = []
    seed_stream = SplitMix64(0x5EED0003)

    def against_oracles(family: Family, n: int, verdict: SolitonVerdict, lam: float) -> None:
        ric = _almost_abelian_ricci(_pattern_operator(family, n, lam))
        dense = solvsoliton_solve(ric, conjugated_derivation_basis(family_derivation_basis(n), lam))
        scale = float(np.linalg.norm(ric))
        dev = (
            abs(verdict.c - dense.c) / scale,
            abs(verdict.residual - dense.residual) / scale,
            abs(verdict.residual - _soliton_residual_formula(family, n, lam)) / scale,
            float(np.max(np.abs(verdict.derivation_coeffs - dense.derivation_coeffs))) / scale,
        )
        deviations.append(dev)
        if lam > 0:
            margins.append(verdict.residual / (DEFAULT_TOL * scale))
        if verdict.is_solvsoliton != dense.is_solvsoliton:
            failures.append(f"{family.value} n={n}: closed-form and dense verdicts differ (λ={lam})")
        if max(dev[:3]) > 1e-10 or dev[3] > 1e-9:
            failures.append(f"{family.value} n={n}: closed-form fit off the oracles (λ={lam})")

    for family in FAMILIES:
        for n in range(3, 7):
            alg = build_family(family, n)
            for _ in range(100):
                G = sample_metric(RandomMetricSpec(seed=seed_stream.next_uint64()), n)
                verdict, lam = classify_metric(alg, G)
                if verdict.is_solvsoliton != (lam == 0.0):
                    failures.append(f"{family.value} n={n}: verdict/λ mismatch (λ={lam})")
                against_oracles(family, n, verdict, lam)
            for _ in range(5):
                phi = _pattern_automorphism(seed_stream, n)
                scale = 0.2 + 5.0 * abs(seed_stream.uniform())
                flat = _pushforward(scale * np.eye(n), phi)
                verdict, lam = classify_metric(alg, flat)
                if not verdict.is_solvsoliton or lam != 0.0:
                    failures.append(f"{family.value} n={n}: canonical-orbit metric judged non-soliton")
                against_oracles(family, n, verdict, lam)
    for n in range(3, 9):
        v1, _ = classify_metric(build_family(Family.RH2_SUM_ABELIAN, n), np.eye(n))
        if abs(v1.c - (-1.0)) > 1e-10:
            failures.append(f"rh2+abelian n={n}: soliton constant {v1.c} != -1")
        v2, _ = classify_metric(build_family(Family.RH_LINE_SUM, n), np.eye(n))
        if abs(v2.c - (-(n - 2.0))) > 1e-10:
            failures.append(f"rh-line n={n}: soliton constant {v2.c} != {-(n - 2)}")
    passed = not failures
    worst_c, worst_resid, worst_formula, worst_coeffs = np.max(deviations, axis=0)
    oracles = (
        f"closed-form fit vs dense solve: c {worst_c:.2e}, residual {worst_resid:.2e} "
        f"(tol 1e-10), coefficients {worst_coeffs:.2e} (tol 1e-09); vs residual formula "
        f"{worst_formula:.2e} (tol 1e-10), all relative to ||Ric||; "
        f"min residual/threshold at λ > 0 {min(margins, default=np.inf):.3e}"
    )
    detail = (
        f"solvsoliton iff λ = 0; canonical constants -1 and -(n-2) recovered; {oracles}"
        if passed
        else "; ".join(failures[:4] + [oracles])
    )
    return _result("solvsoliton-classification", passed, detail, t0)


def check_einstein_nonexistence() -> CriterionResult:
    """Einstein residual bounded away from zero for every sampled metric."""
    t0 = time.perf_counter()
    worst_ratio = np.inf
    seed_stream = SplitMix64(0x5EED0004)
    for family in FAMILIES:
        for n in range(3, 9):
            alg = build_family(family, n)
            for _ in range(50):
                G = sample_metric(RandomMetricSpec(seed=seed_stream.next_uint64()), n)
                verdict, lam = classify_metric(alg, G)
                ric_norm = float(np.linalg.norm(_almost_abelian_ricci(_pattern_operator(family, n, lam))))
                worst_ratio = min(worst_ratio, verdict.einstein_residual / ric_norm)
    passed = worst_ratio > 1e-3
    return _result(
        "einstein-nonexistence",
        passed,
        f"min einstein_residual / ||Ric|| = {worst_ratio:.3e} (> 1e-03 required)",
        t0,
    )


def check_derivation_dimension() -> CriterionResult:
    """dim Der = (n-2)^2 + n and the zero pattern holds, both families.

    The numerical ``derivation_basis`` is the oracle for the closed form
    ``classify_metric`` uses: the closed form must have its dimension, and
    ``pattern_check`` compares the two spans.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    for family in FAMILIES:
        for n in range(3, 9):
            alg = build_family(family, n)
            basis = derivation_basis(alg)
            want = (n - 2) ** 2 + n
            closed_dim = family_derivation_basis(n).dim
            if basis.dim != want:
                failures.append(f"{family.value} n={n}: dim {basis.dim} != {want}")
            elif closed_dim != basis.dim:
                failures.append(f"{family.value} n={n}: closed-form dim {closed_dim} != {basis.dim}")
            elif not pattern_check(alg, basis):
                failures.append(f"{family.value} n={n}: pattern check failed")
    passed = not failures
    detail = "dimensions (n-2)^2 + n and patterns verified" if passed else "; ".join(failures)
    return _result("derivation-dimension-pattern", passed, detail, t0)


ALL_CHECKS = (
    check_ricci_closed_form,
    check_connection_curvature_tables,
    check_reduction_soundness,
    check_signature_dichotomy,
    check_block_characteristic_polynomial,
    check_solvsoliton_classification,
    check_einstein_nonexistence,
    check_derivation_dimension,
)


def run_all() -> list[CriterionResult]:
    """Run every check in order; deterministic across runs and platforms."""
    return [check() for check in ALL_CHECKS]
