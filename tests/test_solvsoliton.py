import numpy as np
import pytest

from milnor_frames import (
    DerivationBasis,
    LieAlgebra,
    RandomMetricSpec,
    build_family,
    classify_metric,
    closed_form_ricci,
    conjugated_derivation_basis,
    derivation_basis,
    gram_to_group_element,
    reduce,
    sample_metric,
    solvsoliton_solve,
)
from milnor_frames.derivations import family_derivation_basis
from milnor_frames.frame_reduction import DEFAULT_TOL, LAMBDA_SNAP


def test_family1_flat_metric_is_soliton():
    alg = build_family("rh2+abelian", 4)
    ric = np.diag([-1.0, -1.0, 0.0, 0.0])
    verdict = solvsoliton_solve(ric, derivation_basis(alg))
    assert verdict.is_solvsoliton
    assert verdict.c == pytest.approx(-1.0, abs=1e-10)
    assert verdict.residual < 1e-10


def test_family1_curved_metric_is_not():
    alg = build_family("rh2+abelian", 4)
    g = np.eye(4)
    g[3, 1] = -0.7
    verdict, lam = classify_metric(alg, np.linalg.inv(g @ g.T))
    assert lam == pytest.approx(0.7, abs=1e-9)
    assert not verdict.is_solvsoliton
    assert verdict.residual > 1e-2


def test_zero_ricci_is_soliton_with_zero_constant():
    alg = LieAlgebra(dim=3, c=np.zeros((3, 3, 3)))
    verdict = solvsoliton_solve(np.zeros((3, 3)), derivation_basis(alg))
    assert verdict.is_solvsoliton
    assert verdict.c == pytest.approx(0.0, abs=1e-12)
    assert verdict.residual == pytest.approx(0.0, abs=1e-12)


def test_empty_basis_solves_identity_span_only():
    empty = DerivationBasis(mats=np.zeros((0, 3, 3)))
    verdict = solvsoliton_solve(2.5 * np.eye(3), empty)
    assert verdict.is_solvsoliton
    assert verdict.c == pytest.approx(2.5)
    assert verdict.is_einstein


def test_normal_equations_hold_at_optimum():
    alg = build_family("rh-line", 5)
    basis = derivation_basis(alg)
    ric = closed_form_ricci("rh-line", 5, 1.3).ric
    verdict = solvsoliton_solve(ric, basis)
    cols = [np.eye(5).ravel()]
    cols.extend(D.ravel() for D in basis.mats)
    M = np.stack(cols, axis=1)
    sol = np.concatenate([[verdict.c], verdict.derivation_coeffs])
    gradient = M.T @ (M @ sol - ric.ravel())
    assert np.max(np.abs(gradient)) < 1e-10


def test_soliton_relaxes_einstein():
    alg = build_family("rh2+abelian", 5)
    for seed in range(10):
        G = sample_metric(RandomMetricSpec(seed=seed + 50), 5)
        verdict, _ = classify_metric(alg, G)
        assert verdict.residual <= verdict.einstein_residual + 1e-12


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
def test_verdict_scale_invariant(family):
    alg = build_family(family, 4)
    G = sample_metric(RandomMetricSpec(seed=77), 4)
    v1, lam1 = classify_metric(alg, G)
    v2, lam2 = classify_metric(alg, 5.0 * G)
    assert v1.is_solvsoliton == v2.is_solvsoliton
    assert lam1 == pytest.approx(lam2, abs=1e-10)


@pytest.mark.parametrize("n", range(3, 7))
def test_family2_canonical_constant(n):
    verdict, lam = classify_metric(build_family("rh-line", n), np.eye(n))
    assert lam == 0.0
    assert verdict.is_solvsoliton
    assert verdict.c == pytest.approx(-(n - 2.0), abs=1e-10)
    assert verdict.residual < 1e-10


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_never_einstein(family, n):
    alg = build_family(family, n)
    for seed in range(5):
        G = sample_metric(RandomMetricSpec(seed=seed * 31 + n), n)
        verdict, lam = classify_metric(alg, G)
        assert not verdict.is_einstein
        ric_norm = np.linalg.norm(closed_form_ricci(family, n, lam).ric)
        assert verdict.einstein_residual > 1e-3 * ric_norm


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
def test_dichotomy_on_random_metrics(family):
    for n in (3, 4, 5, 6):
        alg = build_family(family, n)
        for seed in range(15):
            G = sample_metric(RandomMetricSpec(seed=seed * 101 + n), n)
            verdict, lam = classify_metric(alg, G)
            assert verdict.is_solvsoliton == (lam == 0.0)


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_classify_matches_the_svd_derivation_oracle(family, n):
    # classify_metric takes the closed-form Der(g); the SVD null space is
    # the independent reference
    alg = build_family(family, n)
    svd_basis = derivation_basis(alg)
    metrics = [np.eye(n)] + [sample_metric(RandomMetricSpec(seed=seed * 53 + n), n) for seed in range(10)]
    for G in metrics:
        verdict, lam = classify_metric(alg, G)
        ric = closed_form_ricci(family, n, lam).ric
        want = solvsoliton_solve(ric, conjugated_derivation_basis(svd_basis, lam))
        assert verdict.is_solvsoliton == want.is_solvsoliton
        assert verdict.is_einstein == want.is_einstein
        scale = np.linalg.norm(ric)
        for name in ("residual", "einstein_residual", "c"):
            assert abs(getattr(verdict, name) - getattr(want, name)) <= 1e-10 * scale, name


def _orthonormalised(basis):
    flat = basis.mats.reshape(basis.dim, -1)
    _, _, vt = np.linalg.svd(flat, full_matrices=False)
    return DerivationBasis(mats=vt.reshape(-1, basis.n, basis.n))


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("lam", [0.0, 3.0, 1e3, 1e5])
def test_conjugated_closed_form_needs_no_orthonormalisation(family, n, lam):
    # lstsq on the conjugates as they are, against an orthonormal basis
    # of the same span built from the SVD null space
    ric = closed_form_ricci(family, n, lam).ric
    got = solvsoliton_solve(ric, conjugated_derivation_basis(family_derivation_basis(n), lam))
    svd_basis = derivation_basis(build_family(family, n))
    want = solvsoliton_solve(ric, _orthonormalised(conjugated_derivation_basis(svd_basis, lam)))
    assert got.is_solvsoliton == want.is_solvsoliton == (lam == 0.0)
    assert got.is_einstein == want.is_einstein
    scale = np.linalg.norm(ric)
    for name in ("residual", "einstein_residual", "c"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-10 * scale, name


def test_classify_runs_no_eigensolve(monkeypatch):
    from milnor_frames import curvature

    calls = []
    jacobi = curvature.jacobi_eigh

    def counting(a):
        calls.append(a)
        return jacobi(a)

    monkeypatch.setattr(curvature, "jacobi_eigh", counting)
    alg = build_family("rh-line", 6)
    verdict, lam = classify_metric(alg, sample_metric(RandomMetricSpec(seed=3), 6))
    assert lam > 0 and not verdict.is_solvsoliton
    assert calls == []


def test_classify_runs_no_frame_reduction(monkeypatch):
    # λ comes off the Gram factor: no frame, no inverse, no bracket certificate
    from milnor_frames import frame_reduction

    calls = []

    def counting(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(frame_reduction, "change_basis", counting("change_basis", frame_reduction.change_basis))
    monkeypatch.setattr(frame_reduction, "reduce", counting("reduce", frame_reduction.reduce))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    alg = build_family("rh2+abelian", 6)
    verdict, lam = classify_metric(alg, sample_metric(RandomMetricSpec(seed=3), 6))
    assert lam > 0 and not verdict.is_solvsoliton
    assert calls == []


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
@pytest.mark.parametrize("n", [3, 4, 8, 12, 16])
def test_classify_lambda_is_reduce_lambda(family, n):
    # the same λ as reduce, bit for bit, and as the block solve
    # v_2 = (A_4^{-1} A_3) e_2 on the group element g, to rounding
    alg = build_family(family, n)
    for seed in range(10):
        G = sample_metric(RandomMetricSpec(seed=1000 * n + seed), n)
        lam = classify_metric(alg, G)[1]
        assert lam == reduce(alg, G).lam
        g = gram_to_group_element(G)
        want = float(np.linalg.norm(np.linalg.solve(g[2:, 2:], g[2:, :2])[:, 1]))
        if want < LAMBDA_SNAP:
            want = 0.0
        assert abs(lam - want) <= 1e-15 * max(1.0, want)


@pytest.mark.parametrize("n", range(3, 17))
@pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0, 30.0, 1e3])
def test_family_fit_matches_the_dense_solve(n, lam):
    from milnor_frames.solvsoliton import _family_fit

    rng = np.random.default_rng(n * 1009 + int(lam * 1000))
    basis = conjugated_derivation_basis(family_derivation_basis(n), lam)
    for _ in range(3):
        A = rng.standard_normal((n, n))
        ric = A + A.T
        got = _family_fit(ric, lam, DEFAULT_TOL)
        want = solvsoliton_solve(ric, basis)
        scale = np.linalg.norm(ric)
        assert got.is_solvsoliton == want.is_solvsoliton
        assert got.is_einstein == want.is_einstein
        assert abs(got.c - want.c) <= 1e-12 * scale
        assert abs(got.residual - want.residual) <= 1e-12 * scale
        assert got.einstein_residual == want.einstein_residual
        assert got.derivation_coeffs.shape == want.derivation_coeffs.shape
        assert np.max(np.abs(got.derivation_coeffs - want.derivation_coeffs)) <= 1e-9 * scale


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
@pytest.mark.parametrize("n", [3, 4, 7, 12])
@pytest.mark.parametrize("lam", [0.0, 1e-3, 0.5, 2.0, 30.0, 1e3])
def test_family_fit_residual_formulas(family, n, lam):
    from milnor_frames.lie_core import Family
    from milnor_frames.solvsoliton import _family_fit
    from milnor_frames.verify import _soliton_residual_formula

    ric = closed_form_ricci(family, n, lam).ric
    want = _soliton_residual_formula(Family(family), n, lam)
    got = _family_fit(ric, lam, DEFAULT_TOL)
    assert abs(got.residual - want) <= 1e-14 * np.linalg.norm(ric)
    assert got.is_solvsoliton == (lam == 0.0)


def test_classify_runs_no_dense_solve(monkeypatch):
    from milnor_frames import derivations, solvsoliton

    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solvsoliton, "solvsoliton_solve", counting("solve", solvsoliton_solve))
    conjugate = counting("conjugate", conjugated_derivation_basis)
    for module in (derivations, solvsoliton):
        monkeypatch.setattr(module, "conjugated_derivation_basis", conjugate, raising=False)
    alg = build_family("rh-line", 6)
    verdict, lam = classify_metric(alg, sample_metric(RandomMetricSpec(seed=3), 6))
    assert lam > 0 and not verdict.is_solvsoliton
    assert calls == []
