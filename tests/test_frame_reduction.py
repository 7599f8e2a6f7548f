import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnor_frames import (
    NotPositiveDefiniteError,
    RandomMetricSpec,
    ShapeError,
    UnsupportedFamilyError,
    LieAlgebra,
    build_family,
    change_basis,
    gram_to_group_element,
    milnor_pattern,
    orbit_parameter_equal,
    parse_gram,
    reduce,
    ricci_operator,
    sample_metric,
    validate_aut_element,
    validate_gram,
)
from milnor_frames.frame_reduction import _rotation_onto_last_axis, format_gram


def g_lambda(n, lam):
    g = np.eye(n)
    g[n - 1, 1] = -lam
    return g


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    s = a.T @ a
    return s + 1e-6 * np.linalg.norm(s, 2) * np.eye(n)


def pattern_automorphism(rng, n):
    phi = np.eye(n)
    phi[1, 1] = rng.uniform(0.5, 2.0)
    phi[1, 0] = rng.normal()
    phi[2:, 0] = rng.normal(size=n - 2) * 0.5
    if n == 3:
        phi[2, 2] = rng.uniform(0.5, 2.0)
    else:
        q, r = np.linalg.qr(rng.normal(size=(n - 2, n - 2)))
        q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1.0
        phi[2:, 2:] = q
    return phi


class TestValidateGram:
    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            validate_gram(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            validate_gram(np.diag([1.0, -1.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            validate_gram(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        G = np.eye(3)
        G[0, 2] = G[2, 0] = bad
        with pytest.raises(ShapeError, match="finite"):
            validate_gram(G)
        G = np.eye(3)
        G[1, 1] = bad
        with pytest.raises(ShapeError, match="finite"):
            validate_gram(G)


class TestGramToGroupElement:
    def test_identity(self):
        np.testing.assert_allclose(gram_to_group_element(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        got = gram_to_group_element(np.diag([4.0, 1.0, 1.0]))
        np.testing.assert_allclose(got, np.diag([0.5, 1.0, 1.0]), atol=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_defining_identity(self, seed):
        rng = np.random.default_rng(seed)
        G = random_spd(rng, 4)
        g = gram_to_group_element(G)
        np.testing.assert_allclose(
            np.linalg.inv(g @ g.T), G, rtol=1e-10, atol=1e-10 * np.linalg.norm(G)
        )

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_identity_on_lower_triangular(self, seed):
        rng = np.random.default_rng(seed)
        g = np.tril(rng.normal(size=(4, 4)))
        np.fill_diagonal(g, np.abs(np.diag(g)) + 0.5)
        got = gram_to_group_element(np.linalg.inv(g @ g.T))
        np.testing.assert_allclose(got, g, rtol=1e-10, atol=1e-10)


class TestReduce:
    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    def test_canonical_metric(self, family):
        alg = build_family(family, 4)
        fr = reduce(alg, np.eye(4))
        assert fr.lam == 0.0
        assert fr.scale_k == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fr.frame, np.eye(4), atol=1e-12)

    def test_constructed_parameter_recovered(self):
        alg = build_family("rh2+abelian", 4)
        g = g_lambda(4, 2.0)
        fr = reduce(alg, np.linalg.inv(g @ g.T))
        assert fr.lam == pytest.approx(2.0, abs=1e-10)
        assert fr.scale_k == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_double_coset_representative(self, family, n):
        # metric built from phi . g_0.5 . q must reduce back to lambda = 0.5
        rng = np.random.default_rng(12345 + n)
        alg = build_family(family, n)
        phi = pattern_automorphism(rng, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        g = phi @ g_lambda(n, 0.5) @ q
        fr = reduce(alg, np.linalg.inv(g @ g.T))
        assert fr.lam == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_postconditions_on_random_metrics(self, family, n):
        alg = build_family(family, n)
        for seed in range(40):
            G = sample_metric(RandomMetricSpec(seed=seed * 7919 + n), n)
            fr = reduce(alg, G)
            assert fr.lam >= 0.0
            assert fr.scale_k > 0.0
            ortho = np.max(np.abs(fr.scale_k * fr.frame.T @ G @ fr.frame - np.eye(n)))
            assert ortho < 1e-8
            moved = change_basis(alg, fr.frame)
            pattern = milnor_pattern(family, n, fr.lam)
            assert np.max(np.abs(moved.c - pattern.c)) < 1e-8

    def test_deterministic(self):
        alg = build_family("rh-line", 5)
        G = sample_metric(RandomMetricSpec(seed=11), 5)
        assert reduce(alg, G).lam == reduce(alg, G).lam

    def test_tiny_parameter_snaps_to_zero(self):
        alg = build_family("rh2+abelian", 4)
        g = g_lambda(4, 1e-12)
        fr = reduce(alg, np.linalg.inv(g @ g.T))
        assert fr.lam == 0.0

    def test_returned_automorphism_is_valid(self):
        alg = build_family("rh-line", 5)
        G = sample_metric(RandomMetricSpec(seed=3), 5)
        fr = reduce(alg, G)
        assert fr.automorphism[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert validate_aut_element(alg, fr.automorphism, tol=1e-8)

    def test_custom_family_rejected(self):
        alg = LieAlgebra(dim=3, c=np.zeros((3, 3, 3)))
        with pytest.raises(UnsupportedFamilyError):
            reduce(alg, np.eye(3))

    def test_conditioning_warning(self):
        alg = build_family("rh2+abelian", 3)
        fr = reduce(alg, np.diag([1.0, 1.0, 1e13]))
        assert fr.residuals.conditioning_warning

    def test_dimension_mismatch(self):
        alg = build_family("rh2+abelian", 4)
        with pytest.raises(ShapeError):
            reduce(alg, np.eye(3))

    def test_validates_the_gram_matrix_once(self, monkeypatch):
        # validation and factorisation are one step, taken once per call
        import milnor_frames.frame_reduction as fr_mod

        calls = []
        real = fr_mod._factor_gram

        def counting(G):
            calls.append(1)
            return real(G)

        monkeypatch.setattr(fr_mod, "_factor_gram", counting)
        alg = build_family("rh-line", 5)
        G = sample_metric(RandomMetricSpec(seed=5), 5)
        for _ in range(3):
            reduce(alg, G)
        assert len(calls) == 3

    @pytest.mark.parametrize("fn", [reduce, ricci_operator])
    def test_factors_the_gram_matrix_once(self, fn, monkeypatch):
        calls = []
        real = np.linalg.cholesky

        def counting(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        alg = build_family("rh2+abelian", 6)
        G = sample_metric(RandomMetricSpec(seed=6), 6)
        for _ in range(3):
            fn(alg, G)
        assert len(calls) == 3


def step_matrix_reduction(G):
    """(λ, k, frame, automorphism) by an LQ factorisation and step matrices.

    An LQ factorisation g q = T with positive diagonal, then the scaled
    automorphism A = blockdiag(A_1, A_4) [[I, 0], [v_1 e_1^T, I]]
    blockdiag(I_2, B^T) as a product of step matrices, ψ = A / A_11 and
    frame ψ g_λ.  Kept as an independent reference for ``reduce``.
    """
    n = G.shape[0]
    Q, R = np.linalg.qr(gram_to_group_element(G).T)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    T = R.T * signs
    V = np.linalg.solve(T[2:, 2:], T[2:, :2])
    lam, B = _rotation_onto_last_axis(V[:, 1])
    step_blocks = np.zeros((n, n))
    step_blocks[:2, :2] = T[:2, :2]
    step_blocks[2:, 2:] = T[2:, 2:]
    step_col = np.eye(n)
    step_col[2:, 0] = V[:, 0]
    step_rot = np.eye(n)
    step_rot[2:, 2:] = B.T
    A = step_blocks @ step_col @ step_rot
    psi = A / A[0, 0]
    return lam, A[0, 0] ** 2, psi @ g_lambda(n, lam), psi


def orbit_metric(rng, n, lam):
    """Gram matrix of c phi g_λ q: a random point of the λ orbit."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    g = rng.uniform(0.5, 2.0) * pattern_automorphism(rng, n) @ g_lambda(n, lam) @ q
    G = np.linalg.inv(g @ g.T)
    return 0.5 * (G + G.T)


class TestReduceAgainstStepMatrices:
    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", range(3, 17))
    def test_same_reduction(self, family, n):
        rng = np.random.default_rng(7000 + n)
        alg = build_family(family, n)
        metrics = [sample_metric(RandomMetricSpec(seed=31 * n + s), n) for s in range(6)]
        metrics += [orbit_metric(rng, n, lam) for lam in (0.0, 1e-3, 1.0, 1e3)]
        for G in metrics:
            fr = reduce(alg, G)
            lam, k, frame, psi = step_matrix_reduction(G)
            assert abs(fr.lam - lam) <= 1e-13 * lam
            assert abs(fr.scale_k - k) <= 1e-13 * k
            assert np.max(np.abs(fr.frame - frame)) <= 1e-12 * np.max(np.abs(frame))
            assert np.max(np.abs(fr.automorphism - psi)) <= 1e-12 * np.max(np.abs(psi))
        assert reduce(alg, metrics[6]).lam == 0.0
        for G, want in zip(metrics[7:], (1e-3, 1.0, 1e3)):
            assert reduce(alg, G).lam == pytest.approx(want, rel=1e-6)

    def test_reduce_calls_no_qr(self, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("reduce called np.linalg.qr")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        for family in ("rh2+abelian", "rh-line"):
            for n in (3, 6):
                fr = reduce(build_family(family, n), sample_metric(RandomMetricSpec(seed=n), n))
                assert fr.residuals.orthonormality < 1e-8


class TestOrbitParameterEqual:
    def test_scaling_is_equal(self):
        alg = build_family("rh2+abelian", 4)
        G = sample_metric(RandomMetricSpec(seed=5), 4)
        assert orbit_parameter_equal(alg, G, 17.0 * G, tol=1e-8)

    def test_distinct_parameters_differ(self):
        alg = build_family("rh2+abelian", 4)
        g = g_lambda(4, 1.0)
        assert not orbit_parameter_equal(
            alg, np.eye(4), np.linalg.inv(g @ g.T), tol=1e-6
        )

    def test_automorphism_pushforward_is_equal(self):
        rng = np.random.default_rng(8)
        alg = build_family("rh-line", 4)
        G = sample_metric(RandomMetricSpec(seed=21), 4)
        phi = pattern_automorphism(rng, 4)
        phi_inv = np.linalg.inv(phi)
        G_pushed = phi_inv.T @ G @ phi_inv
        assert orbit_parameter_equal(alg, G, G_pushed, tol=1e-8)


class TestValidateAutElement:
    def test_identity(self):
        alg = build_family("rh2+abelian", 4)
        assert validate_aut_element(alg, np.eye(4), tol=1e-10)

    def test_scalar_multiple(self):
        alg = build_family("rh-line", 4)
        assert validate_aut_element(alg, 2.0 * np.eye(4), tol=1e-10)

    def test_forbidden_entry(self):
        alg = build_family("rh2+abelian", 4)
        M = np.eye(4)
        M[0, 1] = 1.0
        assert not validate_aut_element(alg, M, tol=1e-10)

    def test_pattern_without_bracket_equation_fails(self):
        # for the family algebras the zero pattern already forces the
        # equation, so use a rotation algebra to see the second check bite
        c = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            c[i, j, k] = 1.0
            c[j, i, k] = -1.0
        alg = LieAlgebra(dim=3, c=c)
        M = np.diag([1.0, 1.0, 2.0])  # zero pattern holds, bracket broken
        assert not validate_aut_element(alg, M, tol=1e-8)
        assert validate_aut_element(alg, np.eye(3), tol=1e-10)


class TestGramTextFormat:
    def test_round_trip(self):
        G = sample_metric(RandomMetricSpec(seed=2), 3)
        again = parse_gram(format_gram(G))
        np.testing.assert_array_equal(again, G)

    def test_rejects_ragged(self):
        with pytest.raises(ShapeError):
            parse_gram("1.0 0.0\n0.0\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_gram("\n\n")
