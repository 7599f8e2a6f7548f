import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnor_frames import (
    Family,
    NotPositiveDefiniteError,
    RandomMetricSpec,
    ShapeError,
    SingularMatrixError,
    SplitMix64,
    UnsupportedFamilyError,
    LieAlgebra,
    build_family,
    change_basis,
    classify_metric,
    gram_to_group_element,
    milnor_pattern,
    orbit_parameter_equal,
    parse_gram,
    reduce,
    ricci_operator,
    sample_metric,
    validate_aut_element,
)
from milnor_frames.derivations import _forbidden_mask
from milnor_frames.frame_reduction import LAMBDA_SNAP
from milnor_frames.verify import _pattern_automorphism


# rh-line, n = 4: cond(G) = 1.3e25 and s_min / s_max of its factor U is 2.8e-13,
# under SINGULAR_RTOL, while the Cholesky factorisation still succeeds
SINGULAR_GRAM = np.array([
    [3209694336958.66, -454890.25341743167, 470758.3931189687, -1728606.6272946296],
    [-454890.25341743167, 1.09, -0.06671755901985943, 0.24498490654414226],
    [470758.3931189687, -0.06671755901985943, 0.06904503713718232, -0.25353070815130646],
    [-1728606.6272946296, 0.24498490654414226, -0.25353070815130646, 0.9309549627584728],
])

# so(3): [e_1, e_2] = e_3 and cyclically
SO3 = np.zeros((3, 3, 3))
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    SO3[i, j, k], SO3[j, i, k] = 1.0, -1.0


def group_element(alg, G):
    return gram_to_group_element(G, alg.dim)


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
    # a scaled orthogonal trailing block of either orientation, as verify draws it
    phi[2:, 2:] = rng.uniform(0.5, 2.0) * np.linalg.qr(rng.normal(size=(n - 2, n - 2)))[0]
    return phi


class TestValidateGram:
    # every refusal of the one Gram gate, through its public caller
    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            gram_to_group_element(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            gram_to_group_element(np.diag([1.0, -1.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            gram_to_group_element(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        G = np.eye(3)
        G[0, 2] = G[2, 0] = bad
        with pytest.raises(ShapeError, match="finite"):
            gram_to_group_element(G)
        G = np.eye(3)
        G[1, 1] = bad
        with pytest.raises(ShapeError, match="finite"):
            gram_to_group_element(G)


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

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize(
        "v2",
        [(0.0, -2.0), (0.7,), (-0.7,), (0.0, 0.0, 1.5), (0.0, 0.0, -1.5),
         (1.2e-9, 0.0, -1.6e-9), (3e-10, 0.0, 4e-10)],
        ids=["g_lambda", "m1-pos", "m1-neg", "last-axis-pos", "last-axis-neg",
             "above-snap", "below-snap"],
    )
    def test_constructed_parameter_recovered(self, family, v2):
        # g = I + sum_i v2_i E_{i+2,2} is lower triangular with unit
        # diagonal, so it is the group element of G and v_2 is its column 2
        n = len(v2) + 2
        alg = build_family(family, n)
        g = np.eye(n)
        g[2:, 1] = v2
        G = np.linalg.inv(g @ g.T)
        fr = reduce(alg, G)
        lam = float(np.linalg.norm(v2))
        if lam < LAMBDA_SNAP:
            assert fr.lam == 0.0
        else:
            assert fr.lam == pytest.approx(lam, rel=1e-12, abs=0.0)
        assert fr.scale_k == pytest.approx(1.0, abs=1e-10)
        ortho = np.max(np.abs(fr.scale_k * fr.frame.T @ G @ fr.frame - np.eye(n)))
        assert ortho < 1e-12 and fr.residuals.orthonormality < 1e-12
        # below the snap the pattern is read with λ = 0, off by the λ dropped
        bound = 1e-12 + (lam - fr.lam)
        moved = change_basis(alg, fr.frame)
        bracket = np.max(np.abs(moved.c - milnor_pattern(family, n, fr.lam).c))
        assert bracket < bound and fr.residuals.bracket_pattern < bound
        assert validate_aut_element(alg, fr.automorphism)

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

    @pytest.mark.parametrize(
        "c", [np.zeros((3, 3, 3)), SO3, build_family("rh-line", 3).c], ids=["abelian", "so3", "rh-line-constants"]
    )
    def test_custom_family_rejected(self, c):
        # the constructor takes no tag: its algebras are CUSTOM, even with a
        # family's own constants, and every family-only operation refuses
        # them; so(3) under the tag "rh-line" would read as a solvsoliton
        # at λ = 0 and reduce to a frame with bracket residual 1.0
        alg = LieAlgebra(dim=3, c=c)
        assert alg.family_tag is Family.CUSTOM
        for tag in (Family.RH_LINE_SUM, "rh-line", Family.CUSTOM, "so3"):
            with pytest.raises(TypeError):
                LieAlgebra(dim=3, c=c, family_tag=tag)
        for fn in (reduce, classify_metric, validate_aut_element):
            with pytest.raises(UnsupportedFamilyError):
                fn(alg, np.eye(3))

    @pytest.mark.parametrize("top, seed", [(1e13, None), (1e13, 0), (1e15, 1)])
    def test_conditioning_warning(self, top, seed):
        # seed: the spectrum (1, 1, top) in a random orthonormal frame
        alg = build_family("rh2+abelian", 3)
        q = np.eye(3) if seed is None else np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
        G = q @ np.diag([1.0, 1.0, top]) @ q.T
        res = reduce(alg, 0.5 * (G + G.T)).residuals
        assert res.conditioning_warning
        assert res.condition_number == pytest.approx(top, rel=0.5)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_condition_number_matches_svd(self, n):
        # w_max / w_min of the Gram spectrum is the 2-norm condition number
        for family in ("rh2+abelian", "rh-line"):
            alg = build_family(family, n)
            for seed in range(5):
                G = sample_metric(RandomMetricSpec(seed=100 * n + seed), n)
                res = reduce(alg, G).residuals
                want = np.linalg.cond(G)
                assert abs(res.condition_number - want) <= 1e-9 * want
                assert not res.conditioning_warning

    def test_dimension_mismatch(self):
        alg = build_family("rh2+abelian", 4)
        with pytest.raises(ShapeError):
            reduce(alg, np.eye(3))

    def test_validates_the_gram_matrix_once(self, monkeypatch):
        # validation and factorisation are one step, taken once per call
        import milnor_frames.frame_reduction as fr_mod

        calls = []
        real = fr_mod._factor_gram

        def counting(G, n=None):
            calls.append(1)
            return real(G, n)

        monkeypatch.setattr(fr_mod, "_factor_gram", counting)
        alg = build_family("rh-line", 5)
        G = sample_metric(RandomMetricSpec(seed=5), 5)
        for _ in range(3):
            reduce(alg, G)
        assert len(calls) == 3

    @pytest.mark.parametrize("fn", [reduce, ricci_operator, classify_metric])
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

    @pytest.mark.parametrize(
        "fn, passes", [(reduce, 2), (ricci_operator, 1), (classify_metric, 1), (group_element, 1)]
    )
    def test_singular_value_passes_per_call(self, fn, passes, monkeypatch):
        # the singular rule costs each consumer one SVD (reduce's certificate
        # change_basis takes the second), so no benchmarked path gains one
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        alg = build_family("rh-line", 6)
        G = sample_metric(RandomMetricSpec(seed=6), 6)
        for _ in range(3):
            fn(alg, G)
        assert len(calls) == 3 * passes


@pytest.mark.parametrize("fn", [reduce, classify_metric, ricci_operator, group_element])
@pytest.mark.parametrize(
    "alg, G, exc, match",
    [
        (build_family("rh2+abelian", 4), np.eye(3), ShapeError, "3x3, algebra has dim 4"),
        (build_family("rh-line", 4), -np.eye(3), ShapeError, "3x3, algebra has dim 4"),
        (build_family("rh-line", 3), np.diag([1.0, -1.0, 1.0]), NotPositiveDefiniteError, "not positive definite"),
        (build_family("rh-line", 3), np.array([[1.0, 0.0, np.nan], [0.0, 1.0, 0.0], [np.nan, 0.0, 1.0]]), ShapeError, "finite"),
        (build_family("rh-line", 4), SINGULAR_GRAM, SingularMatrixError, "Gram matrix is singular"),
    ],
    ids=["dim-mismatch", "dim-mismatch-not-pd", "not-pd", "nan", "singular"],
)
def test_reduce_and_classify_refuse_alike(fn, alg, G, exc, match):
    # one Gram gate: classify_metric, ricci_operator and gram_to_group_element
    # refuse exactly what reduce refuses, with the same message, size first
    with pytest.raises(exc, match=match):
        fn(alg, G)


def step_matrix_reduction(G):
    """(λ, k, frame, automorphism) by an LQ factorisation and step matrices.

    An LQ factorisation g q = T with positive diagonal, then the scaled
    automorphism A = blockdiag(A_1, A_4) [[I, 0], [v_1 e_1^T, I]]
    blockdiag(I_2, B^T) as a product of step matrices, ψ = A / A_11 and
    frame ψ g_λ.  B is built as an explicit m x m matrix: the
    Householder reflection H taking v_2 to σ e_m (σ = -λ unless
    v_2[-1] < 0), times diag(1, ..., 1, -1) when σ = +λ, so B v_2 = -λ e_m.
    Kept as an independent reference for ``reduce``.
    """
    n = G.shape[0]
    Q, R = np.linalg.qr(gram_to_group_element(G).T)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    T = R.T * signs
    V = np.linalg.solve(T[2:, 2:], T[2:, :2])
    v2 = V[:, 1]
    lam = float(np.linalg.norm(v2))
    B = np.eye(n - 2)
    if lam < LAMBDA_SNAP:
        lam = 0.0
    else:
        sigma = -lam if v2[-1] >= 0 else lam
        w = v2 - sigma * np.eye(n - 2)[-1]
        B = np.eye(n - 2) - 2.0 * np.outer(w, w) / (w @ w)
        if sigma > 0:
            B[-1] *= -1.0
        assert np.max(np.abs(B @ v2 + lam * np.eye(n - 2)[-1])) <= 1e-12 * lam
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
        # equation; a rotation algebra, where it would not, has no zero
        # pattern to test and is refused
        c = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            c[i, j, k] = 1.0
            c[j, i, k] = -1.0
        alg = LieAlgebra(dim=3, c=c)
        for M in (np.diag([1.0, 1.0, 2.0]), np.eye(3)):
            with pytest.raises(UnsupportedFamilyError):
                validate_aut_element(alg, M, tol=1e-8)

    def test_pushed_family_automorphism_is_refused(self):
        # φ = P^-1 ψ P is an exact automorphism of the pushed algebra, but
        # the families' zero pattern does not hold in the pushed basis
        P = np.random.default_rng(4).uniform(-1.0, 1.0, size=(4, 4)) + 2.0 * np.eye(4)
        alg = build_family("rh-line", 4)
        pushed = change_basis(alg, P)
        psi = np.eye(4)
        psi[1, 1] += 0.7
        psi[2, 0] = 0.4
        phi = np.linalg.solve(P, psi @ P)
        assert validate_aut_element(alg, psi, tol=1e-8)
        eq = np.einsum("ijm,km->ijk", pushed.c, phi)
        eq -= np.einsum("mi,lj,mlk->ijk", phi, phi, pushed.c)
        assert np.max(np.abs(eq)) < 1e-14
        with pytest.raises(UnsupportedFamilyError):
            validate_aut_element(pushed, phi, tol=1e-8)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_singular_pattern_matrix_fails(self, family, n):
        # both solve the endomorphism equation, neither is invertible
        alg = build_family(family, n)
        assert not validate_aut_element(alg, np.diag([1.0] + [0.0] * (n - 1)), tol=1e-8)
        assert not validate_aut_element(alg, np.diag([1.0, 0.0] + [1.0] * (n - 2)), tol=1e-8)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    def test_verify_orbit_draws_are_automorphisms(self, family):
        # verify's orbit recipe draws from all of GL(n - 2) on the trailing
        # block, both orientations included
        rng = SplitMix64(30)
        trailing_dets = []
        for n in range(3, 9):
            alg = build_family(family, n)
            for _ in range(100):
                phi = _pattern_automorphism(rng, n)
                assert validate_aut_element(alg, phi, tol=1e-10)
                trailing_dets.append(np.linalg.det(phi[2:, 2:]))
        assert min(trailing_dets) < 0.0 < max(trailing_dets)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["rh2+abelian", "rh-line"]),
        n=st.integers(3, 6),
        tol=st.sampled_from([1e-10, 1e-6, 1e-3, 0.1]),
    )
    @example(seed=4, family="rh-line", n=4, tol=1e-3)
    def test_verdict_ignores_the_scalar(self, seed, family, n, tol):
        rng = np.random.default_rng(seed)
        P = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
        alg = build_family(family, n)
        pushed = change_basis(alg, P)
        M = np.eye(n) + 0.3 * rng.normal(size=(n, n)) * ~_forbidden_mask(n)
        psi = pattern_automorphism(rng, n)
        scales = (1e-3, 1.0, 1e3, 1e6)
        with pytest.raises(UnsupportedFamilyError):
            validate_aut_element(pushed, M, tol=tol)
        assert len({validate_aut_element(alg, s * M, tol=tol) for s in scales}) == 1
        assert all(validate_aut_element(alg, s * psi, tol=max(tol, 1e-8)) for s in scales)
        # I + ε E_12 has defect ε against the bound tol: ε either side of it
        edge = np.eye(n)
        for f, want in ((0.999, True), (1.001, False)):
            edge[0, 1] = f * tol
            assert {validate_aut_element(alg, s * edge, tol=tol) for s in scales} == {want}


class TestGramTextFormat:
    def test_round_trip(self, tmp_path):
        # numpy's 17-digit text is read back bit-exactly
        G = sample_metric(RandomMetricSpec(seed=2), 3)
        path = tmp_path / "g.txt"
        np.savetxt(path, G, fmt="%.17g")
        again = parse_gram(path.read_text())
        np.testing.assert_array_equal(again, G)

    def test_rejects_ragged(self):
        with pytest.raises(ShapeError):
            parse_gram("1.0 0.0\n0.0\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_gram("\n\n")
