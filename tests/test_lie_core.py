import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from milnor_frames import (
    DimensionError,
    Family,
    LieAlgebra,
    ShapeError,
    SingularMatrixError,
    UnsupportedFamilyError,
    bracket,
    build_family,
    change_basis,
    classify_metric,
    format_structure_constants,
    is_derivation,
    jacobi_defect,
    milnor_pattern,
    orbit_parameter_equal,
    parse_structure_constants,
    validate_aut_element,
)


def e(n, i, coef=1.0):
    v = np.zeros(n)
    v[i] = coef
    return v


def g_lambda(n, lam):
    g = np.eye(n)
    g[n - 1, 1] = -lam
    return g


def _from_triples(n, triples, s=1.0):
    """Constants with [e_i, e_j] = s e_k for each 0-based (i, j, k)."""
    c = np.zeros((n, n, n))
    for i, j, k in triples:
        c[i, j, k] = s
        c[j, i, k] = -s
    return c


def _non_lie_4(s=1.0):
    return _from_triples(4, ((0, 1, 2), (0, 2, 3), (2, 3, 1)), s)


def _random_antisymmetric(n):
    a = np.random.default_rng(0).standard_normal((n, n, n))
    return a - a.transpose(1, 0, 2)


class TestBuildFamily:
    def test_rh2_abelian_n3(self):
        alg = build_family("rh2+abelian", 3)
        want = np.zeros((3, 3, 3))
        want[0, 1, 1] = 1.0
        want[1, 0, 1] = -1.0
        np.testing.assert_array_equal(alg.c, want)
        assert alg.family_tag is Family.RH2_SUM_ABELIAN

    def test_rh_line_n3(self):
        alg = build_family("rh-line", 3)
        want = np.zeros((3, 3, 3))
        want[0, 2, 2] = 1.0
        want[2, 0, 2] = -1.0
        np.testing.assert_array_equal(alg.c, want)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    def test_dim_too_small(self, family):
        with pytest.raises(DimensionError):
            build_family(family, 2)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", range(3, 7))
    def test_families_are_lie_algebras(self, family, n):
        assert jacobi_defect(build_family(family, n)) == 0.0

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", range(3, 7))
    def test_pattern_at_zero_is_the_canonical_basis(self, family, n):
        np.testing.assert_array_equal(milnor_pattern(family, n, 0.0).c, build_family(family, n).c)

    def test_shared_guards(self):
        # CUSTOM and a string that names no family get the same class
        for tag in ("custom", Family.CUSTOM, "so3"):
            for make in (lambda: build_family(tag, 4), lambda: milnor_pattern(tag, 4, 1.0)):
                with pytest.raises(UnsupportedFamilyError, match="built-in family"):
                    make()
        with pytest.raises(DimensionError):
            milnor_pattern("rh-line", 2, 1.0)
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                milnor_pattern("rh2+abelian", 4, lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_constants_rejected(self, bad):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = bad
        c[1, 0, 2] = -bad
        with pytest.raises(ShapeError, match="finite"):
            LieAlgebra(dim=3, c=c)

    def test_non_finite_text_input_rejected(self):
        with pytest.raises(ShapeError, match="finite"):
            parse_structure_constants("3\n1 2 3 nan\n")

    @pytest.mark.parametrize("s", [1e-200, 1e-7, 1.0, 1e200])
    def test_antisymmetry_enforced(self, s):
        c = np.zeros((3, 3, 3))
        c[0, 1, 1] = s  # missing the antisymmetric partner, at any scale
        with pytest.raises(ShapeError):
            LieAlgebra(dim=3, c=c)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 3, 4), (4, 4, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ShapeError, match="structure tensor must be"):
            LieAlgebra(dim=3, c=np.zeros(shape))

    @pytest.mark.parametrize(
        "c",
        [pytest.param(_non_lie_4(), id="four-dim")]
        + [pytest.param(_random_antisymmetric(n), id=f"random-{n}") for n in (3, 4, 6)],
    )
    def test_non_lie_constants_rejected(self, c):
        # the constructor is the one Jacobi gate: nothing downstream
        # (ricci_operator, change_basis, derivation_basis) sees these
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebra(dim=len(c), c=c)


def _pushed(family, n, seed):
    rng = np.random.default_rng(seed)
    return change_basis(build_family(family, n), rng.normal(size=(n, n)) + 3.0 * np.eye(n))


class TestComputedConstants:
    """The package's own producers skip the antisymmetry and shape checks;
    their output must satisfy them anyway, exactly."""

    @pytest.mark.parametrize(
        "make, tag",
        [
            pytest.param(build_family, None, id="build_family"),
            *[
                pytest.param(lambda f, n, lam=lam: milnor_pattern(f, n, lam), Family.CUSTOM, id=f"milnor_pattern-{lam:g}")
                for lam in (0.0, 1e-3, 1.0, 1e3)
            ],
            *[
                pytest.param(lambda f, n, s=s: _pushed(f, n, s), Family.CUSTOM, id=f"change_basis-{s}")
                for s in (0, 1, 2)
            ],
        ],
    )
    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_producers_emit_exactly_antisymmetric_read_only_constants(self, make, tag, family, n):
        alg = make(family, n)
        assert alg.dim == n and alg.c.shape == (n, n, n) and alg.c.dtype == np.float64
        assert np.isfinite(alg.c).all()
        assert not alg.c.flags.writeable
        assert np.array_equal(alg.c, -alg.c.transpose(1, 0, 2))
        assert alg.family_tag is (Family(family) if tag is None else tag)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_overflowing_basis_change_still_raises(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1e300
        c[1, 0, 2] = -1e300
        with pytest.raises(ShapeError, match="finite"):
            change_basis(LieAlgebra(dim=3, c=c), 1e10 * np.eye(3))


class TestBracket:
    def test_canonical_relation(self):
        alg = build_family("rh2+abelian", 3)
        np.testing.assert_allclose(bracket(alg, e(3, 0), e(3, 1)), e(3, 1))

    def test_bilinear_expansion(self):
        # [e_1, e_2 - 3 e_4] = e_2 because e_4 is central in family 1
        alg = build_family("rh2+abelian", 4)
        y = e(4, 1) - 3.0 * e(4, 3)
        np.testing.assert_allclose(bracket(alg, e(4, 0), y), e(4, 1))

    def test_length_mismatch(self):
        alg = build_family("rh2+abelian", 3)
        with pytest.raises(ShapeError):
            bracket(alg, np.zeros(4), np.zeros(3))

    @given(
        x=arrays(np.float64, (4,), elements=st.floats(-10, 10)),
        y=arrays(np.float64, (4,), elements=st.floats(-10, 10)),
    )
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry_property(self, x, y):
        alg = build_family("rh-line", 4)
        scale = max(1.0, np.max(np.abs(x)) * np.max(np.abs(y)))
        np.testing.assert_allclose(
            bracket(alg, x, y), -bracket(alg, y, x), atol=1e-12 * scale
        )
        assert np.max(np.abs(bracket(alg, x, x))) <= 1e-12 * scale

    @given(
        x=arrays(np.float64, (4,), elements=st.floats(-5, 5)),
        y=arrays(np.float64, (4,), elements=st.floats(-5, 5)),
        z=arrays(np.float64, (4,), elements=st.floats(-5, 5)),
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_bilinearity_property(self, x, y, z, a, b):
        alg = build_family("rh2+abelian", 4)
        lhs = bracket(alg, a * x + b * y, z)
        rhs = a * bracket(alg, x, z) + b * bracket(alg, y, z)
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


class TestDimensionCaps:
    """Every n^3 and n^4 tensor is refused before it is allocated."""

    def test_structure_tensor_cap(self, monkeypatch):
        from milnor_frames import lie_core

        # the real cap admits n <= 203
        assert 8 * 203**3 <= lie_core.TENSOR_MAX_BYTES < 8 * 204**3

        def refuse(*_):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(lie_core, "_canonical_constants", refuse)
        with pytest.raises(DimensionError, match="cap"):
            build_family("rh-line", 204)
        with pytest.raises(DimensionError, match="cap"):
            milnor_pattern("rh2+abelian", 204, 1.0)

    def test_jacobi_contraction_cap(self, monkeypatch):
        from milnor_frames import lie_core

        # the real cap admits n <= 53
        assert 8 * 53**4 <= lie_core.TENSOR_MAX_BYTES < 8 * 54**4
        with pytest.raises(DimensionError, match="cap"):
            parse_structure_constants("54\n")
        # every user-built algebra, the abelian one too, goes through the gate
        with pytest.raises(DimensionError, match="cap"):
            LieAlgebra(dim=54, c=np.zeros((54, 54, 54)))
        monkeypatch.setattr(lie_core, "TENSOR_MAX_BYTES", 8 * 4**4 - 1)
        with pytest.raises(DimensionError, match="cap"):
            jacobi_defect(LieAlgebra._computed(np.zeros((4, 4, 4))))
        assert jacobi_defect(build_family("rh-line", 3)) == 0.0


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, I, tol: classify_metric(g, I, tol=tol),
        lambda g, I, tol: orbit_parameter_equal(g, I, I, tol=tol),
        lambda g, I, tol: validate_aut_element(g, I, tol=tol),
        lambda g, I, tol: is_derivation(g, 0 * I, tol),
    ],
    ids=["classify_metric", "orbit_parameter_equal", "validate_aut_element", "is_derivation"],
)
def test_every_tolerance_reader_refuses_a_bad_tolerance(call, tol):
    # one check, _checked_tol, in each function that reads a tolerance
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        call(build_family("rh-line", 4), np.eye(4), tol)


class TestJacobiDefect:
    def test_abelian(self):
        alg = LieAlgebra(dim=3, c=np.zeros((3, 3, 3)))
        assert jacobi_defect(alg) == 0.0

    def test_rotation_algebra_against_brute_force(self):
        # [e_1,e_2]=e_3, [e_2,e_3]=e_1, [e_3,e_1]=e_2
        c = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            c[i, j, k] = 1.0
            c[j, i, k] = -1.0
        alg = LieAlgebra(dim=3, c=c)

        def brute_force():
            worst = 0.0
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        s = (
                            bracket(alg, e(3, i), bracket(alg, e(3, j), e(3, k)))
                            + bracket(alg, e(3, j), bracket(alg, e(3, k), e(3, i)))
                            + bracket(alg, e(3, k), bracket(alg, e(3, i), e(3, j)))
                        )
                        worst = max(worst, np.max(np.abs(s)))
            return worst

        assert brute_force() == 0.0
        assert jacobi_defect(alg) == 0.0

    def test_non_lie_constants_have_positive_defect(self):
        # the constructor refuses these, so the fixture is built as trusted
        assert jacobi_defect(LieAlgebra._computed(_non_lie_4())) > 0.1

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_the_three_term_sum(self, n):
        # Reference: each term of the Jacobi identity as its own contraction.
        rng = np.random.default_rng(n)
        for _ in range(5):
            c = rng.standard_normal((n, n, n))
            c = c - c.transpose(1, 0, 2)
            jac = (
                np.einsum("jkm,iml->ijkl", c, c)
                + np.einsum("kim,jml->ijkl", c, c)
                + np.einsum("ijm,kml->ijkl", c, c)
            )
            # rounding bound of an n-term sum: BLAS orders the sums differently
            bound = 8 * n * np.finfo(float).eps * np.max(np.abs(c)) ** 2
            got = jacobi_defect(LieAlgebra._computed(c))
            assert abs(got - float(np.max(np.abs(jac)))) <= bound


def _change_basis_by_einsum(c, P):
    # the staged einsum contraction that the BLAS products replaced
    cp = np.einsum("ijm,km->ijk", c, np.linalg.inv(P))
    cp = np.einsum("ia,ijk->ajk", P, cp)
    cp = np.einsum("jb,ajk->abk", P, cp)
    return 0.5 * (cp - cp.transpose(1, 0, 2))


class TestChangeBasis:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_matches_the_staged_einsum(self, n):
        rng = np.random.default_rng(100 + n)
        c = rng.standard_normal((n, n, n))
        algs = [build_family(f, n) for f in ("rh2+abelian", "rh-line")]
        # not a Lie algebra: only the trusted path admits it
        algs.append(LieAlgebra._computed(c - c.transpose(1, 0, 2)))
        for alg in algs:
            for top in (1.0, 10.0, 1e3):
                # P = Q1 diag(s) Q2 with cond(P) = top
                q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
                q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
                P = q1 @ np.diag(np.geomspace(1.0, top, n)) @ q2
                ref = _change_basis_by_einsum(alg.c, P)
                got = change_basis(alg, P).c
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_identity(self):
        alg = build_family("rh-line", 4)
        moved = change_basis(alg, np.eye(4))
        np.testing.assert_array_equal(moved.c, alg.c)
        assert moved.family_tag is Family.CUSTOM

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_family1_frame_relations(self, n):
        # columns of g_lambda give [x'_1, x'_2] = x'_2 + 2 x'_n
        alg = build_family("rh2+abelian", n)
        moved = change_basis(alg, g_lambda(n, 2.0))
        np.testing.assert_allclose(
            moved.c, milnor_pattern("rh2+abelian", n, 2.0).c, atol=1e-12
        )

    @pytest.mark.parametrize("n", [3, 5])
    def test_family2_frame_relations(self, n):
        alg = build_family("rh-line", n)
        moved = change_basis(alg, g_lambda(n, 1.0))
        np.testing.assert_allclose(
            moved.c, milnor_pattern("rh-line", n, 1.0).c, atol=1e-12
        )

    def test_singular_matrix_rejected(self):
        alg = build_family("rh2+abelian", 3)
        with pytest.raises(SingularMatrixError):
            change_basis(alg, np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected_before_the_svd(self, bad, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("SVD ran on a non-finite basis")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        P = np.eye(3)
        P[1, 2] = bad
        with pytest.raises(ShapeError, match="basis matrix must be finite"):
            change_basis(build_family("rh-line", 3), P)

    # The pinned seeds draw cond(P) of roughly 600-1400, where the round
    # trip is most sensitive to the order of the contraction.
    @given(seed=st.integers(0, 2**31))
    @example(seed=242)
    @example(seed=306)
    @example(seed=471)
    @example(seed=1468)
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        alg = build_family("rh-line", 4)
        P = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        back = change_basis(change_basis(alg, P), np.linalg.inv(P))
        np.testing.assert_allclose(back.c, alg.c, atol=1e-10)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_jacobi_survives_basis_change(self, seed):
        rng = np.random.default_rng(seed)
        alg = build_family("rh2+abelian", 5)
        P = rng.normal(size=(5, 5)) + 3.0 * np.eye(5)
        if np.linalg.cond(P) > 1e6:
            return
        assert jacobi_defect(change_basis(alg, P)) <= 1e-9


class TestTextFormat:
    def test_parse_basic(self):
        alg = parse_structure_constants("3\n1 2 2 1.0\n")
        np.testing.assert_array_equal(alg.c, build_family("rh2+abelian", 3).c)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    def test_round_trip(self, family):
        alg = build_family(family, 5)
        again = parse_structure_constants(format_structure_constants(alg))
        np.testing.assert_array_equal(again.c, alg.c)

    def test_rejects_lower_pair(self):
        with pytest.raises(ValueError):
            parse_structure_constants("3\n2 1 2 1.0\n")

    def test_rejects_non_lie(self):
        text = "4\n1 2 3 1.0\n1 3 4 1.0\n3 4 2 1.0\n"
        with pytest.raises(ValueError, match="Jacobi"):
            parse_structure_constants(text)

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-170, 1e-7, 1.0, 1e4, 1e160, 1e300])
    def test_jacobi_gate_is_scale_free(self, s):
        # the gate reads c / max|c|: rescaling neither admits a non-Lie
        # algebra nor refuses a Lie one, and no product over- or underflows
        triples = ((1, 2, 3), (1, 3, 4), (3, 4, 2))
        bad_text = "4\n" + "".join(f"{i} {j} {k} {s!r}\n" for i, j, k in triples)
        with pytest.raises(ValueError, match="Jacobi"):
            parse_structure_constants(bad_text)
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebra(dim=4, c=_non_lie_4(s))
        P = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 5)) + 2.0 * np.eye(5)
        pushed = change_basis(build_family("rh-line", 5), P)
        text = format_structure_constants(LieAlgebra(dim=5, c=s * pushed.c))
        np.testing.assert_array_equal(parse_structure_constants(text).c, s * pushed.c)
        so3 = _from_triples(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), s)
        heisenberg_plus_r = _from_triples(4, ((0, 1, 2),), s)
        for c in (so3, heisenberg_plus_r):
            text = format_structure_constants(LieAlgebra(dim=len(c), c=c))
            np.testing.assert_array_equal(parse_structure_constants(text).c, c)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_structure_constants("")
