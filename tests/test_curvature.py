import tracemalloc

import numpy as np
import pytest

from milnor_frames import (
    LieAlgebra,
    RandomMetricSpec,
    ShapeError,
    build_family,
    change_basis,
    closed_form_ricci,
    gram_to_group_element,
    jacobi_defect,
    jacobi_eigh,
    levi_civita,
    milnor_pattern,
    parse_structure_constants,
    reduce,
    ricci_operator,
    riemann,
    sample_metric,
    signature,
)
from milnor_frames.errors import UnsupportedFamilyError

LAMBDAS = (0.0, 0.5, 1.0, 2.0, 7.3)


def random_frame_algebra(seed, family="rh2+abelian", n=4):
    rng = np.random.default_rng(seed)
    alg = build_family(family, n)
    P = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    return change_basis(alg, P)


class TestJacobiEigensolver:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 16, 24])
    def test_against_lapack(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        w = jacobi_eigh(a)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-10)

    @pytest.mark.parametrize(
        "ric",
        [
            closed_form_ricci("rh2+abelian", 6, 1.5).ric,
            closed_form_ricci("rh2+abelian", 9, 0.0).ric,
            closed_form_ricci("rh-line", 7, 0.0).ric,
        ],
        ids=["rh2+abelian-lam1.5", "rh2+abelian-lam0", "rh-line-lam0"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_repeated_eigenvalues(self, ric, seed):
        # a random rotation hides the diagonal; the multiplicities stay
        n = ric.shape[0]
        Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
        a = Q @ ric @ Q.T
        a = 0.5 * (a + a.T)
        w = jacobi_eigh(a)
        scale = np.max(np.abs(ric))
        np.testing.assert_allclose(w, np.sort(np.diag(ric)), atol=1e-12 * scale)

    def test_zero_matrix(self):
        w = jacobi_eigh(np.zeros((3, 3)))
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            jacobi_eigh(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        # eigvalsh returns [0, -0] for a NaN entry
        with pytest.raises(np.linalg.LinAlgError, match="finite"):
            jacobi_eigh(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_large_finite_input_is_diagonalized(self):
        # its Frobenius norm would overflow; the entries do not (LAPACK rescales)
        w = jacobi_eigh(np.array([[1e300, 0.0], [0.0, 1.0]]))
        assert list(w) == pytest.approx([1.0, 1e300], rel=1e-15)

    def test_overflowing_spectrum_raises(self):
        # finite entries whose largest eigenvalue, 3e308, is past the float range
        with pytest.raises(np.linalg.LinAlgError, match="finite"):
            jacobi_eigh(np.full((2, 2), 1.5e308))


class TestConnection:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.5])
    def test_family1_tabulated_entries(self, lam):
        n = 5
        gam = levi_civita(milnor_pattern("rh2+abelian", n, lam))
        assert gam[0, 1, n - 1] == pytest.approx(lam / 2)
        assert gam[1, 1, 0] == pytest.approx(1.0)

    def test_abelian_is_flat(self):
        alg = LieAlgebra(dim=4, c=np.zeros((4, 4, 4)))
        assert np.max(np.abs(levi_civita(alg))) == 0.0

    def test_is_a_read_only_array(self):
        gam = levi_civita(build_family("rh-line", 4))
        assert type(gam) is np.ndarray
        assert not gam.flags.writeable

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_on_random_algebras(self, seed):
        alg = random_frame_algebra(seed)
        gam = levi_civita(alg)
        # metric compatibility
        assert np.max(np.abs(gam + gam.transpose(0, 2, 1))) < 1e-10
        # torsion free
        torsion = gam - gam.transpose(1, 0, 2) - alg.c
        assert np.max(np.abs(torsion)) < 1e-10


class TestRiemann:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    def test_family1_sectional_entries(self, lam):
        n = 4
        alg = milnor_pattern("rh2+abelian", n, lam)
        R = riemann(levi_civita(alg), alg)
        assert R[0, 1, 1, 0] == pytest.approx(-(1 + 0.75 * lam**2))
        assert R[0, n - 1, n - 1, 0] == pytest.approx(0.25 * lam**2)

    def test_abelian_is_zero(self):
        alg = LieAlgebra(dim=3, c=np.zeros((3, 3, 3)))
        assert np.max(np.abs(riemann(levi_civita(alg), alg))) == 0.0

    def test_cap(self, monkeypatch):
        from milnor_frames import DimensionError, lie_core

        # the real cap admits n <= 53
        assert 8 * 53**4 <= lie_core.TENSOR_MAX_BYTES < 8 * 54**4
        monkeypatch.setattr(lie_core, "TENSOR_MAX_BYTES", 8 * 4**4 - 1)
        alg = build_family("rh-line", 4)
        with pytest.raises(DimensionError, match="cap"):
            riemann(levi_civita(alg), alg)
        alg = build_family("rh-line", 3)
        assert riemann(levi_civita(alg), alg).shape == (3, 3, 3, 3)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    # n = 12 ends on a partial batch of slabs (9 + 3)
    @pytest.mark.parametrize("n", [3, 5, 8, 12, 16])
    def test_matches_reference_einsum(self, family, n):
        alg = random_frame_algebra(n, family=family, n=n)
        gam = levi_civita(alg)
        want = (
            np.einsum("jkm,iml->ijkl", gam, gam)
            - np.einsum("ikm,jml->ijkl", gam, gam)
            - np.einsum("ijm,mkl->ijkl", alg.c, gam)
        )
        got = riemann(gam, alg)
        assert got.shape == (n, n, n, n)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", range(5))
    def test_first_bianchi(self, seed):
        alg = random_frame_algebra(seed, family="rh-line", n=5)
        R = riemann(levi_civita(alg), alg)
        cyc = R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R)
        assert np.max(np.abs(cyc)) < 1e-9


class TestRicciOperator:
    def test_family1_canonical(self):
        rep = ricci_operator(build_family("rh2+abelian", 4), np.eye(4))
        np.testing.assert_allclose(rep.eigenvalues, [-1.0, -1.0, 0.0, 0.0], atol=1e-12)

    def test_family2_canonical_n3(self):
        rep = ricci_operator(build_family("rh-line", 3), np.eye(3))
        np.testing.assert_allclose(rep.eigenvalues, [-1.0, -1.0, 0.0], atol=1e-12)

    def test_abelian_flat(self):
        alg = LieAlgebra(dim=5, c=np.zeros((5, 5, 5)))
        G = sample_metric(RandomMetricSpec(seed=4), 5)
        rep = ricci_operator(alg, G)
        assert np.max(np.abs(rep.ric)) == 0.0
        assert rep.signature == (0, 5, 0)

    def test_rotation_algebra_bi_invariant_metric(self):
        # for a bi-invariant metric Ric is -1/4 of the Killing form, which
        # for the rotation algebra gives exactly I/2
        so3 = parse_structure_constants("3\n1 2 3 1.0\n2 3 1 1.0\n1 3 2 -1.0\n")
        rep = ricci_operator(so3, np.eye(3))
        np.testing.assert_allclose(rep.ric, 0.5 * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(
            ricci_operator(so3, 2.0 * np.eye(3)).eigenvalues, 0.25 * np.ones(3), atol=1e-12
        )

    def test_plane_motion_algebra_is_flat(self):
        # [e1,e2]=e3, [e2,e3]=e1: unimodular solvable, flat metric
        e2alg = parse_structure_constants("3\n1 2 3 1.0\n2 3 1 1.0\n")
        rep = ricci_operator(e2alg, np.eye(3))
        assert np.max(np.abs(rep.ric)) < 1e-14
        assert rep.signature == (0, 3, 0)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_matches_closed_form_on_frame_metric(self, family, n, lam):
        got = ricci_operator(milnor_pattern(family, n, lam), np.eye(n)).ric
        want = closed_form_ricci(family, n, lam).ric
        assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_pipeline_eigenvalues(self, family, seed):
        # Ricci of the raw metric is k times the closed form at the
        # reduced parameter (scaling a metric by k divides Ric by k)
        n = 5
        alg = build_family(family, n)
        G = sample_metric(RandomMetricSpec(seed=1000 + seed), n)
        fr = reduce(alg, G)
        got = ricci_operator(alg, G).eigenvalues
        want = np.sort(fr.scale_k * closed_form_ricci(family, n, fr.lam).eigenvalues)
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-7 * np.max(np.abs(want)))

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frame_is_the_group_element(self, family, n, seed):
        # the frame is g; reduce's frame X is g Q / sqrt(k) with Q orthogonal,
        # so the matrix itself, not only its spectrum, is k Q Ric(λ) Q^T
        alg = build_family(family, n)
        G = sample_metric(RandomMetricSpec(seed=2000 + 10 * n + seed), n)
        fr = reduce(alg, G)
        Q = np.sqrt(fr.scale_k) * np.linalg.solve(gram_to_group_element(G), fr.frame)
        np.testing.assert_allclose(Q @ Q.T, np.eye(n), atol=1e-12)
        got = ricci_operator(alg, G).ric
        want = fr.scale_k * Q @ closed_form_ricci(family, n, fr.lam).ric @ Q.T
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(got))

    def test_symmetry_of_report(self):
        rep = ricci_operator(build_family("rh-line", 6), np.eye(6))
        scale = np.max(np.abs(rep.ric))
        assert np.max(np.abs(rep.ric - rep.ric.T)) <= 1e-10 * scale
        assert sum(rep.signature) == 6
        assert rep.scalar_curvature == pytest.approx(np.trace(rep.ric))


class TestClosedForm:
    def test_family1_values(self):
        rep = closed_form_ricci("rh2+abelian", 5, 2.0)
        np.testing.assert_allclose(rep.ric, np.diag([-3.0, -3.0, 0.0, 0.0, 2.0]), atol=0)

    def test_family2_lambda_zero(self):
        rep = closed_form_ricci("rh-line", 4, 0.0)
        np.testing.assert_allclose(rep.ric, np.diag([-2.0, 0.0, -2.0, -2.0]), atol=0)

    def test_family1_product_metric(self):
        rep = closed_form_ricci("rh2+abelian", 3, 0.0)
        np.testing.assert_allclose(rep.ric, np.diag([-1.0, -1.0, 0.0]), atol=0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            closed_form_ricci("rh2+abelian", 4, -1.0)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            closed_form_ricci("rh-line", 2, 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="finite"):
            closed_form_ricci("rh-line", 4, lam)

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("lam", [0.0, 1e-5, 1.0, 1e5])
    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    def test_signature_is_the_member_lambda_selects(self, family, n, lam):
        # a band relative to the spectral radius drops the O(λ) eigenvalues
        # at λ = 1e-5 and the fixed -(n-2) of rh-line at λ = 1e5
        if family == "rh2+abelian":
            want = (2, n - 3, 1) if lam > 0 else (2, n - 2, 0)
        else:
            want = (n - 1, 0, 1) if lam > 0 else (n - 1, 1, 0)
        rep = closed_form_ricci(family, n, lam)
        assert rep.signature == want
        assert len(rep.eigenvalues) == n
        if lam in (0.0, 1.0):  # where the band resolves the spectrum, the two agree
            assert signature(rep.ric) == want

    def test_rejects_custom(self):
        # CUSTOM and a string that names no family get the same class
        for tag in ("custom", "so3"):
            with pytest.raises(UnsupportedFamilyError):
                closed_form_ricci(tag, 4, 0.0)


class TestSignature:
    def test_family1_generic(self):
        rep = closed_form_ricci("rh2+abelian", 6, 1.5)
        assert signature(rep.ric) == (2, 3, 1)

    def test_family2_degenerate(self):
        rep = closed_form_ricci("rh-line", 5, 0.0)
        assert signature(rep.ric) == (4, 1, 0)

    def test_zero_matrix(self):
        assert signature(np.zeros((4, 4))) == (0, 4, 0)

    def test_nan_entry_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            signature(np.diag([np.nan, 1.0, -1.0]))

    def test_scale_invariance(self):
        rep = closed_form_ricci("rh-line", 5, 2.0)
        assert signature(rep.ric) == signature(1e6 * rep.ric)

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            signature(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_needs_no_finite_trace(self):
        # the trace 2e308 overflows; the signature reads the eigenvalues alone
        assert signature(np.diag([1e308, 1e308])) == (0, 0, 2)


@pytest.mark.parametrize(
    "family, n, s",
    [("rh-line", 4, 3e-308), ("rh-line", 12, 1e-307), ("rh2+abelian", 3, 1e-308)],
)
def test_overflowing_scalar_curvature_is_refused(family, n, s):
    # Ric = Ric(I) / s: every entry and eigenvalue is finite, the trace is not
    rep = ricci_operator(build_family(family, n), np.eye(n))
    assert np.isfinite(rep.ric / s).all() and not np.isfinite(rep.scalar_curvature / s)
    with pytest.raises(np.linalg.LinAlgError, match="scalar curvature overflows"):
        ricci_operator(build_family(family, n), s * np.eye(n))



class TestOneEigenPath:
    """Every eigenvalue comes from one ``jacobi_eigh`` call in
    ``curvature``, per report and per ``signature``."""

    @staticmethod
    def count_calls(monkeypatch):
        from milnor_frames import curvature

        calls = []
        jacobi = curvature.jacobi_eigh

        def counting(a):
            calls.append(a)
            return jacobi(a)

        monkeypatch.setattr(curvature, "jacobi_eigh", counting)
        return calls

    def test_one_call_per_signature(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        for k, (family, n, lam) in enumerate([("rh2+abelian", 6, 1.5), ("rh-line", 5, 0.0)]):
            signature(closed_form_ricci(family, n, lam).ric)
            assert len(calls) == 2 * k + 2  # closed_form_ricci's own, then signature's

    def test_block_check_runs_through_the_report(self, monkeypatch):
        from milnor_frames.verify import check_block_characteristic_polynomial

        calls = self.count_calls(monkeypatch)
        check_block_characteristic_polynomial()
        assert len(calls) > 0


@pytest.mark.parametrize(
    "which, bound",
    [
        # riemann's only n^4 array is its output; the negated c and the
        # one-slab buffer add 2 n^3 entries, 0.05 n^4 at n = 40
        ("riemann", 1.2),
        # jacobi_defect builds two n^4 arrays; 0.2 n^4 entries of slack
        # cover the n^3 temporaries
        ("jacobi_defect", 2.2),
    ],
    ids=["riemann", "jacobi_defect"],
)
def test_at_most_two_quartic_arrays_alive(which, bound):
    n = 40
    alg = random_frame_algebra(n, family="rh-line", n=n)
    gam = levi_civita(alg)
    call = (lambda: riemann(gam, alg)) if which == "riemann" else (lambda: jacobi_defect(alg))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n**4
