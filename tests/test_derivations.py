import numpy as np
import pytest

from milnor_frames import (
    DerivationBasis,
    LieAlgebra,
    ShapeError,
    UnsupportedFamilyError,
    build_family,
    change_basis,
    conjugated_derivation_basis,
    derivation_basis,
    is_derivation,
    pattern_check,
)
from milnor_frames.derivations import _forbidden_mask, family_derivation_basis
from milnor_frames.frame_reduction import validate_aut_element


def E(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def span_projector(mats):
    flat = mats.reshape(mats.shape[0], -1)
    return flat.T @ flat


def test_abelian_has_full_matrix_space():
    alg = LieAlgebra(dim=3, c=np.zeros((3, 3, 3)))
    assert derivation_basis(alg).dim == 9


def _aff1():
    # [e_1, e_2] = e_2
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    return LieAlgebra(dim=2, c=c)


@pytest.mark.parametrize(
    "alg, want",
    [(LieAlgebra(dim=2, c=np.zeros((2, 2, 2))), 4), (_aff1(), 2)],
    ids=["abelian-2", "aff1"],
)
def test_dim2_keeps_every_null_vector(alg, want):
    # n = 2 is the one size whose Leibniz matrix is wider than tall, so
    # part of the null space lies outside the thin SVD's V^T.
    basis = derivation_basis(alg)
    assert basis.dim == want
    for D in basis.mats:
        assert is_derivation(alg, D, tol=1e-12)[0]


def test_rotation_algebra_has_only_inner_derivations():
    from milnor_frames import parse_structure_constants

    so3 = parse_structure_constants("3\n1 2 3 1.0\n2 3 1 1.0\n1 3 2 -1.0\n")
    assert derivation_basis(so3).dim == 3


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
@pytest.mark.parametrize("n", range(3, 9))
def test_family_dimension(family, n):
    assert derivation_basis(build_family(family, n)).dim == (n - 2) ** 2 + n


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
@pytest.mark.parametrize("n", range(3, 11))
def test_family_closed_form_spans_the_svd_null_space(family, n):
    closed = family_derivation_basis(n)
    svd = derivation_basis(build_family(family, n))
    assert closed.dim == svd.dim
    assert np.max(np.abs(span_projector(closed.mats) - span_projector(svd.mats))) < 1e-10


def test_rh_line_n4_dimension():
    assert derivation_basis(build_family("rh-line", 4)).dim == 8


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
def test_basis_elements_satisfy_leibniz(family):
    alg = build_family(family, 5)
    basis = derivation_basis(alg)
    for D in basis.mats:
        ok, defect = is_derivation(alg, D, tol=1e-9)
        assert ok, defect


def test_basis_is_frobenius_orthonormal():
    basis = derivation_basis(build_family("rh2+abelian", 5))
    flat = basis.mats.reshape(basis.dim, -1)
    gram = flat @ flat.T
    assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-10


def test_non_lie_input_rejected():
    c = np.zeros((4, 4, 4))
    for i, j, k in ((0, 1, 2), (0, 2, 3), (2, 3, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    with pytest.raises(ValueError, match="Jacobi"):
        derivation_basis(LieAlgebra(dim=4, c=c))


def test_leibniz_cap_refuses_before_allocating(monkeypatch):
    from milnor_frames import DimensionError, derivations, lie_core

    def refuse(*_):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(derivations, "_leibniz_operator", refuse)
    monkeypatch.setattr(derivations, "jacobi_defect", refuse)
    with pytest.raises(DimensionError, match="cap"):
        derivation_basis(build_family("rh-line", 25))
    # the largest CUSTOM and verify inputs stay far below it
    assert 8 * 12**5 * 20 < lie_core.TENSOR_MAX_BYTES < 8 * 25**5


class TestIsDerivation:
    def test_diagonal_e22_is_derivation(self):
        alg = build_family("rh2+abelian", 4)
        ok, defect = is_derivation(alg, E(4, 1, 1), tol=1e-12)
        assert ok and defect == 0.0

    def test_e11_is_not(self):
        alg = build_family("rh2+abelian", 4)
        ok, defect = is_derivation(alg, E(4, 0, 0), tol=1e-9)
        assert not ok and defect > 0.5

    def test_zero_map(self):
        alg = build_family("rh-line", 4)
        ok, defect = is_derivation(alg, np.zeros((4, 4)), tol=1e-12)
        assert ok and defect == 0.0

    def test_shape_mismatch(self):
        alg = build_family("rh-line", 4)
        with pytest.raises(ShapeError):
            is_derivation(alg, np.zeros((3, 3)), tol=1e-9)


class TestPatternCheck:
    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    def test_families_match(self, family):
        alg = build_family(family, 5)
        assert pattern_check(alg, derivation_basis(alg))

    def test_forbidden_position_fails(self):
        alg = build_family("rh2+abelian", 4)
        bad = DerivationBasis(mats=E(4, 0, 0)[None, :, :])
        assert not pattern_check(alg, bad)

    def test_missing_span_fails(self):
        # right zero pattern but spanning a single direction
        alg = build_family("rh2+abelian", 4)
        partial = DerivationBasis(mats=E(4, 1, 1)[None, :, :])
        assert not pattern_check(alg, partial)

    def test_custom_family_rejected(self):
        alg = LieAlgebra(dim=3, c=np.zeros((3, 3, 3)))
        with pytest.raises(UnsupportedFamilyError):
            pattern_check(alg, derivation_basis(alg))


class TestConjugation:
    def test_lambda_zero_keeps_span(self):
        basis = derivation_basis(build_family("rh-line", 5))
        conj = conjugated_derivation_basis(basis, 0.0)
        assert np.max(np.abs(span_projector(conj.mats) - span_projector(basis.mats))) < 1e-10

    def test_e22_conjugate_picks_up_coupling(self):
        # g_lam^{-1} E_22 g_lam has (n, 2) entry lam
        n, lam = 5, 2.0
        basis = DerivationBasis(mats=E(n, 1, 1)[None, :, :])
        conj = conjugated_derivation_basis(basis, lam)
        D = conj.mats[0] / conj.mats[0][1, 1]
        assert abs(D[n - 1, 1] - lam) < 1e-12

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            conjugated_derivation_basis(family_derivation_basis(4), lam)

    @pytest.mark.parametrize("lam", [0.0, 2.5, 1e3])
    def test_elements_are_the_conjugates_themselves(self, lam):
        # 0/1 entries and a representable lam make every product exact
        n = 6
        g_lam = np.eye(n)
        g_lam[n - 1, 1] = -lam
        g_inv = np.linalg.inv(g_lam)
        basis = family_derivation_basis(n)
        conj = conjugated_derivation_basis(basis, lam)
        assert conj.dim == basis.dim
        for D, C in zip(basis.mats, conj.mats):
            np.testing.assert_array_equal(C, g_inv @ D @ g_lam)

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("lam", [0.0, 0.7, 3.0, 40.0])
    def test_span_equals_the_orthonormalised_span(self, family, lam):
        # the conjugated closed form against the SVD-orthonormalised
        # conjugates of the SVD null space
        n = 5
        flat = conjugated_derivation_basis(family_derivation_basis(n), lam).mats.reshape(-1, n * n)
        qt, r = np.linalg.qr(flat.T)
        assert np.min(np.abs(np.diag(r))) > 1e-12 * np.max(np.abs(r))  # still independent
        oracle = conjugated_derivation_basis(derivation_basis(build_family(family, n)), lam)
        _, _, vt = np.linalg.svd(oracle.mats.reshape(oracle.dim, -1), full_matrices=False)
        assert np.max(np.abs(qt @ qt.T - span_projector(vt))) < 1e-10

    @pytest.mark.parametrize("lam", [0.0, 1.0, 3.5])
    def test_coupling_relation_holds_for_every_element(self, lam):
        # in the rotated frame each derivation satisfies
        # D[n,2] = lam * (D[2,2] - D[n,n])
        n = 5
        basis = derivation_basis(build_family("rh2+abelian", n))
        conj = conjugated_derivation_basis(basis, lam)
        for D in conj.mats:
            assert abs(D[n - 1, 1] - lam * (D[1, 1] - D[n - 1, n - 1])) < 1e-10


def test_closed_under_commutator():
    basis = derivation_basis(build_family("rh-line", 4))
    flat = basis.mats.reshape(basis.dim, -1)
    for a in range(basis.dim):
        for b in range(a + 1, basis.dim):
            comm = basis.mats[a] @ basis.mats[b] - basis.mats[b] @ basis.mats[a]
            v = comm.ravel()
            resid = v - flat.T @ (flat @ v)
            assert np.linalg.norm(resid) < 1e-8


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
def test_conjugation_matches_derivations_of_moved_algebra(family):
    rng = np.random.default_rng(7)
    alg = build_family(family, 4)
    P = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
    moved = change_basis(alg, P)
    # matrix expressions transform by P^{-1} D P
    P_inv = np.linalg.inv(P)
    conj = np.array([P_inv @ D @ P for D in derivation_basis(alg).mats])
    flat = conj.reshape(conj.shape[0], -1)
    q, _ = np.linalg.qr(flat.T)
    proj_conj = q @ q.T
    proj_moved = span_projector(derivation_basis(moved).mats)
    assert np.max(np.abs(proj_conj - proj_moved)) < 1e-8


# --- whole-tensor defects against the i < j gather they replaced ---------


def _pair_max(t):
    """max |t[i, j, :]| over the pairs i < j only."""
    iu, ju = np.triu_indices(t.shape[0], k=1)
    return float(np.max(np.abs(t[iu, ju])))


def _leibniz_defect_by_pairs(g, D):
    c = g.c
    lhs = np.einsum("ijm,km->ijk", c, D)
    rhs = np.einsum("mi,mjk->ijk", D, c) + np.einsum("mj,imk->ijk", D, c)
    return _pair_max(lhs - rhs)


def _aut_verdict_by_pairs(g, M, tol):
    n = g.dim
    scale = float(np.max(np.abs(M))) or 1.0
    zero_positions = _forbidden_mask(n)
    zero_positions[0, 0] = False
    if np.max(np.abs(M[zero_positions])) > tol * scale or abs(M[0, 0]) <= tol * scale:
        return False
    phi = M / M[0, 0]
    lhs = np.einsum("ijm,km->ijk", g.c, phi)
    rhs = np.einsum("mi,lj,mlk->ijk", phi, phi, g.c)
    return _pair_max(lhs - rhs) <= tol * max(1.0, scale)


def _pushed(family, n):
    rng = np.random.default_rng(n)
    P = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
    return rng, P, change_basis(build_family(family, n), P)


@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
@pytest.mark.parametrize("n", [3, 5, 8, 12])
class TestWholeTensorDefects:
    def test_is_derivation_matches_the_pair_gather(self, family, n):
        rng, P, alg = _pushed(family, n)
        P_inv = np.linalg.inv(P)
        mats = [P_inv @ D @ P for D in family_derivation_basis(n).mats]
        mats += [rng.normal(size=(n, n)) for _ in range(5)]
        for D in mats:
            assert is_derivation(alg, D, tol=1e-8)[1] == _leibniz_defect_by_pairs(alg, D)

    def test_validate_aut_element_matches_the_pair_gather(self, family, n):
        rng, _, pushed = _pushed(family, n)
        free = ~_forbidden_mask(n)
        cands = [np.eye(n) + 0.5 * D for D in family_derivation_basis(n).mats]
        cands += [np.eye(n) + 0.3 * rng.normal(size=(n, n)) * free for _ in range(5)]
        verdicts = set()
        for alg in (build_family(family, n), pushed):
            for M in cands:
                for tol in (1e-10, 1e-4, 0.1, 1.0):
                    got = validate_aut_element(alg, M, tol=tol)
                    assert got == _aut_verdict_by_pairs(alg, M, tol)
                    verdicts.add(got)
        assert verdicts == {True, False}
