import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_structure_constants,
    pattern_check,
)
from milnor_frames.derivations import (
    NULLSPACE_RTOL,
    _forbidden_mask,
    _leibniz_defect,
    _leibniz_gram,
    family_derivation_basis,
)
from milnor_frames.frame_reduction import validate_aut_element


def E(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def span_projector(mats):
    flat = mats.reshape(mats.shape[0], -1)
    return flat.T @ flat


def _leibniz_operator(g: LieAlgebra) -> np.ndarray:
    """Reference: the Leibniz matrix L itself, the matrix of
    D -> (D[e_i,e_j] - [De_i,e_j] - [e_i,De_j]) over the pairs i < j,
    which ``derivation_basis`` never forms."""
    n = g.dim
    c = g.c
    iu, ju = np.triu_indices(n, k=1)
    pairs = np.arange(len(iu))
    # L[p, k, a, b] is the coefficient of D[a,b] in the k-th component of
    # the defect of pair p = (i, j): c[i,j,b] where a = k, minus
    # c[a,j,k] where b = i and c[i,a,k] where b = j.
    L = np.zeros((len(iu), n, n, n))
    L[:, np.arange(n), np.arange(n), :] = c[iu, ju][:, None, :]
    L[pairs, :, :, iu] -= c[:, ju, :].transpose(1, 2, 0)
    L[pairs, :, :, ju] -= c[iu].transpose(0, 2, 1)
    return L.reshape(len(iu) * n, n * n)


def _from_pairs(n, pairs):
    """The algebra with [e_i, e_j] = e_k for each (i, j, k), 0-based."""
    c = np.zeros((n, n, n))
    for i, j, k in pairs:
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    return LieAlgebra(dim=n, c=c)


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
    # n = 2 is the one size whose Leibniz matrix is wider than tall (2 x 4),
    # so part of the null space lies outside L's row space altogether.
    basis = derivation_basis(alg)
    assert basis.dim == want
    for D in basis.mats:
        assert is_derivation(alg, D, tol=1e-12)[0]


def test_rotation_algebra_has_only_inner_derivations():
    so3 = parse_structure_constants("3\n1 2 3 1.0\n2 3 1 1.0\n1 3 2 -1.0\n")
    assert derivation_basis(so3).dim == 3


@pytest.mark.parametrize("n, want", [(3, 6), (4, 10)], ids=["heisenberg", "heisenberg-plus-r"])
def test_heisenberg_dimensions(n, want):
    assert derivation_basis(_from_pairs(n, [(0, 1, 2)])).dim == want


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


@pytest.mark.parametrize("s", [1e-200, 1e-4, 1.0, 1e4, 1e160, 1e300])
def test_jacobi_gate_is_scale_free(s):
    # Der(s c) = Der(c): L is built from c / max|c|, so neither its Gram
    # matrix underflows to 0 nor its SVD sees an overflow
    _, _, pushed = _pushed("rh-line", 5)
    scaled = LieAlgebra(dim=5, c=s * pushed.c)
    assert derivation_basis(scaled).dim == derivation_basis(pushed).dim == 14


def test_leibniz_cap_refuses_before_allocating(monkeypatch):
    from milnor_frames import DimensionError, derivations, lie_core

    def refuse(*_):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(derivations, "_leibniz_gram", refuse)
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

    @pytest.mark.parametrize("family", [None, "rh2+abelian", "rh-line"])
    def test_custom_family_rejected(self, family):
        # the constructor makes CUSTOM algebras only, even from a family's constants
        c = np.zeros((3, 3, 3)) if family is None else build_family(family, 3).c
        alg = LieAlgebra(dim=3, c=c)
        with pytest.raises(UnsupportedFamilyError):
            pattern_check(alg, derivation_basis(alg))

    @pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_any_spanning_set_matches(self, family, n):
        # the verdict depends on the span alone, not on an orthonormal basis
        alg = build_family(family, n)
        b = family_derivation_basis(n).mats
        R = np.random.default_rng(n).normal(size=(len(b), len(b)))
        for mats in (2.0 * b, np.einsum("ij,jpq->ipq", R, b), np.concatenate([b, b])):
            assert pattern_check(alg, DerivationBasis(mats=mats))
        # a mix of fewer directions than the free space still fails
        R[-1] = R[0]
        assert not pattern_check(alg, DerivationBasis(mats=np.einsum("ij,jpq->ipq", R, b)))
        # and so does a forbidden direction, at any scale
        bad = np.concatenate([b, E(n, 0, 0)[None, :, :]])
        assert not any(pattern_check(alg, DerivationBasis(mats=s * bad)) for s in (1e-9, 1.0, 1e9))


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


# --- the Leibniz matrix against the n^5 tensor gather it replaced --------


def _leibniz_by_gather(g):
    n, c = g.dim, g.c
    eye = np.eye(n)
    T = (
        np.einsum("ijb,ak->ijkab", c, eye)
        - np.einsum("ib,ajk->ijkab", eye, c)
        - np.einsum("jb,iak->ijkab", eye, c)
    )
    iu, ju = np.triu_indices(n, k=1)
    return T[iu, ju].reshape(len(iu) * n, n * n)


def _leibniz_cases():
    so3 = parse_structure_constants("3\n1 2 3 1.0\n2 3 1 1.0\n1 3 2 -1.0\n")
    cases = [("aff1", _aff1()), ("so3", so3)]
    cases += [(f"{f}-{n}", build_family(f, n)) for f in ("rh2+abelian", "rh-line") for n in (3, 5, 8)]
    rng = np.random.default_rng(7)
    pushed = []
    for name, alg in cases:
        P = rng.uniform(-1.0, 1.0, size=(alg.dim, alg.dim)) + 2.0 * np.eye(alg.dim)
        pushed.append((f"pushed-{name}", change_basis(alg, P)))
    return [pytest.param(alg, id=name) for name, alg in cases + pushed]


@pytest.mark.parametrize("alg", _leibniz_cases())
def test_leibniz_operator_equals_the_tensor_gather(alg):
    assert np.array_equal(_leibniz_operator(alg), _leibniz_by_gather(alg))


# --- L^T L and ||L Z^T|| from c, against the Leibniz matrix itself ---------


_SMALL_ALGEBRAS = {
    "so3": lambda: _from_pairs(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
    "heisenberg": lambda: _from_pairs(3, [(0, 1, 2)]),
    "heisenberg-plus-r": lambda: _from_pairs(4, [(0, 1, 2)]),
    "aff1": _aff1,
    "abelian": lambda: LieAlgebra(dim=3, c=np.zeros((3, 3, 3))),
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["rh2+abelian", "rh-line", *_SMALL_ALGEBRAS]),
    n=st.integers(3, 12),
    push=st.booleans(),
)
def test_leibniz_gram_equals_lt_l(seed, name, n, push):
    alg = _SMALL_ALGEBRAS[name]() if name in _SMALL_ALGEBRAS else build_family(name, n)
    if push or name not in _SMALL_ALGEBRAS:
        alg = change_basis(alg, _well_conditioned_basis(np.random.default_rng(seed), alg.dim))
    L = _leibniz_operator(alg)
    want = L.T @ L
    assert np.max(np.abs(_leibniz_gram(alg.c) - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("alg", _leibniz_cases())
def test_leibniz_defect_norm_is_l_times_the_stack(alg):
    # random stacks, not null ones: the identity holds for every Z
    n = alg.dim
    Z = np.random.default_rng(n).normal(size=(7, n, n))
    want = np.linalg.norm(_leibniz_operator(alg) @ Z.reshape(7, -1).T)
    got = np.sqrt(0.5) * np.linalg.norm(_leibniz_defect(alg.c, Z))
    assert abs(got - want) <= 1e-12 * want


def test_n24_peak_memory_stays_near_the_gram():
    # L alone would be 29 MiB here, and its certificate product L Z^T 26 MiB
    alg = build_family("rh-line", 24)
    tracemalloc.start()
    try:
        basis = derivation_basis(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dim == 22**2 + 24
    assert peak < 16 * 2**20


# --- the null space from the Gram matrix against the SVD of L -----------


def _null_space_by_svd_of_l(g):
    """Reference: the SVD of L itself, thin except at n = 2 (L is 2 x 4)."""
    L = _leibniz_operator(g)
    _, s, vt = np.linalg.svd(L, full_matrices=L.shape[0] < L.shape[1])
    rank = int(np.sum(s >= 1e-9 * s[0])) if s.size and s[0] > 0 else 0
    return vt[rank:]


def _well_conditioned_basis(rng, n):
    while True:
        P = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(P) <= 1e3:
            return P


def _null_space_cases():
    so3 = parse_structure_constants("3\n1 2 3 1.0\n2 3 1 1.0\n1 3 2 -1.0\n")
    cases = [("so3", so3), ("aff1", _aff1()), ("abelian-3", LieAlgebra(dim=3, c=np.zeros((3, 3, 3))))]
    cases += [("heisenberg-plus-r", _from_pairs(4, [(0, 1, 2)]))]
    cases += [(f"{f}-{n}", build_family(f, n)) for f in ("rh2+abelian", "rh-line") for n in (3, 4, 5, 8, 12)]
    rng = np.random.default_rng(13)
    pushed = [(f"pushed-{name}", change_basis(alg, _well_conditioned_basis(rng, alg.dim))) for name, alg in cases]
    return [pytest.param(alg, id=name) for name, alg in cases + pushed]


@pytest.mark.parametrize("alg", _null_space_cases())
def test_null_space_from_r_spans_the_svd_of_l(alg):
    # same span, not the same vectors: within the null space each SVD
    # may return any rotation of the basis
    ref = _null_space_by_svd_of_l(alg)
    basis = derivation_basis(alg)
    flat = basis.mats.reshape(basis.dim, -1)
    assert basis.dim == ref.shape[0]
    assert np.max(np.abs(flat.T @ flat - ref.T @ ref)) <= 1e-12
    assert np.max(np.abs(flat @ flat.T - np.eye(basis.dim))) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 8, 12])
def test_one_eigh_runs_on_the_gram_matrix(monkeypatch, n):
    # one eigen call, an eigh of the n^2 x n^2 Gram matrix: no SVD, whose
    # hermitian wrapper copies the eigenvectors twice, and no QR of L
    alg = change_basis(build_family("rh-line", n), _well_conditioned_basis(np.random.default_rng(n), n))
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def refuse(*_, **__):
        raise AssertionError("an SVD, a QR or another eigen routine was called")

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for name in ("eig", "eigvals", "eigvalsh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    derivation_basis(alg)
    assert shapes == [(n * n, n * n)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["rh2+abelian", "rh-line"]),
    n=st.integers(3, 12),
)
def test_null_space_is_certified_on_l(seed, family, n):
    # the family dimension survives any basis with cond(P) <= 1e3, and the
    # null block meets its residual bound on L itself, not on L^T L
    alg = change_basis(build_family(family, n), _well_conditioned_basis(np.random.default_rng(seed), n))
    basis = derivation_basis(alg)
    L = _leibniz_operator(alg)
    assert basis.dim == (n - 2) ** 2 + n
    assert np.linalg.norm(L @ basis.mats.reshape(basis.dim, -1).T) <= NULLSPACE_RTOL * np.linalg.norm(L, 2)


def _graded_algebra(n, eps):
    """ad(e_1) = diag(0, 1, 1 + eps, 1 + 2 eps, ...).  Each E_pq with
    2 <= p != q is a derivation at eps = 0 only: the Leibniz matrix has
    (n - 1)(n - 2) singular values of order eps * sigma_max."""
    c = np.zeros((n, n, n))
    for j in range(1, n):
        c[0, j, j] = 1.0 + (j - 1) * eps
        c[j, 0, j] = -c[0, j, j]
    return LieAlgebra(dim=n, c=c)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9])
def test_unresolved_rank_is_refused(n, eps):
    # singular values in (1e-9, 1e-5) sigma_max: the Gram counts them as
    # null, but then the null block misses its residual bound on L
    with pytest.raises(np.linalg.LinAlgError, match="rank of the Leibniz matrix unresolved"):
        derivation_basis(_graded_algebra(n, eps))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-10, 1e-12, 0.0])
def test_resolved_rank_matches_the_svd_of_l(n, eps):
    alg = _graded_algebra(n, eps)
    assert derivation_basis(alg).dim == _null_space_by_svd_of_l(alg).shape[0]


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
            # rounding bound of an n-term sum: BLAS orders the sums differently
            bound = 8 * n * np.finfo(float).eps * np.max(np.abs(alg.c)) * np.max(np.abs(D))
            got = is_derivation(alg, D, tol=1e-8)[1]
            assert abs(got - _leibniz_defect_by_pairs(alg, D)) <= bound

    def test_validate_aut_element_ignores_the_scalar(self, family, n):
        rng, _, pushed = _pushed(family, n)
        free = ~_forbidden_mask(n)
        cands = [np.eye(n) + 0.5 * D for D in family_derivation_basis(n).mats]
        cands += [np.eye(n) + 0.3 * rng.normal(size=(n, n)) * free for _ in range(5)]
        scales = (1e-3, 1.0, 1e3, 1e6)
        alg = build_family(family, n)
        for M in cands:
            for tol in (1e-10, 1e-4, 0.1):
                verdicts = {validate_aut_element(alg, s * M, tol=tol) for s in scales}
                assert len(verdicts) == 1, (tol, verdicts)
        # φ = I + ε E_12 has defect ε and max|φ| = 1: ε either side of tol
        # keeps its verdict at every scale only if the bound is scale-free
        for tol in (1e-10, 1e-4, 0.1):
            for f, want in ((0.999, True), (1.001, False)):
                M = np.eye(n)
                M[0, 1] = f * tol
                assert {validate_aut_element(alg, s * M, tol=tol) for s in scales} == {want}
        # the zero pattern is the families' own: a pushed algebra is refused
        with pytest.raises(UnsupportedFamilyError):
            validate_aut_element(pushed, cands[0], tol=0.1)

    def test_validate_aut_element_matches_the_pair_gather(self, family, n):
        rng, _, pushed = _pushed(family, n)
        free = ~_forbidden_mask(n)
        cands = [np.eye(n) + 0.5 * D for D in family_derivation_basis(n).mats]
        cands += [np.eye(n) + 0.3 * rng.normal(size=(n, n)) * free for _ in range(5)]
        verdicts = set()
        alg = build_family(family, n)
        for M in cands:
            for tol in (1e-10, 1e-4, 0.1, 1.0):
                got = validate_aut_element(alg, M, tol=tol)
                assert got == _aut_verdict_by_pairs(alg, M, tol)
                verdicts.add(got)
        assert verdicts == {True, False}
        with pytest.raises(UnsupportedFamilyError):
            validate_aut_element(pushed, cands[0], tol=0.1)
