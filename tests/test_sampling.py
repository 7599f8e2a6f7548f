import numpy as np
import pytest

from milnor_frames import RandomMetricSpec, SplitMix64, gram_to_group_element, jacobi_eigh, sample_metric
from milnor_frames import sampling


def test_splitmix64_reference_vector():
    # published first outputs for seed 0
    gen = SplitMix64(0)
    assert gen.next_uint64() == 0xE220A8397B1DCDAF
    assert gen.next_uint64() == 0x6E789E6AA1B965F4
    assert gen.next_uint64() == 0x06C45D188009454F


def _scalar_matrix(gen, rows, cols):
    return np.array([[gen.uniform() for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("shape", [(1, 1), (2, 5), (16, 16), (24, 24)])
def test_matrix_matches_the_scalar_stream_bit_for_bit(shape):
    seeds = [0, 1, 2**63, 2**64 - 1]
    seeds += [int(s) for s in np.random.default_rng(2014).integers(0, 2**64, size=200, dtype=np.uint64)]
    for seed in seeds:
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        got = fast.matrix(*shape)
        want = _scalar_matrix(slow, *shape)
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), seed
        assert fast.next_uint64() == slow.next_uint64(), seed


def test_numpy_integer_seeds_give_the_python_int_stream():
    want = SplitMix64(5).matrix(3, 3)
    for seed in (np.int64(5), np.uint64(5), np.int32(5)):
        np.testing.assert_array_equal(SplitMix64(seed).matrix(3, 3), want)
    np.testing.assert_array_equal(
        sample_metric(RandomMetricSpec(seed=np.int64(5)), 4), sample_metric(RandomMetricSpec(seed=5), 4)
    )
    assert SplitMix64(np.int64(-1)).next_uint64() == SplitMix64(2**64 - 1).next_uint64()
    with pytest.raises(TypeError):
        SplitMix64(5.0)


def test_uniform_range():
    gen = SplitMix64(123)
    vals = [gen.uniform() for _ in range(1000)]
    assert all(-1.0 <= v < 1.0 for v in vals)
    assert min(vals) < -0.5 and max(vals) > 0.5


def test_same_seed_same_matrix():
    # recorded from the scalar generator; every sampled G must stay identical
    want = np.array([
        [1.1902878899881169, -1.0838446718252432, 0.5042186638032754, -0.7174860484717962],
        [-1.0838446718252432, 1.0627684714665901, -0.24021646092637663, 0.6276972718045274],
        [0.5042186638032754, -0.24021646092637663, 0.9706975309253053, -0.3882879200476974],
        [-0.7174860484717962, 0.6276972718045274, -0.3882879200476974, 0.8106266898104689],
    ])
    for _ in range(2):
        assert sample_metric(RandomMetricSpec(seed=42), 4).tobytes() == want.tobytes()


def test_spectral_norm_is_one_eigen_step(monkeypatch):
    # one eigen path: ||A^T A|| is the largest eigenvalue from jacobi_eigh, and no SVD runs
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return jacobi_eigh(a)

    def no_svd(*args, **kwargs):
        raise AssertionError("sample_metric called svd")

    monkeypatch.setattr(sampling, "jacobi_eigh", counting)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    sample_metric(RandomMetricSpec(seed=42), 5)
    assert calls == [(5, 5)]


def test_different_seeds_differ():
    a = sample_metric(RandomMetricSpec(seed=1), 4)
    b = sample_metric(RandomMetricSpec(seed=2), 4)
    assert np.max(np.abs(a - b)) > 1e-3


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_positive_definite(n):
    G = sample_metric(RandomMetricSpec(seed=7), n)
    gram_to_group_element(G)  # raises if not SPD


def test_condition_number_sweep():
    # eigenvalues of G lie in [eps, ||A^T A|| + eps] with eps = 1e-6 ||A^T A||
    for seed in range(1, 1001):
        G = sample_metric(RandomMetricSpec(seed=seed), 4)
        assert np.linalg.cond(G) <= (1 + 1e6) * (1 + 1e-9)


def test_dimension_check():
    with pytest.raises(ValueError):
        sample_metric(RandomMetricSpec(seed=0), 1)
