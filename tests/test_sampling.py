import numpy as np
import pytest

from milnor_frames import RandomMetricSpec, SplitMix64, sample_metric, validate_gram


def test_splitmix64_reference_vector():
    # published first outputs for seed 0
    gen = SplitMix64(0)
    assert gen.next_uint64() == 0xE220A8397B1DCDAF
    assert gen.next_uint64() == 0x6E789E6AA1B965F4
    assert gen.next_uint64() == 0x06C45D188009454F


def test_uniform_range():
    gen = SplitMix64(123)
    vals = [gen.uniform() for _ in range(1000)]
    assert all(-1.0 <= v < 1.0 for v in vals)
    assert min(vals) < -0.5 and max(vals) > 0.5


def test_same_seed_same_matrix():
    a = sample_metric(RandomMetricSpec(seed=42), 4)
    b = sample_metric(RandomMetricSpec(seed=42), 4)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = sample_metric(RandomMetricSpec(seed=1), 4)
    b = sample_metric(RandomMetricSpec(seed=2), 4)
    assert np.max(np.abs(a - b)) > 1e-3


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_positive_definite(n):
    G = sample_metric(RandomMetricSpec(seed=7), n)
    validate_gram(G)  # raises if not SPD


def test_condition_number_sweep():
    # eigenvalues of G lie in [eps, ||A^T A|| + eps] with eps = 1e-6 ||A^T A||
    for seed in range(1, 1001):
        G = sample_metric(RandomMetricSpec(seed=seed), 4)
        assert np.linalg.cond(G) <= (1 + 1e6) * (1 + 1e-9)


def test_dimension_check():
    with pytest.raises(ValueError):
        sample_metric(RandomMetricSpec(seed=0), 1)
