"""Reproducible random Gram matrices.

Sampling uses splitmix64, a 64-bit shift-and-multiply generator with the
recurrence

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output = z XOR (z >> 31)

implemented in uint64 array arithmetic that wraps mod 2^64, so a given
seed produces the same values on every platform.  ``matrix`` computes
all of its outputs at once from the states state + k * 0x9E3779B97F4A7C15,
k = 1, 2, ...; ``next_uint64`` and ``uniform`` draw one value at a time
with masked Python integers and continue the same stream.

A sampled Gram matrix is G = A^T A + eps I with A uniform in [-1, 1)
and eps = 1e-6 times the spectral norm of A^T A, its largest eigenvalue
(``eigensolve.jacobi_eigh``).  The eigenvalues of G
then lie in [eps, ||A^T A|| + eps], so cond(G) <= 1 + 1e6 for every
seed, and the sampler needs no condition-number check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .eigensolve import jacobi_eigh
from .errors import DimensionError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring."""

    def __init__(self, seed: int) -> None:
        # a numpy integer seed gives the same stream as the equal Python int
        self._state = operator.index(seed) & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One float in [-1, 1) with 53 significant bits."""
        return (self.next_uint64() >> 11) / float(1 << 53) * 2.0 - 1.0

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        """The next rows * cols ``uniform()`` values, row by row."""
        count = rows * cols
        # array operations only: numpy wraps uint64 arrays silently but
        # warns on overflowing scalars
        k = np.arange(1, count + 1, dtype=np.uint64)
        z = k * np.uint64(_GAMMA) + np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GAMMA) & _MASK
        return ((z >> np.uint64(11)) / float(1 << 53) * 2.0 - 1.0).reshape(rows, cols)


@dataclass(frozen=True)
class RandomMetricSpec:
    """Seed of a sampled metric; its condition number is at most 1 + 1e6."""

    seed: int


def sample_metric(spec: RandomMetricSpec, n: int) -> np.ndarray:
    """Deterministic symmetric positive-definite n x n matrix."""
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    rng = SplitMix64(spec.seed)
    A = rng.matrix(n, n)
    S = A.T @ A
    norm = float(jacobi_eigh(S)[-1])
    if norm == 0.0:
        return np.eye(n)
    return S + 1e-6 * norm * np.eye(n)
