"""Reproducible random Gram matrices.

Sampling uses splitmix64, a 64-bit shift-and-multiply generator with the
recurrence

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output = z XOR (z >> 31)

implemented in plain integer arithmetic, so a given seed produces the
same matrices on every platform.  A sampled Gram matrix is
G = A^T A + eps I with A uniform in [-1, 1) and eps = 1e-6 times the
spectral norm of A^T A.  The eigenvalues of G then lie in
[eps, ||A^T A|| + eps], so cond(G) <= 1 + 1e6; the default
``cond_cap`` of 1e7 is a guard with margin, not a bound that binds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One float in [-1, 1) with 53 significant bits."""
        return (self.next_uint64() >> 11) / float(1 << 53) * 2.0 - 1.0

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return np.array(
            [[self.uniform() for _ in range(cols)] for _ in range(rows)]
        )


@dataclass(frozen=True)
class RandomMetricSpec:
    """Seed plus an upper bound the sampled condition numbers must obey."""

    seed: int
    cond_cap: float = 1e7


def sample_metric(spec: RandomMetricSpec, n: int) -> np.ndarray:
    """Deterministic symmetric positive-definite n x n matrix."""
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    rng = SplitMix64(spec.seed)
    A = rng.matrix(n, n)
    S = A.T @ A
    norm = float(np.linalg.norm(S, 2))
    if norm == 0.0:
        return np.eye(n)
    G = S + 1e-6 * norm * np.eye(n)
    cond = float(np.linalg.cond(G))
    if cond > spec.cond_cap:
        raise ValueError(f"sampled condition number {cond:g} exceeds cap {spec.cond_cap:g}")
    return G
