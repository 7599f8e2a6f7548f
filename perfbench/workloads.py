"""The benchmark's workloads: seeded inputs, the timed per-item pipeline,
and the oracle that checks each item's output.

A workload builds a fixed list of items from the benchmark seed.  The
package receives only what the items hold: Gram matrices (or the seeds
``sample_metric`` turns into them) and bases.  Every call
into the package goes through the ``milnor_frames`` module attributes at
call time, so the traced run can rebind them.

Each oracle returns ``(tol_used, errors)``: ``tol_used`` is the worst
``residual / stated tolerance`` of the item and ``errors`` lists what is
wrong with it (``tol_used`` is NaN where the output states no residual).
An item fails when ``errors`` is non-empty; a residual above its
tolerance is always such an error.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import milnor_frames as mf

TOL = 1e-8
"""The package's stated tolerance (``DEFAULT_TOL`` and ``SIGNATURE_TOL``)."""

FAMILIES = ("rh2+abelian", "rh-line")
EXPECTED_FAILING_CHECKS = frozenset({"block-characteristic-polynomial"})
VERIFY_TIMEOUT_S = 60.0
PUSHED_COND_CAP = 1e7
"""Largest condition number of a ``custom-generic`` pushed Gram matrix
Pᵀ G P: the cap ``RandomMetricSpec`` puts on the metrics the package
samples.  A (P, G) pair above it is drawn again.  Beyond it the Ricci
spectrum computed from Pᵀ G P is off by about cond · 1e-16 whatever the
method, because rounding Pᵀ G P to doubles already moves it that far."""


@dataclass(frozen=True)
class Item:
    """One unit of work; ``basis`` and ``gram`` are set only where the
    benchmark generates them itself."""

    family: str
    n: int
    seed: int
    basis: np.ndarray | None = None
    gram: np.ndarray | None = None


# --- oracles -----------------------------------------------------------------


def signature_pair(family: str, n: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The paper's dichotomy pair: (member for λ = 0, member for λ > 0)."""
    if family == "rh2+abelian":
        return (2, n - 2, 0), (2, n - 3, 1)
    return (n - 1, 1, 0), (n - 1, 0, 1)


def spectrum_deviation(w: np.ndarray, ref: np.ndarray) -> float:
    """Largest gap between two spectra, sorted, relative to the reference's
    spectral radius."""
    w = np.sort(np.asarray(w, dtype=float))
    ref = np.sort(np.asarray(ref, dtype=float))
    return float(np.max(np.abs(w - ref))) / float(np.max(np.abs(ref)))


def unit_radius(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    return w / float(np.max(np.abs(w)))


def check_sweep(
    family: str,
    n: int,
    sig: tuple[int, int, int],
    lam: float,
    orthonormality: float,
    bracket_pattern: float,
) -> tuple[float, list[str]]:
    degenerate, generic = signature_pair(family, n)
    errors = []
    if sig not in (degenerate, generic):
        errors.append(f"signature {sig} outside the pair {degenerate}, {generic}")
    elif (sig == degenerate) != (lam == 0.0):
        errors.append(f"signature {sig} does not match λ = {lam!r}")
    if not lam >= 0.0:
        errors.append(f"λ = {lam!r} is negative")
    tol_used = max(orthonormality, bracket_pattern) / TOL
    if not tol_used <= 1.0:
        errors.append(
            f"reduce residuals orthonormality {orthonormality:.3g}, "
            f"bracket {bracket_pattern:.3g} exceed {TOL:g}"
        )
    return tol_used, errors


def check_classify(
    lam: float,
    is_solvsoliton: bool,
    sig: tuple[int, int, int],
    closed_sig: tuple[int, int, int],
    spectrum_dev: float,
) -> tuple[float, list[str]]:
    """``spectrum_dev`` compares the generic and closed-form Ricci spectra,
    each scaled to unit spectral radius (they differ by the scale k)."""
    errors = []
    if is_solvsoliton != (lam == 0.0):
        errors.append(f"is_solvsoliton = {is_solvsoliton} at λ = {lam!r}")
    if sig != closed_sig:
        errors.append(f"ricci_operator signature {sig} != closed form {closed_sig}")
    tol_used = spectrum_dev / TOL
    if not tol_used <= 1.0:
        errors.append(f"Ricci spectrum deviates from the closed form by {spectrum_dev:.3g}")
    return tol_used, errors


def check_custom(
    n: int, der_dim: int, derivation_defects: list[float], spectrum_dev: float
) -> tuple[float, list[str]]:
    errors = []
    want = (n - 2) ** 2 + n
    if der_dim != want:
        errors.append(f"dim Der = {der_dim}, expected {want}")
    worst_defect = max(derivation_defects, default=0.0)
    if len(derivation_defects) != der_dim:
        errors.append(f"{len(derivation_defects)} of {der_dim} basis elements checked")
    if not worst_defect <= TOL:
        errors.append(f"a basis element fails is_derivation (defect {worst_defect:.3g})")
    if not spectrum_dev <= TOL:
        errors.append(f"pushed Ricci spectrum deviates by {spectrum_dev:.3g} of the radius")
    return max(worst_defect, spectrum_dev) / TOL, errors


def check_verify(exit_code: int, report: object) -> tuple[float, list[str]]:
    """``verify-paper --json`` must exit 1 with exactly the by-design check
    failing.  Its report states no residual to weigh, so ``tol_used`` is NaN."""
    errors = []
    if exit_code != 1:
        errors.append(f"exit code {exit_code}, expected 1")
    if not isinstance(report, list) or not all(
        isinstance(r, dict) and {"name", "passed", "elapsed"} <= r.keys() for r in report
    ):
        return float("nan"), errors + ["report is not a list of check records"]
    failing = {r["name"] for r in report if not r["passed"]}
    if failing != EXPECTED_FAILING_CHECKS:
        errors.append(f"failing checks {sorted(failing)}, expected {sorted(EXPECTED_FAILING_CHECKS)}")
    return float("nan"), errors


# --- workloads ---------------------------------------------------------------


def family_items(seed: int, dims: tuple[int, ...], per_cell: int) -> list[Item]:
    """``per_cell`` metric seeds for each family and dimension, in that order."""
    rng = random.Random(seed)
    return [Item(f, n, rng.getrandbits(64)) for f in FAMILIES for n in dims for _ in range(per_cell)]


class SweepSmall:
    """Many small family metrics: sample_metric -> ricci_operator -> reduce."""

    name = "sweep-small"
    dims = (3, 4, 6)
    per_cell = 200

    def items(self, seed: int) -> list[Item]:
        return family_items(seed, self.dims, self.per_cell)

    def run(self, item: Item, alg) -> object:
        G = mf.sample_metric(mf.RandomMetricSpec(seed=item.seed), item.n)
        return mf.ricci_operator(alg, G).signature, mf.reduce(alg, G)

    def check(self, item: Item, alg, out) -> tuple[float, list[str]]:
        sig, frame = out
        res = frame.residuals
        return check_sweep(item.family, item.n, sig, frame.lam, res.orthonormality, res.bracket_pattern)


class ClassifyLarge:
    """Larger family metrics: sample_metric -> ricci_operator -> classify_metric."""

    name = "classify-large"
    dims = (8, 12, 16)
    per_cell = 4

    def items(self, seed: int) -> list[Item]:
        return family_items(seed, self.dims, self.per_cell)

    def run(self, item: Item, alg) -> object:
        G = mf.sample_metric(mf.RandomMetricSpec(seed=item.seed), item.n)
        return mf.ricci_operator(alg, G), mf.classify_metric(alg, G)

    def check(self, item: Item, alg, out) -> tuple[float, list[str]]:
        report, (verdict, lam) = out
        closed = mf.closed_form_ricci(item.family, item.n, lam)
        dev = spectrum_deviation(unit_radius(report.eigenvalues), unit_radius(closed.eigenvalues))
        return check_classify(lam, verdict.is_solvsoliton, report.signature, closed.signature, dev)


class CustomGeneric:
    """Family algebras pushed through a seeded random basis (CUSTOM tag):
    change_basis -> derivation_basis -> is_derivation (each) -> ricci_operator.
    The pushed Gram matrices stay within ``PUSHED_COND_CAP``."""

    name = "custom-generic"
    dims = (5, 8, 12)
    per_cell = 6

    def items(self, seed: int) -> list[Item]:
        rng = np.random.default_rng(seed)
        out = []
        for f in FAMILIES:
            for n in self.dims:
                for _ in range(self.per_cell):
                    while True:
                        P = rng.uniform(-1.0, 1.0, size=(n, n))
                        G = mf.sample_metric(mf.RandomMetricSpec(seed=int(rng.integers(2**63))), n)
                        if np.linalg.cond(P.T @ G @ P) <= PUSHED_COND_CAP:
                            break
                    out.append(Item(f, n, 0, basis=P, gram=G))
        return out

    def run(self, item: Item, alg) -> object:
        P, G = item.basis, item.gram
        pushed = mf.change_basis(alg, P)
        der = mf.derivation_basis(pushed)
        defects = [mf.is_derivation(pushed, D, TOL)[1] for D in der.mats]
        return der.dim, defects, mf.ricci_operator(pushed, P.T @ G @ P)

    def check(self, item: Item, alg, out) -> tuple[float, list[str]]:
        der_dim, defects, report = out
        ref = mf.ricci_operator(alg, item.gram).eigenvalues
        return check_custom(item.n, der_dim, defects, spectrum_deviation(report.eigenvalues, ref))


def run_verify_paper() -> tuple[int, object]:
    """Exit code and parsed report (None if not JSON) of one
    ``verify-paper --json`` in a fresh interpreter; the caller's
    environment (PYTHONPATH, BLAS threads) is inherited."""
    proc = subprocess.run(
        [sys.executable, "-m", "milnor_frames.cli", "verify-paper", "--json"],
        capture_output=True,
        text=True,
        timeout=VERIFY_TIMEOUT_S,
    )
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    return proc.returncode, report


WORKLOADS = {w.name: w for w in (SweepSmall(), ClassifyLarge(), CustomGeneric())}


def algebras(items: list[Item]) -> dict[tuple[str, int], object]:
    """The family algebras the items need, built once in set-up."""
    return {(it.family, it.n): mf.build_family(it.family, it.n) for it in items}


def timed(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out
