"""Tests of the benchmark's own code: span arithmetic, wrapper restoration,
and the oracles' rejection of wrong answers.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import milnor_frames as mf  # noqa: E402
import milnor_frames.curvature  # noqa: E402
import milnor_frames.verify  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span  # noqa: E402


# --- self-time arithmetic ------------------------------------------------------


def synthetic_tree() -> list[Span]:
    # item [0, 10] -> reduce [1, 7] -> change_basis [2, 5]
    #                                -> validate_gram [5.5, 6]
    #              -> ricci_operator [8, 9.5]
    # item [20, 24] -> reduce [20.5, 23]
    return [
        Span("item", 0.0, 10.0, -1, 0),
        Span("reduce", 1.0, 7.0, 0, 0),
        Span("change_basis", 2.0, 5.0, 1, 0),
        Span("validate_gram", 5.5, 6.0, 1, 0),
        Span("ricci_operator", 8.0, 9.5, 0, 0),
        Span("item", 20.0, 24.0, -1, 1),
        Span("reduce", 20.5, 23.0, 5, 1),
    ]


def test_self_time_subtracts_direct_children_only():
    own = tracing.self_times(synthetic_tree())
    assert own == pytest.approx([10 - 6 - 1.5, 6 - 3 - 0.5, 3.0, 0.5, 1.5, 4 - 2.5, 2.5])


def test_aggregate_accounts_for_the_traced_wall_time():
    stats, wall, items = tracing.aggregate(synthetic_tree())
    assert items == 2
    assert wall == pytest.approx(14.0)
    assert stats["reduce"].calls == 2
    assert stats["reduce"].self_total == pytest.approx(2.5 + 2.5)
    assert stats["item"].self_total == pytest.approx(2.5 + 1.5)
    assert sum(s.self_total for s in stats.values()) == pytest.approx(wall)


def test_tracer_records_nested_calls_inside_items_only():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4  # outside an item: no spans
    assert tracer.spans == []
    with tracer.item(7):
        assert outer(1) == 4
    names = [(s.name, s.parent, s.item) for s in tracer.spans]
    assert names == [("item", -1, 7), ("outer", 0, 7), ("inner", 1, 7)]


# --- wrappers ------------------------------------------------------------------


def rebindable():
    """(module, attribute, function) for every listed function the package
    binds anywhere."""
    funcs = tracing.originals()
    ids = {id(f) for f in funcs.values()}
    return [
        (m, a, v)
        for m in tracing._package_modules()
        for a, v in vars(m).items()
        if id(v) in ids
    ]


def test_wrappers_installed_then_restored():
    before = rebindable()
    assert len(before) > len(tracing.FUNCTIONS)  # re-exports and cross-module imports
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert mf.curvature.change_basis.__wrapped__ is before_lookup(before, "curvature", "change_basis")
        assert mf.verify.ricci_operator.__wrapped__ is before_lookup(before, "verify", "ricci_operator")
        with tracer.item(0):
            mf.ricci_operator(mf.build_family("rh-line", 3), np.eye(3))
    assert {s.name for s in tracer.spans} >= {"ricci_operator", "change_basis", "riemann", "jacobi_eigh"}
    for mod, attr, fn in before:
        assert getattr(mod, attr) is fn


def before_lookup(before, module: str, attr: str):
    return next(v for m, a, v in before if m.__name__ == f"milnor_frames.{module}" and a == attr)


def test_wrappers_restored_when_the_run_raises():
    before = rebindable()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    for mod, attr, fn in before:
        assert getattr(mod, attr) is fn


# --- oracles reject wrong answers ------------------------------------------------


def test_sweep_oracle():
    ok, errors = wl.check_sweep("rh2+abelian", 4, (2, 1, 1), 0.3, 1e-12, 1e-13)
    assert errors == [] and ok == pytest.approx(1e-4)
    assert wl.check_sweep("rh2+abelian", 4, (1, 2, 1), 0.3, 0, 0)[1]  # outside the pair
    assert wl.check_sweep("rh-line", 4, (3, 1, 0), 0.3, 0, 0)[1]  # degenerate member at λ > 0
    assert wl.check_sweep("rh-line", 4, (3, 0, 1), 0.0, 0, 0)[1]  # generic member at λ = 0
    assert wl.check_sweep("rh-line", 4, (3, 0, 1), -0.1, 0, 0)[1]  # negative λ
    assert wl.check_sweep("rh-line", 4, (3, 0, 1), 0.3, 2e-8, 0)[1]  # residual over tol


def test_classify_oracle():
    assert wl.check_classify(0.4, False, (3, 0, 1), (3, 0, 1), 1e-12)[1] == []
    assert wl.check_classify(0.4, True, (3, 0, 1), (3, 0, 1), 0)[1]  # soliton at λ > 0
    assert wl.check_classify(0.0, False, (3, 1, 0), (3, 1, 0), 0)[1]  # no soliton at λ = 0
    assert wl.check_classify(0.4, False, (3, 1, 0), (3, 0, 1), 0)[1]  # signatures disagree
    assert wl.check_classify(0.4, False, (3, 0, 1), (3, 0, 1), 5e-8)[1]  # spectra disagree


def test_custom_oracle():
    assert wl.check_custom(5, 14, [1e-14] * 14, 1e-12)[1] == []
    assert wl.check_custom(5, 13, [1e-14] * 13, 1e-12)[1]  # wrong dim Der
    assert wl.check_custom(5, 14, [1e-14] * 13 + [1e-6], 1e-12)[1]  # not a derivation
    assert wl.check_custom(5, 14, [1e-14] * 12, 1e-12)[1]  # an element left unchecked
    assert wl.check_custom(5, 14, [1e-14] * 14, 1.9e-7)[1]  # spectrum moved


def verify_report(failing=("block-characteristic-polynomial",)):
    return [
        {"name": "reduction-soundness", "passed": "reduction-soundness" not in failing,
         "detail": "worst orthonormality 2.75e-11, bracket 3.15e-14, λ invariance 6.26e-12 "
                   "(tol 1e-08), λ >= 0: True, 4.83s (< 30s)", "elapsed": 4.8},
        {"name": "block-characteristic-polynomial", "passed": "block-characteristic-polynomial" not in failing,
         "detail": "max |p(μ)| = 6.300e+01 at n=3, λ=3.0 (tol 1e-08)", "elapsed": 0.004},
    ]


def test_verify_oracle():
    tol_used, errors = wl.check_verify(1, verify_report())
    assert errors == [] and np.isnan(tol_used)
    assert wl.check_verify(0, verify_report())[1]  # wrong exit code
    assert wl.check_verify(1, verify_report(("block-characteristic-polynomial", "reduction-soundness")))[1]
    assert wl.check_verify(1, verify_report(()))[1]  # the by-design failure went missing
    assert wl.check_verify(1, None)[1]  # output was not JSON


def test_spectrum_deviation_is_relative_to_the_radius():
    assert wl.spectrum_deviation([-2.0, 0.0, 1.0 + 1e-6], [1.0, -2.0, 0.0]) == pytest.approx(5e-7)


def test_workload_items_depend_only_on_the_seed():
    for workload in (wl.SweepSmall(), wl.ClassifyLarge(), wl.CustomGeneric()):
        a, b, c = workload.items(3), workload.items(3), workload.items(4)
        assert [(i.family, i.n, i.seed) for i in a] == [(i.family, i.n, i.seed) for i in b]
        assert all(i.basis is None or np.array_equal(i.basis, j.basis) for i, j in zip(a, b))
        assert a[0].n == min(workload.dims)
        assert any(
            i.seed != j.seed or (i.basis is not None and not np.array_equal(i.basis, j.basis))
            for i, j in zip(a, c)
        )


def test_custom_generic_pushed_grams_stay_within_the_cap():
    # seed 14 draws pairs above the cap, the first at rh2+abelian n=5 (3.4e7)
    for item in wl.CustomGeneric().items(14):
        P, G = item.basis, item.gram
        assert np.linalg.cond(P.T @ G @ P) <= wl.PUSHED_COND_CAP
