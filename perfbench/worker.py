"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` in a fresh interpreter with PYTHONPATH pointing at
the checkout's ``src`` and BLAS pinned to one thread.  It prints
``READY`` once set-up is done (the import, the family algebras, the
seeded item list and one warm-up item), then, unless ``--mode setup``,
one JSON line with its result.

``--mode run`` loops over the item list, timing each item and checking
it with the workload's oracle, until ``--seconds`` have passed.
``--mode trace`` wraps the package's public functions (see
``tracing.py``) and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import milnor_frames as mf

import tracing
import workloads as wl

MAX_ERRORS_SHOWN = 5
TRACE_SHARE = 0.4
"""Share of ``--seconds`` the traced run spends on the workload's own items;
the layer scan, one verify-paper run and the import probes take the rest."""

SCAN_FUNCTIONS = ("change_basis", "ricci_operator", "jacobi_eigh", "reduce", "derivation_basis", "classify_metric")
SCAN_DIMS = (4, 8, 16, 24)
SCAN_OMITTED = frozenset({("derivation_basis", 24), ("classify_metric", 24)})
"""≈4 s and ≈790 MB peak RSS per call at n=24: left out, as in the ROADMAP table."""
SCAN_CELL_S = 0.1
SCAN_MAX_REPS = 25

VERIFY_CHECKS = (
    "ricci-closed-form-equivalence",
    "connection-curvature-tables",
    "reduction-soundness",
    "ricci-signature-dichotomy",
    "block-characteristic-polynomial",
    "solvsoliton-classification",
    "einstein-nonexistence",
    "derivation-dimension-pattern",
)
IMPORT_PROBES = 3


class Tally:
    """Attempted and failed operations, the worst tolerance share, and the
    first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.tol_used_max = 0.0
        self.errors: list[str] = []

    def record(self, label: str, tol_used: float, errors: list[str]) -> None:
        self.attempted += 1
        if not math.isnan(tol_used):
            self.tol_used_max = max(self.tol_used_max, tol_used)
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"{label}: {'; '.join(errors)}")


def run_item(workload, item: wl.Item, alg, index: int, tally: Tally, tracer=None) -> float:
    """Time one item, check it, and return its duration (the oracle is not timed)."""
    label = f"item {index} ({item.family} n={item.n})"
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(item, alg)
        else:
            with tracer.item(index):
                out = workload.run(item, alg)
    except Exception as exc:  # a raising item is a failed operation, not a crash
        dt = time.perf_counter() - t0
        tally.record(label, math.nan, [f"raised {type(exc).__name__}: {exc}"])
        return dt
    dt = time.perf_counter() - t0
    tally.record(label, *workload.check(item, alg, out))
    return dt


def setup(name: str, seed: int):
    workload = wl.WORKLOADS[name]
    items = workload.items(seed)
    algs = wl.algebras(items)
    # item 0 is always the smallest dimension of the first family
    run_item(workload, items[0], algs[items[0].family, items[0].n], 0, Tally())
    return workload, items, algs


def measure(workload, items, algs, seconds: float) -> tuple[dict, Tally]:
    """Passes over the item list until ``seconds`` of wall time are used;
    the last pass may stop part-way."""
    tally = Tally()
    latencies: list[float] = []
    pass_rates: list[float] = []
    t_start = time.perf_counter()
    done = False
    while not done:
        pass_time = 0.0
        for i, item in enumerate(items):
            if time.perf_counter() - t_start >= seconds:
                done = True
                break
            dt = run_item(workload, item, algs[item.family, item.n], i, tally)
            latencies.append(dt)
            pass_time += dt
        else:
            pass_rates.append(len(items) / pass_time)
    ms = np.array(latencies) * 1e3
    rate = statistics.median(pass_rates) if pass_rates else len(ms) / (ms.sum() / 1e3)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "items_per_s": (rate, "1/s"),
        "item_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "item_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "samples": (len(ms), "count"),
        "complete_passes": (len(pass_rates), "count"),
        "tol_used_max": (tally.tol_used_max, "ratio"),
    }
    return metrics, tally


# --- traced run ------------------------------------------------------------


def trace_items(workload, items, algs, budget: float, tracer) -> tuple[float, float, Tally]:
    """Alternate untraced and traced passes over the items; returns the
    median item time of an untraced and of a traced pass."""
    tally = Tally()
    untraced, traced_t = [], []
    t_start = time.perf_counter()
    # stop before a pair as long as the average one so far would overrun the budget
    while not untraced or (elapsed := time.perf_counter() - t_start) + elapsed / len(untraced) < budget:
        untraced.append(sum(run_item(workload, it, algs[it.family, it.n], i, Tally()) for i, it in enumerate(items)))
        n0 = len(tracer.spans)
        with tracing.traced(tracer):
            for i, it in enumerate(items):
                run_item(workload, it, algs[it.family, it.n], i, tally, tracer)
        traced_t.append(sum(s.end - s.start for s in tracer.spans[n0:] if s.parent < 0))
    return statistics.median(untraced), statistics.median(traced_t), tally


def median_call_ms(fn, *args) -> float:
    times = []
    while len(times) < SCAN_MAX_REPS and (not times or sum(times) < SCAN_CELL_S):
        dt, _ = wl.timed(fn, *args)
        times.append(dt)
    return statistics.median(times) * 1e3


def layer_scan(seed: int) -> dict:
    """Per-call ms of the scanned functions at each n, untraced.  A function
    a later change removes reads as 0."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in SCAN_DIMS:
        alg = mf.build_family("rh-line", n)
        A = rng.uniform(-1.0, 1.0, size=(n, n))
        G = A.T @ A + n * np.eye(n)
        frame = np.linalg.inv(np.linalg.cholesky(G)).T
        args = {
            "change_basis": (alg, frame),
            "ricci_operator": (alg, G),
            "jacobi_eigh": (G,),
            "reduce": (alg, G),
            "derivation_basis": (alg,),
            "classify_metric": (alg, G),
        }
        for name in SCAN_FUNCTIONS:
            if (name, n) in SCAN_OMITTED:
                continue
            fn = getattr(mf, name, None)
            out[f"{name}.ms.n{n}"] = (median_call_ms(fn, *args[name]) if fn else 0.0, "ms")
    return out


def verify_and_import(tally: Tally) -> dict:
    """verify-paper's per-check ``elapsed`` from one --json run, checked by
    its oracle, and the median time a fresh interpreter takes to import the
    CLI (which pulls in ``verify`` and the package)."""
    exit_code, report = wl.run_verify_paper()
    tally.record("verify-paper --json", *wl.check_verify(exit_code, report))
    report = report if isinstance(report, list) else []
    elapsed = {r.get("name"): float(r.get("elapsed", 0.0)) for r in report if isinstance(r, dict)}
    out = {f"verify.{name}.s": (elapsed.get(name, 0.0), "s") for name in VERIFY_CHECKS}
    probes = []
    for _ in range(IMPORT_PROBES):
        dt, proc = wl.timed(subprocess.run, [sys.executable, "-c", "import milnor_frames.cli"])
        proc.check_returncode()
        probes.append(dt)
    out["cli.import_s"] = (statistics.median(probes), "s")
    return out


def trace(workload, items, algs, seed: int, seconds: float, spans_path: Path) -> tuple[dict, Tally]:
    tracer = tracing.Tracer()
    untraced_wall, traced_wall, tally = trace_items(workload, items, algs, TRACE_SHARE * seconds, tracer)
    stats, wall, n_items = tracing.aggregate(tracer.spans)
    metrics = {}
    for name in tracing.FUNCTIONS:
        st = stats.get(name, tracing.LayerStats())
        metrics[f"{name}.calls"] = (st.calls / n_items, "count")
        metrics[f"{name}.self_share"] = (st.self_total / wall, "ratio")
        p50 = statistics.median(st.self_times) * 1e6 if st.self_times else 0.0
        metrics[f"{name}.self_us_p50"] = (p50, "us")
    metrics["trace.remainder_share"] = (stats[tracing.ITEM].self_total / wall, "ratio")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["tol_used_max"] = (tally.tol_used_max, "ratio")
    metrics.update(layer_scan(seed))
    metrics.update(verify_and_import(tally))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(tracer.spans, spans_path)
    return metrics, tally


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--spans", type=Path, help="where --mode trace writes its spans")
    args = ap.parse_args()

    workload, items, algs = setup(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        metrics, tally = measure(workload, items, algs, args.seconds)
    else:
        metrics, tally = trace(workload, items, algs, args.seed, args.seconds, args.spans)
    for msg in tally.errors:
        print(f"{args.workload}: failed {msg}", file=sys.stderr)
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_build(),
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def blas_build() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
