"""milnor-frames benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify-large --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 1

``--trace 0`` reports the end-to-end metrics of the workload, ``--trace 1``
the per-layer metrics of a separate traced run (see README.md).  Every
workload process is a fresh interpreter that imports ``milnor_frames``
from ``src/`` of the checkout, with BLAS pinned to one thread.  The last
line of standard output is one JSON object; the lines before it are the
same figures as a table.  Exit code 2 when the checkout holds no package.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-small", "classify-large", "custom-generic")
END_TO_END = ("setup_s", "items_per_s", "item_ms_p50", "item_ms_p90", "peak_rss_mb")
SETUP_SAMPLES = 6
"""Set-up-only workers timed before and again after the measured run; with
the measured run's own worker, ``setup_s`` is the median of 13 samples that
span the run rather than one moment of the host's speed."""
BLAS_THREADS = "1"
RUN_MARGIN_S = 90.0
"""Time a worker may take beyond ``--seconds``: set-up, the last item, and
in a traced run the layer scan, the import probes and one verify-paper
(whose own timeout is ``workloads.VERIFY_TIMEOUT_S`` = 60 s)."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(root: Path, workload: str, seed: int, seconds: float, mode: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it with the set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--spans", str(root / ".perfbench" / f"spans-{workload}.tsv"),
    ]
    t0 = time.perf_counter()
    # own process group, so an overrun kills the worker's children too
    proc = subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, 10.0)
        raise RuntimeError(f"{workload} worker did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Collect a worker's remaining output; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return out


def setup_times(root: Path, workload: str, seed: int, seconds: float) -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES):
        proc, dt = start_worker(root, workload, seed, seconds, "setup")
        finish(proc, 30.0)
        times.append(dt)
    return times


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = [] if trace else setup_times(root, workload, seed, seconds)
    proc, dt = start_worker(root, workload, seed, seconds, "trace" if trace else "run")
    setups.append(dt)
    out = finish(proc, seconds + RUN_MARGIN_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        setups += setup_times(root, workload, seed, seconds)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def table(workload: str, seed: int, result: dict) -> list[str]:
    env = result["environment"]
    lines = [
        f"== {workload}  seed {seed}  attempted {result['attempted']}  failed {result['failed']}",
        f"   python {env['python']}  numpy {env['numpy']}  blas {env['blas']}"
        f"  nproc {env['nproc']}  blas threads {env['blas_threads']}",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
    return lines


def report(result: dict, trace: bool) -> dict:
    """The result line: the end-to-end metrics of an untraced run, or every
    metric of a traced one."""
    metrics = result["metrics"]
    if trace:
        chosen = metrics
    else:
        chosen = {name: metrics[name] for name in END_TO_END}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": chosen,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="milnor-frames benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "milnor_frames" / "__init__.py").is_file():
        print(f"error: no src/milnor_frames package under {root}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(table(name, args.seed, res)), flush=True)
        results[name] = report(res, bool(args.trace))
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
