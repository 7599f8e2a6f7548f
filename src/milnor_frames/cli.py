"""Command-line front end.

Subcommands: reduce, curvature, derivations, solvsoliton,
signature-sweep, verify-paper.  Families are selected with
``--family {rh2+abelian, rh-line}``; metrics come from a file
(n lines of n space-separated decimals), a deterministic sampler
(``--random SEED``), or a frame parameter (``--lambda``).

Exit codes: 0 success, 1 validation error (bad flags, unreadable or
malformed input, a non-finite --lambda or --tol, a negative --samples,
dimension mismatch or out of range, failed verification), 2 numerical
failure.  ``--tol`` falls back to the MILNOR_TOL environment variable,
then to 1e-8.  JSON output is schema stable: keys are sorted and
re-emitting a parsed report reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import verify as verify_mod
from .curvature import closed_form_ricci, ricci_operator
from .derivations import derivation_basis
from .errors import DimensionError
from .frame_reduction import parse_gram, reduce
from .lie_core import build_family
from .sampling import RandomMetricSpec, SplitMix64, sample_metric
from .solvsoliton import classify_metric

_FAMILY_CHOICES = ("rh2+abelian", "rh-line")


@dataclass
class RunConfig:
    """Parsed invocation; one subcommand plus its inputs."""

    subcommand: str
    family: str | None = None
    dim: int = 0
    metric_path: str | None = None
    seed: int | None = None
    lam: float | None = None
    tol: float = 1e-8
    output: str = "text"
    samples: int = 100


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # numerical failures, so remap parse errors to 1.
    def error(self, message: str) -> None:  # pragma: no cover - trivial
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_tol() -> float:
    return float(os.environ.get("MILNOR_TOL", "1e-8"))


def _add_common(p: argparse.ArgumentParser, metric: bool = False, lam: bool = False) -> None:
    p.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    p.add_argument("--dim", required=True, type=int, metavar="N")
    p.add_argument("--tol", type=float, default=None, metavar="T")
    p.add_argument("--json", action="store_true", dest="as_json")
    if metric or lam:
        group = p.add_mutually_exclusive_group(required=True)
        if metric:
            group.add_argument("--metric", metavar="FILE")
            group.add_argument("--random", type=int, metavar="SEED")
        if lam:
            group.add_argument("--lambda", dest="lam", type=float, metavar="L")
            if not metric:
                group.add_argument("--metric", metavar="FILE")


def build_parser() -> _Parser:
    parser = _Parser(prog="milnor-frames")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    _add_common(sub.add_parser("reduce"), metric=True)
    _add_common(sub.add_parser("curvature"), lam=True)
    _add_common(sub.add_parser("derivations"))
    _add_common(sub.add_parser("solvsoliton"), metric=True)

    sweep = sub.add_parser("signature-sweep")
    _add_common(sweep)
    sweep.add_argument("--samples", type=int, default=100, metavar="K")
    sweep.add_argument("--seed", type=int, default=0, metavar="S")

    vp = sub.add_parser("verify-paper")
    vp.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        family=getattr(args, "family", None),
        dim=getattr(args, "dim", 0),
        metric_path=getattr(args, "metric", None),
        seed=getattr(args, "random", None) if args.subcommand != "signature-sweep" else getattr(args, "seed", 0),
        lam=getattr(args, "lam", None),
        tol=getattr(args, "tol", None) if getattr(args, "tol", None) is not None else _default_tol(),
        output="json" if getattr(args, "as_json", False) else "text",
        samples=getattr(args, "samples", 100),
    )


def _emit(payload: dict | list, config: RunConfig, text_lines: list[str]) -> str:
    if config.output == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(text_lines)


def _load_metric(config: RunConfig) -> np.ndarray:
    if config.metric_path is not None:
        with open(config.metric_path, "r", encoding="utf-8") as fh:
            G = parse_gram(fh.read())
        if G.shape[0] != config.dim:
            raise DimensionError(
                f"metric file is {G.shape[0]}x{G.shape[0]}, --dim is {config.dim}"
            )
        return G
    return sample_metric(RandomMetricSpec(seed=config.seed or 0), config.dim)


def _run_reduce(config: RunConfig) -> tuple[int, str]:
    alg = build_family(config.family, config.dim)
    G = _load_metric(config)
    fr = reduce(alg, G)
    res = fr.residuals
    payload = {
        "lambda": fr.lam,
        "k": fr.scale_k,
        "frame": [float(v) for v in fr.frame.ravel()],
        "residuals": {
            "orthonormality": res.orthonormality,
            "bracket_pattern": res.bracket_pattern,
            "condition_number": res.condition_number,
            "conditioning_warning": res.conditioning_warning,
        },
    }
    lines = [
        f"family   {config.family}   dim {config.dim}",
        f"lambda   {fr.lam!r}",
        f"k        {fr.scale_k!r}",
        "frame (columns are the frame vectors)",
    ]
    lines += ["  " + " ".join(f"{v: .12g}" for v in row) for row in fr.frame]
    lines.append(
        f"residuals   orthonormality={res.orthonormality:.3e} "
        f"bracket_pattern={res.bracket_pattern:.3e} cond={res.condition_number:.3e}"
    )
    if res.conditioning_warning:
        lines.append("warning: condition number above 1e12, results may be inaccurate")
    return 0, _emit(payload, config, lines)


def _report_payload(report, extra: dict | None = None) -> dict:
    payload = {
        "ric": [float(v) for v in report.ric.ravel()],
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "signature": list(report.signature),
        "scalar_curvature": report.scalar_curvature,
    }
    if extra:
        payload.update(extra)
    return payload


def _run_curvature(config: RunConfig) -> tuple[int, str]:
    if config.lam is not None:
        if config.lam < 0:
            raise ValueError("--lambda must be nonnegative")
        report = closed_form_ricci(config.family, config.dim, config.lam)
        extra = {"lambda": config.lam}
    else:
        alg = build_family(config.family, config.dim)
        report = ricci_operator(alg, _load_metric(config))
        extra = {}
    payload = _report_payload(report, extra)
    lines = [f"family   {config.family}   dim {config.dim}"]
    if config.lam is not None:
        lines.append(f"lambda   {config.lam!r}")
    lines.append("ricci operator (orthonormal frame)")
    lines += ["  " + " ".join(f"{v: .12g}" for v in row) for row in report.ric]
    lines.append("eigenvalues  " + " ".join(f"{v:.12g}" for v in report.eigenvalues))
    m_neg, m_zero, m_pos = report.signature
    lines.append(f"signature (-,0,+) = ({m_neg}, {m_zero}, {m_pos})")
    lines.append(f"scalar curvature  {report.scalar_curvature!r}")
    return 0, _emit(payload, config, lines)


def _run_derivations(config: RunConfig) -> tuple[int, str]:
    alg = build_family(config.family, config.dim)
    basis = derivation_basis(alg)
    payload = {
        "dim": basis.dim,
        "n": basis.n,
        "basis": [[float(v) for v in mat.ravel()] for mat in basis.mats],
    }
    lines = [f"dim {basis.dim}"]
    for mat in basis.mats:
        lines.append("")
        lines += [" ".join(f"{v: .12g}" for v in row) for row in mat]
    return 0, _emit(payload, config, lines)


def _run_solvsoliton(config: RunConfig) -> tuple[int, str]:
    alg = build_family(config.family, config.dim)
    verdict, lam = classify_metric(alg, _load_metric(config), tol=config.tol)
    payload = {
        "lambda": lam,
        "is_solvsoliton": verdict.is_solvsoliton,
        "c": verdict.c,
        "derivation_coeffs": [float(v) for v in verdict.derivation_coeffs],
        "residual": verdict.residual,
        "is_einstein": verdict.is_einstein,
        "einstein_residual": verdict.einstein_residual,
    }
    lines = [
        f"family   {config.family}   dim {config.dim}",
        f"lambda   {lam!r}",
        f"solvsoliton   {verdict.is_solvsoliton}   (residual {verdict.residual:.3e})",
        f"c        {verdict.c!r}",
        f"einstein {verdict.is_einstein}   (residual {verdict.einstein_residual:.3e})",
    ]
    return 0, _emit(payload, config, lines)


def _run_signature_sweep(config: RunConfig) -> tuple[int, str]:
    if config.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {config.samples}")
    alg = build_family(config.family, config.dim)
    stream = SplitMix64(config.seed or 0)
    counts: dict[tuple[int, int, int], int] = {}
    for _ in range(config.samples):
        G = sample_metric(RandomMetricSpec(seed=stream.next_uint64()), config.dim)
        sig = ricci_operator(alg, G).signature
        counts[sig] = counts.get(sig, 0) + 1
    ordered = sorted(counts.items())
    payload = {
        "family": config.family,
        "dim": config.dim,
        "samples": config.samples,
        "seed": config.seed or 0,
        "histogram": [{"signature": list(sig), "count": cnt} for sig, cnt in ordered],
    }
    lines = [f"family {config.family}  dim {config.dim}  samples {config.samples}"]
    lines += [f"(-,0,+) = {sig}: {cnt}" for sig, cnt in ordered]
    return 0, _emit(payload, config, lines)


def _run_verify(config: RunConfig) -> tuple[int, str]:
    results = verify_mod.run_all()
    payload = [
        {"name": r.name, "passed": r.passed, "detail": r.detail, "elapsed": round(r.elapsed, 3)}
        for r in results
    ]
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results
    ]
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return (0 if n_fail == 0 else 1), _emit(payload, config, lines)


_DISPATCH = {
    "reduce": _run_reduce,
    "curvature": _run_curvature,
    "derivations": _run_derivations,
    "solvsoliton": _run_solvsoliton,
    "signature-sweep": _run_signature_sweep,
    "verify-paper": _run_verify,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Dispatch a parsed configuration; returns (exit code, report text)."""
    if not 0.0 < config.tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {config.tol}")
    return _DISPATCH[config.subcommand](config)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        code, text = run(config)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
