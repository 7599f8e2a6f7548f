"""Command-line front end.

Subcommands: reduce, curvature, derivations, solvsoliton,
signature-sweep, verify-paper.  Families are selected with
``--family {rh2+abelian, rh-line}``; metrics come from a file
(n lines of n space-separated decimals), a deterministic sampler
(``--random SEED``), or a frame parameter (``--lambda``).  A metric
file is only parsed here; the subcommand's Gram gate checks it against
``--dim`` and factors it, once.

Exit codes: 0 success, 1 validation error (bad flags, unreadable or
malformed input, a non-finite --lambda or --tol, a negative --samples,
dimension mismatch or out of range, failed verification), 2 numerical
failure.  ``--tol``, solvsoliton's residual threshold, defaults to 1e-8;
no other subcommand takes it.  JSON output is schema stable: keys are
sorted and re-emitting a parsed report reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import verify as verify_mod
from .curvature import closed_form_ricci, ricci_operator
from .derivations import family_derivation_basis
from .errors import DimensionError
from .frame_reduction import DEFAULT_TOL, parse_gram, reduce
from .lie_core import FAMILIES, _checked_family, build_family
from .sampling import RandomMetricSpec, SplitMix64, sample_metric
from .solvsoliton import classify_metric

DERIVATIONS_MAX_DIM = 24  # derivation_basis's range; the basis has ((n-2)^2 + n) n^2 numbers


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # numerical failures, so remap parse errors to 1.
    def error(self, message: str) -> None:  # pragma: no cover - trivial
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, metric: bool = False, lam: bool = False) -> None:
    p.add_argument("--family", required=True, choices=[f.value for f in FAMILIES])
    p.add_argument("--dim", required=True, type=int, metavar="N")
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
    soliton = sub.add_parser("solvsoliton")
    _add_common(soliton, metric=True)
    soliton.add_argument("--tol", type=float, default=DEFAULT_TOL, metavar="T")

    sweep = sub.add_parser("signature-sweep")
    _add_common(sweep)
    sweep.add_argument("--samples", type=int, default=100, metavar="K")
    sweep.add_argument("--seed", type=int, default=0, metavar="S")

    vp = sub.add_parser("verify-paper")
    vp.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _emit(payload: dict | list, args: argparse.Namespace, text_lines: list[str]) -> str:
    if args.as_json:
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(text_lines)


def _load_metric(args: argparse.Namespace) -> np.ndarray:
    if args.metric is not None:
        with open(args.metric, "r", encoding="utf-8") as fh:
            return parse_gram(fh.read())
    return sample_metric(RandomMetricSpec(seed=args.random), args.dim)


def _run_reduce(args: argparse.Namespace) -> tuple[int, str]:
    alg = build_family(args.family, args.dim)
    G = _load_metric(args)
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
        f"family   {args.family}   dim {args.dim}",
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
    return 0, _emit(payload, args, lines)


def _run_curvature(args: argparse.Namespace) -> tuple[int, str]:
    if args.lam is not None:
        report = closed_form_ricci(args.family, args.dim, args.lam)
    else:
        alg = build_family(args.family, args.dim)
        report = ricci_operator(alg, _load_metric(args))
    payload = {
        "ric": [float(v) for v in report.ric.ravel()],
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "signature": list(report.signature),
        "scalar_curvature": report.scalar_curvature,
    }
    lines = [f"family   {args.family}   dim {args.dim}"]
    if args.lam is not None:
        payload["lambda"] = args.lam
        lines.append(f"lambda   {args.lam!r}")
    lines.append("ricci operator (orthonormal frame)")
    lines += ["  " + " ".join(f"{v: .12g}" for v in row) for row in report.ric]
    lines.append("eigenvalues  " + " ".join(f"{v:.12g}" for v in report.eigenvalues))
    m_neg, m_zero, m_pos = report.signature
    lines.append(f"signature (-,0,+) = ({m_neg}, {m_zero}, {m_pos})")
    lines.append(f"scalar curvature  {report.scalar_curvature!r}")
    return 0, _emit(payload, args, lines)


def _run_derivations(args: argparse.Namespace) -> tuple[int, str]:
    _checked_family(args.family, args.dim)
    if args.dim > DERIVATIONS_MAX_DIM:
        raise DimensionError(f"--dim {args.dim} is over the printed basis cap, {DERIVATIONS_MAX_DIM}")
    basis = family_derivation_basis(args.dim)
    payload = {
        "dim": basis.dim,
        "n": basis.n,
        "basis": [[float(v) for v in mat.ravel()] for mat in basis.mats],
    }
    lines = [f"dim {basis.dim}"]
    for mat in basis.mats:
        lines.append("")
        lines += [" ".join(f"{v: .12g}" for v in row) for row in mat]
    return 0, _emit(payload, args, lines)


def _run_solvsoliton(args: argparse.Namespace) -> tuple[int, str]:
    alg = build_family(args.family, args.dim)
    verdict, lam = classify_metric(alg, _load_metric(args), tol=args.tol)
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
        f"family   {args.family}   dim {args.dim}",
        f"lambda   {lam!r}",
        f"solvsoliton   {verdict.is_solvsoliton}   (residual {verdict.residual:.3e})",
        f"c        {verdict.c!r}",
        f"einstein {verdict.is_einstein}   (residual {verdict.einstein_residual:.3e})",
    ]
    return 0, _emit(payload, args, lines)


def _run_signature_sweep(args: argparse.Namespace) -> tuple[int, str]:
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    alg = build_family(args.family, args.dim)
    stream = SplitMix64(args.seed)
    counts: dict[tuple[int, int, int], int] = {}
    for _ in range(args.samples):
        G = sample_metric(RandomMetricSpec(seed=stream.next_uint64()), args.dim)
        sig = ricci_operator(alg, G).signature
        counts[sig] = counts.get(sig, 0) + 1
    ordered = sorted(counts.items())
    payload = {
        "family": args.family,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "histogram": [{"signature": list(sig), "count": cnt} for sig, cnt in ordered],
    }
    lines = [f"family {args.family}  dim {args.dim}  samples {args.samples}"]
    lines += [f"(-,0,+) = {sig}: {cnt}" for sig, cnt in ordered]
    return 0, _emit(payload, args, lines)


def _run_verify(args: argparse.Namespace) -> tuple[int, str]:
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
    return (0 if n_fail == 0 else 1), _emit(payload, args, lines)


_DISPATCH = {
    "reduce": _run_reduce,
    "curvature": _run_curvature,
    "derivations": _run_derivations,
    "solvsoliton": _run_solvsoliton,
    "signature-sweep": _run_signature_sweep,
    "verify-paper": _run_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = _DISPATCH[args.subcommand](args)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left early; keep the interpreter's exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
