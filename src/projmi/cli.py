"""Command-line front end: build states, run estimators, and emit
machine-readable run records.

Exit codes: 0 on success, 2 on usage/parse errors, 3 on numeric failures.
Output goes to stdout as JSON (default) or CSV; identical flags
(including --seed) reproduce every field except runtime_ms.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    BadParameter,
    BaseMismatch,
    DimensionMismatch,
    EigenDecompositionFailure,
    InvalidFrame,
    MarginalZeroAnomaly,
    NonFiniteSample,
    ProjmiError,
    QuadratureNotConverged,
    ReconstructionOutOfTolerance,
    UnknownFamily,
    ValidationError,
    ZeroVector,
)
from .infomeasures import (
    classical_like_mi_gaussian,
    classical_like_mi_projective,
    differential_entropy_mu,
    entropy_decomposition_mi,
    maxent_mi_closed_form,
    mi_report,
    pure_state_entropy_gaussian,
)
from .io import load_mixture, load_state
from .montecarlo import MCEstimate, SamplerConfig
from .native import keep_freed_memory, single_blas_thread
from .states import (
    BipartiteDims,
    DensityMatrix,
    make_state,
    parse_state_spec,
    vn_mutual_information,
    von_neumann_entropy,
)
from .structure import assemble

_NUMERIC_ERRORS = (
    NonFiniteSample,
    EigenDecompositionFailure,
    ReconstructionOutOfTolerance,
    MarginalZeroAnomaly,
    QuadratureNotConverged,
)

_USAGE_ERRORS = (
    UnknownFamily,
    BadParameter,
    DimensionMismatch,
    ValidationError,
    ZeroVector,
    InvalidFrame,
    BaseMismatch,
)


def _parse_samples(text: str) -> int:
    try:
        value = float(text)
    except ValueError as exc:
        raise BadParameter(f"--samples must be a number, got {text!r}") from exc
    if not math.isfinite(value) or value != int(value) or value < 2:
        raise BadParameter(f"--samples must be an integer >= 2, got {text!r}")
    return int(value)


def _parse_dims(text: str) -> BipartiteDims:
    parts = text.replace("x", ",").split(",")
    if len(parts) != 2:
        raise BadParameter(f"--dims expects NA,NB, got {text!r}")
    try:
        a, b = (int(p) for p in parts)
    except ValueError as exc:
        raise BadParameter(f"--dims expects integers, got {text!r}") from exc
    return BipartiteDims(a, b)


def resolve_state(spec: str, seed: int, tol: float):
    """Build (DensityMatrix, BipartiteDims | None) from a --state spec.

    Beyond the make_state families this accepts ``file:path.json`` and
    ``mixture:path.json``.
    """
    text = spec.strip()
    if text.startswith("file:"):
        return load_state(text[len("file:"):], tol=tol)
    if text.startswith("mixture:"):
        mixture = load_mixture(text[len("mixture:"):], tol=tol)
        return assemble(mixture), mixture.dims
    sigma = make_state(text, seed)
    return sigma, _spec_dims(text)


def _spec_dims(spec: str):
    family, params = parse_state_spec(spec)
    if family == "maxent" and isinstance(params.get("d"), int):
        return BipartiteDims(params["d"], params["d"])
    if family == "separable_mixture":
        if isinstance(params.get("na"), int) and isinstance(params.get("nb"), int):
            return BipartiteDims(params["na"], params["nb"])
    if family == "product":
        if isinstance(params.get("a.n"), int) and isinstance(params.get("b.n"), int):
            return BipartiteDims(params["a.n"], params["b.n"])
    return None


def _require_dims(args, inferred) -> BipartiteDims:
    if args.dims is not None:
        return _parse_dims(args.dims)
    if inferred is None:
        raise BadParameter(
            "cannot infer subsystem dimensions from the state spec; pass --dims NA,NB"
        )
    return inferred


def _pure_vector(sigma: DensityMatrix) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma.matrix)
    if abs(vals[-1] - 1.0) > 1e-9:
        raise BadParameter(
            f"method gaussian-overlap needs a pure state; top eigenvalue is {vals[-1]!r}"
        )
    return vecs[:, -1]


# Estimators by method name. Each entry looks its estimator up when called,
# so a patched module global (as in tests) takes effect.
_ENTROPY_METHODS = {
    "canonical-mu": lambda sigma, cfg: differential_entropy_mu(sigma, cfg),
    "gaussian-overlap": lambda sigma, cfg: pure_state_entropy_gaussian(_pure_vector(sigma), cfg),
    "von-neumann": lambda sigma, cfg: von_neumann_entropy(sigma),
}

_MI_METHODS = {
    "projective": lambda sigma, dims, cfg: classical_like_mi_projective(sigma, dims, cfg),
    "gaussian-overlap": lambda sigma, dims, cfg: classical_like_mi_gaussian(sigma, dims, cfg),
    "von-neumann": lambda sigma, dims, cfg: vn_mutual_information(sigma, dims),
    "decomposition": lambda sigma, dims, cfg: entropy_decomposition_mi(sigma, dims, cfg),
}

_SWEEP_METHODS = {
    **_MI_METHODS,
    "closed-form": lambda sigma, dims, cfg: maxent_mi_closed_form(dims.dim_a),
}

# State spec of each sweep family at dimension d per factor.
_SWEEP_FAMILIES = {"maxent": "maxent:d={d}", "product": "product:a.n={d},b.n={d}"}


def _result(value) -> dict:
    """estimate, std_error and n_samples of a Monte Carlo estimate or an exact value."""
    if isinstance(value, MCEstimate):
        return {"estimate": value.mean, "std_error": value.std_error, "n_samples": value.n_samples}
    return {"estimate": float(value), "std_error": 0.0, "n_samples": 0}


def _records(args, results: dict, runtime_ms: int) -> list[dict]:
    """One entropy/mi record per (method, value) of ``results``."""
    return [
        {
            "command": args.subcommand,
            "state_spec": args.state,
            "method": method,
            **_result(value),
            "seed": args.seed,
            "runtime_ms": runtime_ms,
            "version": __version__,
        }
        for method, value in results.items()
    ]


def _emit(out: str, payload, rows: list[dict]):
    """Print ``payload`` as JSON, or ``rows`` as CSV under a header of their keys."""
    if out == "json":
        print(json.dumps(payload))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows(row.values() for row in rows)


def _elapsed_ms(start: float) -> int:
    return int((time.perf_counter() - start) * 1000)


def cmd_entropy(args) -> int:
    start = time.perf_counter()
    sigma, _ = resolve_state(args.state, args.seed, args.tol)
    cfg = SamplerConfig(args.seed, args.samples, args.batch)
    value = _ENTROPY_METHODS[args.method](sigma, cfg)
    (record,) = _records(args, {args.method: value}, _elapsed_ms(start))
    _emit(args.out, record, [record])
    return 0


def cmd_mi(args) -> int:
    start = time.perf_counter()
    sigma, inferred = resolve_state(args.state, args.seed, args.tol)
    dims = _require_dims(args, inferred)
    if sigma.dim != dims.joint:
        raise DimensionMismatch(
            f"state dimension {sigma.dim} != dim_a*dim_b = {dims.joint}"
        )
    cfg = SamplerConfig(args.seed, args.samples, args.batch)
    if args.method != "all":
        value = _MI_METHODS[args.method](sigma, dims, cfg)
        (record,) = _records(args, {args.method: value}, _elapsed_ms(start))
        _emit(args.out, record, [record])
        return 0
    report = mi_report(sigma, dims, cfg)
    runtime_ms = _elapsed_ms(start)
    estimates = {"projective": report.projective, "gaussian": report.gaussian}
    payload = {
        "command": "mi",
        "state_spec": args.state,
        "method": "all",
        "dims": [dims.dim_a, dims.dim_b],
        **{
            name: {**_result(est), "seed": est.seed, "method": est.method}
            for name, est in estimates.items()
        },
        "von_neumann": report.von_neumann,
        "ratio_gaussian_over_projective": report.ratio_gaussian_over_projective,
        "n_samples": args.samples,
        "seed": args.seed,
        "runtime_ms": runtime_ms,
        "version": __version__,
    }
    rows = _records(args, {**estimates, "von-neumann": report.von_neumann}, runtime_ms)
    _emit(args.out, payload, rows)
    return 0


def _parse_d_range(text: str) -> list[int]:
    raw = text.strip()
    try:
        if ":" in raw:
            lo, _, hi = raw.partition(":")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(p) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise BadParameter(f"--d-range expects LO:HI or a comma list, got {text!r}") from exc
    if not values or any(d < 3 for d in values):
        raise BadParameter(f"every d in --d-range must be >= 3, got {text!r}")
    return values


def cmd_sweep(args) -> int:
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    unknown = [m for m in methods if m not in _SWEEP_METHODS]
    if unknown:
        raise BadParameter(
            f"unknown sweep method(s) {unknown}; choose from {sorted(_SWEEP_METHODS)}"
        )
    if not methods:
        raise BadParameter("sweep needs at least one method")
    if "closed-form" in methods and args.family != "maxent":
        raise BadParameter("method closed-form only applies to the maxent family")

    rows = []
    for d in _parse_d_range(args.d_range):
        dims = BipartiteDims(d, d)
        sigma = make_state(_SWEEP_FAMILIES[args.family].format(d=d), args.seed)
        for method in methods:
            start = time.perf_counter()
            cfg = SamplerConfig(args.seed, args.samples, args.batch)
            value = _SWEEP_METHODS[method](sigma, dims, cfg)
            rows.append(
                {
                    "family": args.family,
                    "d": d,
                    "method": method,
                    **_result(value),
                    "seed": args.seed,
                    "runtime_ms": _elapsed_ms(start),
                }
            )
    _emit(args.out, rows, rows)
    return 0


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--samples", default="1e5", help="sample count, e.g. 100000 or 1e6")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2^64)")
    parser.add_argument("--batch", type=int, default=4096, help="samples per batch")
    parser.add_argument("--out", choices=("json", "csv"), default=None)
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="validation tolerance for states loaded from files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projmi",
        description="Projective-space entropies and mutual information of quantum states.",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p_entropy = sub.add_parser("entropy", help="differential or spectral entropy of a state")
    p_entropy.add_argument("--state", required=True, help="state spec, e.g. maxent:d=3")
    p_entropy.add_argument(
        "--method",
        required=True,
        choices=tuple(_ENTROPY_METHODS),
    )
    _add_common(p_entropy)
    p_entropy.set_defaults(handler=cmd_entropy, default_out="json")

    p_mi = sub.add_parser("mi", help="mutual-information estimators for a bipartite state")
    p_mi.add_argument("--state", required=True)
    p_mi.add_argument(
        "--method",
        required=True,
        choices=(*_MI_METHODS, "all"),
    )
    p_mi.add_argument("--dims", default=None, help="subsystem dims NA,NB when not inferable")
    _add_common(p_mi)
    p_mi.set_defaults(handler=cmd_mi, default_out="json")

    p_sweep = sub.add_parser("sweep", help="estimate across a range of dimensions, CSV out")
    p_sweep.add_argument("--family", required=True, choices=tuple(_SWEEP_FAMILIES))
    p_sweep.add_argument("--d-range", required=True, help="inclusive range LO:HI or comma list")
    p_sweep.add_argument(
        "--method",
        required=True,
        help="comma list from: " + ", ".join(_SWEEP_METHODS),
    )
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep, default_out="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(file=sys.stderr)
        return 2
    keep_freed_memory()
    try:
        args.samples = _parse_samples(args.samples)
        if not args.tol >= 0.0:
            raise BadParameter(f"--tol must be a number >= 0, got {args.tol!r}")
        if not 0 <= args.seed < 2**64:
            raise BadParameter(f"--seed must be an integer in [0, 2^64), got {args.seed}")
        if args.out is None:
            args.out = args.default_out
        with single_blas_thread():
            return args.handler(args)
    except _NUMERIC_ERRORS as exc:
        print(f"projmi: numeric failure: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"projmi: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"projmi: {exc}", file=sys.stderr)
        return 2
    except ProjmiError as exc:  # pragma: no cover - catch-all for new subtypes
        print(f"projmi: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
