"""Command-line front end: build states, run estimators, and emit
machine-readable run records.

Exit codes: 0 on success, 2 on usage/parse errors, 3 on numeric failures.
Output goes to stdout as JSON (default) or CSV; identical flags
(including --seed) reproduce every field except runtime_ms.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import BadParameter, ProjmiError, UsageError
from .infomeasures import (
    differential_entropy_mu,
    maxent_mi_closed_form,
    mi_estimates,
    mi_report,
    pure_state_entropy_gaussian,
)
from .io import load_mixture, load_state
from .montecarlo import MCEstimate, SamplerConfig
from .native import keep_freed_memory, single_blas_thread
from .states import (
    SQUARE_SPECS,
    VALIDATION_TOL,
    BipartiteDims,
    DensityMatrix,
    assemble,
    build_state,
    require_dim,
    require_finite,
    require_int,
    require_seed,
    spectral,
    vn_mutual_information,
    von_neumann_entropy,
)


def _parse_samples(text: str) -> int:
    try:
        value = float(text)
    except ValueError as exc:
        raise BadParameter(f"--samples must be a number, got {text!r}") from exc
    return require_int(int(value) if value.is_integer() else value, "--samples", 2)


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
    """Build (DensityMatrix, (dim_a, dim_b) | None) from a --state spec.

    Beyond the make_state families this accepts ``file:path.json`` and
    ``mixture:path.json``.
    """
    text = spec.strip()
    if text.startswith("file:"):
        return load_state(text[len("file:"):], tol=tol)
    if text.startswith("mixture:"):
        mixture = load_mixture(text[len("mixture:"):], tol=tol)
        return assemble(mixture), tuple(factor.dim for factor in mixture.components[0])
    return build_state(text, seed)


def _require_dims(args, split) -> BipartiteDims:
    if args.dims is not None:
        return _parse_dims(args.dims)
    if split is None:
        raise BadParameter(
            "cannot infer subsystem dimensions from the state spec; pass --dims NA,NB"
        )
    return BipartiteDims(*split)


def _pure_vector(sigma: DensityMatrix) -> np.ndarray:
    vals, vecs = spectral(np.linalg.eigh, sigma.matrix)
    if abs(vals[-1] - 1.0) > 1e-9:
        raise BadParameter(
            f"method gaussian-overlap needs a pure state; top eigenvalue is {vals[-1]!r}"
        )
    return vecs[:, -1]


# Estimators by method name. A string names the column of
# infomeasures.mi_estimates that serves the method, so the Monte Carlo MI
# methods of one call share one engine run (see _evaluate). Other entries look
# their estimator up when called, so a patched module global takes effect.
_ENTROPY_METHODS = {
    "canonical-mu": lambda sigma, _, cfg: differential_entropy_mu(sigma, cfg),
    "gaussian-overlap": lambda sigma, _, cfg: pure_state_entropy_gaussian(_pure_vector(sigma), cfg),
    "von-neumann": lambda sigma, _, cfg: von_neumann_entropy(sigma),
}

_MI_METHODS = {
    "projective": "projective",
    "gaussian-overlap": "gaussian",
    "von-neumann": lambda sigma, dims, cfg: vn_mutual_information(sigma, dims),
    "decomposition": "decomposition",
}

_SWEEP_METHODS = {
    **_MI_METHODS,
    "closed-form": lambda sigma, dims, cfg: maxent_mi_closed_form(dims.dim_a),
}


def _evaluate(table: dict, methods: list, sigma, dims, cfg) -> list[tuple]:
    """(value, runtime_ms) of each of ``methods`` of ``table``. Its mi_estimates
    columns come from one engine run and report that run's runtime_ms."""
    columns = tuple(dict.fromkeys(table[m] for m in methods if isinstance(table[m], str)))
    start, done = time.perf_counter(), {}
    if columns:
        estimates, ms = mi_estimates(sigma, dims, cfg, columns), _elapsed_ms(start)
        done = {column: (est, ms) for column, est in zip(columns, estimates)}
    for entry in (table[m] for m in methods if not isinstance(table[m], str)):
        start = time.perf_counter()
        done[entry] = (entry(sigma, dims, cfg), _elapsed_ms(start))
    return [done[table[m]] for m in methods]


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


def _emit_method(args, table: dict, sigma, dims, start: float) -> int:
    """Emit the one record of ``args.method`` of ``table``, timed from ``start``."""
    cfg = SamplerConfig(args.seed, args.samples)
    ((value, _),) = _evaluate(table, [args.method], sigma, dims, cfg)
    (record,) = _records(args, {args.method: value}, _elapsed_ms(start))
    _emit(args.out, record, [record])
    return 0


def cmd_entropy(args) -> int:
    start = time.perf_counter()
    sigma, _ = resolve_state(args.state, args.seed, args.tol)
    return _emit_method(args, _ENTROPY_METHODS, sigma, None, start)


def cmd_mi(args) -> int:
    start = time.perf_counter()
    sigma, split = resolve_state(args.state, args.seed, args.tol)
    dims = _require_dims(args, split)
    if args.method != "all":
        return _emit_method(args, _MI_METHODS, sigma, dims, start)
    report = mi_report(sigma, dims, SamplerConfig(args.seed, args.samples))
    runtime_ms = _elapsed_ms(start)
    estimates = {"projective": report.projective, "gaussian": report.gaussian}
    payload = {
        "command": "mi",
        "state_spec": args.state,
        "method": "all",
        "dims": list(dims),
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
    if not values:
        raise BadParameter(f"--d-range {text!r} is empty")
    return [require_dim(d, "every d in --d-range") for d in values]


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
        sigma, split = build_state(SQUARE_SPECS[args.family].format(d=d), args.seed)
        dims = BipartiteDims(*split)
        cfg = SamplerConfig(args.seed, args.samples)
        values = _evaluate(_SWEEP_METHODS, methods, sigma, dims, cfg)
        for method, (value, runtime_ms) in zip(methods, values):
            rows.append({"family": args.family, "d": d, "method": method, **_result(value),
                         "seed": args.seed, "runtime_ms": runtime_ms})
    _emit(args.out, rows, rows)
    return 0


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--samples", default="1e5", help="sample count, e.g. 100000 or 1e6")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2^64)")
    parser.add_argument("--out", choices=("json", "csv"), default=None)
    parser.add_argument("--tol", type=float, default=VALIDATION_TOL,
                        help="validation tolerance for states loaded from files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projmi",
        description="Projective-space entropies and mutual information of quantum states.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

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
    p_sweep.add_argument("--family", required=True, choices=tuple(SQUARE_SPECS))
    p_sweep.add_argument("--d-range", required=True, help="inclusive range LO:HI or comma list")
    p_sweep.add_argument(
        "--method",
        required=True,
        help="comma list from: " + ", ".join(_SWEEP_METHODS),
    )
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep, default_out="csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it takes 0.7-1.2 ms, and
    parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a malformed flag, 0 after --help
        return exc.code
    keep_freed_memory()
    try:
        args.samples = _parse_samples(args.samples)
        args.tol = require_finite(args.tol, "--tol", 0)
        require_seed(args.seed, "--seed")
        if args.out is None:
            args.out = args.default_out
        with single_blas_thread():
            return args.handler(args)
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        print(f"projmi: {exc}", file=sys.stderr)
        return 2
    except ProjmiError as exc:
        print(f"projmi: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
