#!/usr/bin/env python3
"""Benchmark of the projmi command line, driven in-process through
``projmi.cli.main`` by one closed-loop caller.

    python3 perfbench/run.py --workload mi_all.maxent3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; projmi is imported from its ``src``. The
workload is run once to warm up, then repeated until ``--seconds`` have
passed, and every record is checked (workloads.py). With ``--trace 0`` the
last line reports the end-to-end metrics; with ``--trace 1`` half the time
runs untraced and half traced (tracing.py), and it reports per-layer metrics.
The line before it is a JSON report: host facts, the estimates and their
fingerprint, and every metric computed. The exit code is 2 if projmi cannot
be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SETUP_RUNS = 9
MIN_ITERATIONS = 3

sys.path.insert(0, str(HERE))
from tracing import Tracer, attribute, layer_counts  # noqa: E402
from workloads import WORKLOADS, estimates  # noqa: E402


def import_cli():
    """projmi.cli.main from this checkout's src, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import projmi
        from projmi.cli import main
    except ImportError as exc:
        fail(f"cannot import projmi from {SRC}: {exc}", code=2)
    if SRC.resolve() not in Path(projmi.__file__).resolve().parents:
        fail(f"projmi was imported from {projmi.__file__}, not {SRC}", code=2)
    return main


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_call(main, argv, stream):
    """(seconds, exit code or None if it raised, stdout) of one CLI call."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stream):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash counts as a failed call; the run goes on
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code, stream.getvalue()


class Runs:
    """Timings and outcomes of the iterations of one phase."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference  # estimates of the first iteration, per call
        self.outputs = self.checks = None
        self.windows, self.call_s, self.primary_s = [], [], []
        self.attempted = self.failed = 0
        self.samples = 0
        self.floor_hits = []

    def iterate(self, main, new_stream):
        wl = self.workload
        results = [None] * len(wl.calls)
        start = time.perf_counter()
        for i in wl.order:
            results[i] = run_call(main, wl.calls[i], new_stream())
        self.windows.append((start, time.perf_counter()))
        self.call_s.append([r[0] for r in results])
        self.primary_s.append(results[wl.primary][0])
        self.attempted += len(results)
        self.failed += len(self.failed_calls(results))

    def failed_calls(self, results):
        """Indices of the calls that exited non-zero, raised, missed a check
        or gave other estimates than the first iteration."""
        bad = {i for i, (_, code, _) in enumerate(results) if code != 0}
        if bad:
            return bad
        outputs = [text for _, _, text in results]
        try:
            checks = self.workload.check(outputs)
            found = [estimates(text) for text in outputs]
            samples = sum(_requested_samples(text) for text in outputs)
        except (ValueError, KeyError, TypeError, IndexError):
            traceback.print_exc()
            return set(range(len(results)))
        if self.reference is None:
            self.reference = found
            self.checks = checks
            self.outputs = outputs
        bad = {c.call for c in checks if not c.ok}
        bad |= {i for i, (a, b) in enumerate(zip(found, self.reference)) if a != b}
        self.samples = samples
        self.floor_hits.append(sum(c.floor_hit for c in checks))
        return bad

    @property
    def walls(self):
        return [end - start for start, end in self.windows]


def _requested_samples(text):
    """n_samples of each record of one call's output, each record counted once."""
    data = json.loads(text)
    rows = data if isinstance(data, list) else [data]
    return sum(int(row["n_samples"]) for row in rows)


def measure(runs, main, seconds, new_stream=io.StringIO):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runs.walls) < MIN_ITERATIONS:
        runs.iterate(main, new_stream)


def setup_seconds(workload, seed):
    """Wall times of fresh processes that import projmi and build the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail(f"set-up process exited with {done.returncode}")
    return times


def end_to_end(runs, setup, primary_se):
    wall = statistics.median(runs.walls)
    return {
        "wall_s": (wall, "s"),
        # the median call of each iteration: a median over all calls falls in
        # the gap between two kinds of call on mi.mixed6
        "call_ms": (1e3 * statistics.median(statistics.median(c) for c in runs.call_s), "ms"),
        "call_p90_ms": (1e3 * statistics.quantiles(
            [t for calls in runs.call_s for t in calls], n=10, method="inclusive")[-1], "ms"),
        "samples_per_s": (runs.samples / wall, "1/s"),
        "se2_wall": (primary_se**2 * statistics.median(runs.primary_s), "bit2.s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced, untraced, spans_per_iteration):
    """Per-iteration medians of the traced phase's layer metrics."""
    shares = [attribute(spans) for spans in spans_per_iteration]
    counts = [layer_counts(spans) for spans in spans_per_iteration]

    def med(values):
        return float(statistics.median(values))

    def self_s(layer):
        return (med([s[layer] for s in shares]), "s")

    def calls(layer):
        return (med([c["calls"][layer] for c in counts]), "count")

    rows = sum(c["joint_rows"] for c in counts)
    joint_busy = sum(c["busy"]["joint"] for c in counts)
    kept = sum(c["mask_kept"] for c in counts)
    evaluated = sum(c["mask_evaluated"] for c in counts)
    covered = sum(sum(s.values()) for s in shares)
    return {
        "cli.self_s": self_s("cli"),
        "states.s": self_s("states"),
        "io.s": self_s("io"),
        "montecarlo.self_s": self_s("montecarlo"),
        "montecarlo.substream_s": self_s("substream"),
        "montecarlo.batches": calls("substream"),
        "montecarlo.workers": (med([c["workers"] for c in counts]), "count"),
        "infomeasures.integrand_self_s": self_s("integrand"),
        "infomeasures.joint_s": self_s("joint"),
        "infomeasures.joint_calls": calls("joint"),
        "infomeasures.joint_rows_per_s": (rows / joint_busy if joint_busy else 0.0, "1/s"),
        "projective.liouville_s": self_s("liouville"),
        "projective.liouville_calls": calls("liouville"),
        "infomeasures.mask_s": self_s("mask"),
        "infomeasures.mask_kept_frac": (kept / evaluated if evaluated else 1.0, "ratio"),
        "infomeasures.zero_floor_hits": (med(traced.floor_hits), "count"),
        "tracing.overhead_frac": (
            statistics.median(traced.walls) / statistics.median(untraced.walls) - 1.0, "ratio"),
        "tracing.coverage_frac": (covered / sum(traced.walls), "ratio"),
    }


def traced_phase(workload, main, seconds, reference):
    """Iterations under a Tracer, and the spans of each iteration."""
    tracer = Tracer()
    runs = Runs(workload, reference)
    tracer.install()
    try:
        measure(runs, tracer.wrap("cli", main), seconds, tracer.stream)
    finally:
        tracer.uninstall()
    # every span of an iteration ends before its last call returns
    spans = [[span for span in tracer.spans if lo <= span[1] <= hi] for lo, hi in runs.windows]
    return runs, spans


def host_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "PROJMI_THREADS": os.environ.get("PROJMI_THREADS"),
    }


def fingerprint(runs):
    items = [
        [call, path, mean.hex(), se.hex()]
        for call, found in enumerate(runs.reference)
        for path, mean, se in found
    ]
    digest = hashlib.sha256(json.dumps(items).encode()).hexdigest()
    return digest, items


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import projmi, build the inputs and exit (times setup_s)")
    args = parser.parse_args()

    cli_main = import_cli()
    TMP.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, TMP)
    try:
        if args.setup_only:
            return 0
        setup = setup_seconds(args.workload, args.seed) if args.trace == 0 else []
        warm = Runs(workload, None)
        warm.iterate(cli_main, io.StringIO)
        if warm.outputs is None:
            fail("the warm-up iteration failed")
        if args.trace == 0:
            runs = Runs(workload, warm.reference)
            measure(runs, cli_main, args.seconds)
            primary_se = workload.primary_se(warm.outputs[workload.primary])
            metrics = end_to_end(runs, setup, primary_se)
            phases = [warm, runs]
        else:
            untraced = Runs(workload, warm.reference)
            measure(untraced, cli_main, args.seconds / 2)
            traced, spans = traced_phase(workload, cli_main, args.seconds / 2, warm.reference)
            metrics = per_layer(traced, untraced, spans)
            phases = [warm, untraced, traced]
    finally:
        for path in workload.files:
            path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    digest, items = fingerprint(warm)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iteration_walls": [p.walls for p in phases],
        "failed_frac": failed / attempted,
        "fingerprint": digest,
        "estimates": items,
        "checks": [[c.call, c.name, c.value, c.se, c.ok, c.floor_hit] for c in warm.checks],
        "host": host_facts(),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
