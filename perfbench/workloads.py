"""The benchmark's workloads: the CLI calls of one iteration and the check
every record of an iteration must pass.

Each workload builds its inputs from its own fixed workload seed, as the
acceptance suite fixes its seeds, and the estimators run at the CLI's
default --seed: the figure of merit, SE^2 x wall time, is defined at a fixed
seed and sample count. The run seed orders the calls of an iteration. With
seed-varied inputs se2_wall spread by 17-18% over five seeds, because each
SE comes from the spread of batch means, and on sweep.small, where that is
5 batch means, some 4-SE check missed on 21 of 100 seeds.

Checks use the acceptance suite's bands: |estimate - target| <= 4 SE, plus
ZERO_FLOOR where the target is 0. Targets are computed here from closed
forms, not taken from the program.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The acceptance suite's floor for zero targets: a product state's integrand
# cancels to rounding residue and its SE collapses with the mean.
ZERO_FLOOR = 1e-12
# Tolerance for results that are exact, not Monte Carlo (spectral MI, closed form).
EXACT_TOL = 1e-9
EULER_GAMMA = 0.5772156649015329
LOG2_E = math.log2(math.e)

SWEEP_SAMPLES = 20_000
MIXED_SAMPLES = 250_000
MAXENT_SAMPLES = 1_000_000
MIXED_WORKLOAD_SEED = 6


def beta_entropy(n: int) -> float:
    """Canonical entropy of a pure state in dimension n: u = tr(sigma p) is
    Beta(1, n-1), so -n E[u log2 u] = (H_n - 1) log2 e."""
    return (sum(1.0 / k for k in range(1, n + 1)) - 1.0) * LOG2_E


def maxent_mi(d: int) -> float:
    """Projective (and decomposition) MI of the d x d maximally entangled
    state: log2 d - beta_entropy(d), since u = |x^T y|^2 is Beta(1, d-1)."""
    return math.log2(d) - beta_entropy(d)


@dataclass(frozen=True)
class Check:
    """One checked value of one call's output."""

    call: int
    name: str
    value: float
    se: float
    ok: bool
    # passes only because of ZERO_FLOOR: |value| > 4 SE on a zero target
    floor_hit: bool = False


def mc_check(call: int, name: str, value: float, se: float, target: float) -> Check:
    miss = abs(value - target)
    if target == 0.0:
        ok = miss <= 4.0 * se + ZERO_FLOOR
        return Check(call, name, value, se, ok, ok and miss > 4.0 * se)
    return Check(call, name, value, se, miss <= 4.0 * se)


def exact_check(call: int, name: str, value: float, target: float) -> Check:
    return Check(call, name, value, 0.0, abs(value - target) <= EXACT_TOL)


def estimates(text: str) -> list[tuple[str, float, float]]:
    """Every (path, estimate, std_error) in one call's JSON output."""
    found = []

    def walk(node, path):
        if isinstance(node, dict):
            if "estimate" in node and "std_error" in node:
                found.append((path, float(node["estimate"]), float(node["std_error"])))
            for key, value in node.items():
                walk(value, f"{path}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}/{i}")

    walk(json.loads(text), "")
    return found


@dataclass
class Workload:
    """The calls of one iteration and how to judge their outputs.

    The calls run in the order ``order`` (indices into ``calls``). ``check``
    maps the outputs of one iteration, indexed like ``calls``, to its checks.
    ``primary`` is the call whose estimate enters se2_wall, and
    ``primary_se`` reads its SE.
    """

    name: str
    calls: list[list[str]]
    order: list[int]
    check: Callable[[list[str]], list[Check]]
    primary: int
    primary_se: Callable[[str], float]
    files: tuple[Path, ...] = ()


def call_order(seed: int, n: int) -> list[int]:
    """The run seed's order of an iteration's n calls."""
    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


def _record_se(text: str) -> float:
    return float(json.loads(text)["std_error"])


def mi_all_maxent3(seed: int, tmp: Path) -> Workload:
    """Both MI estimators on a rank-1 state at 1e6 samples: joint kernel,
    marginal kernels and Gaussian draws share the time."""
    argv = ["mi", "--state", "maxent:d=3", "--method", "all", "--samples", str(MAXENT_SAMPLES)]

    def check(outputs):
        rec = json.loads(outputs[0])
        target = maxent_mi(3)
        proj, gauss = rec["projective"], rec["gaussian"]
        return [
            mc_check(0, "projective", proj["estimate"], proj["std_error"], target),
            # raw Gaussian radii carry E|x|^2 E|y|^2 / d = 4d against the projective d
            mc_check(0, "gaussian", gauss["estimate"], gauss["std_error"], 4.0 * target),
            exact_check(0, "von_neumann", rec["von_neumann"], 2.0 * math.log2(3)),
        ]

    def primary_se(text):
        return float(json.loads(text)["projective"]["std_error"])

    return Workload("mi_all.maxent3", [argv], [0], check, 0, primary_se)


def mi_mixed6(seed: int, tmp: Path) -> Workload:
    """A full-rank 36 x 36 state on a 6 x 6 split, passed in as a file: the
    contracted 4-tensor joint kernel dominates."""
    rng = np.random.default_rng(MIXED_WORKLOAD_SEED)
    g = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    path = tmp / f"mixed6-{os.getpid()}.json"
    path.write_text(json.dumps(
        {"dims": [6, 6], "re": sigma.real.tolist(), "im": sigma.imag.tolist()}
    ))
    common = ["--state", f"file:{path}", "--samples", str(MIXED_SAMPLES)]
    calls = [["mi", *common, "--method", "projective"],
             ["mi", *common, "--method", "decomposition"]]

    def check(outputs):
        proj, dec = (json.loads(text) for text in outputs)
        gap = dec["estimate"] - proj["estimate"]
        joint_se = math.hypot(proj["std_error"], dec["std_error"])
        # acceptance criterion 8's band: 4 joint SE, no zero floor
        return [Check(1, "decomposition-projective", gap, joint_se, abs(gap) <= 4.0 * joint_se)]

    return Workload("mi.mixed6", calls, call_order(seed, 2), check, 1, _record_se, (path,))


SWEEP_METHODS = {
    "maxent": "von-neumann,projective,gaussian-overlap,decomposition,closed-form",
    "product": "von-neumann,projective,gaussian-overlap,decomposition",
}


def _sweep_target(family: str, d: int, method: str) -> tuple[float, bool]:
    """(target, exact) of one sweep row."""
    if family == "product":
        return 0.0, method == "von-neumann"
    mi = maxent_mi(d)
    return {
        "von-neumann": (2.0 * math.log2(d), True),
        "closed-form": (math.log2(d) + 2.0 + (2.0 - 2.0 * EULER_GAMMA) * LOG2_E, True),
        "projective": (mi, False),
        "decomposition": (mi, False),
        "gaussian-overlap": (4.0 * mi, False),
    }[method]


def sweep_small(seed: int, tmp: Path) -> Workload:
    """Many short calls at 2e4 samples: per-call fixed costs dominate."""
    calls, checkers = [], []
    for d in range(3, 7):
        for family in ("maxent", "product"):
            calls.append(["sweep", "--family", family, "--d-range", str(d),
                          "--method", SWEEP_METHODS[family],
                          "--samples", str(SWEEP_SAMPLES), "--out", "json"])
            checkers.append(("sweep", family, d))
        calls.append(["entropy", "--state", f"pure_random:n={d}", "--method", "canonical-mu",
                      "--samples", str(SWEEP_SAMPLES)])
        checkers.append(("entropy", "pure_random", d))

    def check(outputs):
        out = []
        for call, ((kind, family, d), text) in enumerate(zip(checkers, outputs)):
            rec = json.loads(text)
            if kind == "entropy":
                out.append(mc_check(call, f"canonical-mu n={d}", rec["estimate"],
                                    rec["std_error"], beta_entropy(d)))
                continue
            methods = SWEEP_METHODS[family].split(",")
            if sorted(row["method"] for row in rec) != sorted(methods):
                raise ValueError(f"sweep {family} d={d} returned methods "
                                 f"{[row['method'] for row in rec]}")
            for row in rec:
                name = f"{family} d={d} {row['method']}"
                target, exact = _sweep_target(family, d, row["method"])
                if exact:
                    out.append(exact_check(call, name, row["estimate"], target))
                else:
                    out.append(mc_check(call, name, row["estimate"], row["std_error"], target))
        return out

    def primary_se(text):
        return next(row["std_error"] for row in json.loads(text) if row["method"] == "projective")

    # the longest call, so that call-to-call jitter weighs least
    primary = checkers.index(("sweep", "maxent", 6))
    return Workload("sweep.small", calls, call_order(seed, len(calls)), check, primary,
                    primary_se)


WORKLOADS = {
    "mi_all.maxent3": mi_all_maxent3,
    "mi.mixed6": mi_mixed6,
    "sweep.small": sweep_small,
}
