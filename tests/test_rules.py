"""Each matrix rule has one owner in ``states``: the Hermiticity test, the
eigensolver wrapper, the joint-dimension check and the numerical-rank cutoff;
so have the seed range, the derivation of random streams, the smallest
subsystem dimension and the shape of a batch of rows. ``io`` checks a JSON
object's keys in one place, ``montecarlo`` owns the geometry of a crossed
group, and every density of a state is its eigenfactor's. These tests pin
the shared behaviour at every site that applies a rule, and guard against
copies of the rules reappearing in other modules. Threads are started by the
Monte Carlo engine only, no module reads the environment or imports scipy,
and the block and group sizes of the engine are spelled BLOCK and GROUP."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projmi as pm
from projmi import cli, states
from projmi.errors import BadParameter, DimensionMismatch, EigenDecompositionFailure, NotHermitian
from projmi.structure import RestrictedDensity

SRC = Path(__file__).resolve().parents[1] / "src" / "projmi"


def _skewed(n: int = 3) -> np.ndarray:
    """A unit-trace matrix whose Hermiticity gap is exactly 1e-3."""
    m = np.eye(n, dtype=complex) / n
    m[0, 1] = 1e-3
    return m


def _mismatched():
    """A state of dimension 9 and a 3 x 4 split."""
    return pm.mixed_random(9), pm.BipartiteDims(3, 4)


# Each site of a rule, the error it raises and the text its message holds.
SITES = {
    "HermitianOperator": (NotHermitian, lambda: pm.HermitianOperator(_skewed())),
    "validate_density": (NotHermitian, lambda: pm.validate_density(_skewed())),
    # Built directly, a DensityMatrix skips validation; its eigenfactor checks.
    "eigenfactor": (NotHermitian, lambda: pm.liouville_density(pm.DensityMatrix(_skewed()))),
    "TangentVector": (NotHermitian, lambda: pm.TangentVector(pm.project(np.ones(3)), _skewed())),
    "partial_trace": (DimensionMismatch, lambda: pm.partial_trace(*_mismatched(), "A")),
    "ppt_check": (DimensionMismatch, lambda: pm.ppt_check(*_mismatched())),
    "JointDensity": (DimensionMismatch, lambda: pm.joint_density_eval(*_mismatched())),
}
MESSAGES = {
    NotHermitian: "max |M - M^dag| = 1.000e-03 exceeds 1.0e-10",
    DimensionMismatch: "state dimension 9 != dim_a*dim_b = 12",
}


@pytest.mark.parametrize("site", SITES)
def test_rule_sites_share_one_error(site):
    error, call = SITES[site]
    with pytest.raises(error) as info:
        call()
    assert MESSAGES[error] in str(info.value)


def test_require_hermitian_names_its_subject():
    with pytest.raises(NotHermitian, match="^generator is not Hermitian"):
        states.require_hermitian(_skewed(), what="generator")
    states.require_hermitian(_skewed(), tol=1e-3)


def test_require_seed_names_its_subject():
    with pytest.raises(BadParameter, match=r"^--seed must be an integer in \[0, 2\^64\), got -1$"):
        states.require_seed(-1, "--seed")
    assert states.require_seed(np.uint64(2**64 - 1)) == 2**64 - 1


# Each site that takes a subsystem dimension d, called with d = 2.
DIMENSION_SITES = {
    "BipartiteDims": lambda: pm.BipartiteDims(3, 2),
    "maximally_entangled": lambda: pm.maximally_entangled(2),
    "maxent_mi_closed_form": lambda: pm.maxent_mi_closed_form(2),
    "--d-range": lambda: cli._parse_d_range("2:4"),
}


@pytest.mark.parametrize("site", DIMENSION_SITES)
def test_dimension_sites_share_one_floor(site):
    with pytest.raises(BadParameter, match=r" must be >= 3, got 2$"):
        DIMENSION_SITES[site]()


def _pair_density(kind):
    sigma, dims = pm.maximally_entangled(3), pm.BipartiteDims(3, 3)
    if kind == "JointDensity":
        return pm.joint_density_eval(sigma, dims)
    return RestrictedDensity(pm.random_mixture(3, 3, 2, seed=1))


@pytest.mark.parametrize("kind", ["JointDensity", "RestrictedDensity"])
@pytest.mark.parametrize("xs, ys", [((5, 4), (5, 3)), ((5, 3), (5, 4)), ((5, 3), (4, 3)),
                                    ((3,), (3,))],
                         ids=["x width", "y width", "unequal rows", "vectors"])
def test_pair_densities_share_one_shape_check(kind, xs, ys):
    shapes = f"batch shapes {xs}, {ys} != (m, 3), (m, 3)"
    with pytest.raises(DimensionMismatch, match=re.escape(shapes)):
        _pair_density(kind).eval_batch(np.ones(xs), np.ones(ys))


@pytest.mark.parametrize(
    "call",
    [
        lambda: pm.validate_density(np.eye(3) / 3),
        lambda: pm.von_neumann_entropy(pm.maximally_entangled(3)),
        lambda: pm.liouville_density(pm.maximally_entangled(3)),
        lambda: pm.ppt_check(pm.maximally_entangled(3), pm.BipartiteDims(3, 3)),
        lambda: pm.schrodinger_flow(pm.project(np.ones(3)), np.eye(3), 1.0),
    ],
    ids=["validate_density", "eigenvalues", "eigenfactor", "ppt_check", "schrodinger_flow"],
)
def test_solver_failure_is_a_numeric_error(monkeypatch, call):
    def fail(m):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(EigenDecompositionFailure, match="did not converge"):
        call()


# Spellings of each rule that only states.py may contain, each with a line
# of a former copy that the pattern must catch.
RULES = {
    "eigensolver call": (r"np\.linalg\.eig(?:vals)?h\(", "vals, vecs = np.linalg.eigh(m)"),
    "LinAlgError handler": (r"LinAlgError", "except np.linalg.LinAlgError as exc:"),
    "Hermiticity gap": (r"\b(\w+) - \1\.conj\(\)\.T", "np.max(np.abs(a - a.conj().T))"),
    "joint-dimension message": (re.escape("dim_a*dim_b"), 'f"{n} != dim_a*dim_b = {joint}"'),
    "numerical-rank cutoff": (r"np\.finfo\(float\)\.eps", "vals[-1] * n * np.finfo(float).eps"),
    "seed range": (r"2\*\*64|1 << 64", "if not 0 <= args.seed < 2**64:"),
    "subsystem-dimension floor": (r"[<>]=? ?3\b", "if not values or any(d < 3 for d in values):"),
    "batch-shape message": (r"batch shapes?\b",
                            'raise DimensionMismatch(f"batch shapes {xs.shape}, {ys.shape} != "'),
}


@pytest.mark.parametrize("rule", RULES)
def test_rules_have_one_owner(rule):
    pattern, former_copy = RULES[rule]
    assert re.search(pattern, former_copy)
    copies = [
        path.name for path in sorted(SRC.glob("*.py"))
        if path.name != "states.py" and re.search(pattern, path.read_text())
    ]
    assert copies == []


# Spellings that only the listed modules may contain, each with a line that
# the pattern must catch.
CONFINED = {
    "thread start": (
        r"\bThread\(|concurrent\.futures|multiprocessing|\b_thread\b",
        "from concurrent.futures import ThreadPoolExecutor",
        {"montecarlo.py"},
    ),
    "environment read": (r"\benviron\b|getenv", 'os.environ.get("PROJMI_THREADS")', set()),
    "reference count": (r"getrefcount", "sys.getrefcount(a) != sys.getrefcount(probe) + 1",
                        set()),
    "scipy import": (r"(?m)^\s*(?:from|import) scipy\b", "    from scipy import special",
                     set()),
    # The engine calls every integrand one way, so it reads no signature.
    "signature probe": (r"\binspect\b", 'return "start" in inspect.signature(batch_f).parameters',
                        set()),
    # Every stream is a child of SeedSequence(seed), derived in states only.
    "stream derivation": (r"SeedSequence|default_rng|generate_state",
                          "return np.random.default_rng(np.random.SeedSequence([seed, index]))",
                          {"states.py"}),
    # The standard error has one path, from group totals.
    "row-margin design": (r"\b_margins\b|_design_counts|_INCIDENCE",
                          "margins, (counts, q) = _margins(e, rows), _design_counts(m)", set()),
    # A crossed group's size and the order of its pairs.
    "group geometry": (r"\bGROUP\b|_X_ROW|_Y_ROW",
                       "table = np.matmul(g_x.reshape(f, -1, GROUP), g_y.reshape(f, GROUP, -1))",
                       {"montecarlo.py"}),
    # A state's density on rays is ||x F||^2 for its eigenfactor F
    # (projective.LiouvilleDensity); no caller builds F by hand.
    "hand-built eigenfactor": (r"factored_density|conj\(\)\[:, None\]",
                               "factor = ProjectivePoint(psi).vector.conj()[:, None]", set()),
}


@pytest.mark.parametrize("rule", CONFINED)
def test_confined_spellings(rule):
    pattern, example, owners = CONFINED[rule]
    assert re.search(pattern, example)
    found = {path.name for path in SRC.glob("*.py") if re.search(pattern, path.read_text())}
    assert found <= owners


# Spellings that one line of the package may hold, each with a line of a
# former copy that the pattern must catch: io reads a JSON object's keys in
# one helper.
ONCE = {
    "JSON-object message": (r"expected a JSON object",
                            'raise BadParameter("mixture: expected a JSON object")'),
    "JSON-object test": (r"isinstance\(\w+, dict\)", "if not isinstance(entry, dict):"),
}


@pytest.mark.parametrize("rule", ONCE)
def test_spelled_once(rule):
    pattern, former_copy = ONCE[rule]
    assert re.search(pattern, former_copy)
    found = [
        f"{path.name}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(pattern, line)
    ]
    assert len(found) == 1, found


def test_every_module_imports_without_scipy():
    # scipy is a test dependency only; a module of None makes its import fail.
    code = ("import importlib, pkgutil, sys; sys.modules['scipy'] = None; import projmi; "
            "[importlib.import_module('projmi.' + m.name) "
            "for m in pkgutil.iter_modules(projmi.__path__)]")
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


# The engine's block size (samples, and rows per factor of a two-factor
# block, now and before blocks grew) and its group size, each with a line
# that the pattern must catch. Only the lines that define a constant may
# spell its number; MIN_CONTROL_SAMPLES is a sample threshold, not a size.
SIZES = (r"\b(?:2048|4096|8192)\b|\b4 ?x ?4\b",
         ("4096 rows against a factor", "a batch's 4096 x 36 complex rows", "crossed 4x4 groups"))
DEFINITIONS = {"BLOCK = 8192", "GROUP = 4", "MIN_CONTROL_SAMPLES = 4096"}


def test_block_and_group_sizes_are_spelled_by_name():
    pattern, examples = SIZES
    assert all(re.search(pattern, example) for example in examples)
    found = [
        f"{path.name}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(pattern, line) and line.strip() not in DEFINITIONS
    ]
    assert found == []
