"""Complex-matrix quantum states: validation, composition, reduction, spectra,
the canonical state families and separable mixtures, and the parser of state
specs that builds them.

Basis convention: computational basis indexed 0..n-1. Bipartite tensor
indexing is A-major, i.e. the joint index of |a> (x) |b> is a * dim_b + b,
which matches row-major reshaping everywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .constants import VALIDATION_TOL
from .errors import (
    BadParameter,
    DimensionMismatch,
    EigenDecompositionFailure,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    UnknownFamily,
    ValidationError,
)


def _as_square_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {a.shape}")
    # Every tolerance check compares with '>', which is False for NaN.
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def require_hermitian(a: np.ndarray, tol: float = VALIDATION_TOL, what: str = "matrix"):
    """Raise NotHermitian if the square array ``a`` differs from its conjugate
    transpose by more than ``tol`` in some entry."""
    gap = float(np.max(np.abs(a - a.conj().T)))
    if gap > tol:
        raise NotHermitian(
            f"{what} is not Hermitian: max |M - M^dag| = {gap:.3e} exceeds {tol:.1e}"
        )


def require_int(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; BadParameter, naming ``what``, unless it is an
    integer, not a bool, that is at least ``low`` and below ``high``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low
            or high is not None and value >= high):
        span = f">= {low}" if high is None else f"in [{low}, {high})"
        raise BadParameter(f"{what} must be an integer {span}, got {value!r}")
    return int(value)


def require_finite(value, what: str, low: float = -math.inf) -> float:
    """``value`` as a float; BadParameter, naming ``what``, unless it is a
    finite real number, not a bool, that is at least ``low``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < low):
        span = "" if low == -math.inf else f" >= {low}"
        raise BadParameter(f"{what} must be a finite number{span}, got {value!r}")
    return float(value)


def require_seed(seed, what: str = "seed") -> int:
    """``seed`` as an int in [0, 2^64), one 64-bit word of numpy's SeedSequence."""
    return require_int(seed, what, 0, 2**64)


def require_dim(d, what: str) -> int:
    """``d`` as a subsystem dimension, an integer >= 3 (``require_int``)."""
    return require_int(d, what, 3)


def require_rows(points: np.ndarray, dim: int):
    """Raise DimensionMismatch unless ``points`` is an (m, dim) batch of rows."""
    if points.shape[1:] != (dim,):
        raise DimensionMismatch(f"batch shape {points.shape} != (m, {dim})")


def spectral(solve, m: np.ndarray):
    """``solve(m)`` for a numpy eigensolver (``np.linalg.eigh`` or ``eigvalsh``),
    with numpy's LinAlgError raised as EigenDecompositionFailure."""
    try:
        return solve(m)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionFailure(str(exc)) from exc


def rank_cutoff(vals: np.ndarray) -> float:
    """numpy's numerical-rank cutoff lambda_max * n * eps of an ascending spectrum."""
    return vals[-1] * len(vals) * np.finfo(float).eps


def _rng(seed) -> np.random.Generator:
    """``seed`` if it is a Generator, else the root stream of a seed in
    [0, 2^64), that of SeedSequence(seed), which draws every seeded state."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(require_seed(seed))


def substream(seed: int, index: int) -> np.random.Generator:
    """The stream of block ``index`` of a Monte Carlo run seeded by ``seed``:
    spawn child ``index`` of SeedSequence(seed), independent of the root
    stream (``_rng``) and of every other block (numpy's spawn tree)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace complex matrix.

    Build instances through :func:`validate_density`, which checks the three
    invariants and clamps negative eigenvalues; direct construction assumes
    the caller already guarantees them.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum with negative roundoff clamped to 0."""
        return np.maximum(spectral(np.linalg.eigvalsh, self.matrix), 0.0)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Self-adjoint operator representing an observable."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _as_square_matrix(self.matrix)
        require_hermitian(a, what="operator")
        object.__setattr__(self, "matrix", a)
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BipartiteDims:
    """Subsystem dimensions of a bipartite split (``require_dim``)."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        for d in self:
            require_dim(d, f"each dimension of the split ({self.dim_a}, {self.dim_b})")

    def __iter__(self):
        return iter((self.dim_a, self.dim_b))

    @property
    def joint(self) -> int:
        return self.dim_a * self.dim_b

    def require_joint(self, n: int):
        """Raise DimensionMismatch unless a state of dimension ``n`` fits this split."""
        if n != self.joint:
            raise DimensionMismatch(f"state dimension {n} != dim_a*dim_b = {self.joint}")

    def require_pairs(self, xs: np.ndarray, ys: np.ndarray):
        """Raise DimensionMismatch unless ``xs``, ``ys`` are m rows of widths dim_a, dim_b."""
        if xs.shape[1:] != (self.dim_a,) or ys.shape != (len(xs), self.dim_b):
            raise DimensionMismatch(f"batch shapes {xs.shape}, {ys.shape} != "
                                    f"(m, {self.dim_a}), (m, {self.dim_b})")


def matrix_of(operator) -> np.ndarray:
    """Underlying ndarray of a DensityMatrix/HermitianOperator or raw matrix."""
    if isinstance(operator, (DensityMatrix, HermitianOperator)):
        return operator.matrix
    return _as_square_matrix(operator)


def validate_density(m, *, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Check Hermiticity, positivity and unit trace of ``m`` at tolerance ``tol``.

    Eigenvalues in [-tol, -rank_cutoff) are clamped to 0 by rebuilding the
    matrix from its clamped spectrum. The result is a fixed point: validating
    it again returns it bit for bit.
    """
    tol = require_finite(tol, "tol", 0)
    a = _as_square_matrix(m)
    require_hermitian(a, tol)
    h = (a + a.conj().T) / 2
    vals, vecs = spectral(np.linalg.eigh, h)
    min_eig = float(vals[0])
    if min_eig < -tol:
        raise NotPositive(f"smallest eigenvalue {min_eig:.3e} below -{tol:.1e}")
    trace = complex(np.trace(h))
    if abs(trace - 1.0) > tol:
        raise TraceNotOne(f"|tr(M) - 1| = {abs(trace - 1.0):.3e} exceeds {tol:.1e}")
    if min_eig < -rank_cutoff(vals):
        h = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
        h = (h + h.conj().T) / 2
    return DensityMatrix(h)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square matrices (A-major block structure)."""
    return np.kron(matrix_of(a), matrix_of(b))


def partial_trace(sigma, dims: BipartiteDims, keep: str) -> DensityMatrix:
    """Reduce a bipartite state to subsystem ``keep`` ("A" or "B")."""
    m = matrix_of(sigma)
    dims.require_joint(m.shape[0])
    t = m.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    tag = keep.upper() if isinstance(keep, str) else keep
    if tag == "A":
        reduced = np.einsum("ijkj->ik", t)
    elif tag == "B":
        reduced = np.einsum("ijil->jl", t)
    else:
        raise BadParameter(f"keep must be 'A' or 'B', got {keep!r}")
    return validate_density(reduced)


def von_neumann_entropy(sigma) -> float:
    """Spectral entropy -sum(lambda log2 lambda) in bits, with 0 log 0 = 0."""
    dm = sigma if isinstance(sigma, DensityMatrix) else validate_density(sigma)
    vals = dm.eigenvalues()
    pos = vals[vals > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def vn_mutual_information(sigma, dims: BipartiteDims) -> float:
    """S(sigma_A) + S(sigma_B) - S(sigma) in bits."""
    dm = sigma if isinstance(sigma, DensityMatrix) else validate_density(sigma)
    s_a = von_neumann_entropy(partial_trace(dm, dims, "A"))
    s_b = von_neumann_entropy(partial_trace(dm, dims, "B"))
    return s_a + s_b - von_neumann_entropy(dm)


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix."""
    n = require_int(n, "dimension n", 1)
    g = _rng(rng)
    z = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def maximally_entangled(d: int) -> DensityMatrix:
    """|Phi><Phi| with |Phi> = d^(-1/2) sum_i |i>|i> on a d x d split."""
    require_dim(d, "maximally entangled d")
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(phi, phi.conj()))


def basis_pure(n: int, index: int) -> DensityMatrix:
    """Projector onto computational basis vector |index> in dimension n."""
    n = require_int(n, "dimension n", 1)
    index = require_int(index, "basis index", 0, n)
    m = np.zeros((n, n), dtype=complex)
    m[index, index] = 1.0
    return DensityMatrix(m)


def pure_random(n: int, seed=0) -> DensityMatrix:
    """Rank-1 projector onto a normalized standard complex Gaussian vector."""
    n = require_int(n, "dimension n", 1)
    g = _rng(seed)
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    x /= np.linalg.norm(x)
    return DensityMatrix(np.outer(x, x.conj()))


def mixed_random(n: int, rank: int | None = None, seed=0) -> DensityMatrix:
    """GG^dag / tr(GG^dag) for an n x rank standard complex Gaussian factor G."""
    n = require_int(n, "dimension n", 1)
    r = require_int(n if rank is None else rank, "rank", 1, n + 1)
    g = _rng(seed)
    factor = g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))
    m = factor @ factor.conj().T
    return DensityMatrix(m / np.trace(m).real)


_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SeparableMixture:
    """Statistical weights paired with per-subsystem density matrices.

    Realizes a separable state sum_n lambda_n sigma_An (x) sigma_Bn without
    assembling it, so the restriction to product rays stays exact.
    """

    weights: tuple
    components: tuple

    def __post_init__(self):
        weights = tuple(require_finite(w, "each mixture weight", 0) for w in self.weights)
        components = tuple((a, b) for a, b in self.components)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)
        if not components or len(weights) != len(components):
            raise BadParameter(
                f"need equal nonzero counts of weights and components, "
                f"got {len(weights)} and {len(components)}"
            )
        total = sum(weights)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise BadParameter(f"mixture weights sum to {total!r}, not 1")
        dim_a = components[0][0].dim
        dim_b = components[0][1].dim
        for a, b in components:
            if a.dim != dim_a or b.dim != dim_b:
                raise DimensionMismatch("mixture components must share dimensions")

    @property
    def dims(self) -> BipartiteDims:
        return BipartiteDims(self.components[0][0].dim, self.components[0][1].dim)


def assemble(mixture: SeparableMixture) -> DensityMatrix:
    """The mixture's density matrix sum_n lambda_n sigma_An (x) sigma_Bn."""
    joint = sum(
        w * tensor(a, b) for w, (a, b) in zip(mixture.weights, mixture.components)
    )
    return validate_density(joint)


def random_mixture(
    dim_a: int,
    dim_b: int,
    n_components: int,
    rank: int | None = None,
    seed=0,
) -> SeparableMixture:
    """Random separable mixture with Dirichlet weights and mixed components."""
    n_components = require_int(n_components, "n_components", 1)
    g = _rng(seed)
    weights = g.dirichlet(np.ones(n_components))
    pairs = [
        (mixed_random(dim_a, rank, g), mixed_random(dim_b, rank, g))
        for _ in range(n_components)
    ]
    return SeparableMixture(weights, pairs)


def parse_state_spec(spec: str):
    """Split ``family:key=value,...`` into the family name and parameter dict.

    Values that look like integers are converted; everything else stays a
    string. A repeated key is a BadParameter. Used by :func:`build_state`.
    """
    text = spec.strip()
    if not text:
        raise BadParameter("empty state spec")
    family, _, tail = text.partition(":")
    params: dict[str, object] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise BadParameter(f"malformed spec parameter {item!r} in {spec!r}")
            if key in params:
                raise BadParameter(f"repeated parameter {key!r} in {spec!r}")
            try:
                params[key] = int(value)
            except ValueError:
                params[key] = value
    return family.strip(), params


def _build(family, params: dict, prefix: str, seed):
    """(state, split) of one family; every key of ``params`` must be used.
    ``prefix`` (``a.`` inside a product) makes a key read as the user wrote it."""

    def take(key, default=...):
        """Pop parameter ``key``; the family checks a value that parsed as an integer."""
        if default is ... and key not in params:
            raise BadParameter(f"state spec is missing required parameter {prefix + key!r}")
        value = params.pop(key, default)
        if isinstance(value, str):
            raise BadParameter(f"parameter {prefix + key!r} must be an integer, got {value!r}")
        return value

    if "seed" in params:
        seed = require_seed(take("seed"), f"parameter {prefix + 'seed'!r}")
    split = None
    if family == "maxent":
        d = take("d")
        sigma, split = maximally_entangled(d), (d, d)
    elif family == "basis_pure":
        sigma = basis_pure(take("n"), take("index"))
    elif family == "pure_random":
        sigma = pure_random(take("n"), seed)
    elif family == "mixed_random":
        n = take("n")
        sigma = mixed_random(n, take("rank", n), seed)
    elif family == "product":
        g, factors = _rng(seed), []
        for tag in ("a.", "b."):
            sub = {key[2:]: params.pop(key) for key in list(params) if key.startswith(tag)}
            sub_family = sub.pop("family", "mixed_random")
            factors.append(_build(sub_family, sub, prefix + tag, g)[0])
        sigma = validate_density(tensor(*factors))
        split = (factors[0].dim, factors[1].dim)
    elif family == "separable_mixture":
        split = (take("na"), take("nb"))
        mixture = random_mixture(*split, take("components", 3), take("rank", None), seed)
        sigma = assemble(mixture)
    else:
        raise UnknownFamily(f"unknown state family {family!r}")
    if params:
        key = prefix + next(iter(params))
        raise BadParameter(f"unknown parameter {key!r} for state family {family!r}")
    return sigma, split


def build_state(spec: str, seed: int = 0):
    """:func:`make_state`'s state and its (dim_a, dim_b) split: (d, d) for
    ``maxent``, the factors' dimensions for ``product``, (na, nb) for
    ``separable_mixture``, and None for the single-system families."""
    family, params = parse_state_spec(spec)
    return _build(family, params, "", require_seed(seed))


def make_state(spec: str, seed: int = 0) -> DensityMatrix:
    """Build a state from a family spec string, deterministically in ``seed``.

    Families: ``maxent:d=3``, ``pure_random:n=4``, ``mixed_random:n=3,rank=2``,
    ``basis_pure:n=3,index=0``, ``product:a.family=...,b.family=...`` and
    ``separable_mixture:na=3,nb=3,components=4``. Every parameter is an
    integer; an unknown or repeated key is a BadParameter. A ``seed=``
    parameter in [0, 2^64) overrides the ``seed`` argument for every family.
    ``product`` draws factor a, then b, from its one stream; a factor's own
    ``seed=`` gives that factor a stream of its own.
    """
    return build_state(spec, seed)[0]


# The spec of each family that has a d x d member for every d >= 3.
SQUARE_SPECS = {"maxent": "maxent:d={d}", "product": "product:a.n={d},b.n={d}"}
