"""Complex-matrix quantum states: validation, composition, reduction, spectra,
and the canonical state families used throughout the package.

Basis convention: computational basis indexed 0..n-1. Bipartite tensor
indexing is A-major, i.e. the joint index of |a> (x) |b> is a * dim_b + b,
which matches row-major reshaping everywhere.
"""

from __future__ import annotations

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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    # Every tolerance check compares with '>', which is False for NaN.
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace complex matrix.

    Build instances through :func:`validate_density`, which checks the three
    invariants and clamps eigenvalue roundoff; direct construction assumes
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
        try:
            vals = np.linalg.eigvalsh(self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
            raise EigenDecompositionFailure(str(exc)) from exc
        return np.maximum(vals, 0.0)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Self-adjoint operator representing an observable."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _as_square_matrix(self.matrix)
        gap = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
        if gap > VALIDATION_TOL:
            raise NotHermitian(f"operator is not Hermitian: max |M - M^dag| = {gap:.3e}")
        object.__setattr__(self, "matrix", a)
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BipartiteDims:
    """Subsystem dimensions of a bipartite split; both factors must be >= 3."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 3 or self.dim_b < 3:
            raise BadParameter(
                f"both subsystem dimensions must be >= 3, got ({self.dim_a}, {self.dim_b})"
            )

    @property
    def joint(self) -> int:
        return self.dim_a * self.dim_b


def matrix_of(operator) -> np.ndarray:
    """Underlying ndarray of a DensityMatrix/HermitianOperator or raw matrix."""
    if isinstance(operator, (DensityMatrix, HermitianOperator)):
        return operator.matrix
    return _as_square_matrix(operator)


def validate_density(m, *, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Check Hermiticity, positivity and unit trace of ``m`` at tolerance ``tol``.

    Eigenvalues in [-tol, 0) are clamped to 0 (the matrix is rebuilt from its
    clamped spectrum) so downstream entropies never see negative weights.
    """
    a = _as_square_matrix(m)
    gap = float(np.max(np.abs(a - a.conj().T)))
    if gap > tol:
        raise NotHermitian(f"max |M - M^dag| = {gap:.3e} exceeds {tol:.1e}")
    h = (a + a.conj().T) / 2
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
        raise EigenDecompositionFailure(str(exc)) from exc
    min_eig = float(vals[0])
    if min_eig < -tol:
        raise NotPositive(f"smallest eigenvalue {min_eig:.3e} below -{tol:.1e}")
    trace = complex(np.trace(h))
    if abs(trace - 1.0) > tol:
        raise TraceNotOne(f"|tr(M) - 1| = {abs(trace - 1.0):.3e} exceeds {tol:.1e}")
    if min_eig < 0.0:
        h = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    return DensityMatrix(h)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square matrices (A-major block structure)."""
    return np.kron(matrix_of(a), matrix_of(b))


def partial_trace(sigma, dims: BipartiteDims, keep: str) -> DensityMatrix:
    """Reduce a bipartite state to subsystem ``keep`` ("A" or "B")."""
    m = matrix_of(sigma)
    if m.shape[0] != dims.joint:
        raise DimensionMismatch(
            f"state dimension {m.shape[0]} != dim_a*dim_b = {dims.joint}"
        )
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
    g = _rng(rng)
    z = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def maximally_entangled(d: int) -> DensityMatrix:
    """|Phi><Phi| with |Phi> = d^(-1/2) sum_i |i>|i> on a d x d split."""
    if d < 3:
        raise BadParameter(f"maximally entangled family needs d >= 3, got {d}")
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(phi, phi.conj()))


def basis_pure(n: int, index: int) -> DensityMatrix:
    """Projector onto computational basis vector |index> in dimension n."""
    if not 0 <= index < n:
        raise BadParameter(f"basis index {index} out of range for dimension {n}")
    m = np.zeros((n, n), dtype=complex)
    m[index, index] = 1.0
    return DensityMatrix(m)


def pure_random(n: int, seed=0) -> DensityMatrix:
    """Rank-1 projector onto a normalized standard complex Gaussian vector."""
    g = _rng(seed)
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    x /= np.linalg.norm(x)
    return DensityMatrix(np.outer(x, x.conj()))


def mixed_random(n: int, rank: int | None = None, seed=0) -> DensityMatrix:
    """GG^dag / tr(GG^dag) for an n x rank standard complex Gaussian factor G."""
    r = n if rank is None else rank
    if not 1 <= r <= n:
        raise BadParameter(f"rank must be in [1, {n}], got {r}")
    g = _rng(seed)
    factor = g.standard_normal((n, r)) + 1j * g.standard_normal((n, r))
    m = factor @ factor.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_mixture_parts(
    dim_a: int, dim_b: int, n_components: int, rank: int | None = None, seed=0
):
    """Dirichlet weights plus paired random mixed components for each factor."""
    if n_components < 1:
        raise BadParameter("a mixture needs at least one component")
    g = _rng(seed)
    weights = g.dirichlet(np.ones(n_components))
    pairs = [
        (mixed_random(dim_a, rank, g), mixed_random(dim_b, rank, g))
        for _ in range(n_components)
    ]
    return tuple(float(w) for w in weights), tuple(pairs)


def parse_state_spec(spec: str):
    """Split ``family:key=value,...`` into the family name and parameter dict.

    Values that look like integers are converted; everything else stays a
    string. Used by :func:`make_state` and by the CLI.
    """
    text = spec.strip()
    if not text:
        raise BadParameter("empty state spec")
    family, _, tail = text.partition(":")
    family = family.strip()
    params: dict[str, object] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise BadParameter(f"malformed spec parameter {item!r} in {spec!r}")
            value = value.strip()
            try:
                params[key.strip()] = int(value)
            except ValueError:
                params[key.strip()] = value
    return family, params


def _int_param(params: dict, key: str, spec: str, default=None) -> int:
    if key not in params:
        if default is None:
            raise BadParameter(f"spec {spec!r} is missing required parameter {key!r}")
        return default
    value = params[key]
    if not isinstance(value, int):
        raise BadParameter(f"parameter {key!r} in {spec!r} must be an integer")
    return value


def _sub_spec(params: dict, prefix: str, default_family: str) -> str:
    sub = {
        key[len(prefix):]: value
        for key, value in params.items()
        if key.startswith(prefix)
    }
    family = sub.pop("family", default_family)
    tail = ",".join(f"{k}={v}" for k, v in sorted(sub.items()))
    return f"{family}:{tail}" if tail else str(family)


def make_state(spec: str, seed: int = 0) -> DensityMatrix:
    """Build a state from a family spec string, deterministically in ``seed``.

    Families: ``maxent:d=3``, ``pure_random:n=4``, ``mixed_random:n=3,rank=2``,
    ``basis_pure:n=3,index=0``, ``product:a.family=...,b.family=...`` and
    ``separable_mixture:na=3,nb=3,components=4``. A ``seed=`` parameter inside
    the spec string overrides the ``seed`` argument.
    """
    family, params = parse_state_spec(spec)
    if family == "maxent":
        return maximally_entangled(_int_param(params, "d", spec))
    if family == "basis_pure":
        return basis_pure(_int_param(params, "n", spec), _int_param(params, "index", spec))
    if family == "pure_random":
        return pure_random(_int_param(params, "n", spec), _int_param(params, "seed", spec, seed))
    if family == "mixed_random":
        n = _int_param(params, "n", spec)
        rank = _int_param(params, "rank", spec, n)
        return mixed_random(n, rank, _int_param(params, "seed", spec, seed))
    if family == "product":
        seed_a, seed_b = derived_seeds(seed, 2)
        sigma_a = make_state(_sub_spec(params, "a.", "mixed_random"), seed_a)
        sigma_b = make_state(_sub_spec(params, "b.", "mixed_random"), seed_b)
        return validate_density(tensor(sigma_a, sigma_b))
    if family == "separable_mixture":
        dim_a = _int_param(params, "na", spec)
        dim_b = _int_param(params, "nb", spec)
        k = _int_param(params, "components", spec, 3)
        rank = params.get("rank")
        weights, pairs = random_mixture_parts(
            dim_a, dim_b, k, rank, _int_param(params, "seed", spec, seed)
        )
        joint = sum(
            w * tensor(a, b) for w, (a, b) in zip(weights, pairs)
        )
        return validate_density(joint)
    raise UnknownFamily(f"unknown state family {family!r}")


def derived_seeds(seed: int, count: int) -> list[int]:
    """Deterministic child seeds for independent substreams of ``seed``."""
    mask = (1 << 64) - 1
    root = np.random.SeedSequence([seed & mask, 0x5EED])
    return [int(s) for s in root.generate_state(count, np.uint64)]
