"""The projective phase space of a finite-dimensional Hilbert space: points,
densities, frames, the Kaehler structure, the Segre embedding, and unitary
flow. Points are rays stored through a unit representative vector; all
operations are invariant under a global phase of the representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import VALIDATION_TOL
from .errors import BadParameter, BaseMismatch, DimensionMismatch, InvalidFrame, ZeroVector
from .states import (
    DensityMatrix, HermitianOperator, haar_unitary, matrix_of, rank_cutoff, require_hermitian,
    require_rows, spectral,
)

_NORM_TOL = 1e-12
_PHASE_EQ_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A ray, stored as a unit representative vector.

    Equality is phase-invariant: two points are equal iff the overlap
    |<x|y>| of their representatives is 1 within 1e-10.
    """

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex)
        if v.ndim != 1:
            raise BadParameter(f"representative must be a vector, got shape {v.shape}")
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails '<=' too
            raise BadParameter(
                f"representative must be unit norm within {_NORM_TOL:.0e}, got {norm!r}; "
                "use project() for arbitrary vectors"
            )
        object.__setattr__(self, "vector", v)
        v.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def projector(self) -> np.ndarray:
        """Rank-1 projector x x^dag realizing the ray as an operator."""
        return np.outer(self.vector, self.vector.conj())

    def overlap(self, other: "ProjectivePoint") -> float:
        """tr(p q) = |<x|y>|^2, the phase-free overlap with another point."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"point dims {self.dim} != {other.dim}")
        return float(np.abs(np.vdot(self.vector, other.vector)) ** 2)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return abs(np.abs(np.vdot(self.vector, other.vector)) - 1.0) <= _PHASE_EQ_TOL


def project(x) -> ProjectivePoint:
    """Canonical projection of a nonzero vector to its ray."""
    v = np.asarray(x, dtype=complex)
    norm = float(np.linalg.norm(v))
    if not np.isfinite(norm):
        raise BadParameter(f"cannot project a vector of non-finite norm {norm}")
    if norm <= _NORM_TOL:
        raise ZeroVector(f"cannot project a vector of norm {norm:.3e}")
    return ProjectivePoint(v / norm)


def fs_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Geodesic distance arccos(sqrt(tr(pq))), in [0, pi/2]."""
    t = min(max(p.overlap(q), 0.0), 1.0)
    return float(np.arccos(np.sqrt(t)))


def quadratic_form(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """<x|M|x> for each row x of ``rows``, complex; callers take ``.real``."""
    return np.einsum("bi,bi->b", rows.conj(), rows @ m.T)


def eigenfactor(sigma: DensityMatrix) -> np.ndarray:
    """The (n, r) factor F = [conj(v_k) sqrt(lambda_k)] of a state
    sigma = sum_k lambda_k |v_k><v_k|, so that <x|sigma|x> = ||x F||^2.

    F keeps the eigenvalues above lambda_max * n * eps (numpy's numerical-rank
    rule, which also drops negative round-off), so r is the numerical rank of
    sigma. An unvalidated non-Hermitian state raises NotHermitian: eigh would
    silently read one triangle of it.
    """
    m = sigma.matrix
    require_hermitian(m, what="state")
    vals, vecs = spectral(np.linalg.eigh, m)
    keep = vals > rank_cutoff(vals)
    return np.ascontiguousarray(vecs[:, keep].conj() * np.sqrt(vals[keep]))


def hermitian_features(z: np.ndarray) -> np.ndarray:
    """The d^2 real coordinates of the rank-1 operator x x^dag for each row x
    of the (m, d) array z, component-major as a (d^2, m) array: the d values
    |x_i|^2, then Re(conj(x_i) x_k) and then Im(conj(x_i) x_k) for i < k,
    with (i, k) in row-major order. The first d rows sum to |x|^2."""
    m, d = z.shape
    pairs = d * (d - 1) // 2
    out = np.empty((d * d, m))
    np.square(z.real.T, out=out[:d])
    out[:d] += np.square(z.imag.T)
    # One row i of products at a time keeps the scratch to d - 1 rows.
    zt, products = z.T, np.empty((d - 1, m), dtype=complex)
    row = d
    for i in range(d - 1):
        n = d - 1 - i
        np.multiply(zt[i + 1:], zt[i].conj(), out=products[:n])
        out[row:row + n], out[row + pairs:row + pairs + n] = products[:n].real, products[:n].imag
        row += n
    return out


def real_coordinates(m: np.ndarray, d: int) -> np.ndarray:
    """The rows of m, indexed by the pairs (i, k) of a d x d operator in
    row-major order, combined as the real coordinates of
    ``hermitian_features`` weigh them: sum_ik m[ik] conj(x_i) x_k =
    sum_f c_f g_f for the features g of x and the combined rows c. For a
    Hermitian m, c is real."""
    iu, ku = np.triu_indices(d, 1)
    ik, ki = iu * d + ku, ku * d + iu
    return np.concatenate([m[np.arange(d) * (d + 1)], m[ik] + m[ki], 1j * (m[ik] - m[ki])])


@dataclass(frozen=True, eq=False)
class LiouvilleDensity:
    """Evaluatable density p -> tr(sigma p) on projective space for a state
    sigma, evaluated as ||x F||^2 from the eigenfactor F built once here, or
    as the real coordinates of s = conj(F) F^T applied to the Hermitian
    features of the rows (``eval_features``)."""

    source: DensityMatrix

    def __post_init__(self):
        factor = eigenfactor(self.source)
        coordinates = real_coordinates((factor.conj() @ factor.T).ravel(), self.source.dim)
        object.__setattr__(self, "_factor", factor)
        object.__setattr__(self, "_coordinates", np.ascontiguousarray(coordinates.real))

    def __call__(self, p: ProjectivePoint) -> float:
        return float(self.eval_batch(p.vector[None, :])[0])

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """Density ||x F||^2 per row x of any norm, non-negative by construction."""
        require_rows(points, self.source.dim)
        amp = (points @ self._factor).view(float)
        return np.einsum("bi,bi->b", amp, amp)

    def eval_features(self, features: np.ndarray) -> np.ndarray:
        """<x|s|x> per column of the (d^2, m) ``hermitian_features`` of rows
        x of any norm, one GEMV. Rounding can leave a density that is zero
        in exact arithmetic slightly negative, so the result is clamped at 0."""
        out = self._coordinates @ features
        return np.maximum(out, 0.0, out=out)


def liouville_density(sigma: DensityMatrix) -> LiouvilleDensity:
    """Density p -> tr(sigma p); the geometric stand-in for the state sigma."""
    return LiouvilleDensity(sigma)


@dataclass(frozen=True, eq=False)
class ObservableFunction:
    """Scalar phase-space function f_A(p) = (n+1) tr(A p) - tr(A)."""

    operator: HermitianOperator

    @property
    def kappa(self) -> float:
        return float(self.operator.dim + 1)

    def __call__(self, p: ProjectivePoint) -> float:
        return float(self.eval_batch(p.vector[None, :])[0])

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        a = self.operator.matrix
        require_rows(points, self.operator.dim)
        quad = quadratic_form(points, a).real
        return self.kappa * quad - np.trace(a).real


def observable_function(a) -> ObservableFunction:
    """Phase-space representative of an observable, with kappa fixed at n+1."""
    op = a if isinstance(a, HermitianOperator) else HermitianOperator(a)
    return ObservableFunction(op)


@dataclass(frozen=True, eq=False)
class Frame:
    """Exactly n mutually orthogonal points: an orthonormal basis as rays."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise InvalidFrame("a frame needs at least one point")
        n = pts[0].dim
        if any(p.dim != n for p in pts):
            raise InvalidFrame("frame points must share one dimension")
        if len(pts) != n:
            raise InvalidFrame(f"a frame in dimension {n} needs exactly {n} points, got {len(pts)}")
        for i in range(n):
            for j in range(i + 1, n):
                ov = pts[i].overlap(pts[j])
                if ov > VALIDATION_TOL:
                    raise InvalidFrame(
                        f"points {i} and {j} overlap by {ov:.3e} (> {VALIDATION_TOL:.0e})"
                    )

    @property
    def dim(self) -> int:
        return self.points[0].dim


def random_frame(n: int, rng) -> Frame:
    """Frame from the columns of a Haar-random unitary."""
    u = haar_unitary(n, rng)
    return Frame(tuple(ProjectivePoint(u[:, j].copy()) for j in range(n)))


def frame_sum(f, frame: Frame):
    """Sum of f over the frame's points (the frame-function constant)."""
    return sum(f(p) for p in frame.points)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent vector at ``base`` realized as -i[A, p] for a Hermitian generator A.

    Generators are not unique; equality of tangent vectors is equality of the
    realized matrices, not of generators.
    """

    base: ProjectivePoint
    generator: np.ndarray

    def __post_init__(self):
        a = matrix_of(self.generator)
        if a.shape[0] != self.base.dim:
            raise DimensionMismatch(
                f"generator dim {a.shape[0]} != base dim {self.base.dim}"
            )
        require_hermitian(a, what="generator")
        object.__setattr__(self, "generator", a)
        a.setflags(write=False)

    def realized(self) -> np.ndarray:
        """The tangent matrix -i[A, p]; Hermitian and traceless."""
        p = self.base.projector()
        return -1j * (self.generator @ p - p @ self.generator)


def _check_based_at(p: ProjectivePoint, *vectors: TangentVector):
    for v in vectors:
        if not v.base == p:
            raise BaseMismatch("tangent vector is not based at the given point")


def symplectic_form(p: ProjectivePoint, u: TangentVector, v: TangentVector) -> float:
    """omega_p(u, v) = -i kappa tr([A_u, A_v] p), kappa = n + 1."""
    _check_based_at(p, u, v)
    kappa = p.dim + 1
    proj = p.projector()
    comm = u.generator @ v.generator - v.generator @ u.generator
    return float((-1j * kappa * np.trace(comm @ proj)).real)


def fs_metric(p: ProjectivePoint, u: TangentVector, v: TangentVector) -> float:
    """g_p(u, v) = -kappa tr(p([A_u,p][A_v,p] + [A_v,p][A_u,p])), kappa = n + 1."""
    _check_based_at(p, u, v)
    kappa = p.dim + 1
    proj = p.projector()
    cu = u.generator @ proj - proj @ u.generator
    cv = v.generator @ proj - proj @ v.generator
    return float((-kappa * np.trace(proj @ (cu @ cv + cv @ cu))).real)


def complex_structure(p: ProjectivePoint, v: TangentVector) -> TangentVector:
    """j_p v with realized matrix i[v, p]; applying twice negates the tangent."""
    _check_based_at(p, v)
    proj = p.projector()
    generator = 1j * (v.generator @ proj - proj @ v.generator)
    return TangentVector(p, generator)


def segre(p_a: ProjectivePoint, p_b: ProjectivePoint) -> ProjectivePoint:
    """Embedding (p_a, p_b) -> ray of x_a (x) x_b in the joint space."""
    return project(np.kron(p_a.vector, p_b.vector))


def schrodinger_flow(p: ProjectivePoint, hamiltonian, t: float) -> ProjectivePoint:
    """Evolve a point by exp(-iHt) computed from the eigendecomposition of H;
    exact up to roundoff at any t."""
    if not np.isfinite(t):
        raise BadParameter(f"time t must be finite, got {t!r}")
    h = matrix_of(hamiltonian)
    if h.shape[0] != p.dim:
        raise DimensionMismatch(f"Hamiltonian dim {h.shape[0]} != point dim {p.dim}")
    vals, vecs = spectral(np.linalg.eigh, h)
    phases = np.exp(-1j * vals * t)
    evolved = vecs @ (phases * (vecs.conj().T @ p.vector))
    return project(evolved)
