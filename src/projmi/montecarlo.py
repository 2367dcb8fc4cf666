"""Deterministic Gaussian Monte Carlo over projective space.

The invariant measure is realized by drawing standard complex Gaussian
vectors (independent N(0,1) real and imaginary parts per component) and
projecting them to the unit sphere; the raw-Gaussian estimators skip the
projection. One sequential loop draws, evaluates and checks every batch: the
stream of batch k is derived from (seed, k) and batches are reduced in
ascending k, so a fixed seed reproduces every estimate bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    NonFiniteSample,
    ReconstructionOutOfTolerance,
    ValidationError,
)
from .native import single_blas_thread
from .states import DensityMatrix, validate_density

DEFAULT_BATCH_SIZE = 4096
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SamplerConfig:
    """Seed, sample count and batch size of one Monte Carlo run.

    ``batch_size`` is clamped to ``n_samples`` so every batch is nonempty.
    """

    seed: int
    n_samples: int
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self):
        if self.n_samples < 2:
            raise BadParameter(f"n_samples must be >= 2, got {self.n_samples}")
        if self.batch_size < 1:
            raise BadParameter(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_size > self.n_samples:
            object.__setattr__(self, "batch_size", self.n_samples)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result: mean, standard error, and reproduction metadata."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    method: str


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic generator for batch ``index`` of a run seeded by ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed & _SEED_MASK, index]))


def gaussian_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """One length-n complex vector with 2n i.i.d. standard normal coordinates."""
    z = rng.standard_normal(2 * n)
    return z[:n] + 1j * z[n:]


def _batches(cfg: SamplerConfig, dims: tuple, project: bool, batch_f):
    """Yield ``(factors, values)`` for each batch of the run, in order.

    Batch k draws one (m, n) complex Gaussian array per entry of ``dims``
    from the substream of (cfg.seed, k), projects its rows to unit vectors
    when ``project`` is set, and evaluates ``batch_f(*factors)`` to m reals;
    a non-finite value is an error naming its absolute sample index.
    """
    full, rem = divmod(cfg.n_samples, cfg.batch_size)
    sizes = [cfg.batch_size] * full + ([rem] if rem else [])
    for k, m in enumerate(sizes):
        rng = substream(cfg.seed, k)
        factors = []
        for n in dims:
            z = rng.standard_normal((m, 2 * n))
            if project:
                z /= np.sqrt(np.einsum("ij,ij->i", z, z))[:, None]
            c = np.empty((m, n), dtype=complex)
            c.real, c.imag = z[:, :n], z[:, n:]
            factors.append(c)
        with single_blas_thread():
            values = np.asarray(batch_f(*factors), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            bad = k * cfg.batch_size + int(np.argmin(finite))
            raise NonFiniteSample(f"integrand returned a non-finite value at sample {bad}")
        yield factors, values


def _estimate(cfg: SamplerConfig, dims: tuple, project: bool, batch_f, method: str):
    """Mean and standard error of the integrand over all batches.

    The standard error estimates the per-sample standard deviation from the
    spread of batch means (single-batch runs fall back to the within-batch
    spread of the centred values) and divides by sqrt(n_samples).
    """
    results = []
    for _, values in _batches(cfg, dims, project, batch_f):
        results.append((float(values.sum()), values.size))
    total = 0.0
    for batch_sum, _ in results:
        total += batch_sum
    mean = total / cfg.n_samples

    if len(results) >= 2:
        spread = 0.0
        for batch_sum, m in results:
            delta = batch_sum / m - mean
            spread += m * delta * delta
        var_sample = spread / (len(results) - 1)
    else:
        # One batch: ``values`` holds the whole sample. Centring first avoids
        # the cancellation of sum(v^2) - m*mean^2.
        centred = values - mean
        var_sample = float(centred @ centred) / (values.size - 1)
    se = float(np.sqrt(var_sample / cfg.n_samples))
    return MCEstimate(mean, se, cfg.n_samples, cfg.seed, method)


def integrate_nu(n: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Integral over the invariant probability measure on rays.

    ``batch_f`` maps an (m, n) array of unit rows to m reals.
    """
    return _estimate(cfg, (n,), True, batch_f, "nu")


def integrate_mu(n: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Integral over the invariant measure of total mass n (n times the nu integral)."""
    est = integrate_nu(n, cfg, batch_f=batch_f)
    return MCEstimate(n * est.mean, n * est.std_error, est.n_samples, est.seed, "mu")


def integrate_product_nu(n_a: int, n_b: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Integral of ``batch_f(xs, ys)`` over independent invariant directions
    of two factors (unit rows of widths n_a and n_b)."""
    return _estimate(cfg, (n_a, n_b), True, batch_f, "product_nu")


def gaussian_expectation(n: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Expectation of ``batch_f(xs)`` over raw (unnormalized) standard complex Gaussians."""
    return _estimate(cfg, (n,), False, batch_f, "gaussian")


def gaussian_pair_expectation(
    n_a: int, n_b: int, cfg: SamplerConfig, *, batch_f
) -> MCEstimate:
    """Expectation of ``batch_f(xs, ys)`` over independent raw Gaussian vectors."""
    return _estimate(cfg, (n_a, n_b), False, batch_f, "gaussian_pair")


def reconstruct_density_matrix(n: int, cfg: SamplerConfig, *, batch_f) -> DensityMatrix:
    """Recover the state behind a Liouville-density evaluator from second moments.

    ``batch_f`` evaluates the density on an (m, n) array of unit rows. Uses
    sigma_hat = n(n+1) E[rho(p) p] - I over the invariant measure; the
    accumulated matrix is symmetrized, validated at the relaxed tolerance
    5e-2, then clamped and trace-normalized to a strictly valid state.
    """
    accum = np.zeros((n, n), dtype=complex)
    for (points,), weights in _batches(cfg, (n,), True, batch_f):
        accum += np.einsum("b,bi,bj->ij", weights, points, points.conj(), optimize=True)

    moment = accum / cfg.n_samples
    raw = n * (n + 1) * moment - np.eye(n)
    sym = (raw + raw.conj().T) / 2
    try:
        validate_density(sym, tol=5e-2)
    except ValidationError as exc:
        raise ReconstructionOutOfTolerance(
            f"reconstructed matrix failed relaxed validation: {exc}"
        ) from exc
    vals, vecs = np.linalg.eigh(sym)
    clamped = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    repaired = clamped / np.trace(clamped).real
    return validate_density(repaired)
