"""Deterministic Gaussian Monte Carlo over projective space.

The invariant measure is realized by drawing standard complex Gaussian
vectors (independent N(0,1) real and imaginary parts per component) and
projecting them to the unit sphere. One sequential loop draws raw vectors,
evaluates and checks every block: a run of n samples is cut into blocks of
BLOCK rows (the last one shorter), block k draws from the stream of
(seed, k), and blocks are reduced in ascending k. An estimate and its
standard error therefore depend on (seed, n_samples) only and reproduce bit
for bit.
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

# Rows per block. Fixed, so that the stream and the standard error depend on
# (seed, n_samples) only; larger blocks raise the peak memory of wide kernels.
BLOCK = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Seed in [0, 2^64) and sample count of one Monte Carlo run."""

    seed: int
    n_samples: int

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise BadParameter(f"seed must be an integer in [0, 2^64), got {self.seed}")
        if self.n_samples < 2:
            raise BadParameter(f"n_samples must be >= 2, got {self.n_samples}")


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result: mean, standard error, and reproduction metadata."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    method: str


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic generator for block ``index`` of a run seeded by ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def gaussian_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """One length-n complex vector with 2n i.i.d. standard normal coordinates."""
    z = rng.standard_normal(2 * n)
    return z[:n] + 1j * z[n:]


def project_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalise the rows of a C-contiguous complex (m, n) array in place;
    return it and the squared norm r^2 of each original row."""
    v = z.view(float)
    r2 = np.einsum("ij,ij->i", v, v)
    v /= np.sqrt(r2)[:, None]
    return z, r2


def _on_rays(batch_f):
    """``batch_f`` applied to the drawn rows after projecting them in place."""
    return lambda *factors: batch_f(*(project_rows(z)[0] for z in factors))


def _blocks(cfg: SamplerConfig, dims: tuple, batch_f):
    """Yield ``(factors, values)`` for each block of the run, in order.

    Block k has min(BLOCK, rows left) rows m. It draws one raw (m, n) complex
    Gaussian array per entry of ``dims`` from the substream of (cfg.seed, k)
    and evaluates ``batch_f(*factors)`` to one value, or one row of values,
    per sample; a non-finite value is an error naming its absolute sample
    index.
    """
    for k, start in enumerate(range(0, cfg.n_samples, BLOCK)):
        m = min(BLOCK, cfg.n_samples - start)
        rng = substream(cfg.seed, k)
        factors = []
        for n in dims:
            z = rng.standard_normal((m, 2 * n))
            c = np.empty((m, n), dtype=complex)
            c.real, c.imag = z[:, :n], z[:, n:]
            factors.append(c)
        with single_blas_thread():
            values = np.asarray(batch_f(*factors), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            bad = start + int(np.argmin(finite)) // (values.size // m)
            raise NonFiniteSample(f"integrand returned a non-finite value at sample {bad}")
        yield factors, values


def _estimate(cfg: SamplerConfig, dims: tuple, batch_f, method: str):
    """Mean and standard error of the integrand, column by column.

    An integrand of m reals gives one MCEstimate, one of (m, k) arrays a
    tuple of k from the same draws. The standard error is the pooled
    per-sample standard deviation over sqrt(n_samples): each block's sum of
    squared deviations from its own mean, merged across blocks as in Chan,
    Golub and LeVeque (1979), var = (sum_b M2_b + sum_b m_b (mean_b -
    mean)^2) / (n - 1). Centring within a block avoids the cancellation of
    sum(v^2) - m mean^2.
    """
    sums, m2s, sizes = [], [], []
    for _, values in _blocks(cfg, dims, batch_f):
        columns = np.ascontiguousarray(values.reshape(len(values), -1).T)
        block_sums = columns.sum(axis=1)
        centred = columns - (block_sums / len(values))[:, None]
        sums.append(block_sums)
        m2s.append(np.einsum("ij,ij->i", centred, centred))
        sizes.append([len(values)])
    # Reduce over blocks in block order: sum() would pair the terms.
    sums, m2s, sizes = np.array(sums), np.array(m2s), np.array(sizes)
    mean = np.cumsum(sums, axis=0)[-1] / cfg.n_samples
    deltas = sums / sizes - mean
    var = np.cumsum(m2s + sizes * deltas * deltas, axis=0)[-1] / (cfg.n_samples - 1)
    estimates = tuple(
        MCEstimate(float(mu), float(np.sqrt(v / cfg.n_samples)), cfg.n_samples, cfg.seed, method)
        for mu, v in zip(mean, var)
    )
    return estimates if values.ndim == 2 else estimates[0]


def integrate_nu(n: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Integral over the invariant probability measure on rays.

    ``batch_f`` maps an (m, n) array of unit rows to m reals.
    """
    return _estimate(cfg, (n,), _on_rays(batch_f), "nu")


def integrate_mu(n: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Integral over the invariant measure of total mass n (n times the nu integral)."""
    est = integrate_nu(n, cfg, batch_f=batch_f)
    return MCEstimate(n * est.mean, n * est.std_error, est.n_samples, est.seed, "mu")


def integrate_product_nu(n_a: int, n_b: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Integral of ``batch_f(xs, ys)`` over independent invariant directions
    of two factors (unit rows of widths n_a and n_b)."""
    return _estimate(cfg, (n_a, n_b), _on_rays(batch_f), "product_nu")


def gaussian_expectation(n: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Expectation of ``batch_f(xs)`` over raw (unnormalized) standard complex Gaussians."""
    return _estimate(cfg, (n,), batch_f, "gaussian")


def gaussian_pair_expectation(n_a: int, n_b: int, cfg: SamplerConfig, *, batch_f):
    """Expectation of ``batch_f(xs, ys)`` over independent raw Gaussian vectors, per column."""
    return _estimate(cfg, (n_a, n_b), batch_f, "gaussian_pair")


def reconstruct_density_matrix(n: int, cfg: SamplerConfig, *, batch_f) -> DensityMatrix:
    """Recover the state behind a Liouville-density evaluator from second moments.

    ``batch_f`` evaluates the density on an (m, n) array of unit rows. Uses
    sigma_hat = n(n+1) E[rho(p) p] - I over the invariant measure; the
    accumulated matrix is validated (symmetrized and clamped) at the relaxed
    tolerance 5e-2, then trace-normalized to a strictly valid state.
    """
    accum = np.zeros((n, n), dtype=complex)
    # _on_rays projects the yielded rows in place, so ``points`` are unit rows.
    for (points,), weights in _blocks(cfg, (n,), _on_rays(batch_f)):
        accum += np.einsum("b,bi,bj->ij", weights, points, points.conj(), optimize=True)

    moment = accum / cfg.n_samples
    raw = n * (n + 1) * moment - np.eye(n)
    try:
        clamped = validate_density(raw, tol=5e-2).matrix
    except ValidationError as exc:
        raise ReconstructionOutOfTolerance(
            f"reconstructed matrix failed relaxed validation: {exc}"
        ) from exc
    return validate_density(clamped / np.trace(clamped).real)
