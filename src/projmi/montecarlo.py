"""Deterministic Gaussian Monte Carlo over projective space.

The invariant measure is realized by drawing standard complex Gaussian
vectors (independent N(0,1) real and imaginary parts per component) and
projecting them to the unit sphere. A run of n samples is cut into blocks
of BLOCK rows (the last one shorter), and block k draws from the stream of
(seed, k): one (m, 2n) array of standard normals per factor, x first, read
as m complex rows of width n without a copy (consecutive normals are the
real and imaginary parts of one entry). Blocks are drawn, evaluated,
checked and reduced to their own moments on worker threads, one per CPU,
and the caller merges those moments in ascending k. An estimate and its
standard error therefore depend on (seed, n_samples) only, not on the
number of CPUs, and reproduce bit for bit.

Threads pay only for calls that release the global interpreter lock for
long. On a 2-CPU host, two threads ran the draw 1.4-2.0x and a BLAS GEMM
about 2.0x as fast as one, but a 4096-element ``np.multiply`` 0.4-0.5x as
fast per call, so an integrand should make few passes over its block.
"""

from __future__ import annotations

import inspect
import os
import sys
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANT_CONTROL_RSD
from .errors import (
    BadParameter,
    NonFiniteSample,
    ReconstructionOutOfTolerance,
    ValidationError,
)
from .native import single_blas_thread
from .states import DensityMatrix, rank_cutoff, spectral, validate_density

# Rows per block. Fixed, so that the stream and the standard error depend on
# (seed, n_samples) only; larger blocks raise the peak memory of wide kernels.
BLOCK = 4096

# Fewest samples at which a regression estimate uses its controls. Below it
# the residual SE is overconfident on heavy-tailed integrands: with the ten
# MI controls, over 400 seeds of the projective MI of maxent 3x3, pull sd 20
# and 1.36 at 20 and 100 samples (sample mean: 1.15 and 0.96). At 4096 it is
# 0.987 on maxent 3x3, 1.055 on maxent 5x5 and 0.956 for mixed 9x9
# projective against decomposition (300 seed pairs).
MIN_CONTROL_SAMPLES = 4096


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


def _gaussian_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m complex Gaussian rows of width n from ``rng``, as the C-contiguous
    complex view of one (m, 2n) standard normal draw: consecutive normals
    are the real and imaginary parts of one entry, and nothing is copied."""
    return rng.standard_normal((m, 2 * n)).view(complex)


def gaussian_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """One length-n complex vector with 2n i.i.d. standard normal coordinates,
    drawn in the engine's layout (``_gaussian_rows``)."""
    return _gaussian_rows(rng, 1, n)[0]


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


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _takes_start(batch_f) -> bool:
    """Whether ``batch_f`` has a ``start`` parameter, for the absolute index
    of its block's first sample."""
    try:
        return "start" in inspect.signature(batch_f).parameters
    except (TypeError, ValueError):  # no signature to read, as for a ufunc
        return False


def _sole_reference(a) -> bool:
    """Whether the array ``a`` is writeable and held only by its caller's
    one name, and the array it views, if any, only by ``a``: then nothing
    else can read it, and the caller may write over it.

    Reference counts are compared with those of a fresh view held the same
    way, so the answer does not depend on how the interpreter counts the
    references of a call; numpy runs the same test before it reuses a
    temporary's memory.
    """
    if type(a) is not np.ndarray or not a.flags.writeable:
        return False
    probe = np.empty(1)[:]
    if sys.getrefcount(a) != sys.getrefcount(probe) + 1:  # + the caller's name
        return False
    owner, probe_owner = a.base, probe.base
    return owner is None or (type(owner) is np.ndarray and owner.base is None
                             and sys.getrefcount(owner) == sys.getrefcount(probe_owner))


def _block(dims: tuple, batch_f, takes_start: bool, rng, start: int, m: int, reduce):
    """Whether ``batch_f`` returns rows of values, and ``reduce(factors,
    columns, sums)``, for the block of m samples from ``start``.

    Draws one raw (m, n) complex Gaussian array per entry of ``dims`` from
    ``rng``, in order (``_gaussian_rows``), and evaluates
    ``batch_f(*factors)``, passing ``start=start`` if it ``takes_start``, to
    one value, or one row of values, per sample.
    ``columns`` holds the values column by column, contiguously, and
    ``sums`` their sums. ``reduce`` may write over ``columns``: they are the
    integrand's own array only when nothing else holds it, and a copy when
    ``batch_f`` may still hold the array it returned, such as a view of its
    input or of a caller's array. A non-finite value is an error naming its
    absolute sample index.
    """
    factors = [_gaussian_rows(rng, m, n) for n in dims]
    result = batch_f(*factors, start=start) if takes_start else batch_f(*factors)
    private = _sole_reference(result)  # asked before values and columns refer to it
    values = np.asarray(result, dtype=float)
    columns = np.ascontiguousarray(values.reshape(len(values), -1).T)
    if not private and columns.base is not None:  # not a copy made above
        columns = columns.copy()
    sums = columns.sum(axis=1)
    # A non-finite value makes its column's sum non-finite: only then look for it.
    if not np.isfinite(sums).all():
        finite = np.isfinite(values)
        if not finite.all():
            bad = start + int(np.argmin(finite)) // (values.size // m)
            raise NonFiniteSample(f"integrand returned a non-finite value at sample {bad}")
    return values.ndim == 2, reduce(factors, columns, sums)


def _map_blocks(cfg: SamplerConfig, dims: tuple, batch_f, reduce) -> list:
    """``_block``'s result for every block of the run, in block order.

    Block k has min(BLOCK, rows left) samples and draws from the substream
    of (cfg.seed, k). The calling thread makes the substreams in block order
    and hands the blocks to a pool of one worker per CPU, at most one per
    block, that lives for this run only. OpenBLAS runs single-threaded for
    the whole run; the count is process-wide, so the workers inherit it. An
    integrand with a ``start`` parameter is passed the absolute index of its
    block's first sample. A block's result depends on its own rows only, so
    the list is the same for any number of workers. The first block in block
    order that raises stops the run with its error: the blocks not yet
    started are cancelled, and the call returns once the running ones have
    finished.
    """
    # Imported here: concurrent.futures takes about 8 ms to import.
    from concurrent.futures import ThreadPoolExecutor

    takes_start = _takes_start(batch_f)
    starts = range(0, cfg.n_samples, BLOCK)
    with single_blas_thread(), ThreadPoolExecutor(min(_cpus(), len(starts))) as pool:
        futures = []
        try:
            for k, start in enumerate(starts):
                m = min(BLOCK, cfg.n_samples - start)
                futures.append(pool.submit(_block, dims, batch_f, takes_start,
                                           substream(cfg.seed, k), start, m, reduce))
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise


def _pooled(cfg: SamplerConfig, dims: tuple, batch_f, p: int):
    """Moments of the integrand's columns, pooled over the blocks of a run.

    Returns whether the integrand returns rows of values, the sample means of
    its columns, the sums of squared deviations of all but the last p
    (control) columns and, for p > 0, the (p, p) co-moment matrix of the
    controls and the (k, p) co-moments of each of the other k columns with
    them. Each block's moments are taken about its own means, on the worker
    that evaluated it, and merged in block order as in Chan, Golub and
    LeVeque (1979), cross terms included: M = sum_b M_b + sum_b m_b (u_b -
    u)(u_b - u)^T for block means u_b and run means u. Centring within a
    block avoids the cancellation of sum(v^2) - m u^2. Every call that forms
    one column's moments has the same shape whatever the number of columns,
    so a column's moments do not depend on the others.
    """

    def moments(factors, columns, sums):
        m = columns.shape[1]
        columns -= (sums / m)[:, None]
        f, c = columns[:len(columns) - p], columns[len(columns) - p:]
        m2 = np.einsum("ij,ij->i", f, f)
        if not p:
            return sums, m2, [m], None, None
        # numpy sends c @ c.T to syrk, about 4x slower than gemm at (6, 4096)
        return sums, m2, [m], c.copy() @ c.T, [c @ column for column in f]

    blocks = _map_blocks(cfg, dims, batch_f, moments)
    rows = blocks[-1][0]
    sums, m2s, sizes, ccs, fcs = zip(*(block for _, block in blocks))
    # Reduce over blocks in block order: sum() would pair the terms.
    sums, m2s, sizes = np.array(sums), np.array(m2s), np.array(sizes)
    mean = np.cumsum(sums, axis=0)[-1] / cfg.n_samples
    deltas = sums / sizes - mean
    k = len(mean) - p
    if k < 1:
        raise BadParameter(f"the integrand returned {len(mean)} columns, "
                           f"no more than its {p} controls")
    df, dc = deltas[:, :k], sizes * deltas[:, k:]
    m2 = np.cumsum(m2s + sizes * df * df, axis=0)[-1]
    if not p:
        return rows, mean, m2, None, None
    cc = np.cumsum(np.array(ccs) + dc[:, :, None] * deltas[:, None, k:], axis=0)[-1]
    fc = np.cumsum(np.array(fcs) + df[:, :, None] * dc[:, None, :], axis=0)[-1]
    return rows, mean, m2, cc, fc


@dataclass(frozen=True)
class ControlFit:
    """The controls a regression estimate uses and the inverse it solves with.

    ``kept`` indexes the controls that vary beyond rounding, ``scale`` holds
    1 / sqrt of their co-moments with themselves, and ``inverse`` is the
    pseudo-inverse of their correlation matrix over its ``rank`` eigenvalues
    above the numerical-rank cutoff.
    """

    kept: np.ndarray
    scale: np.ndarray
    inverse: np.ndarray
    rank: int


def _control_fit(control_mean: np.ndarray, cc: np.ndarray, n: int) -> ControlFit:
    """The fit of ``_estimate`` for controls of sample means ``control_mean``
    and co-moment matrix ``cc`` over n samples.

    A control whose sample standard deviation is at most CONSTANT_CONTROL_RSD
    times its |mean| is constant up to rounding (the marginal densities of a
    maximally entangled state) and is dropped. Collinear controls share the
    eigenvalues the rank cutoff drops.
    """
    comoment = np.diag(cc)
    kept = np.flatnonzero(comoment / (n - 1) > (CONSTANT_CONTROL_RSD * control_mean) ** 2)
    if not kept.size:
        return ControlFit(kept, np.empty(0), np.empty((0, 0)), 0)
    scale = 1.0 / np.sqrt(comoment[kept])
    corr = scale[:, None] * cc[np.ix_(kept, kept)] * scale[None, :]
    vals, vecs = spectral(np.linalg.eigh, corr)
    on = vals > rank_cutoff(vals)
    inverse = (vecs[:, on] / vals[on]) @ vecs[:, on].T
    return ControlFit(kept, scale, inverse, int(on.sum()))


def _estimate(cfg: SamplerConfig, dims: tuple, batch_f, method: str, control_means=()):
    """Mean and standard error of the integrand, column by column.

    An integrand of m reals gives one MCEstimate, one of (m, k) arrays a
    tuple of k from the same draws. Without controls the estimate is the
    sample mean and its standard error the pooled per-sample standard
    deviation over sqrt(n_samples), var = (sum_b M2_b + sum_b m_b (mean_b -
    mean)^2) / (n - 1) (see ``_pooled``).

    With p ``control_means`` mu_C the integrand returns k + p columns, the
    last p of them controls C of those exact means, and each value column f
    gets the regression (control-variate) estimate f_bar - beta^T (C_bar -
    mu_C), beta the least-squares coefficients of f on C (Lavenberg and Welch
    1981; Glasserman 2004, section 4.1). Its squared standard error is the
    residual sum of squares over (n - 1 - p_used) n, clamped at 0, where
    p_used is the rank of the fit (``_control_fit``). A run of fewer than
    MIN_CONTROL_SAMPLES samples, or of n <= p + 1, uses no controls. A
    column's estimate depends on its own values and the controls only.
    """
    p = len(control_means)
    rows, mean, m2, cc, fc = _pooled(cfg, dims, batch_f, p)
    n, dof = cfg.n_samples, cfg.n_samples - 1
    mean, control_mean = mean[:len(mean) - p], mean[len(mean) - p:]
    if p and n >= max(MIN_CONTROL_SAMPLES, p + 2):
        fit = _control_fit(control_mean, cc, n)
        dof -= fit.rank
        gap = (control_mean - np.asarray(control_means, dtype=float))[fit.kept]
        for j, cross in enumerate(fc):
            scaled = fit.scale * cross[fit.kept]
            beta_scaled = fit.inverse @ scaled
            mean[j] -= (fit.scale * beta_scaled) @ gap
            m2[j] = max(m2[j] - scaled @ beta_scaled, 0.0)
    estimates = tuple(
        MCEstimate(float(mu), float(np.sqrt(v / dof / n)), n, cfg.seed, method)
        for mu, v in zip(mean, m2)
    )
    return estimates if rows else estimates[0]


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


def gaussian_pair_expectation(
    n_a: int, n_b: int, cfg: SamplerConfig, *, batch_f, control_means=()
):
    """Expectation of ``batch_f(xs, ys)`` over independent raw Gaussian vectors,
    per column; the last len(control_means) columns are controls of those
    exact means (see ``_estimate``), and the estimates are of the others."""
    return _estimate(cfg, (n_a, n_b), batch_f, "gaussian_pair", control_means)


def reconstruct_density_matrix(n: int, cfg: SamplerConfig, *, batch_f) -> DensityMatrix:
    """Recover the state behind a Liouville-density evaluator from second moments.

    ``batch_f`` evaluates the density on an (m, n) array of unit rows. Uses
    sigma_hat = n(n+1) E[rho(p) p] - I over the invariant measure; the
    accumulated matrix is validated (symmetrized and clamped) at the relaxed
    tolerance 5e-2, then trace-normalized to a strictly valid state.
    """
    def reduce(factors, columns, sums):
        # _on_rays projected the drawn rows in place, so ``points`` are unit rows.
        (points,), (weights,) = factors, columns
        return np.einsum("b,bi,bj->ij", weights, points, points.conj(), optimize=True)

    accum = np.zeros((n, n), dtype=complex)
    for _, block in _map_blocks(cfg, (n,), _on_rays(batch_f), reduce):
        accum += block

    moment = accum / cfg.n_samples
    raw = n * (n + 1) * moment - np.eye(n)
    try:
        clamped = validate_density(raw, tol=5e-2).matrix
    except ValidationError as exc:
        raise ReconstructionOutOfTolerance(
            f"reconstructed matrix failed relaxed validation: {exc}"
        ) from exc
    return validate_density(clamped / np.trace(clamped).real)
