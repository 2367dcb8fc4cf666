"""Deterministic Gaussian Monte Carlo over projective space.

The invariant measure is realized by drawing standard complex Gaussian
vectors (independent N(0,1) real and imaginary parts per component) and
projecting them to the unit sphere. A run of n samples is cut into blocks
of BLOCK samples (the last one shorter), and block k draws from its own
stream, ``states.substream(seed, k)``, which no seeded state shares: one
(rows, 2 width) array of standard normals per factor, x first, read as
complex rows without a copy (consecutive normals are the real and imaginary
parts of one entry). A one-factor block draws one row per sample.

A two-factor block is a crossed design. Its rows form groups of GROUP x rows
and GROUP y rows, and each group yields all GROUP^2 pairs of its rows, so a
drawn row serves GROUP pairs and a block of BLOCK pairs draws BLOCK / GROUP
rows per factor. Pair GROUP s + i of group g joins x row GROUP g + i with
y row GROUP g + (i + s) mod GROUP (``pair_index``): any prefix of a group
pairs each row at most once more than any other, and the last block's last
group is cut after its last sample. ``n_samples`` counts pairs, and a sample
index, such as an error names, is the index of a pair in this order.

An integrand of raw rows is called as ``batch_f(*rows, start=k)``, k the
index of its block's first sample, so that it can number the samples it
names; an integrand of unit rows receives only the unit rows.

The pairs of a group share rows, so their values correlate, but the groups
are independent and identically distributed: the group is the sampling
unit, as in cluster sampling (Cochran 1977, "Sampling Techniques", ch. 9),
and a one-factor run is the same design with groups of one sample. Each
column is reduced to its group totals T_g over the n_g samples of each
group, and with N samples in G groups the squared standard error of the
mean is G / (G - 1) sum_g e_g^2 / N^2, e_g = T_g - n_g mean: for groups of
one, the per-sample variance over N. This prices any correlation between
the pairs of a group, and a short last group needs no special case.

Blocks are drawn, evaluated, checked and reduced to their own moments on
worker threads, one per CPU, and the caller merges those moments in
ascending k. An estimate and its standard error therefore depend on
(seed, n_samples) only, not on the number of CPUs, and reproduce bit for
bit. The reduction never writes into the values an integrand returns, so
an integrand may return a view of its input or of an array it keeps. The
first block in block order that raises ends the run with its error, once
the blocks already running have finished; the others never start.
"""

from __future__ import annotations

import functools
import numbers
import os
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
from .states import (
    DensityMatrix, rank_cutoff, require_seed, spectral, substream, validate_density,
)

# Samples per block. Fixed, so that the stream and the standard error depend
# on (seed, n_samples) only; larger blocks raise the peak memory of wide kernels.
BLOCK = 8192

# Rows per factor in one crossed group of a two-factor block.
GROUP = 4

# Pair GROUP s + i of a group joins its x row i and its y row (i + s) mod
# GROUP, indexed [s, i].
_SHIFT, _X_ROW = np.indices((GROUP, GROUP))
_Y_ROW = (_X_ROW + _SHIFT) % GROUP

# Fewest samples at which a regression estimate uses its controls. Below it
# the residual SE is overconfident on heavy-tailed integrands: with the ten
# MI controls fitted on crossed pairs, over 400 seeds of the projective MI of
# maxent 3x3, pull sd 48 and 1.47 at 20 and 100 samples (pull mean 7.1 and
# 0.10). Over 400 seeds, one sample below this threshold (no controls) the
# pull sd is 0.99-1.04 on each MI column of maxent 3x3; at it, 256 groups of
# pairs with a pure state's twelve MI controls, 0.96-1.01 on maxent 3x3 and
# 1.06-1.17 on maxent 5x5 (1.04-1.05 with ten), and with ten, 1.01 for
# mixed 9x9 projective against decomposition (300 seed pairs).
MIN_CONTROL_SAMPLES = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Seed (``states.require_seed``) and sample count, an integer >= 2, of
    one Monte Carlo run."""

    seed: int
    n_samples: int

    def __post_init__(self):
        require_seed(self.seed)
        n = self.n_samples
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
            raise BadParameter(f"n_samples must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo result: mean, standard error, and reproduction metadata."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    method: str


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


@functools.lru_cache(maxsize=4)
def pair_index(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The x row and the y row of each pair of a two-factor block of ``rows``
    rows per factor, a multiple of GROUP, in group order (read-only)."""
    first = np.arange(0, rows, GROUP)[:, None, None]
    index = tuple((first + rows_of_pair).ravel() for rows_of_pair in (_X_ROW, _Y_ROW))
    for array in index:
        array.flags.writeable = False
    return index


def pair_rows(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x rows and the y rows of a block's pairs, in group order: an
    integrand evaluated pair by pair is ``f(*pair_rows(xs, ys))``."""
    ix, iy = pair_index(len(xs))
    return xs[ix], ys[iy]


def group_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_f left[f, i] right[f, j] for the x row i and the y row j of each
    pair of a two-factor block in group order, from (f, rows) coordinates of
    its rows: one (GROUP, f) x (f, GROUP) product per group, batched."""
    f = len(right)
    table = np.matmul(left.reshape(f, -1, GROUP).transpose(1, 2, 0),
                      right.reshape(f, -1, GROUP).transpose(1, 0, 2))
    return table[:, _X_ROW, _Y_ROW].ravel()


def _on_rays(batch_f):
    """``batch_f`` applied to the drawn rows after projecting them in place;
    it is not passed ``start``."""
    return lambda *factors, start: batch_f(*(project_rows(z)[0] for z in factors))


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _group(dims: tuple) -> tuple[int, int]:
    """The rows per factor and the samples of one group: a one-factor group
    is one row, a two-factor group GROUP rows per factor and their GROUP^2
    pairs."""
    rows = GROUP ** (len(dims) - 1)
    return rows, rows ** len(dims)


def _block(dims: tuple, batch_f, rng, start: int, m: int, reduce):
    """Whether ``batch_f`` returns rows of values, and ``reduce(factors,
    columns, totals, sums)``, for the block of m samples from ``start``.

    Draws one raw complex Gaussian array per entry of ``dims`` from ``rng``,
    in order (``_gaussian_rows``): the rows of the block's groups, one group
    started per sample for one factor and per GROUP^2 pairs for two
    (``_group``). It evaluates ``batch_f(*factors, start=start)`` to one
    value, or one row of values, per sample: for two factors, per pair of
    each group in group order (``pair_index``), of which the first m are
    kept. ``columns`` holds the kept values column by column, contiguously,
    ``totals`` their sums over the samples of each group, the last group cut
    after the m-th sample, and ``sums`` the sums of the columns. ``columns``
    may be a view of the array ``batch_f`` returned, which may be its input
    or a caller's array, so ``reduce`` must not write into it. A non-finite
    value is an error naming its absolute sample index.
    """
    rows, size = _group(dims)
    groups = -(-m // size)
    factors = [_gaussian_rows(rng, rows * groups, n) for n in dims]
    values = np.asarray(batch_f(*factors, start=start), dtype=float)
    if len(values) != size * groups:
        raise BadParameter(f"the integrand returned {len(values)} values for a block of "
                           f"{size * groups} samples")
    values = values[:m]
    columns = np.ascontiguousarray(values.reshape(m, -1).T)
    whole = columns
    if m < size * groups:
        whole = np.concatenate((columns, np.zeros((len(columns), size * groups - m))), axis=1)
    # einsum, not a product with ones: BLAS rounds a row by how many sit beside it.
    totals = np.einsum("kgi->kg", whole.reshape(len(columns), groups, size))
    sums = totals.sum(axis=1)
    # A non-finite value makes its column's sum non-finite: only then look for it.
    if not np.isfinite(sums).all():
        finite = np.isfinite(values)
        if not finite.all():
            bad = start + int(np.argmin(finite)) // (values.size // m)
            raise NonFiniteSample(f"integrand returned a non-finite value at sample {bad}")
    return values.ndim == 2, reduce(factors, columns, totals, sums)


def _map_blocks(cfg: SamplerConfig, dims: tuple, batch_f, reduce) -> list:
    """``_block``'s result for every block of the run, in block order.

    Block k has min(BLOCK, samples left) samples and draws from
    ``substream(cfg.seed, k)``. ``Executor.map`` makes the substreams on the
    calling thread, in block order, and hands the blocks to a pool of one
    worker per CPU, at most one per block, that lives for this run only.
    OpenBLAS runs single-threaded for the whole run; the count is
    process-wide, so the workers inherit it. ``batch_f`` is called as ``batch_f(*rows, start=k)``,
    k the absolute index of the block's first sample; ``_on_rays`` passes a
    unit-row integrand only the unit rows. A block's result depends on its
    own rows only, so the list is the same for any number of workers.
    The first block in block order that raises stops the run with its error:
    the map cancels the blocks not yet started, and the pool's exit waits for
    the running ones, so no block runs once the call has returned.
    """
    # Imported here: concurrent.futures takes about 8 ms to import.
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, cfg.n_samples, BLOCK)
    rngs = (substream(cfg.seed, k) for k in range(len(starts)))

    def block(rng, start):
        m = min(BLOCK, cfg.n_samples - start)
        return _block(dims, batch_f, rng, start, m, reduce)

    with single_blas_thread(), ThreadPoolExecutor(min(_cpus(), len(starts))) as pool:
        return list(pool.map(block, rngs, starts))


def _comoments(e: np.ndarray, p: int) -> tuple:
    """Sums of products of the rows of e, the last p of them controls: the
    squares of each other row, the (p, p) products of the controls and the
    (k, p) products of each other row with them. Each row's calls have the
    same shape whatever the number of rows, so its results do not depend on
    the others."""
    f, c = e[:len(e) - p], e[len(e) - p:]
    # numpy sends c @ c.T to syrk, about 4x slower than gemm at a block's size
    return (np.einsum("ij,ij->i", f, f), c.copy() @ c.T,
            np.array([c @ row for row in f]).reshape(len(f), p))


def _merged(blocks, deltas: np.ndarray, ell: np.ndarray, q: np.ndarray, k: int) -> tuple:
    """The ``_comoments`` of a run from those of its blocks, each about its
    own means, by D = sum_b D_b + ell_b delta_b^T + delta_b ell_b^T
    + q_b delta_b delta_b^T, delta_b the block's means less the run's. The
    sums are taken in block order: sum() would pair the terms."""
    m2s, ccs, fcs = (np.array(terms) for terms in zip(*blocks))
    h = ell + q[:, None] * deltas
    df, dc, lf, lc, hf, hc = (a[:, s] for a in (deltas, ell, h) for s in (np.s_[:k], np.s_[k:]))
    return (np.cumsum(m2s + lf * df + df * hf, axis=0)[-1],
            np.cumsum(ccs + lc[:, :, None] * dc[:, None, :] + dc[:, :, None] * hc[:, None, :],
                      axis=0)[-1],
            np.cumsum(fcs + lf[:, :, None] * dc[:, None, :] + df[:, :, None] * hc[:, None, :],
                      axis=0)[-1])


def _pooled(cfg: SamplerConfig, dims: tuple, batch_f, p: int, floor: bool):
    """Moments of the integrand's columns, pooled over the blocks of a run.

    Returns whether the integrand returns rows of values, the sample means of
    its columns, the ``_comoments`` of the deviations e_g = T_g - n_g mean of
    their group totals (the module docstring), the last p columns being
    controls, and, if ``floor``, the sums of squared deviations of the value
    columns' samples from their means (else zeros).

    Each block's moments are taken about its own means, on the worker that
    evaluated it, and merged in block order (``_merged``). Centring within a
    block, into a new array rather than the integrand's values, avoids the
    cancellation of sum(v^2) - m u^2. The merge adds the cross terms of Chan,
    Golub and LeVeque (1979) for groups of n_g samples: q_b = sum_g n_g^2 and
    ell_b = sum_g n_g e_g, which vanishes but for rounding unless the block
    ends in a short group.
    """

    size = _group(dims)[1]

    def moments(factors, columns, totals, sums):
        m, groups = columns.shape[1], totals.shape[1]
        counts = np.minimum(float(size), m - size * np.arange(groups))  # n_g
        mean = sums / m
        e = totals - mean[:, None] * counts
        squares = None
        if floor:
            values = len(columns) - p
            f = columns[:values] - mean[:values, None]
            squares = np.einsum("ij,ij->i", f, f)
        return sums, m, _comoments(e, p), np.einsum("ij,j->i", e, counts), counts @ counts, squares

    blocks = _map_blocks(cfg, dims, batch_f, moments)
    rows = blocks[-1][0]
    sums, sizes, comoments, ells, qs, block_squares = zip(*(block for _, block in blocks))
    sums, sizes = np.array(sums), np.array(sizes)
    mean = np.cumsum(sums, axis=0)[-1] / cfg.n_samples
    k = len(mean) - p
    if k < 1:
        raise BadParameter(f"the integrand returned {len(mean)} columns, "
                           f"no more than its {p} controls")
    deltas = sums / sizes[:, None] - mean
    squares = np.zeros(k)
    if floor:  # merged as groups of one
        df = deltas[:, :k]
        squares = np.cumsum(np.array(block_squares) + df * (sizes[:, None] * df), axis=0)[-1]
    return rows, mean, _merged(comoments, deltas, np.array(ells), np.array(qs), k), squares


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
    and co-moment matrix ``cc`` over n samples, which ``_estimate`` takes to
    be the group totals.

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
    tuple of k from the same draws. With n samples in G groups (``_group``)
    and D a column's co-moment of its group totals (``_pooled``), the squared
    standard error is G D / ((G - 1 - p_used) n^2): for one factor, G = n,
    the pooled per-sample variance over n.

    Without controls the estimate is the sample mean and p_used = 0, and its
    squared standard error is no smaller than the samples' sum of squared
    deviations over (n - 1) n, their variance were they independent. In a
    run of one group (at most GROUP^2 pairs) that is the only term.

    With p ``control_means`` mu_C the integrand returns k + p columns, the
    last p of them controls C of those exact means, and each value column f
    gets the regression (control-variate) estimate f_bar - beta^T (C_bar -
    mu_C), beta the least-squares coefficients of f's group totals on those
    of C (Lavenberg and Welch 1981; Glasserman 2004, section 4.1). D is then
    the co-moment of the residual f - beta^T C, (1, -beta)^T D (1, -beta),
    clamped at 0, and p_used the rank of the fit (``_control_fit``). A run
    of fewer than MIN_CONTROL_SAMPLES samples, or of G <= p + 1, uses no
    controls. A column's estimate depends on its own values and the controls
    only.
    """
    p, n = len(control_means), cfg.n_samples
    groups = -(-n // _group(dims)[1])  # BLOCK is a whole number of groups
    fitted = p > 0 and n >= MIN_CONTROL_SAMPLES and groups >= p + 2
    rows, mean, (d, cc, fc), floor = _pooled(cfg, dims, batch_f, p, not fitted)
    mean, control_mean = mean[:len(mean) - p], mean[len(mean) - p:]
    dof = groups - 1
    if fitted:
        fit = _control_fit(control_mean * (n / groups), cc, groups)
        dof -= fit.rank
        kept = fit.kept
        gap = (control_mean - np.asarray(control_means, dtype=float))[kept]
        for j, cross in enumerate(fc):
            beta = fit.scale * (fit.inverse @ (fit.scale * cross[kept]))
            mean[j] -= beta @ gap
            d[j] += beta @ cc[np.ix_(kept, kept)] @ beta - 2.0 * (cross[kept] @ beta)
    var = groups * d / dof / n**2 if dof else np.zeros_like(d)
    estimates = tuple(
        MCEstimate(float(mu), float(np.sqrt(max(v, s / (n - 1) / n, 0.0))), n, cfg.seed, method)
        for mu, v, s in zip(mean, var, floor)
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
    """Integral over independent invariant directions of two factors.

    ``batch_f(xs, ys)`` maps a block's unit rows of widths n_a and n_b, GROUP
    per group, to one real per pair of each group, in group order: for
    GROUP * g rows, GROUP^2 * g values (see ``pair_index`` and
    ``pair_rows``).
    """
    return _estimate(cfg, (n_a, n_b), _on_rays(batch_f), "product_nu")


def gaussian_expectation(n: int, cfg: SamplerConfig, *, batch_f) -> MCEstimate:
    """Expectation of ``batch_f(xs, start=k)`` over raw (unnormalized) standard
    complex Gaussians, k the absolute index of the block's first sample."""
    return _estimate(cfg, (n,), batch_f, "gaussian")


def gaussian_pair_expectation(
    n_a: int, n_b: int, cfg: SamplerConfig, *, batch_f, control_means=()
):
    """Expectation of ``batch_f(xs, ys, start=k)`` over independent raw
    Gaussian vectors, per column, on the crossed pairs of
    ``integrate_product_nu``, k the absolute index of the block's first pair;
    the last len(control_means) columns are controls of those exact means
    (see ``_estimate``), and the estimates are of the others."""
    return _estimate(cfg, (n_a, n_b), batch_f, "gaussian_pair", control_means)


def reconstruct_density_matrix(n: int, cfg: SamplerConfig, *, batch_f) -> DensityMatrix:
    """Recover the state behind a Liouville-density evaluator from second moments.

    ``batch_f`` evaluates the density on an (m, n) array of unit rows. Uses
    sigma_hat = n(n+1) E[rho(p) p] - I over the invariant measure; the
    accumulated matrix is validated (symmetrized and clamped) at the relaxed
    tolerance 5e-2, then trace-normalized to a strictly valid state.
    """
    def reduce(factors, columns, totals, sums):
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
