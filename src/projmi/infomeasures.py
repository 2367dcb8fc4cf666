"""Information quantities over projective space: differential entropies,
the classical-like mutual information of a bipartite state, and entropy
decompositions.

Three Monte Carlo estimators of the classical-like mutual information are
kept deliberately separate, as columns of one integrand over the same draws
(``mi_estimates``). The projective form integrates the embedded joint
density against the product of invariant measures of total masses
(dim_a, dim_b); the Gaussian-overlap form weights the same log-ratio by the
raw Gaussian radii; the decomposition folds h_A + h_B - h_AB into one
integral. Projective and Gaussian are reported side by side with their
measured ratio rather than reconciled; see MIReport.

Each estimate is the regression (control-variate) estimate of its column on
ten controls of the same draw, the joint density W, W^2, W^3, W^4 and the
marginal densities a, a^2, a^3, b, b^2, b^3, whose means over the invariant
measures are exact (``_control_means``): E[(xx^dag)^(x)k] is the sum of the
k! permutation operators over d(d+1)...(d+k-1) (Harrow 2013, "The church of
the symmetric subspace"), so E[W^k] is a sum over the orbits of S_k x S_k
(43 of them for k = 4) of traces of products of sigma, its partial traces,
its partial transpose and its realignments. A pure state adds two controls
of mean zero, W^5 and W^6 less their means given x: with sigma =
|psi><psi|, W(x, y) = |<y|phi_x>|^2 for a vector phi_x of squared norm
a(x), and |<y|u>|^2 is Beta(1, d_b - 1) for a unit u and a uniform unit ray
y, so E_y[W^k | x] = k! a(x)^k / (d_b)_k. The paper's integrands are
unchanged, only the way their sample mean is formed
(``montecarlo._estimate``).

The MI integrand runs on the engine's crossed pairs (``montecarlo``). A
block makes one pass over each factor's raw rows: the real coordinates of
x x^dag and y y^dag (``projective.hermitian_features``) give the squared
radii and both marginal densities once per row and the Gram-form joint
density of every pair (``_ray_densities``), with no row normalised. log2 W
is taken once per pair, log2 a and log2 b once per row, and the terms of one
factor alone are laid out by pair rather than recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import DENSITY_SUPPORT_EPS, EULER_GAMMA, LOG2_E
from .errors import BadParameter, DimensionMismatch, MarginalZeroAnomaly
from .montecarlo import (
    MCEstimate,
    SamplerConfig,
    gaussian_expectation,
    gaussian_pair_expectation,
    group_products,
    integrate_mu,
    integrate_product_nu,  # unused here; bound for perfbench's tracer
    pair_index,
)
from .native import single_blas_thread
from .projective import (
    LiouvilleDensity,
    ProjectivePoint,
    eigenfactor,
    hermitian_features,
    liouville_density,
    real_coordinates,
)
from .states import (
    BipartiteDims,
    DensityMatrix,
    partial_trace,
    vn_mutual_information,
)


@dataclass(frozen=True, eq=False)
class JointDensity:
    """Joint density (p_a, p_b) -> <x (x) y| sigma |x (x) y> on the product space.

    Evaluated in Gram form, as the bilinear form g_y^T S g_x in the d_a^2
    and d_b^2 real coordinates g of the projectors x x^dag and y y^dag
    (``projective.hermitian_features``). The real (d_b^2, d_a^2) matrix S
    is built once here from the realigned s = conj(F) F^T, F the state's
    eigenfactor (see ``projective.eigenfactor``): s_(ij),(kl) pairs the
    coordinates of conj(x_i) x_k with those of conj(y_j) y_l. A batch costs
    one GEMM and d_a^2 d_b^2 real multiply-adds per pair whatever the rank
    of sigma. Rounding can leave a density that is zero in exact arithmetic
    slightly negative, so the result is clamped at 0.
    """

    source: DensityMatrix
    dims: BipartiteDims

    def __post_init__(self):
        self.dims.require_joint(self.source.dim)
        factor = eigenfactor(self.source)
        d_a, d_b = self.dims.dim_a, self.dims.dim_b
        s = (factor.conj() @ factor.T).reshape(d_a, d_b, d_a, d_b)
        realigned = s.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
        gram = real_coordinates(real_coordinates(realigned, d_a).T, d_b)
        object.__setattr__(self, "_factor", factor)
        object.__setattr__(self, "_gram", np.ascontiguousarray(gram.real))

    def __call__(self, p_a: ProjectivePoint, p_b: ProjectivePoint) -> float:
        return float(self.eval_batch(p_a.vector[None, :], p_b.vector[None, :])[0])

    def eval_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Density <x (x) y| sigma |x (x) y> per row pair, clamped at 0; rows
        need not be normalized."""
        self.dims.require_pairs(xs, ys)
        w = np.einsum("fm,fm->m", self._gram @ hermitian_features(xs), hermitian_features(ys))
        return np.maximum(w, 0.0, out=w)

    def eval_groups(self, features_x: np.ndarray, features_y: np.ndarray) -> np.ndarray:
        """Density of every pair of a two-factor block in group order, clamped
        at 0, from the ``hermitian_features`` of its rows of any norm: one GEMM
        S g_x per row, then ``montecarlo.group_products``."""
        w = group_products(self._gram @ features_x, features_y)
        return np.maximum(w, 0.0, out=w)


def joint_density_eval(sigma: DensityMatrix, dims: BipartiteDims) -> JointDensity:
    """The state's density on pairs of subsystem rays (its Segre restriction)."""
    return JointDensity(sigma, dims)


@dataclass(frozen=True, eq=False)
class McMarginal:
    """Marginal of the joint density estimated by integrating out one factor."""

    joint: JointDensity
    integrate_out: str
    cfg: SamplerConfig

    def __call__(self, p: ProjectivePoint) -> MCEstimate:
        dims = self.joint.dims
        out_a = self.integrate_out == "A"
        kept, free = (dims.dim_b, dims.dim_a) if out_a else (dims.dim_a, dims.dim_b)
        if p.dim != kept:
            raise DimensionMismatch(f"point dim {p.dim} != kept factor dim {kept}")

        def batch(points):
            held = np.broadcast_to(p.vector, (len(points), kept))
            return self.joint.eval_batch(*((points, held) if out_a else (held, points)))

        return replace(integrate_mu(free, self.cfg, batch_f=batch), method="marginal_mc")


def marginal_density(
    sigma: DensityMatrix,
    dims: BipartiteDims,
    integrate_out: str,
    mode: str = "analytic",
    cfg: SamplerConfig | None = None,
):
    """Marginal of the embedded joint density, with one factor integrated out.

    Analytic mode returns the Liouville density of the kept partial trace
    (exact). MC mode returns an evaluator whose calls estimate the defining
    integral and yield MCEstimates; the two agree within Monte Carlo error.
    """
    tag = integrate_out.upper()
    if tag not in ("A", "B"):
        raise BadParameter(f"integrate_out must be 'A' or 'B', got {integrate_out!r}")
    if mode == "analytic":
        kept = "B" if tag == "A" else "A"
        return liouville_density(partial_trace(sigma, dims, kept))
    if mode == "mc":
        if cfg is None:
            raise BadParameter("MC mode needs a SamplerConfig")
        return McMarginal(joint_density_eval(sigma, dims), tag, cfg)
    raise BadParameter(f"mode must be 'analytic' or 'mc', got {mode!r}")


def _support_log2(w: np.ndarray) -> np.ndarray:
    """log2 w on the support w > DENSITY_SUPPORT_EPS, zero off it."""
    mask = w > DENSITY_SUPPORT_EPS
    if mask.all():  # the usual block, evaluated without a masked pass
        return np.log2(w)
    return np.log2(w, out=np.zeros_like(w), where=mask)


def _entropy_terms(w: np.ndarray) -> np.ndarray:
    """-w log2 w elementwise, zero at or below the support cutoff."""
    return -w * _support_log2(w)


@single_blas_thread()
def differential_entropy_mu(sigma: DensityMatrix, cfg: SamplerConfig) -> MCEstimate:
    """-integral of rho log2 rho over the mass-n invariant measure, in bits;
    set-up and run hold one BLAS thread (``native.single_blas_thread``)."""
    density = liouville_density(sigma)
    est = integrate_mu(sigma.dim, cfg, batch_f=lambda ps: _entropy_terms(density.eval_batch(ps)))
    return replace(est, method="entropy_mu")


def pure_state_entropy_gaussian_constant() -> float:
    """Closed-form pure-state entropy of the Gaussian-overlap prescription.

    (2 gamma - 2) log2 e - 2, about -3.2199 bits, independent of the state
    and of the Hilbert-space dimension.
    """
    return (2.0 * EULER_GAMMA - 2.0) * LOG2_E - 2.0


def pure_state_entropy_gaussian(psi: np.ndarray, cfg: SamplerConfig) -> MCEstimate:
    """Entropy from unnormalized overlaps: -E[ |<psi|x>|^2 log2 |<psi|x>|^2 ]
    over raw Gaussian x. Converges to the same constant for every unit psi
    and every dimension."""
    point = ProjectivePoint(psi)  # validates a unit vector
    density = liouville_density(DensityMatrix(point.projector()))
    est = gaussian_expectation(
        point.dim, cfg, batch_f=lambda xs, start: _entropy_terms(density.eval_batch(xs))
    )
    return replace(est, method="entropy_gaussian")


def check_marginal_support(
    w: np.ndarray, m_a: np.ndarray, m_b: np.ndarray, offset: int = 0
) -> np.ndarray:
    """Support mask for MI integrands; positive joint with a vanishing marginal
    is mathematically impossible and raises MarginalZeroAnomaly."""
    mask = w > DENSITY_SUPPORT_EPS
    bad = mask & ((m_a <= DENSITY_SUPPORT_EPS) | (m_b <= DENSITY_SUPPORT_EPS))
    if bad.any():
        index = int(np.argmax(bad))
        raise MarginalZeroAnomaly(
            f"joint density {w[index]:.3e} > 0 with vanishing marginal at sample {offset + index}"
        )
    return mask


MI_COLUMNS = ("projective", "gaussian", "decomposition")


def _power_sums(m: np.ndarray) -> tuple[tuple[float, ...], np.ndarray]:
    """tr m^j for j = 1..4 of a Hermitian matrix m, by matrix products, and m^2."""
    square = m @ m
    return (float(np.trace(m).real), float(np.vdot(m, m).real), float(np.vdot(square, m).real),
            float(np.vdot(square, square).real)), square


def _ray_moments(factor: np.ndarray) -> tuple[float, float, float]:
    """E[q], E[q^2], E[q^3] of the density q = <x|s|x> that the kernels
    built on the (d, r) factor F evaluate, s = conj(F) F^T, over unit rays
    x of C^d: (p_1, p_1^2 + p_2, p_1^3 + 3 p_1 p_2 + 2 p_3) over d, d(d+1)
    and d(d+1)(d+2), for the power sums p_j = tr s^j = tr G^j of the r x r
    Gram G = F^dag F."""
    d = len(factor)
    (p1, p2, p3, _), _ = _power_sums(factor.conj().T @ factor)
    return (p1 / d, (p1 * p1 + p2) / (d * (d + 1)),
            (p1 ** 3 + 3 * p1 * p2 + 2 * p3) / (d * (d + 1) * (d + 2)))


def _control_means(joint: JointDensity, marg_a, marg_b) -> tuple[float, ...]:
    """Exact means of the controls W, W^2, W^3, a, a^2, a^3, b, b^2, b^3,
    W^4 over the product of invariant measures, from the matrices the
    kernels evaluate.

    For a unit ray x of C^d, E[(xx^dag)^(x)k] = sum_pi P_pi / (d)_k, the
    permutations P_pi of the k tensor factors over the rising factorial
    (d)_k = d(d+1)...(d+k-1) (Harrow 2013, "The church of the symmetric
    subspace"). A marginal's moments follow from power sums
    (``_ray_moments``). For the joint density W of sigma, (d_a)_k (d_b)_k
    E[W^k] sums tr[sigma^(x)k (P_pi (x) P_tau)] over pairs of permutations
    of the A and B factors, one term per orbit of S_k x S_k under
    simultaneous conjugation times its size. A term factors over the
    connected parts of its pair, so with c_k the sum over the connected
    orbits of S_k x S_k and tr sigma = c_1,
      (d_a)_2 (d_b)_2 E[W^2] = c_1^2 + c_2,
      (d_a)_3 (d_b)_3 E[W^3] = c_1^3 + 3 c_1 c_2 + c_3,
      (d_a)_4 (d_b)_4 E[W^4] = c_1^4 + 6 c_1^2 c_2 + 3 c_2^2 + 4 c_1 c_3 + c_4,
    one term per way to split k copies into connected parts (11 orbits
    for k = 3, 43 for k = 4). With rho_A, rho_B the partial traces of sigma,
    T_B the partial transpose and Gamma = sigma^T_B:
      c_2 = tr sigma^2 + tr rho_A^2 + tr rho_B^2;
      c_3 = 2 (tr rho_A^3 + tr rho_B^3 + tr sigma^3 + tr Gamma^3)
            + 6 tr[sigma (rho_A (x) rho_B)] + 6 tr[tr_B(sigma^2) rho_A]
            + 6 tr[tr_A(sigma^2) rho_B];
    c_4 has 26 orbits, each a trace over four copies of sigma joined in
    pairs. With M = sigma (1 (x) rho_B) + sigma (rho_A (x) 1), Q =
    (Gamma^2)^T_B, Y_A = tr_B[sigma^2 + sigma (1 (x) rho_B)], Y_B =
    tr_A[sigma^2 + sigma (rho_A (x) 1)] and the realignments g_(jl),(j'l') =
    sum_ik sigma_(ij),(kl) conj(sigma_(ij'),(kl')) and h_(ik),(i'k') =
    sum_jl conj(sigma_(ij),(kl)) sigma_(i'j),(k'l):
      c_4 = 6 (tr rho_A^4 + tr rho_B^4 + tr sigma^4 + tr Gamma^4
               + sum g_(jl),(j'l') g_(lj),(l'j') + sum g_(jl),(j'l') g_(ll'),(jj')
               + sum h_(ik),(i'k') h_(kk'),(ii'))
            + 12 (tr M^2 + tr Y_A^2 + tr Y_B^2)
            + 24 (tr[(sigma^2 + Q) M] + tr[sigma^2 Q] + tr[Y_A rho_A^2]
                  + tr[Y_B rho_B^2] + tr[sigma (1 (x) rho_B) sigma (rho_A (x) 1)]),
    the cross terms of the squares and products being orbits of their own.
    So the means cost a few matrix products of the joint dimension.
    """
    d_a, d_b = joint.dims.dim_a, joint.dims.dim_b
    n = d_a * d_b
    s = joint._factor.conj() @ joint._factor.T
    (p1, p2, p3, p4), s2 = _power_sums(s)
    t, t2 = s.reshape(d_a, d_b, d_a, d_b), s2.reshape(d_a, d_b, d_a, d_b)
    rho_a, rho_b = np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)
    (_, a2, a3, a4), rho_a2 = _power_sums(rho_a)
    (_, b2, b3, b4), rho_b2 = _power_sums(rho_b)
    (_, _, pt3, pt4), gamma2 = _power_sums(t.transpose(0, 3, 2, 1).reshape(n, n))
    q = gamma2.reshape(t.shape).transpose(0, 3, 2, 1).reshape(n, n)  # (Gamma^2)^T_B
    m_b = (s.reshape(n * d_a, d_b) @ rho_b).reshape(n, n)  # sigma (1 (x) rho_B)
    m_a = (rho_a.T @ s.reshape(n, d_a, d_b)).reshape(n, n)  # sigma (rho_A (x) 1)
    y_a = np.einsum("ijkj->ik", t2 + m_b.reshape(t.shape))
    y_b = np.einsum("ijil->jl", t2 + m_a.reshape(t.shape))
    real = t.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
    g = (real.T @ real.conj()).reshape((d_b,) * 4)
    h = (real.conj() @ real.T).reshape((d_a,) * 4)
    m = m_a + m_b
    c2 = p2 + a2 + b2
    c3 = 2 * (a3 + b3 + p3 + pt3) + 6 * float(
        (np.vdot(y_a, rho_a) + np.vdot(np.einsum("ijil->jl", t2), rho_b)).real)
    c4 = float((6 * (a4 + b4 + p4 + pt4 + np.einsum("ijkl,jilk->", g, g)
                     + np.einsum("ijkl,jlik->", g, g) + np.einsum("ijkl,jlik->", h, h))
                + 12 * (np.einsum("ij,ji->", m, m) + np.vdot(y_a, y_a) + np.vdot(y_b, y_b))
                + 24 * (np.vdot(s2 + q, m) + np.vdot(s2, q) + np.vdot(y_a, rho_a2)
                        + np.vdot(y_b, rho_b2) + np.vdot(m_b, m_a))).real)
    rising = np.cumprod([(d_a + k) * (d_b + k) for k in range(4)])  # (d_a)_k (d_b)_k
    w1, w2, w3, w4 = (p1, p1 * p1 + c2, p1 ** 3 + 3 * p1 * c2 + c3,
                      p1 ** 4 + 6 * p1 * p1 * c2 + 3 * c2 * c2 + 4 * p1 * c3 + c4) / rising
    return (w1, w2, w3, *_ray_moments(marg_a._factor), *_ray_moments(marg_b._factor), w4)


def _ray_densities(joint: JointDensity, marg_a: LiouvilleDensity, marg_b: LiouvilleDensity,
                   xs: np.ndarray, ys: np.ndarray):
    """W on the rays of each pair of the raw rows xs, ys in the engine's
    group order, a on those of xs, b on those of ys, and r_x^2 r_y^2 per
    pair.

    One ``hermitian_features`` pass per factor serves everything: the
    squared radius r^2 is the sum of the d diagonal features, each marginal
    applies its real coordinates to its factor's features over r^2, and the
    joint density is the Gram form of each group's pairs over r_x^2 r_y^2.
    No row is normalised.
    """
    d_a, d_b = joint.dims.dim_a, joint.dims.dim_b
    features_x, features_y = hermitian_features(xs), hermitian_features(ys)
    rx2, ry2 = features_x[:d_a].sum(axis=0), features_y[:d_b].sum(axis=0)
    a = marg_a.eval_features(features_x)
    a /= rx2
    b = marg_b.eval_features(features_y)
    b /= ry2
    ix, iy = pair_index(len(xs))
    r2 = rx2[ix] * ry2[iy]
    w = joint.eval_groups(features_x, features_y)
    w /= r2
    return w, a, b, r2


def _mi_integrand(sigma: DensityMatrix, dims: BipartiteDims, columns: tuple):
    """Batch integrand of the MI estimators on the crossed pairs of raw
    Gaussian rows x = r_x x^, y = r_y y^, and the exact means of its
    controls.

    It has one column per name in ``columns``: d_a d_b L (projective),
    r_x^2 r_y^2 L (gaussian) and d_a e_A + d_b e_B - d_a d_b e_J
    (decomposition), for L = W log2(W / (W_A W_B)) on the unit rows (zero off
    the joint support) and e the -w log2 w term of the joint density W and the
    marginal Liouville densities W_A, W_B. The densities come from one feature
    pass per factor (``_ray_densities``); log2 W is taken once per pair, and
    log2 W_A, log2 W_B and the terms of one factor alone once per row, then
    laid out by pair. Ten control columns W, W^2, W^3, W_A, W_A^2, W_A^3,
    W_B, W_B^2, W_B^3, W^4 follow, whatever ``columns`` holds, the cubes
    formed as square times density and W^4 as the square of W^2; their exact
    means are sums over the orbits of S_k x S_k (``_control_means``).

    A pure state (an eigenfactor of one column) adds two controls of mean
    zero, c_5 = W^5 - 5! W_A^5 / (d_b)_5 and c_6 = W^6 - 6! W_A^6 / (d_b)_6,
    formed as W^4 W and W^3 W^3 less W_A^3 W_A^2 and W_A^3 W_A^3. For sigma
    = |psi><psi|, W(x, y) = |<y|phi_x>|^2 with ||phi_x||^2 = W_A(x), and
    |<y|u>|^2 is Beta(1, d_b - 1) for a unit u and a uniform unit ray y,
    so E_y[W^k | x] = k! W_A(x)^k / (d_b)_k: c_k is centred on its mean
    given x and needs no orbit sum.

    ``start``, the absolute index of the batch's first pair, numbers the
    pair a MarginalZeroAnomaly names; the engine passes it, so batches may
    run in any order."""
    if not columns or not set(columns) <= set(MI_COLUMNS):
        raise BadParameter(f"MI columns must come from {MI_COLUMNS}, got {columns!r}")
    joint = joint_density_eval(sigma, dims)
    marg_a = liouville_density(partial_trace(sigma, dims, "A"))
    marg_b = liouville_density(partial_trace(sigma, dims, "B"))
    log_ratio = not set(columns).isdisjoint(("projective", "gaussian"))
    # The powers k of a pure state's centred controls, and as a column their
    # E_y[W^k | x] / W_A(x)^k = k! / (d_b)_k.
    ks = (5, 6) if joint._factor.shape[1] == 1 else ()
    overlap_moments = np.array([math.factorial(k) / math.prod(range(dims.dim_b, dims.dim_b + k))
                                for k in ks])[:, None]

    def batch(xs, ys, start=0):
        w, a, b, r2 = _ray_densities(joint, marg_a, marg_b, xs, ys)
        ix, iy = pair_index(len(xs))
        # Filled by rows and returned transposed, so the engine's (columns,
        # rows) view of it is contiguous and needs no copy.
        out = np.empty((len(columns) + 10 + len(ks), len(w)))
        controls = out[len(columns):]
        # Per row: the density, its square and cube, its log2 and its
        # decomposition term, then laid out by pair.
        sides = []
        for first, density, dim, index in ((3, a, dims.dim_a, ix), (6, b, dims.dim_b, iy)):
            per_row = np.empty((5, len(density)))
            per_row[0] = density
            np.square(density, out=per_row[1])
            np.multiply(per_row[1], density, out=per_row[2])
            per_row[3] = _support_log2(density)
            np.multiply(dim * density, per_row[3], out=per_row[4])
            # mode="clip" writes into ``out`` directly; the default buffers it.
            np.take(per_row[:3], index, axis=1, out=controls[first:first + 3], mode="clip")
            sides.append(np.take(per_row[3:], index, axis=1))
        (log_a, term_a), (log_b, term_b) = sides
        mask = check_marginal_support(w, controls[3], controls[6], offset=start)
        log_w = _support_log2(w)
        if log_ratio:
            term = w * (log_w - log_a - log_b)
            if not mask.all():
                term[~mask] = 0.0
        column = {
            "projective": lambda: dims.joint * term,
            "gaussian": lambda: r2 * term,
            "decomposition": lambda: dims.joint * w * log_w - term_a - term_b,
        }
        for row, name in zip(out, columns):
            row[...] = column[name]()
        controls[0] = w
        np.square(w, out=controls[1])
        np.multiply(controls[1], w, out=controls[2])
        np.square(controls[1], out=controls[9])
        if ks:
            # W^4 W and W^3 W^3, less the moments times W_A^3 W_A^2 and W_A^3 W_A^3.
            np.multiply(controls[9], w, out=controls[10])
            np.square(controls[2], out=controls[11])
            controls[10:] -= overlap_moments * (controls[5] * controls[4:6])
        return out.T

    return batch, _control_means(joint, marg_a, marg_b) + (0.0,) * len(ks)


@single_blas_thread()
def mi_estimates(
    sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig, columns: tuple = MI_COLUMNS
) -> tuple[MCEstimate, ...]:
    """The MI estimates named by ``columns`` (from MI_COLUMNS, tagged "mi_<name>"),
    in order, from one engine run at ``cfg``; each equals its standalone
    estimator. Each is the regression estimate on the integrand's ten
    controls, twelve for a pure state (see ``_mi_integrand`` and
    ``montecarlo._estimate``). Set-up, run and control fit hold one BLAS
    thread (``native.single_blas_thread``)."""
    batch, means = _mi_integrand(sigma, dims, columns)
    estimates = gaussian_pair_expectation(
        dims.dim_a, dims.dim_b, cfg, batch_f=batch, control_means=means
    )
    return tuple(replace(est, method=f"mi_{name}")
                 for est, name in zip(estimates, columns, strict=True))


def classical_like_mi_projective(
    sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig
) -> MCEstimate:
    """Mutual information of the embedded joint density over the product of
    invariant measures, with exact partial-trace marginals, in bits."""
    return mi_estimates(sigma, dims, cfg, ("projective",))[0]


def classical_like_mi_gaussian(
    sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig
) -> MCEstimate:
    """The same log-ratio averaged with raw Gaussian weights:
    E[ W log2(W / (W_A W_B)) ] for W = <x (x) y|sigma|x (x) y> and marginal
    quadratic forms W_A, W_B of unnormalized x, y."""
    return mi_estimates(sigma, dims, cfg, ("gaussian",))[0]


def entropy_decomposition_mi(
    sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig
) -> MCEstimate:
    """h_A + h_B - h_joint from one engine run at ``cfg``.

    h_A's measure is the x-marginal of the product of invariant measures
    (and likewise h_B's), so the sum is one integral over independent
    directions x, y of d_a e_A(x) + d_b e_B(y) - d_a d_b e_J(x, y), with e
    the -w log2 w terms of the marginal Liouville densities and of the joint
    density. It agrees with the projective MI estimator up to Monte Carlo
    error; one draw for all three terms lets their correlation lower the SE.
    Its support check cannot fire: W_A(x), W_B(y) >= W(x, y) for unit x, y.
    """
    return mi_estimates(sigma, dims, cfg, ("decomposition",))[0]


def maxent_mi_closed_form(d: int) -> float:
    """log2 d + 2 + (2 - 2 gamma) log2 e: the closed-form combination of the
    constant-marginal entropy log2 d with the Gaussian-overlap pure-state
    constant, for a maximally entangled state on a d x d split."""
    BipartiteDims(d, d)  # validates d
    return float(np.log2(d)) + 2.0 + (2.0 - 2.0 * EULER_GAMMA) * LOG2_E


@dataclass(frozen=True)
class MIReport:
    """Side-by-side mutual-information estimates for one bipartite state.

    ``projective`` and ``gaussian`` are the standalone estimators at the same
    SamplerConfig: they share one draw and one seed, and their errors correlate.
    ``ratio_gaussian_over_projective`` is a measured quantity, defined only
    when the projective mean is resolved beyond 5 standard errors and above
    the double-precision floor (a product state's integrand cancels to
    rounding residue whose tiny spread would otherwise count as "resolved").
    For every state the gaussian mean is 4 times the projective one: per pair
    the gaussian integrand is r_x^2 r_y^2 / (d_a d_b) times the projective
    one, and the radii, independent of the rays, have E[r_x^2 r_y^2] = 4 d_a
    d_b. The ratio reported is the one measured on the draw.
    """

    projective: MCEstimate
    gaussian: MCEstimate
    von_neumann: float
    ratio_gaussian_over_projective: float | None
    dims: BipartiteDims


def mi_report(sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig) -> MIReport:
    """Both MI estimators from one engine run at ``cfg``, the spectral MI,
    and the ratio of the two estimates."""
    projective, gaussian = mi_estimates(sigma, dims, cfg, ("projective", "gaussian"))
    vn = vn_mutual_information(sigma, dims)
    resolved = abs(projective.mean) > max(5.0 * projective.std_error, 1e-12)
    ratio = gaussian.mean / projective.mean if resolved else None
    return MIReport(projective, gaussian, vn, ratio, dims)
