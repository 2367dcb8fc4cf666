"""Information quantities over projective space: differential entropies,
the classical-like mutual information of a bipartite state, and entropy
decompositions.

Two estimators of the classical-like mutual information are kept
deliberately separate. The projective form integrates the embedded joint
density against the product of invariant measures of total masses
(dim_a, dim_b). The Gaussian-overlap form evaluates the same log-ratio with
raw, unnormalized Gaussian vectors, whose radial weight differs from the
projective normalization. The two are reported side by side with their
measured ratio rather than reconciled; see MIReport.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import DENSITY_SUPPORT_EPS, EULER_GAMMA, LOG2_E
from .errors import BadParameter, DimensionMismatch, MarginalZeroAnomaly
from .montecarlo import (
    MCEstimate,
    SamplerConfig,
    gaussian_expectation,
    gaussian_pair_expectation,
    integrate_mu,
    integrate_product_nu,
)
from .projective import ProjectivePoint, liouville_density
from .states import (
    BipartiteDims,
    DensityMatrix,
    derived_seeds,
    partial_trace,
    vn_mutual_information,
)


@dataclass(frozen=True, eq=False)
class JointDensity:
    """Joint density (p_a, p_b) -> <x (x) y| sigma |x (x) y> on the product space.

    Evaluated in factored form: with sigma = sum_k lambda_k |v_k><v_k|, the
    density is ||(x (x) y) F||^2 for the (d_a d_b, r) eigenfactor
    F = [conj(v_k) sqrt(lambda_k)], one GEMM of width r per batch and
    non-negative by construction. The factor keeps the eigenvalues above
    lambda_max * d_a d_b * eps (numpy's numerical-rank rule), which also
    drops negative round-off, so r is the numerical rank of sigma.
    """

    source: DensityMatrix
    dims: BipartiteDims

    def __post_init__(self):
        if self.source.dim != self.dims.joint:
            raise DimensionMismatch(
                f"state dim {self.source.dim} != dim_a*dim_b = {self.dims.joint}"
            )
        vals, vecs = np.linalg.eigh(self.source.matrix)
        keep = vals > vals[-1] * self.dims.joint * np.finfo(float).eps
        factor = np.ascontiguousarray(vecs[:, keep].conj() * np.sqrt(vals[keep]))
        object.__setattr__(self, "_factor", factor)

    def __call__(self, p_a: ProjectivePoint, p_b: ProjectivePoint) -> float:
        if p_a.dim != self.dims.dim_a or p_b.dim != self.dims.dim_b:
            raise DimensionMismatch(
                f"point dims ({p_a.dim}, {p_b.dim}) != ({self.dims.dim_a}, {self.dims.dim_b})"
            )
        return float(
            self.eval_batch(p_a.vector[None, :], p_b.vector[None, :])[0]
        )

    def eval_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Density per row pair; rows need not be normalized."""
        rows = (xs[:, :, None] * ys[:, None, :]).reshape(xs.shape[0], self.dims.joint)
        amp = (rows @ self._factor).view(float)
        return np.einsum("bi,bi->b", amp, amp)


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
        if self.integrate_out == "A":
            if p.dim != dims.dim_b:
                raise DimensionMismatch(f"point dim {p.dim} != dim_b {dims.dim_b}")
            fixed = p.vector[None, :]

            def batch(points):
                ys = np.broadcast_to(fixed, (points.shape[0], dims.dim_b))
                return self.joint.eval_batch(points, ys)

            est = integrate_mu(dims.dim_a, self.cfg, batch_f=batch)
        else:
            if p.dim != dims.dim_a:
                raise DimensionMismatch(f"point dim {p.dim} != dim_a {dims.dim_a}")
            fixed = p.vector[None, :]

            def batch(points):
                xs = np.broadcast_to(fixed, (points.shape[0], dims.dim_a))
                return self.joint.eval_batch(xs, points)

            est = integrate_mu(dims.dim_b, self.cfg, batch_f=batch)
        return replace(est, method="marginal_mc")


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


def _entropy_terms(w: np.ndarray) -> np.ndarray:
    """-w log2 w elementwise, zero at or below the support cutoff."""
    out = np.zeros_like(w)
    mask = w > DENSITY_SUPPORT_EPS
    wm = w[mask]
    out[mask] = -wm * np.log2(wm)
    return out


def differential_entropy_mu(sigma: DensityMatrix, cfg: SamplerConfig) -> MCEstimate:
    """-integral of rho log2 rho over the mass-n invariant measure, in bits."""
    density = liouville_density(sigma)

    def batch(points):
        return _entropy_terms(density.eval_batch(points))

    est = integrate_mu(sigma.dim, cfg, batch_f=batch)
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
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1:
        raise BadParameter(f"psi must be a vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-12:
        raise BadParameter(f"psi must be unit norm, got {norm!r}")
    conj = v.conj()

    def batch(xs):
        w = np.abs(xs @ conj) ** 2
        out = np.zeros_like(w)
        mask = w > 0.0
        wm = w[mask]
        out[mask] = -wm * np.log2(wm)
        return out

    est = gaussian_expectation(v.shape[0], cfg, batch_f=batch)
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


def _log_ratio_integrand(sigma: DensityMatrix, dims: BipartiteDims, scale: float):
    """Batch integrand scale * W log2(W / (W_A W_B)) of both classical-like MI
    estimators: W = <x (x) y|sigma|x (x) y> and W_A, W_B the quadratic forms
    of the partial-trace marginals at x and y; zero off the joint support."""
    joint = joint_density_eval(sigma, dims)
    marg_a = liouville_density(partial_trace(sigma, dims, "A"))
    marg_b = liouville_density(partial_trace(sigma, dims, "B"))

    def batch(xs, ys):
        w = joint.eval_batch(xs, ys)
        a = marg_a.eval_batch(xs)
        b = marg_b.eval_batch(ys)
        mask = check_marginal_support(w, a, b)
        out = np.zeros_like(w)
        wm = w[mask]
        out[mask] = scale * wm * (np.log2(wm) - np.log2(a[mask]) - np.log2(b[mask]))
        return out

    return batch


def classical_like_mi_projective(
    sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig
) -> MCEstimate:
    """Mutual information of the embedded joint density over the product of
    invariant measures, with exact partial-trace marginals, in bits."""
    batch = _log_ratio_integrand(sigma, dims, float(dims.dim_a * dims.dim_b))
    est = integrate_product_nu(dims.dim_a, dims.dim_b, cfg, batch_f=batch)
    return replace(est, method="mi_projective")


def classical_like_mi_gaussian(
    sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig
) -> MCEstimate:
    """The same log-ratio averaged with raw Gaussian weights:
    E[ W log2(W / (W_A W_B)) ] for W = <x (x) y|sigma|x (x) y> and marginal
    quadratic forms W_A, W_B of unnormalized x, y."""
    batch = _log_ratio_integrand(sigma, dims, 1.0)
    est = gaussian_pair_expectation(dims.dim_a, dims.dim_b, cfg, batch_f=batch)
    return replace(est, method="mi_gaussian")


def entropy_decomposition_mi(
    sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig
) -> MCEstimate:
    """h_A + h_B - h_joint with marginal entropies over each factor's measure
    and the joint entropy over the product space; agrees with the projective
    MI estimator up to Monte Carlo error."""
    seed_a, seed_b, seed_j = derived_seeds(cfg.seed, 3)
    h_a = differential_entropy_mu(partial_trace(sigma, dims, "A"), replace(cfg, seed=seed_a))
    h_b = differential_entropy_mu(partial_trace(sigma, dims, "B"), replace(cfg, seed=seed_b))

    joint = joint_density_eval(sigma, dims)
    scale = float(dims.dim_a * dims.dim_b)

    def batch(xs, ys):
        return scale * _entropy_terms(joint.eval_batch(xs, ys))

    h_joint = integrate_product_nu(
        dims.dim_a, dims.dim_b, replace(cfg, seed=seed_j), batch_f=batch
    )
    mean = h_a.mean + h_b.mean - h_joint.mean
    se = float(np.sqrt(h_a.std_error**2 + h_b.std_error**2 + h_joint.std_error**2))
    return MCEstimate(mean, se, cfg.n_samples, cfg.seed, "mi_decomposition")


def maxent_mi_closed_form(d: int) -> float:
    """log2 d + 2 + (2 - 2 gamma) log2 e: the closed-form combination of the
    constant-marginal entropy log2 d with the Gaussian-overlap pure-state
    constant, for a maximally entangled state on a d x d split."""
    if d < 3:
        raise BadParameter(f"closed form needs d >= 3, got {d}")
    return float(np.log2(d)) + 2.0 + (2.0 - 2.0 * EULER_GAMMA) * LOG2_E


@dataclass(frozen=True)
class MIReport:
    """Side-by-side mutual-information estimates for one bipartite state.

    ``ratio_gaussian_over_projective`` is a measured quantity, defined only
    when the projective mean is resolved beyond 5 standard errors and above
    the double-precision floor (a product state's integrand cancels to
    rounding residue whose tiny spread would otherwise count as "resolved").
    No target value for the ratio is asserted anywhere.
    """

    projective: MCEstimate
    gaussian: MCEstimate
    von_neumann: float
    ratio_gaussian_over_projective: float | None
    dims: BipartiteDims


def mi_report(sigma: DensityMatrix, dims: BipartiteDims, cfg: SamplerConfig) -> MIReport:
    """Run both MI estimators plus the spectral MI and report their ratio."""
    seed_p, seed_g = derived_seeds(cfg.seed, 2)
    projective = classical_like_mi_projective(sigma, dims, replace(cfg, seed=seed_p))
    gaussian = classical_like_mi_gaussian(sigma, dims, replace(cfg, seed=seed_g))
    vn = vn_mutual_information(sigma, dims)
    resolved = abs(projective.mean) > max(5.0 * projective.std_error, 1e-12)
    ratio = gaussian.mean / projective.mean if resolved else None
    return MIReport(projective, gaussian, vn, ratio, dims)
