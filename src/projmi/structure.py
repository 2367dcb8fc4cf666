"""Separability structure: the exact density of a separable mixture on pairs
of subsystem rays, and product/entanglement screens."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projective import ProjectivePoint, quadratic_form
from .states import BipartiteDims, SeparableMixture, matrix_of, partial_trace, spectral, tensor


@dataclass(frozen=True, eq=False)
class RestrictedDensity:
    """Exact density of a separable mixture on pairs of subsystem rays."""

    mixture: SeparableMixture

    def __call__(self, p_a: ProjectivePoint, p_b: ProjectivePoint) -> float:
        return float(self.eval_batch(p_a.vector[None, :], p_b.vector[None, :])[0])

    def eval_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Density per row pair, summed component by component with
        ``quadratic_form`` (an independent reference for the joint kernel)."""
        self.mixture.dims.require_pairs(xs, ys)
        total = np.zeros(xs.shape[0])
        for w, (a, b) in zip(self.mixture.weights, self.mixture.components):
            va = quadratic_form(xs, a.matrix).real
            vb = quadratic_form(ys, b.matrix).real
            total += w * va * vb
        return total


def restricted_density(mixture: SeparableMixture) -> RestrictedDensity:
    """(p_a, p_b) -> sum_n lambda_n tr(sigma_An p_a) tr(sigma_Bn p_b), exact."""
    return RestrictedDensity(mixture)


def is_product(sigma, dims: BipartiteDims, tol: float = 1e-9) -> bool:
    """True iff sigma equals the tensor product of its own reductions
    within Frobenius distance ``tol``."""
    m = matrix_of(sigma)
    prod = tensor(partial_trace(m, dims, "A"), partial_trace(m, dims, "B"))
    return float(np.linalg.norm(m - prod)) <= tol


def ppt_check(sigma, dims: BipartiteDims) -> bool:
    """Positive partial transpose on factor B.

    Necessary for separability, but in dimensions 3x3 and above a True
    result is a label, not a separability certificate.
    """
    m = matrix_of(sigma)
    dims.require_joint(m.shape[0])
    t = m.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    pt = np.transpose(t, (0, 3, 2, 1)).reshape(dims.joint, dims.joint)
    smallest = float(spectral(np.linalg.eigvalsh, pt)[0])
    return smallest >= -1e-10

