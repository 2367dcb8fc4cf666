"""Shared construction helpers for the test suite."""

import numpy as np

import projmi as pm


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T) / 2


def random_point(n: int, rng: np.random.Generator) -> pm.ProjectivePoint:
    return pm.project(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_tangent(p: pm.ProjectivePoint, rng: np.random.Generator) -> pm.TangentVector:
    return pm.TangentVector(p, random_hermitian(p.dim, rng))


def random_product_state(dim_a: int, dim_b: int, rng: np.random.Generator):
    sigma_a = pm.mixed_random(dim_a, dim_a, rng)
    sigma_b = pm.mixed_random(dim_b, dim_b, rng)
    return pm.validate_density(pm.tensor(sigma_a, sigma_b)), sigma_a, sigma_b


def split_states(d_a: int, d_b: int) -> dict:
    """A rank-1, a rank-3, a full-rank and a product state on a d_a x d_b
    split, the product of a full-rank and a rank-2 factor."""
    n = d_a * d_b
    return {
        "rank1": pm.pure_random(n, 31),
        "rank_deficient": pm.mixed_random(n, 3, 32),
        "full_rank": pm.mixed_random(n, None, 33),
        "product": pm.validate_density(
            pm.tensor(pm.mixed_random(d_a, None, 34), pm.mixed_random(d_b, 2, 35))
        ),
    }


def agree_within(a: pm.MCEstimate, b: pm.MCEstimate, n_se: float = 4.0) -> bool:
    joint = np.sqrt(a.std_error**2 + b.std_error**2)
    return abs(a.mean - b.mean) <= n_se * joint
