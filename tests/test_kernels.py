"""The batch kernels against their per-row definitions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import projmi as pm
from projmi.projective import quadratic_form


def gaussian_rows(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def unit_rows(rng, m, n):
    z = gaussian_rows(rng, m, n)
    return z / np.linalg.norm(z, axis=1)[:, None]


def explicit_joint(sigma, xs, ys):
    """<x (x) y| sigma |x (x) y> one row pair at a time."""
    out = []
    for x, y in zip(xs, ys):
        v = np.kron(x, y)
        out.append(np.vdot(v, sigma.matrix @ v).real)
    return np.array(out)


STATES = {
    "maxent3": lambda: (pm.maximally_entangled(3), pm.BipartiteDims(3, 3)),
    "maxent5": lambda: (pm.maximally_entangled(5), pm.BipartiteDims(5, 5)),
    "rank2_3x3": lambda: (pm.mixed_random(9, 2, 11), pm.BipartiteDims(3, 3)),
    "full_3x3": lambda: (pm.mixed_random(9, None, 12), pm.BipartiteDims(3, 3)),
    "rank3_3x4": lambda: (pm.mixed_random(12, 3, 13), pm.BipartiteDims(3, 4)),
    "full_4x3": lambda: (pm.mixed_random(12, None, 14), pm.BipartiteDims(4, 3)),
    "product_3x4": lambda: (
        pm.validate_density(pm.tensor(pm.mixed_random(3, 3, 15), pm.mixed_random(4, 2, 16))),
        pm.BipartiteDims(3, 4),
    ),
}


class TestJointDensityKernel:
    @pytest.mark.parametrize("name", sorted(STATES))
    def test_unit_rows_match_explicit(self, name):
        sigma, dims = STATES[name]()
        rng = np.random.default_rng(1)
        xs, ys = unit_rows(rng, 200, dims.dim_a), unit_rows(rng, 200, dims.dim_b)
        got = pm.joint_density_eval(sigma, dims).eval_batch(xs, ys)
        np.testing.assert_allclose(got, explicit_joint(sigma, xs, ys), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_unnormalised_rows_match_explicit(self, name):
        sigma, dims = STATES[name]()
        rng = np.random.default_rng(2)
        xs, ys = gaussian_rows(rng, 200, dims.dim_a), gaussian_rows(rng, 200, dims.dim_b)
        got = pm.joint_density_eval(sigma, dims).eval_batch(xs, ys)
        scale = np.sum(np.abs(xs) ** 2, axis=1) * np.sum(np.abs(ys) ** 2, axis=1)
        assert np.all(np.abs(got - explicit_joint(sigma, xs, ys)) <= 1e-14 * scale)

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_broadcast_rows_match_explicit(self, name):
        # McMarginal holds one factor fixed and passes it as a broadcast view.
        sigma, dims = STATES[name]()
        rng = np.random.default_rng(3)
        joint = pm.joint_density_eval(sigma, dims)
        xs = unit_rows(rng, 100, dims.dim_a)
        ys = np.broadcast_to(unit_rows(rng, 1, dims.dim_b), (100, dims.dim_b))
        np.testing.assert_allclose(
            joint.eval_batch(xs, ys), explicit_joint(sigma, xs, ys), rtol=0, atol=1e-14
        )
        xs = np.broadcast_to(xs[:1], (100, dims.dim_a))
        ys = unit_rows(rng, 100, dims.dim_b)
        np.testing.assert_allclose(
            joint.eval_batch(xs, ys), explicit_joint(sigma, xs, ys), rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_non_negative(self, name):
        sigma, dims = STATES[name]()
        rng = np.random.default_rng(4)
        xs, ys = unit_rows(rng, 4096, dims.dim_a), unit_rows(rng, 4096, dims.dim_b)
        assert np.all(pm.joint_density_eval(sigma, dims).eval_batch(xs, ys) >= 0.0)

    def test_orthogonal_rays_of_pure_product_give_zero(self):
        # Rank 1 with exact zeros: negative round-off would show here.
        e = np.eye(3, dtype=complex)
        sigma = pm.validate_density(np.outer(np.kron(e[0], e[0]), np.kron(e[0], e[0])))
        joint = pm.joint_density_eval(sigma, pm.BipartiteDims(3, 3))
        assert np.array_equal(joint.eval_batch(e[1:], e[1:]), np.zeros(2))

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 8])
    def test_maximally_entangled_has_one_factor_column(self, d):
        joint = pm.joint_density_eval(pm.maximally_entangled(d), pm.BipartiteDims(d, d))
        assert joint._factor.shape == (d * d, 1)

    @given(
        dim_a=st.integers(3, 5),
        dim_b=st.integers(3, 5),
        rank_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_explicit(self, dim_a, dim_b, rank_frac, seed):
        n = dim_a * dim_b
        rank = 1 + int(rank_frac * (n - 1))
        sigma = pm.mixed_random(n, rank, seed)
        rng = np.random.default_rng(seed)
        xs, ys = unit_rows(rng, 16, dim_a), unit_rows(rng, 16, dim_b)
        joint = pm.joint_density_eval(sigma, pm.BipartiteDims(dim_a, dim_b))
        got = joint.eval_batch(xs, ys)
        assert joint._factor.shape == (n, rank)
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got, explicit_joint(sigma, xs, ys), rtol=0, atol=1e-14)


class TestQuadraticForm:
    def test_non_hermitian_matrix_matches_per_row(self):
        # A non-Hermitian complex m tells m from its transpose and conjugate.
        rng = np.random.default_rng(6)
        m = gaussian_rows(rng, 4, 4)
        rows = gaussian_rows(rng, 50, 4)
        expected = np.array([np.vdot(x, m @ x) for x in rows])
        np.testing.assert_allclose(quadratic_form(rows, m), expected, rtol=1e-13, atol=0)
