"""Tests for separable mixtures and the product/entanglement screens."""

import numpy as np
import pytest

import projmi as pm
from projmi.errors import BadParameter, DimensionMismatch

from helpers import random_point, random_product_state

DIMS33 = pm.BipartiteDims(3, 3)


class TestSeparableMixture:
    def test_weights_must_be_normalized(self):
        comp = (pm.pure_random(3, 0), pm.pure_random(3, 1))
        with pytest.raises(BadParameter):
            pm.SeparableMixture((0.4, 0.4), (comp, comp))

    def test_weights_must_be_nonnegative(self):
        comp = (pm.pure_random(3, 0), pm.pure_random(3, 1))
        with pytest.raises(BadParameter):
            pm.SeparableMixture((1.2, -0.2), (comp, comp))

    def test_component_dims_must_agree(self):
        with pytest.raises(DimensionMismatch):
            pm.SeparableMixture(
                (0.5, 0.5),
                (
                    (pm.pure_random(3, 0), pm.pure_random(3, 1)),
                    (pm.pure_random(4, 2), pm.pure_random(3, 3)),
                ),
            )

    def test_dims_property(self):
        mixture = pm.random_mixture(3, 4, 2, seed=1)
        assert mixture.dims == pm.BipartiteDims(3, 4)

    def test_random_mixture_deterministic(self):
        a = pm.random_mixture(3, 3, 3, seed=5)
        b = pm.random_mixture(3, 3, 3, seed=5)
        assert a.weights == b.weights
        for (xa, ya), (xb, yb) in zip(a.components, b.components):
            assert np.array_equal(xa.matrix, xb.matrix)
            assert np.array_equal(ya.matrix, yb.matrix)


class TestAssemble:
    def test_single_component_is_tensor_product(self):
        sigma_a, sigma_b = pm.mixed_random(3, 3, 1), pm.mixed_random(3, 2, 2)
        mixture = pm.SeparableMixture((1.0,), ((sigma_a, sigma_b),))
        assembled = pm.assemble(mixture)
        assert np.allclose(assembled.matrix, pm.tensor(sigma_a, sigma_b), atol=1e-14)

    def test_classical_pair_mixture_has_one_bit_mi(self):
        mixture = pm.SeparableMixture(
            (0.5, 0.5),
            (
                (pm.basis_pure(3, 0), pm.basis_pure(3, 0)),
                (pm.basis_pure(3, 1), pm.basis_pure(3, 1)),
            ),
        )
        assembled = pm.assemble(mixture)
        assert pm.vn_mutual_information(assembled, DIMS33) == pytest.approx(1.0, abs=1e-9)

    def test_convex_combination_is_valid_state(self):
        mixture = pm.SeparableMixture(
            (0.3, 0.7),
            (
                (pm.pure_random(3, 1), pm.pure_random(3, 2)),
                (pm.pure_random(3, 3), pm.pure_random(3, 4)),
            ),
        )
        assembled = pm.assemble(mixture)
        assert np.trace(assembled.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert assembled.eigenvalues().min() >= 0.0


class TestRestrictedDensity:
    def test_single_product_component_factorizes(self):
        rng = np.random.default_rng(1)
        sigma_a, sigma_b = pm.mixed_random(3, 3, rng), pm.mixed_random(3, 3, rng)
        mixture = pm.SeparableMixture((1.0,), ((sigma_a, sigma_b),))
        density = pm.restricted_density(mixture)
        rho_a, rho_b = pm.liouville_density(sigma_a), pm.liouville_density(sigma_b)
        for _ in range(20):
            p, q = random_point(3, rng), random_point(3, rng)
            assert density(p, q) == pytest.approx(rho_a(p) * rho_b(q), abs=1e-14)

    def test_matches_assembled_joint_density(self):
        rng = np.random.default_rng(2)
        mixture = pm.random_mixture(3, 3, 2, seed=3)
        density = pm.restricted_density(mixture)
        joint = pm.joint_density_eval(pm.assemble(mixture), DIMS33)
        for _ in range(100):
            p, q = random_point(3, rng), random_point(3, rng)
            assert density(p, q) == pytest.approx(joint(p, q), abs=1e-12)

    def test_degenerate_mixture_of_identical_components(self):
        sigma_a, sigma_b = pm.mixed_random(3, 3, 4), pm.mixed_random(3, 3, 5)
        single = pm.SeparableMixture((1.0,), ((sigma_a, sigma_b),))
        repeated = pm.SeparableMixture(
            (0.25, 0.75), ((sigma_a, sigma_b), (sigma_a, sigma_b))
        )
        rng = np.random.default_rng(6)
        d1, d2 = pm.restricted_density(single), pm.restricted_density(repeated)
        for _ in range(10):
            p, q = random_point(3, rng), random_point(3, rng)
            assert d1(p, q) == pytest.approx(d2(p, q), abs=1e-14)

    def test_factor_widths_are_checked(self):
        density = pm.restricted_density(pm.random_mixture(3, 4, 3, None, 5))
        rng = np.random.default_rng(7)
        xs = np.array([random_point(3, rng).vector for _ in range(8)])
        ys = np.array([random_point(4, rng).vector for _ in range(8)])
        for bad in [(ys, xs), (xs, xs), (xs[:, :2], ys), (xs[0], ys[0])]:
            with pytest.raises(DimensionMismatch):
                density.eval_batch(*bad)
        with pytest.raises(DimensionMismatch):
            density(random_point(4, rng), random_point(3, rng))


class TestIsProduct:
    def test_tensor_product_accepted(self):
        rng = np.random.default_rng(7)
        sigma, _, _ = random_product_state(3, 3, rng)
        assert pm.is_product(sigma, DIMS33)

    def test_maxent_rejected_with_expected_gap(self):
        sigma = pm.maximally_entangled(3)
        assert not pm.is_product(sigma, DIMS33)
        prod = pm.tensor(
            pm.partial_trace(sigma, DIMS33, "A"), pm.partial_trace(sigma, DIMS33, "B")
        )
        gap = np.linalg.norm(sigma.matrix - prod)
        assert gap == pytest.approx(np.sqrt(1 - 1 / 9), abs=1e-12)

    def test_classically_correlated_rejected(self):
        m = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            m[i * 3 + i, i * 3 + i] = 1 / 3
        assert not pm.is_product(m, DIMS33)
        # its marginals are maximally mixed, so the comparison product is I/9
        prod = pm.tensor(
            pm.partial_trace(m, DIMS33, "A").matrix,
            pm.partial_trace(m, DIMS33, "B").matrix,
        )
        assert np.allclose(prod, np.eye(9) / 9, atol=1e-12)


class TestPptCheck:
    def test_tensor_product_is_ppt(self):
        rng = np.random.default_rng(8)
        sigma, _, _ = random_product_state(3, 3, rng)
        assert pm.ppt_check(sigma, DIMS33)

    def test_maxent_violates_ppt(self):
        sigma = pm.maximally_entangled(3)
        assert not pm.ppt_check(sigma, DIMS33)
        t = sigma.matrix.reshape(3, 3, 3, 3)
        pt = np.transpose(t, (0, 3, 2, 1)).reshape(9, 9)
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-1 / 3, abs=1e-12)

    def test_separable_mixtures_are_ppt(self):
        for seed in range(50):
            assembled = pm.assemble(pm.random_mixture(3, 3, 3, seed=seed))
            assert pm.ppt_check(assembled, DIMS33)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pm.ppt_check(np.eye(8) / 8, DIMS33)
