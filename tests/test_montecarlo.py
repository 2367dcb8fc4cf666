"""Tests for the deterministic Gaussian Monte Carlo engine."""

import threading
import time

import numpy as np
import pytest

import projmi as pm
from projmi import montecarlo
from projmi.errors import (
    BadParameter,
    MarginalZeroAnomaly,
    NonFiniteSample,
    ReconstructionOutOfTolerance,
)
from projmi.infomeasures import LOG2_E
from projmi.montecarlo import BLOCK, GROUP, pair_index, pair_rows
from projmi.projective import LiouvilleDensity

import oracles
from helpers import random_hermitian


def ones(*factors):
    """One per sample: per row of one factor, per crossed pair of two."""
    return np.ones(len(factors[0]) * (GROUP if len(factors) == 2 else 1))


class TestSamplerConfig:
    def test_too_few_samples_rejected(self):
        with pytest.raises(BadParameter):
            pm.SamplerConfig(seed=0, n_samples=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_range_rejected(self, seed):
        # Seeds used to be reduced mod 2^64 while MCEstimate.seed kept the
        # unreduced value, so -1 ran the stream of 2^64 - 1.
        with pytest.raises(BadParameter, match="seed"):
            pm.SamplerConfig(seed=seed, n_samples=10)

    @pytest.mark.parametrize("seed, n_samples, subject", [
        (True, 10, "seed"), (1.5, 10, "seed"), (3.0, 10, "seed"), ("3", 10, "seed"),
        (0, 1e4, "n_samples"), (0, True, "n_samples"), (0, 3.0, "n_samples"), (0, "3", "n_samples"),
    ])
    def test_non_integer_rejected(self, seed, n_samples, subject):
        with pytest.raises(BadParameter, match=f"^{subject} must be an integer"):
            pm.SamplerConfig(seed, n_samples)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        est = pm.integrate_nu(3, pm.SamplerConfig(seed, 10), batch_f=ones)
        assert (est.mean, est.seed) == (1.0, seed)


class TestGaussianSample:
    def test_repeatable_for_fixed_seed_and_index(self):
        a = pm.gaussian_sample(3, pm.substream(42, 7))
        b = pm.gaussian_sample(3, pm.substream(42, 7))
        assert np.array_equal(a, b)

    def test_norm_squared_mean_is_twice_dim(self):
        rng = pm.substream(1, 0)
        draws = np.array([pm.gaussian_sample(3, rng) for _ in range(20000)])
        sq = np.sum(np.abs(draws) ** 2, axis=1)
        se = sq.std() / np.sqrt(len(sq))
        assert abs(sq.mean() - 6.0) <= 4 * se

    def test_coordinates_uncorrelated_unit_variance(self):
        rng = pm.substream(2, 0)
        draws = np.array([pm.gaussian_sample(3, rng) for _ in range(20000)])
        coords = np.hstack([draws.real, draws.imag])
        cov = np.cov(coords.T)
        m = len(coords)
        assert np.max(np.abs(np.diag(cov) - 1.0)) <= 4 * np.sqrt(2.0 / m)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 4.5 / np.sqrt(m)

    def test_sample_is_the_engine_layout(self):
        # Consecutive normals are the real and imaginary parts of one entry.
        z = pm.substream(42, 7).standard_normal(6)
        assert np.array_equal(pm.gaussian_sample(3, pm.substream(42, 7)), z[::2] + 1j * z[1::2])

    def test_block_draws_x_then_y_from_its_substream(self):
        seen, lock = {}, threading.Lock()

        def batch(xs, ys, start):
            with lock:
                seen[start] = xs.copy(), ys.copy()
            return np.ones(GROUP * len(xs))

        # A block draws GROUP rows per factor for each group of GROUP^2
        # pairs it starts; the last one starts 7 groups for its 100 pairs.
        n_samples = 2 * BLOCK + 100
        pm.gaussian_pair_expectation(3, 4, pm.SamplerConfig(9, n_samples), batch_f=batch)
        assert sorted(seen) == [0, BLOCK, 2 * BLOCK]
        for k, start in enumerate(sorted(seen)):
            rows = (BLOCK // GROUP, BLOCK // GROUP, 7 * GROUP)[k]
            rng = pm.substream(9, k)
            xs = rng.standard_normal((rows, 6)).view(complex)
            ys = rng.standard_normal((rows, 8)).view(complex)
            assert np.array_equal(seen[start][0], xs)
            assert np.array_equal(seen[start][1], ys)


class TestIntegrateNu:
    def test_constant_integrand_exact(self):
        est = pm.integrate_nu(3, pm.SamplerConfig(0, 5000), batch_f=ones)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("c", [0.1, 1000.1])
    def test_single_batch_constant_has_rounding_level_se(self, c):
        # sum(v^2) - m*mean^2 cancels catastrophically for an inexact constant.
        est = pm.integrate_nu(
            3, pm.SamplerConfig(1, 3000), batch_f=lambda x: np.full(x.shape[0], c)
        )
        assert est.std_error <= 1e-15 * c

    def test_linear_observable_matches_first_moment(self):
        a = np.diag([1.0, 2.0, 3.0])
        cfg = pm.SamplerConfig(3, 100_000)
        est = pm.integrate_nu(
            3, cfg,
            batch_f=lambda X: np.einsum("bi,ij,bj->b", X.conj(), a, X).real,
        )
        assert abs(est.mean - oracles.moment_first(a)) <= 4 * est.std_error
        assert oracles.moment_first(a) == 2.0

    def test_quadratic_matches_second_moment(self):
        rng = np.random.default_rng(9)
        for n in (3, 4, 5):
            a = random_hermitian(n, rng)
            b = random_hermitian(n, rng)

            def batch(X):
                fa = np.einsum("bi,ij,bj->b", X.conj(), a, X).real
                fb = np.einsum("bi,ij,bj->b", X.conj(), b, X).real
                return fa * fb

            est = pm.integrate_nu(n, pm.SamplerConfig(n, 100_000), batch_f=batch)
            assert abs(est.mean - oracles.moment_second(a, b)) <= 4 * est.std_error

    def test_pointwise_and_batch_paths_agree(self):
        sigma = pm.mixed_random(3, 3, 5)
        rho = pm.liouville_density(sigma)
        rng = pm.substream(11, 0)
        rows = np.array([pm.gaussian_sample(3, rng) for _ in range(2000)])
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        pointwise = [rho(pm.ProjectivePoint(row)) for row in rows]
        assert np.allclose(rho.eval_batch(rows), pointwise, rtol=0.0, atol=1e-14)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        sigma = pm.mixed_random(3, 2, rng)
        u = pm.haar_unitary(3, rng)
        rotated = pm.validate_density(u @ sigma.matrix @ u.conj().T)
        f1 = pm.liouville_density(sigma)
        f2 = pm.liouville_density(rotated)
        e1 = pm.integrate_nu(3, pm.SamplerConfig(1, 100_000), batch_f=f1.eval_batch)
        e2 = pm.integrate_nu(3, pm.SamplerConfig(2, 100_000), batch_f=f2.eval_batch)
        joint_se = np.hypot(e1.std_error, e2.std_error)
        assert abs(e1.mean - e2.mean) <= 4 * joint_se

    def test_non_finite_sample_is_an_error(self):
        def batch(X):
            out = np.ones(len(X))
            out[min(5, len(X) - 1)] = np.nan
            return out

        with pytest.raises(NonFiniteSample, match="sample 5"):
            pm.integrate_nu(3, pm.SamplerConfig(0, 4000), batch_f=batch)


class TestColumns:
    """An (m, k) integrand yields k estimates from one pass over the draws."""

    def test_columns_equal_separate_runs(self):
        rho = pm.liouville_density(pm.mixed_random(3, 3, 5))

        def first(xs, ys, start):
            return rho.eval_batch(pair_rows(xs, ys)[0])

        def second(xs, ys, start):
            return rho.eval_batch(pair_rows(xs, ys)[1]) ** 2

        def both_columns(xs, ys, start):
            return np.column_stack((first(xs, ys, start), second(xs, ys, start)))

        # One block, three, and forty, where summing the block totals pairwise
        # instead of in block order would round differently for one column.
        for cfg in (pm.SamplerConfig(4, 3000), pm.SamplerConfig(4, 10_000),
                    pm.SamplerConfig(4, 40 * BLOCK)):
            both = pm.gaussian_pair_expectation(3, 3, cfg, batch_f=both_columns)
            alone = tuple(
                pm.gaussian_pair_expectation(3, 3, cfg, batch_f=f) for f in (first, second)
            )
            assert both == alone

    def test_controls_need_a_value_column(self):
        with pytest.raises(BadParameter, match="no more than its 2 controls"):
            pm.gaussian_pair_expectation(
                3, 3, pm.SamplerConfig(0, 100),
                batch_f=lambda xs, ys, start: np.ones((GROUP * len(xs), 2)),
                control_means=(1.0, 1.0),
            )

    def test_non_finite_names_the_row(self):
        def batch(xs, ys, start):
            out = np.ones((GROUP * len(xs), 2))
            out[5, 1] = np.nan
            return out

        with pytest.raises(NonFiniteSample, match="sample 5$"):
            pm.gaussian_pair_expectation(3, 3, pm.SamplerConfig(0, 100), batch_f=batch)


class TestHeldValues:
    """The reduction never writes into the values an integrand returns, so an
    integrand may return a view of an array it keeps."""

    def test_a_callers_array_is_left_unchanged(self):
        held = np.linspace(0.0, 1.0, 2 * BLOCK)
        before = held.copy()
        est = pm.integrate_nu(3, pm.SamplerConfig(0, BLOCK + 100),
                              batch_f=lambda xs: held[:len(xs)])
        assert np.array_equal(held, before)
        assert est.mean == pytest.approx(np.append(held[:BLOCK], held[:100]).mean(), rel=1e-14)

    def test_a_callers_columns_are_left_unchanged(self):
        held = np.random.default_rng(1).standard_normal((3, BLOCK))
        before = held.copy()
        pm.gaussian_pair_expectation(3, 3, pm.SamplerConfig(0, BLOCK), control_means=(0.0,),
                                     batch_f=lambda xs, ys, start: held.T)
        assert np.array_equal(held, before)


class TestIntegrateMu:
    def test_total_mass(self):
        est = pm.integrate_mu(3, pm.SamplerConfig(0, 1000), batch_f=ones)
        assert est.mean == 3.0
        assert est.std_error == 0.0

    def test_liouville_density_normalizes(self):
        sigma = pm.mixed_random(4, 4, 21)
        rho = pm.liouville_density(sigma)
        est = pm.integrate_mu(4, pm.SamplerConfig(5, 200_000), batch_f=rho.eval_batch)
        assert abs(est.mean - 1.0) <= 4 * est.std_error

    def test_expectation_identity(self):
        rng = np.random.default_rng(31)
        sigma = pm.mixed_random(3, 3, rng)
        a = random_hermitian(3, rng)
        rho = pm.liouville_density(sigma)
        f_a = pm.observable_function(a)

        def batch(X):
            return f_a.eval_batch(X) * rho.eval_batch(X)

        est = pm.integrate_mu(3, pm.SamplerConfig(7, 200_000), batch_f=batch)
        expected = np.trace(a @ sigma.matrix).real
        assert abs(est.mean - expected) <= 4 * est.std_error


class TestIntegrateProductNu:
    def test_constant(self):
        est = pm.integrate_product_nu(3, 3, pm.SamplerConfig(0, 1000), batch_f=ones)
        assert est.mean == 1.0

    def test_product_of_first_moments(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.diag([0.0, 1.0, 2.0, 3.0])

        def batch(xs, ys):
            X, Y = pair_rows(xs, ys)
            fa = np.einsum("bi,ij,bj->b", X.conj(), a, X).real
            fb = np.einsum("bi,ij,bj->b", Y.conj(), b, Y).real
            return fa * fb

        est = pm.integrate_product_nu(3, 4, pm.SamplerConfig(3, 100_000), batch_f=batch)
        expected = oracles.moment_first(a) * oracles.moment_first(b)
        assert abs(est.mean - expected) <= 4 * est.std_error

    def test_maxent_joint_density_mass(self):
        joint = pm.joint_density_eval(pm.maximally_entangled(3), pm.BipartiteDims(3, 3))
        est = pm.integrate_product_nu(
            3, 3, pm.SamplerConfig(4, 100_000),
            batch_f=lambda xs, ys: joint.eval_batch(*pair_rows(xs, ys)),
        )
        assert abs(est.mean - 1 / 9) <= 4 * est.std_error


class TestPairDesign:
    """Two-factor runs pair each drawn row with GROUP rows of the other factor,
    and their standard error follows the crossed design."""

    @staticmethod
    def main_and_interaction(xs, ys):
        """Columns |x_0|^2, |y_0|^2 and their centred product, whose means
        over unit rows of C^3 and C^4 are 1/3, 1/4 and 0: an x-only, a
        y-only and an interaction-only integrand."""
        X, Y = pair_rows(xs, ys)
        u, v = np.abs(X[:, 0]) ** 2, np.abs(Y[:, 0]) ** 2
        return np.column_stack((u, v, (u - 1 / 3) * (v - 1 / 4)))

    def test_pulls_have_unit_spread(self):
        # Each x row serves GROUP pairs, so an SE that ignored the design
        # would give the x-only column a pull sd near sqrt(GROUP) = 2.
        # 4000 seeds: over 400 a pull sd itself spreads by about 0.035, and
        # 3 of 10 disjoint 400-seed sets of a calibrated SE left the band.
        exact = np.array([1 / 3, 1 / 4, 0.0])
        pulls = np.array([
            [(e.mean - mu) / e.std_error for e, mu in zip(pm.integrate_product_nu(
                3, 4, pm.SamplerConfig(seed, 1000), batch_f=self.main_and_interaction), exact)]
            for seed in range(4000)
        ])
        assert np.all((0.9 <= pulls.std(axis=0)) & (pulls.std(axis=0) <= 1.1)), pulls.std(axis=0)
        assert np.all(np.abs(pulls.mean(axis=0)) <= 0.15)

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_short_runs_have_a_positive_se(self, n):
        for est in pm.integrate_product_nu(3, 4, pm.SamplerConfig(0, n),
                                           batch_f=self.main_and_interaction):
            assert np.isfinite(est.std_error) and est.std_error > 0.0

    def test_standard_error_is_the_group_total_formula(self):
        # Two blocks, the second ending in a short group of 4 pairs, so the
        # merge must count unequal group sizes. With T_g a column's total
        # over the n_g pairs of group g and e_g = T_g - n_g mean, the SE is
        # sqrt(G sum e_g^2 / (G - 1) / n^2), but no smaller than
        # sqrt(sum e^2 / (n - 1) / n), its value for independent pairs.
        n, seen = BLOCK + 100, {}

        def batch(xs, ys, start):
            seen[start] = self.main_and_interaction(xs, ys)
            return seen[start]

        estimates = pm.gaussian_pair_expectation(3, 4, pm.SamplerConfig(5, n), batch_f=batch)
        values = np.concatenate([seen[0], seen[BLOCK][:100]])
        mean = values.mean(axis=0)
        group = np.arange(n) // GROUP**2  # BLOCK is a whole number of groups
        totals, counts = np.zeros((group[-1] + 1, 3)), np.bincount(group)
        np.add.at(totals, group, values)
        assert counts[-1] == 4 and set(counts[:-1]) == {GROUP**2}
        groups = len(counts)
        design = groups * ((totals - counts[:, None] * mean) ** 2).sum(axis=0) / (groups - 1)
        squares = ((values - mean) ** 2).sum(axis=0) * n / (n - 1)
        assert design[0] > 2 * squares[0]  # each x row serves GROUP pairs
        for est, mu, var in zip(estimates, mean, np.maximum(design, squares)):
            assert est.mean == pytest.approx(mu, rel=1e-12)
            assert est.std_error == pytest.approx(np.sqrt(var) / n, rel=1e-10)

    def test_no_pair_repeats_and_rows_serve_at_most_group_pairs(self):
        rows = BLOCK // GROUP
        ix, iy = pair_index(rows)
        assert len(ix) == len(iy) == BLOCK
        assert len(set(zip(ix.tolist(), iy.tolist()))) == BLOCK
        assert np.bincount(ix).max() == np.bincount(iy).max() == GROUP
        # Pairs of one group stay in it, and each prefix of a group is
        # balanced: its rows serve numbers of pairs that differ by at most 1.
        assert np.array_equal(ix // GROUP, np.arange(BLOCK) // GROUP**2)
        assert np.array_equal(iy // GROUP, np.arange(BLOCK) // GROUP**2)
        for size in range(1, GROUP**2 + 1):
            for index in (ix[:size], iy[:size]):
                counts = np.bincount(index, minlength=GROUP)
                assert counts.max() - counts.min() <= 1

    def test_pair_rows_follow_the_index(self):
        rng = np.random.default_rng(0)
        xs, ys = rng.standard_normal((8, 3)), rng.standard_normal((8, 4))
        X, Y = pair_rows(xs, ys)
        ix, iy = pair_index(8)
        assert np.array_equal(X, xs[ix]) and np.array_equal(Y, ys[iy])
        assert [(int(i), int(j)) for i, j in zip(ix[:8], iy[:8])] == [
            (0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (2, 3), (3, 0)]

    def test_wrong_value_count_is_rejected(self):
        with pytest.raises(BadParameter, match="returned 100 values for a block of 400 samples"):
            pm.integrate_product_nu(3, 3, pm.SamplerConfig(0, 400),
                                    batch_f=lambda xs, ys: np.ones(len(xs)))


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = pm.SamplerConfig(5, 30_000)
        f = pm.liouville_density(pm.mixed_random(3, 3, 0))
        a = pm.integrate_nu(3, cfg, batch_f=f.eval_batch)
        b = pm.integrate_nu(3, cfg, batch_f=f.eval_batch)
        assert a == b


class TestStdErrorScaling:
    def test_quadrupling_samples_halves_std_error(self):
        sigma = pm.mixed_random(3, 3, 17)
        rho = pm.liouville_density(sigma)
        ratios = []
        for seed in (1, 2, 3):
            small = pm.integrate_nu(
                3, pm.SamplerConfig(seed, 40_000), batch_f=rho.eval_batch
            )
            large = pm.integrate_nu(
                3, pm.SamplerConfig(seed + 100, 160_000), batch_f=rho.eval_batch
            )
            ratios.append(small.std_error / large.std_error)
        mean_ratio = float(np.mean(ratios))
        assert 2.0 / 1.5 <= mean_ratio <= 2.0 * 1.5

    def test_single_batch_fallback_gives_positive_se(self):
        rho = pm.liouville_density(pm.mixed_random(3, 3, 3))
        est = pm.integrate_nu(
            3, pm.SamplerConfig(0, 1000), batch_f=rho.eval_batch
        )
        assert est.std_error > 0.0


class TestPooledStdError:
    """The SE is the per-sample SD over sqrt(n) whatever the block count; an
    SE from the spread of three to five block means can be several times
    too small."""

    def test_matches_exact_sd_at_three_blocks(self):
        # Under nu, |<psi|x>|^2 of a pure state is Beta(1, n - 1).
        n, n_samples = 3, 10_000
        exact_sd = np.sqrt((n - 1) / (n * n * (n + 1)))
        rho = pm.liouville_density(pm.pure_random(n, 0))
        for seed in range(5):
            est = pm.integrate_nu(n, pm.SamplerConfig(seed, n_samples), batch_f=rho.eval_batch)
            assert est.std_error * np.sqrt(n_samples) == pytest.approx(exact_sd, rel=0.05)

    def test_pulls_of_five_block_runs_have_unit_spread(self):
        # maxent 3x3 at 2e4 samples is three blocks; its projective MI is
        # log2 3 - (H_3 - 1) log2 e exactly.
        sigma, dims = pm.maximally_entangled(3), pm.BipartiteDims(3, 3)
        exact = np.log2(3) - (1 / 2 + 1 / 3) * LOG2_E
        pulls = []
        for seed in range(200):
            est = pm.classical_like_mi_projective(sigma, dims, pm.SamplerConfig(seed, 20_000))
            pulls.append((est.mean - exact) / est.std_error)
        assert 0.85 <= np.std(pulls) <= 1.2
        assert np.count_nonzero(np.abs(pulls) > 4) <= 1


class TestReconstruction:
    def test_maximally_mixed(self):
        sigma = pm.validate_density(np.eye(3) / 3)
        rho = pm.liouville_density(sigma)
        out = pm.reconstruct_density_matrix(
            3, pm.SamplerConfig(1, 200_000), batch_f=rho.eval_batch
        )
        assert np.linalg.norm(out.matrix - sigma.matrix) <= 1.5e-2

    def test_random_pure_state(self):
        sigma = pm.pure_random(3, 8)
        rho = pm.liouville_density(sigma)
        out = pm.reconstruct_density_matrix(
            3, pm.SamplerConfig(2, 200_000), batch_f=rho.eval_batch
        )
        assert np.linalg.norm(out.matrix - sigma.matrix) <= 2.5e-2

    def test_constant_density_recovers_maximally_mixed(self):
        out = pm.reconstruct_density_matrix(
            3, pm.SamplerConfig(3, 100_000), batch_f=lambda X: np.full(len(X), 1.0 / 3.0)
        )
        assert np.linalg.norm(out.matrix - np.eye(3) / 3) <= 2.5e-2

    def test_non_density_evaluator_rejected(self):
        with pytest.raises(ReconstructionOutOfTolerance):
            pm.reconstruct_density_matrix(
                3, pm.SamplerConfig(4, 10_000), batch_f=lambda X: np.full(len(X), 10.0)
            )


class TestStreamStability:
    """Fixed-seed estimates of every engine entry and of the three MI
    estimators, and one reconstruction, pinned at rel 1e-12: BLAS rounding
    moves them by about 1e-16. 10_000 samples run one full block of BLOCK
    samples and a remainder block. Only a change of the draw, its seeding,
    the blocks and groups, the standard error, the controls or an integrand
    moves them; record them again with such a change and log it in
    CHANGES.md."""

    PINNED = {
        "integrate_nu": (0.3347508227440026, 0.001296633653552817),
        "integrate_mu": (1.0039865011284312, 0.0052138322575078855),
        "integrate_product_nu": (0.08364413823597502, 0.00042825622673871473),
        "gaussian_expectation": (2.026160822852487, 0.014842657495774335),
        "gaussian_pair_expectation": (4.026044739814248, 0.07399755806745298),
        "classical_like_mi_projective": (0.382708921267745, 9.172860556868823e-05),
        "classical_like_mi_gaussian": (1.5089792266163702, 0.04735788146135144),
        "entropy_decomposition_mi": (0.38267455133008577, 8.917970794649775e-05),
    }
    RECONSTRUCTED_RE = [
        [0.389793388380535, 0.2540937931398144, -0.005838502700622606],
        [0.2540937931398144, 0.3758016518000311, -0.11502995836340087],
        [-0.005838502700622606, -0.11502995836340087, 0.234404959819434],
    ]
    RECONSTRUCTED_IM = [
        [0.0, 0.029782524757944854, 0.09995795819575472],
        [-0.029782524757944854, 0.0, 0.006359407699469225],
        [-0.09995795819575472, -0.006359407699469225, 0.0],
    ]

    @staticmethod
    def estimates():
        rho3 = pm.liouville_density(pm.mixed_random(3, 3, 5))
        rho4 = pm.liouville_density(pm.mixed_random(4, 4, 6))
        joint = pm.joint_density_eval(pm.mixed_random(9, 9, 7), pm.BipartiteDims(3, 3))
        joint34 = pm.joint_density_eval(pm.mixed_random(12, 12, 7), pm.BipartiteDims(3, 4))
        sigma, dims = pm.maximally_entangled(3), pm.BipartiteDims(3, 3)

        def cfg(seed):
            return pm.SamplerConfig(seed, 10_000)

        return {
            "integrate_nu": pm.integrate_nu(3, cfg(101), batch_f=rho3.eval_batch),
            "integrate_mu": pm.integrate_mu(4, cfg(102), batch_f=rho4.eval_batch),
            "integrate_product_nu": pm.integrate_product_nu(
                3, 4, cfg(103), batch_f=lambda xs, ys: joint34.eval_batch(*pair_rows(xs, ys))
            ),
            "gaussian_expectation": pm.gaussian_expectation(
                3, cfg(104), batch_f=lambda xs, start: rho3.eval_batch(xs)
            ),
            "gaussian_pair_expectation": pm.gaussian_pair_expectation(
                3, 3, cfg(105),
                batch_f=lambda xs, ys, start: joint.eval_batch(*pair_rows(xs, ys)),
            ),
            "classical_like_mi_projective": pm.classical_like_mi_projective(
                sigma, dims, cfg(107)
            ),
            "classical_like_mi_gaussian": pm.classical_like_mi_gaussian(
                sigma, dims, cfg(108)
            ),
            "entropy_decomposition_mi": pm.entropy_decomposition_mi(sigma, dims, cfg(109)),
        }

    def test_estimates_match_pinned_values(self):
        got = {k: (e.mean, e.std_error) for k, e in self.estimates().items()}
        assert got.keys() == self.PINNED.keys()
        for name, (mean, se) in self.PINNED.items():
            assert got[name][0] == pytest.approx(mean, rel=1e-12, abs=0.0), name
            assert got[name][1] == pytest.approx(se, rel=1e-12, abs=0.0), name

    def test_reconstruction_matches_pinned_matrix(self):
        rho = pm.liouville_density(pm.mixed_random(3, 3, 8))
        out = pm.reconstruct_density_matrix(
            3, pm.SamplerConfig(106, 10_000), batch_f=rho.eval_batch
        )
        pinned = np.array(self.RECONSTRUCTED_RE) + 1j * np.array(self.RECONSTRUCTED_IM)
        assert np.linalg.norm(out.matrix - pinned) <= 1e-12 * np.linalg.norm(pinned)


class TestWorkerCount:
    """Blocks run on one worker thread per CPU. Estimates, reconstructions
    and errors are the same, bit for bit, for any number of workers."""

    COUNTS = (1, 2, 3)

    @staticmethod
    def each_count(monkeypatch, run):
        """``run()`` with the engine seeing 1, 2 and 3 CPUs."""
        results = []
        for count in TestWorkerCount.COUNTS:
            monkeypatch.setattr(montecarlo, "_cpus", lambda count=count: count)
            results.append(run())
        return results

    @staticmethod
    def error_text(error, call):
        with pytest.raises(error) as info:
            call()
        return str(info.value)

    def test_workers_are_the_cpus_capped_by_the_blocks(self, monkeypatch):
        def threads_used(n_samples):
            seen = set()

            def batch(xs, start):
                seen.add(threading.get_ident())
                time.sleep(0.005)  # let every worker take a block
                return np.ones(len(xs))

            pm.gaussian_expectation(3, pm.SamplerConfig(0, n_samples), batch_f=batch)
            return seen

        assert len(threads_used(12 * BLOCK)) <= montecarlo._cpus()
        counts = self.each_count(monkeypatch, lambda: len(threads_used(12 * BLOCK)))
        assert all(used <= count for used, count in zip(counts, self.COUNTS))
        assert counts[0] == 1
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        assert len(threads_used(2 * BLOCK)) <= 2
        assert threading.get_ident() not in threads_used(BLOCK)

    def test_estimates_do_not_depend_on_the_worker_count(self, monkeypatch):
        sigma, dims = pm.mixed_random(12, 12, 7), pm.BipartiteDims(3, 4)
        rho = pm.liouville_density(pm.mixed_random(3, 3, 8))

        def run():
            reconstructed = pm.reconstruct_density_matrix(
                3, pm.SamplerConfig(106, 10_000), batch_f=rho.eval_batch
            )
            return (
                TestStreamStability.estimates(),
                reconstructed.matrix.tobytes(),
                pm.mi_estimates(sigma, dims, pm.SamplerConfig(3, 30_000)),
            )

        first, *others = self.each_count(monkeypatch, run)
        assert all(other == first for other in others)

    def test_non_finite_sample_names_the_first_block(self, monkeypatch):
        # Every block fails at its pair 5; block 0 fails last in time.
        def batch(xs, ys, start):
            if start == 0:
                time.sleep(0.02)
            out = np.ones(GROUP * len(xs))
            out[5] = np.nan
            return out

        texts = self.each_count(monkeypatch, lambda: self.error_text(
            NonFiniteSample,
            lambda: pm.gaussian_pair_expectation(3, 3, pm.SamplerConfig(0, 6 * BLOCK),
                                                 batch_f=batch),
        ))
        assert texts == ["integrand returned a non-finite value at sample 5"] * 3

    def test_marginal_anomaly_names_the_first_block(self, monkeypatch):
        # Marginal A (the 9 features of width-3 rows) vanishes at row 4 of
        # every block: x row 0 of group 1, whose first pair is pair 16.
        original = LiouvilleDensity.eval_features

        def patched(self, features):
            values = original(self, features)
            if len(features) == 9:
                values[4] = 0.0
            return values

        monkeypatch.setattr(LiouvilleDensity, "eval_features", patched)
        sigma, dims = pm.mixed_random(12, 12, 7), pm.BipartiteDims(3, 4)
        first, *others = self.each_count(monkeypatch, lambda: self.error_text(
            MarginalZeroAnomaly,
            lambda: pm.mi_estimates(sigma, dims, pm.SamplerConfig(2, 6 * BLOCK)),
        ))
        assert first.endswith(f"vanishing marginal at sample {GROUP**2}")
        assert others == [first, first]

    @pytest.mark.parametrize("count", COUNTS)
    def test_no_block_runs_after_a_raise(self, monkeypatch, count):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: count)
        lock, running, started = threading.Lock(), [0], []

        def batch(xs, start):
            with lock:
                running[0] += 1
                started.append(start)
            try:
                time.sleep(0.01)
                if start == BLOCK:
                    raise RuntimeError("block 1 failed")
                return np.ones(len(xs))
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(RuntimeError, match="block 1 failed"):
            pm.gaussian_expectation(3, pm.SamplerConfig(0, 40 * BLOCK), batch_f=batch)
        assert running[0] == 0
        assert BLOCK in started
        ran = len(started)
        assert ran < 40
        time.sleep(0.05)
        assert len(started) == ran
