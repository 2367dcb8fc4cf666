"""Tests for the entropy and mutual-information estimators."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projmi as pm
from projmi import infomeasures, montecarlo
from projmi.errors import BadParameter, DimensionMismatch, MarginalZeroAnomaly
from projmi.infomeasures import (
    DENSITY_SUPPORT_EPS, EULER_GAMMA, LOG2_E, MI_COLUMNS, _mi_integrand, check_marginal_support,
)
from projmi.montecarlo import BLOCK, GROUP
from projmi.projective import LiouvilleDensity, hermitian_features

import oracles
from helpers import agree_within, random_point, random_product_state, split_states

DIMS33 = pm.BipartiteDims(3, 3)

# Zero tests on product states: the integrand cancels to rounding noise,
# so allow an absolute double-precision floor on top of the 4-SE band.
ZERO_FLOOR = 1e-12


class TestJointDensity:
    def test_maxent_at_basis_pair(self):
        joint = pm.joint_density_eval(pm.maximally_entangled(3), DIMS33)
        e0 = pm.project([1, 0, 0])
        assert joint(e0, e0) == pytest.approx(1 / 3, abs=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(1)
        sigma, sigma_a, sigma_b = random_product_state(3, 3, rng)
        joint = pm.joint_density_eval(sigma, DIMS33)
        rho_a = pm.liouville_density(sigma_a)
        rho_b = pm.liouville_density(sigma_b)
        for _ in range(20):
            p, q = random_point(3, rng), random_point(3, rng)
            assert joint(p, q) == pytest.approx(rho_a(p) * rho_b(q), abs=1e-12)

    def test_maxent_schmidt_overlap_formula(self):
        rng = np.random.default_rng(2)
        joint = pm.joint_density_eval(pm.maximally_entangled(3), DIMS33)
        for _ in range(20):
            p, q = random_point(3, rng), random_point(3, rng)
            expected = np.abs(np.sum(p.vector * q.vector)) ** 2 / 3
            assert joint(p, q) == pytest.approx(expected, abs=1e-12)
        # a point orthogonal to the conjugate of p gives zero joint density
        p = random_point(3, rng)
        target = p.vector.conj()
        basis = np.linalg.qr(
            np.column_stack([target, rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))])
        )[0]
        q_perp = pm.project(basis[:, 1])
        assert joint(p, q_perp) == pytest.approx(0.0, abs=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        joint = pm.joint_density_eval(pm.mixed_random(9, 9, rng), DIMS33)
        for _ in range(50):
            v = joint(random_point(3, rng), random_point(3, rng))
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            pm.joint_density_eval(pm.mixed_random(8, 8, 0), DIMS33)
        joint = pm.joint_density_eval(pm.maximally_entangled(3), DIMS33)
        with pytest.raises(DimensionMismatch):
            joint(pm.project([1, 0]), pm.project([1, 0, 0]))


class TestMarginalDensity:
    def test_maxent_marginal_constant(self):
        rng = np.random.default_rng(4)
        for d in (3, 4):
            marg = pm.marginal_density(
                pm.maximally_entangled(d), pm.BipartiteDims(d, d), integrate_out="A"
            )
            for _ in range(20):
                assert marg(random_point(d, rng)) == pytest.approx(1 / d, abs=1e-12)

    def test_product_marginal_is_factor_density(self):
        rng = np.random.default_rng(5)
        sigma, sigma_a, _ = random_product_state(3, 3, rng)
        marg = pm.marginal_density(sigma, DIMS33, integrate_out="B")
        rho_a = pm.liouville_density(sigma_a)
        for _ in range(20):
            p = random_point(3, rng)
            assert marg(p) == pytest.approx(rho_a(p), abs=1e-12)

    def test_mc_mode_matches_analytic(self):
        rng = np.random.default_rng(6)
        sigma = pm.mixed_random(9, 9, rng)
        analytic = pm.marginal_density(sigma, DIMS33, integrate_out="B")
        mc = pm.marginal_density(
            sigma, DIMS33, integrate_out="B", mode="mc", cfg=pm.SamplerConfig(1, 20_000)
        )
        for _ in range(20):
            p = random_point(3, rng)
            est = mc(p)
            assert abs(est.mean - analytic(p)) <= 4 * est.std_error

    def test_mode_validation(self):
        sigma = pm.maximally_entangled(3)
        with pytest.raises(BadParameter):
            pm.marginal_density(sigma, DIMS33, integrate_out="C")
        with pytest.raises(BadParameter):
            pm.marginal_density(sigma, DIMS33, integrate_out="A", mode="exactly")
        with pytest.raises(BadParameter):
            pm.marginal_density(sigma, DIMS33, integrate_out="A", mode="mc")

    def test_mc_mode_point_of_the_integrated_factor_rejected(self):
        mc = pm.marginal_density(pm.mixed_random(12, 12, 1), pm.BipartiteDims(3, 4),
                                 integrate_out="A", mode="mc", cfg=pm.SamplerConfig(1, 100))
        with pytest.raises(DimensionMismatch, match="point dim 3 != kept factor dim 4"):
            mc(pm.project(np.ones(3)))


class TestDifferentialEntropyMu:
    def test_maximally_mixed_is_log_dim(self):
        for d in (3, 4):
            sigma = pm.validate_density(np.eye(d) / d)
            est = pm.differential_entropy_mu(sigma, pm.SamplerConfig(0, 5000))
            assert est.mean == pytest.approx(np.log2(d), abs=1e-9)

    def test_pure_state_matches_beta_oracle(self):
        est = pm.differential_entropy_mu(pm.pure_random(3, 7), pm.SamplerConfig(1, 100_000))
        assert abs(est.mean - oracles.beta_pure_entropy(3)) <= 4 * est.std_error

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        sigma = pm.mixed_random(3, 2, rng)
        u = pm.haar_unitary(3, rng)
        rotated = pm.validate_density(u @ sigma.matrix @ u.conj().T)
        e1 = pm.differential_entropy_mu(sigma, pm.SamplerConfig(1, 100_000))
        e2 = pm.differential_entropy_mu(rotated, pm.SamplerConfig(2, 100_000))
        assert agree_within(e1, e2)

    @settings(max_examples=20)
    @given(n=st.integers(3, 6), rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_unitary_invariance_property(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        sigma = pm.mixed_random(n, min(rank, n), rng)
        u = pm.haar_unitary(n, rng)
        rotated = pm.validate_density(u @ sigma.matrix @ u.conj().T)
        e1 = pm.differential_entropy_mu(sigma, pm.SamplerConfig(1, 20_000))
        e2 = pm.differential_entropy_mu(rotated, pm.SamplerConfig(2, 20_000))
        assert agree_within(e1, e2)


class TestGaussianOverlapEntropy:
    def test_constant_value(self):
        c = pm.pure_state_entropy_gaussian_constant()
        assert c == pytest.approx(-3.2199, abs=1e-4)
        assert c == pytest.approx((2 * EULER_GAMMA - 2) * LOG2_E - 2, abs=0)
        assert -c == pytest.approx(oracles.radial_log_moment_closed_form(), abs=1e-12)

    def test_printed_shift_constant(self):
        # the closed-form shift over log2(d) is 3.22 to two decimals
        for d in (3, 4, 5):
            shift = pm.maxent_mi_closed_form(d) - np.log2(d)
            assert round(shift, 2) == 3.22

    def test_mc_matches_constant(self):
        psi = np.zeros(3, dtype=complex)
        psi[0] = 1.0
        est = pm.pure_state_entropy_gaussian(psi, pm.SamplerConfig(3, 100_000))
        assert abs(est.mean - pm.pure_state_entropy_gaussian_constant()) <= 4 * est.std_error

    def test_dimension_independent(self):
        rng = np.random.default_rng(9)
        estimates = []
        for n, seed in ((3, 1), (5, 2)):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi = x / np.linalg.norm(x)
            estimates.append(
                pm.pure_state_entropy_gaussian(psi, pm.SamplerConfig(seed, 100_000))
            )
        assert agree_within(estimates[0], estimates[1])

    def test_requires_unit_vector(self):
        with pytest.raises(BadParameter):
            pm.pure_state_entropy_gaussian(np.array([2.0, 0.0]), pm.SamplerConfig(0, 100))


class TestClassicalLikeMiProjective:
    def test_product_state_zero(self):
        rng = np.random.default_rng(10)
        sigma, _, _ = random_product_state(3, 3, rng)
        est = pm.classical_like_mi_projective(sigma, DIMS33, pm.SamplerConfig(1, 50_000))
        assert abs(est.mean) <= 4 * est.std_error + ZERO_FLOOR

    def test_maxent_matches_entropy_decomposition_oracle(self):
        # log2(3) - (H_3 - 1) log2(e), confirmed by brute-force 2D MC
        target = np.log2(3) - (oracles.beta_pure_entropy_closed_form(3))
        est = pm.classical_like_mi_projective(
            pm.maximally_entangled(3), DIMS33, pm.SamplerConfig(2, 200_000)
        )
        assert abs(est.mean - target) <= 4 * est.std_error

    def test_kl_nonnegative(self):
        for seed in (1, 2, 3):
            sigma = pm.mixed_random(9, 4, seed)
            est = pm.classical_like_mi_projective(sigma, DIMS33, pm.SamplerConfig(seed, 50_000))
            assert est.mean >= -4 * est.std_error

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(16)
        sigma = pm.mixed_random(9, 3, rng)
        u = pm.tensor(pm.haar_unitary(3, rng), pm.haar_unitary(3, rng))
        rotated = pm.validate_density(u @ sigma.matrix @ u.conj().T)
        a = pm.classical_like_mi_projective(sigma, DIMS33, pm.SamplerConfig(1, 100_000))
        b = pm.classical_like_mi_projective(rotated, DIMS33, pm.SamplerConfig(2, 100_000))
        assert agree_within(a, b)


class TestClassicalLikeMiGaussian:
    def test_product_state_zero(self):
        rng = np.random.default_rng(11)
        sigma, _, _ = random_product_state(3, 3, rng)
        est = pm.classical_like_mi_gaussian(sigma, DIMS33, pm.SamplerConfig(1, 50_000))
        assert abs(est.mean) <= 4 * est.std_error + ZERO_FLOOR

    def test_maxent_stable_across_seeds(self):
        sigma = pm.maximally_entangled(3)
        a = pm.classical_like_mi_gaussian(sigma, DIMS33, pm.SamplerConfig(1, 100_000))
        b = pm.classical_like_mi_gaussian(sigma, DIMS33, pm.SamplerConfig(2, 100_000))
        assert a.mean > 0 and b.mean > 0
        assert agree_within(a, b)

    def test_log_ratio_scale_invariant(self):
        rng = np.random.default_rng(12)
        sigma = pm.mixed_random(9, 9, rng)
        joint = pm.joint_density_eval(sigma, DIMS33)
        sig_a = pm.partial_trace(sigma, DIMS33, "A").matrix
        sig_b = pm.partial_trace(sigma, DIMS33, "B").matrix
        x = (rng.standard_normal(3) + 1j * rng.standard_normal(3))[None, :]
        y = (rng.standard_normal(3) + 1j * rng.standard_normal(3))[None, :]

        def log_ratio(xs, ys):
            w = joint.eval_batch(xs, ys)[0]
            wa = np.einsum("bi,ij,bj->b", xs.conj(), sig_a, xs).real[0]
            wb = np.einsum("bi,ij,bj->b", ys.conj(), sig_b, ys).real[0]
            return np.log2(w / (wa * wb))

        assert log_ratio(2.0 * x, y) == pytest.approx(log_ratio(x, y), abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(13)
        sigma = pm.mixed_random(9, 3, rng)
        u = pm.tensor(pm.haar_unitary(3, rng), pm.haar_unitary(3, rng))
        rotated = pm.validate_density(u @ sigma.matrix @ u.conj().T)
        a = pm.classical_like_mi_gaussian(sigma, DIMS33, pm.SamplerConfig(1, 100_000))
        b = pm.classical_like_mi_gaussian(rotated, DIMS33, pm.SamplerConfig(2, 100_000))
        assert agree_within(a, b)


class TestEntropyDecomposition:
    def test_product_state_zero(self):
        rng = np.random.default_rng(14)
        sigma, _, _ = random_product_state(3, 3, rng)
        est = pm.entropy_decomposition_mi(sigma, DIMS33, pm.SamplerConfig(1, 50_000))
        assert abs(est.mean) <= 4 * est.std_error

    def test_maxent_marginal_entropy_is_log_d(self):
        red = pm.partial_trace(pm.maximally_entangled(3), DIMS33, "A")
        est = pm.differential_entropy_mu(red, pm.SamplerConfig(0, 5000))
        assert est.mean == pytest.approx(np.log2(3), abs=1e-9)

    def test_agrees_with_projective_estimator(self):
        for seed in (1, 2):
            sigma = pm.mixed_random(9, 9, seed)
            a = pm.entropy_decomposition_mi(sigma, DIMS33, pm.SamplerConfig(seed, 50_000))
            b = pm.classical_like_mi_projective(sigma, DIMS33, pm.SamplerConfig(seed + 50, 50_000))
            assert agree_within(a, b)

    def test_one_engine_run(self, monkeypatch):
        # 10_000 samples are two blocks, each drawn from one substream.
        calls = []
        original = montecarlo.substream

        def counted(seed, index):
            calls.append(index)
            return original(seed, index)

        monkeypatch.setattr(montecarlo, "substream", counted)
        pm.entropy_decomposition_mi(pm.mixed_random(9, 9, 7), DIMS33, pm.SamplerConfig(3, 10_000))
        assert calls == [0, 1]


class TestMiEstimates:
    def test_columns_are_the_standalone_estimators(self):
        sigma, dims = pm.mixed_random(12, 5, 3), pm.BipartiteDims(3, 4)
        cfg = pm.SamplerConfig(4, 10_000)
        projective, gaussian, decomposition = pm.mi_estimates(sigma, dims, cfg)
        assert projective == pm.classical_like_mi_projective(sigma, dims, cfg)
        assert gaussian == pm.classical_like_mi_gaussian(sigma, dims, cfg)
        assert decomposition == pm.entropy_decomposition_mi(sigma, dims, cfg)
        assert [e.method for e in (projective, gaussian, decomposition)] == [
            "mi_projective", "mi_gaussian", "mi_decomposition"]

    def test_columns_come_in_the_requested_order(self):
        sigma, cfg = pm.mixed_random(9, 4, 2), pm.SamplerConfig(1, 5000)
        ordered = pm.mi_estimates(sigma, DIMS33, cfg, ("decomposition", "projective"))
        assert ordered == pm.mi_estimates(sigma, DIMS33, cfg, MI_COLUMNS)[::-2]

    @pytest.mark.parametrize("columns", [(), ("projective", "entropy")])
    def test_unknown_or_no_column_rejected(self, columns):
        with pytest.raises(BadParameter):
            pm.mi_estimates(pm.maximally_entangled(3), DIMS33, pm.SamplerConfig(0, 100), columns)

    def test_more_controls_than_means_raises(self, monkeypatch):
        # The engine would count the control without a mean as a value column.
        def one_mean_short(*args):
            batch, means = _mi_integrand(*args)
            return batch, means[:-1]

        monkeypatch.setattr(infomeasures, "_mi_integrand", one_mean_short)
        with pytest.raises(ValueError):
            pm.mi_estimates(pm.mixed_random(9, 4, 2), DIMS33, pm.SamplerConfig(1, 5000))


def mixed6_state() -> pm.DensityMatrix:
    """The full-rank 36 x 36 state of the benchmark's mi.mixed6 workload."""
    rng = np.random.default_rng(6)
    g = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    sigma = g @ g.conj().T
    return pm.validate_density(sigma / np.trace(sigma).real)


def product_state() -> pm.DensityMatrix:
    return pm.validate_density(pm.tensor(pm.mixed_random(3, 3, 1), pm.mixed_random(3, 3, 2)))


CONTROL_STATES = {
    "maxent3x3": (pm.maximally_entangled(3), DIMS33),
    "pure3x4": (pm.pure_random(12), pm.BipartiteDims(3, 4)),
    "mixed9x9": (pm.mixed_random(9, 9, 5), DIMS33),
    "mixed6x6": (mixed6_state(), pm.BipartiteDims(6, 6)),
    "separable3x3": (pm.assemble(pm.random_mixture(3, 3, 4, seed=3)), DIMS33),
    "rank3_4x3": (pm.mixed_random(12, 3, 2), pm.BipartiteDims(4, 3)),
}
PURE_CONTROL_STATES = ("maxent3x3", "pure3x4")


class TestControlMeans:
    """The closed-form means the MI integrand's controls are regressed on."""

    @pytest.mark.parametrize("name", CONTROL_STATES)
    def test_engine_sample_means_match_closed_forms(self, name):
        sigma, dims = CONTROL_STATES[name]
        batch, means = _mi_integrand(sigma, dims, ("projective",))
        # Without control means the engine reports the plain sample mean of
        # every column, controls included.
        _, *controls = pm.gaussian_pair_expectation(
            dims.dim_a, dims.dim_b, pm.SamplerConfig(13, 100_000), batch_f=batch
        )
        # A constant control (a and b on maxent) matches to rounding only.
        rounding = 64 * np.finfo(float).eps
        labels = [f"{q}^{k}" for q in "Wab" for k in (1, 2, 3)] + ["W^4"]
        if name in PURE_CONTROL_STATES:
            labels += ["c_5", "c_6"]
        for est, exact, label in zip(controls, means, labels, strict=True):
            assert abs(est.mean - exact) <= 4 * est.std_error + rounding * exact, label


@functools.cache
def contraction_path(subscripts: str, shape: tuple) -> list:
    """einsum's pairwise contraction order for copies of one tensor of this
    shape: a single loop over the 2k indices is slow at k = 4."""
    operands = [np.empty(shape)] * (subscripts.count(",") + 1)
    return np.einsum_path(subscripts, *operands, optimize="greedy")[0]


def permutation_sum_moment(m: np.ndarray, d_a: int, d_b: int, k: int) -> float:
    """E[<x (x) y|m|x (x) y>^k] over unit rays x, y of C^d_a, C^d_b from its
    definition: sum over pi, tau in S_k of tr[(P_pi (x) P_tau) m^(x)k] over
    (d_a)_k (d_b)_k, one einsum per pair of permutations. d_b = 1 gives the
    moments of <x|m|x>."""
    t = m.reshape(d_a, d_b, d_a, d_b)
    a, b = "abcd"[:k], "efgh"[:k]
    total = 0.0
    for pi in itertools.permutations(range(k)):
        for tau in itertools.permutations(range(k)):
            subscripts = ",".join(a[i] + b[i] + a[pi[i]] + b[tau[i]] for i in range(k)) + "->"
            total += np.einsum(subscripts, *[t] * k,
                               optimize=contraction_path(subscripts, t.shape))
    return float(total.real) / float(np.prod([(d_a + i) * (d_b + i) for i in range(k)]))


class TestExactMoments:
    """The controls' closed-form means against the permutation sums that
    define them, for the state and its complex conjugate."""

    @pytest.mark.parametrize("d_a, d_b", [(3, 3), (3, 4), (4, 3), (5, 5), (6, 6)])
    @pytest.mark.parametrize("kind", ["rank1", "rank_deficient", "full_rank", "product"])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_means_match_the_permutation_sums(self, d_a, d_b, kind, conjugate):
        sigma, dims = split_states(d_a, d_b)[kind], pm.BipartiteDims(d_a, d_b)
        if conjugate:
            sigma = pm.validate_density(sigma.matrix.conj())
        _, means = _mi_integrand(sigma, dims, ("projective",))
        if kind == "rank1":  # c_5 and c_6 follow, of mean zero
            assert means[10:] == (0.0, 0.0)
            means = means[:10]
        rho_a, rho_b = (pm.partial_trace(sigma, dims, side).matrix for side in "AB")
        densities = {"W": (sigma.matrix, d_a, d_b), "a": (rho_a, d_a, 1), "b": (rho_b, d_b, 1)}
        moments = [*itertools.product("Wab", (1, 2, 3)), ("W", 4)]
        for mean, (label, k) in zip(means, moments, strict=True):
            want = permutation_sum_moment(*densities[label], k)
            assert mean == pytest.approx(want, rel=1e-12, abs=0.0), f"E[{label}^{k}]"


class TestPureStateControls:
    """For a pure state, E_y[W^k | x] = k! a(x)^k / (d_b)_k: the identity that
    centres the controls c_5 and c_6 of its integrand."""

    @pytest.mark.parametrize("d_a, d_b", [(3, 3), (3, 4), (4, 3), (5, 5), (6, 6)])
    def test_joint_moments_are_the_marginal_moments(self, d_a, d_b):
        sigma, dims = split_states(d_a, d_b)["rank1"], pm.BipartiteDims(d_a, d_b)
        rho_a, rho_b = (pm.partial_trace(sigma, dims, side) for side in "AB")
        marg_a = pm.liouville_density(rho_a)
        means = infomeasures._control_means(pm.joint_density_eval(sigma, dims), marg_a,
                                            pm.liouville_density(rho_b))
        a_moments = (*infomeasures._ray_moments(marg_a._factor)[1:],
                     permutation_sum_moment(rho_a.matrix, d_a, 1, 4))
        for k, w_mean, a_mean in zip((2, 3, 4), (means[1], means[2], means[9]), a_moments,
                                     strict=True):
            want = math.factorial(k) / math.prod(range(d_b, d_b + k)) * a_mean
            assert w_mean == pytest.approx(want, rel=1e-12, abs=0.0), f"E[W^{k}]"

    def test_controls_have_mean_zero(self):
        sigma, dims = pm.pure_random(12, 11), pm.BipartiteDims(3, 4)
        batch, means = _mi_integrand(sigma, dims, ("projective",))
        assert means[10:] == (0.0, 0.0)
        *_, c5, c6 = pm.gaussian_pair_expectation(3, 4, pm.SamplerConfig(0, 300 * BLOCK),
                                                  batch_f=batch)
        for label, est in (("c_5", c5), ("c_6", c6)):
            assert abs(est.mean) <= 4 * est.std_error, label


class TestControlFit:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_maxent_regresses_on_the_joint_controls_only(self, monkeypatch, d):
        # a = b = 1/d on every unit row: only W, W^2, W^3, W^4, c_5 and c_6 vary.
        fits = []
        original = montecarlo._control_fit

        def recorded(*args):
            fits.append(original(*args))
            return fits[-1]

        monkeypatch.setattr(montecarlo, "_control_fit", recorded)
        pm.mi_estimates(pm.maximally_entangled(d), pm.BipartiteDims(d, d),
                        pm.SamplerConfig(0, 5000))
        (fit,) = fits
        assert fit.kept.tolist() == [0, 1, 2, 9, 10, 11]
        assert fit.rank == 6

    @pytest.mark.parametrize("n, fitted", [(montecarlo.MIN_CONTROL_SAMPLES - 1, False),
                                           (montecarlo.MIN_CONTROL_SAMPLES, True)])
    def test_short_runs_report_the_sample_mean(self, n, fitted):
        sigma, dims = CONTROL_STATES["mixed9x9"]
        batch, _ = _mi_integrand(sigma, dims, MI_COLUMNS)
        plain = pm.gaussian_pair_expectation(3, 3, pm.SamplerConfig(2, n), batch_f=batch)[:3]
        for p, est in zip(plain, pm.mi_estimates(sigma, dims, pm.SamplerConfig(2, n))):
            assert ((est.mean, est.std_error) != (p.mean, p.std_error)) == fitted

    def test_product_state_projective_is_zero(self):
        est = pm.classical_like_mi_projective(product_state(), DIMS33, pm.SamplerConfig(5, 10_000))
        assert abs(est.mean) <= 4 * est.std_error + ZERO_FLOOR

    def test_constant_control_gives_the_sample_mean(self, monkeypatch):
        # A control that never varies is dropped, and with none left the
        # estimate is the plain sample mean and SE, bit for bit.
        fits = []
        original = montecarlo._control_fit

        def recorded(*args):
            fits.append(original(*args))
            return fits[-1]

        def batch(xs, ys, start):
            x, y = pm.pair_rows(xs, ys)
            return np.square(np.abs(x)).sum(axis=1) + np.square(np.abs(y)).sum(axis=1)

        def with_control(xs, ys, start):
            return np.column_stack((batch(xs, ys, start), np.ones(GROUP * len(xs))))

        monkeypatch.setattr(montecarlo, "_control_fit", recorded)
        cfg = pm.SamplerConfig(4, montecarlo.MIN_CONTROL_SAMPLES)
        plain = pm.gaussian_pair_expectation(3, 3, cfg, batch_f=batch)
        (fitted,) = pm.gaussian_pair_expectation(3, 3, cfg, batch_f=with_control,
                                                 control_means=(1.0,))
        (fit,) = fits
        assert (fit.kept.size, fit.rank) == (0, 0)
        assert (fitted.mean, fitted.std_error) == (plain.mean, plain.std_error)

    def test_control_variates_cut_the_standard_error(self):
        # The same draws without and with the controls' exact means.
        sigma, dims = CONTROL_STATES["mixed9x9"]
        batch, means = _mi_integrand(sigma, dims, MI_COLUMNS)
        cfg = pm.SamplerConfig(3, 20_000)
        plain = pm.gaussian_pair_expectation(3, 3, cfg, batch_f=batch)[:3]
        fitted = pm.gaussian_pair_expectation(3, 3, cfg, batch_f=batch, control_means=means)
        for p, f, est in zip(plain, fitted, pm.mi_estimates(sigma, dims, cfg)):
            assert (f.mean, f.std_error) == (est.mean, est.std_error)
            assert f.std_error < p.std_error
            assert agree_within(p, f)


def maxent_mi(d: int) -> float:
    """Projective MI of the d x d maximally entangled state: log2 d - (H_d - 1) log2 e."""
    return float(np.log2(d)) - (sum(1 / k for k in range(1, d + 1)) - 1) * LOG2_E


class TestControlVariateCoverage:
    """Pulls of the regression estimates over seeds 0-399 at 1e4 samples,
    fixed before the first run: each pull sd lies in [0.9, 1.1] and each mean
    pull within 0.15 of 0."""

    SEEDS = range(400)
    SAMPLES = 10_000

    @staticmethod
    def assert_unit_spread(pulls, label):
        sd, mean = np.std(pulls), np.mean(pulls)
        assert 0.9 <= sd <= 1.1 and abs(mean) <= 0.15, f"{label}: sd {sd:.3f}, mean {mean:+.3f}"

    @pytest.mark.parametrize("d", [3, 5])
    def test_maxent_against_exact_targets(self, d):
        sigma, dims = pm.maximally_entangled(d), pm.BipartiteDims(d, d)
        runs = [pm.mi_estimates(sigma, dims, pm.SamplerConfig(seed, self.SAMPLES))
                for seed in self.SEEDS]
        # E[r_x^2 r_y^2] = 4 d_a d_b: the Gaussian column's target is 4 MI.
        targets = (maxent_mi(d), 4 * maxent_mi(d), maxent_mi(d))
        for j, (name, target) in enumerate(zip(MI_COLUMNS, targets)):
            pulls = [(run[j].mean - target) / run[j].std_error for run in runs]
            self.assert_unit_spread(pulls, name)

    @pytest.mark.parametrize("n", [montecarlo.MIN_CONTROL_SAMPLES - 1,
                                   montecarlo.MIN_CONTROL_SAMPLES])
    def test_maxent_at_the_control_threshold(self, n):
        # The shortest runs with controls fit them on 256 group totals; the
        # longest without report the group-total SE of the plain mean.
        sigma, dims = pm.maximally_entangled(3), pm.BipartiteDims(3, 3)
        runs = [pm.mi_estimates(sigma, dims, pm.SamplerConfig(seed, n)) for seed in self.SEEDS]
        for j, (name, target) in enumerate(zip(MI_COLUMNS, (1, 4, 1))):
            pulls = [(run[j].mean - target * maxent_mi(3)) / run[j].std_error for run in runs]
            self.assert_unit_spread(pulls, f"{name} at {n}")

    @pytest.mark.parametrize("name", ["mixed9x9", "pure3x4", "rank3_4x3", "separable3x3"])
    def test_projective_against_decomposition(self, name):
        sigma, dims = CONTROL_STATES[name]
        pulls = []
        for seed in self.SEEDS:
            (p,) = pm.mi_estimates(sigma, dims, pm.SamplerConfig(2 * seed, self.SAMPLES),
                                   ("projective",))
            (q,) = pm.mi_estimates(sigma, dims, pm.SamplerConfig(2 * seed + 1, self.SAMPLES),
                                   ("decomposition",))
            pulls.append((p.mean - q.mean) / np.hypot(p.std_error, q.std_error))
        self.assert_unit_spread(pulls, name)

    def test_product_decomposition_against_zero(self):
        sigma, pulls = product_state(), []
        for seed in self.SEEDS:
            (est,) = pm.mi_estimates(sigma, DIMS33, pm.SamplerConfig(seed, self.SAMPLES),
                                     ("decomposition",))
            pulls.append(est.mean / est.std_error)
        self.assert_unit_spread(pulls, "product decomposition")


def swap_factors(sigma: pm.DensityMatrix, dims: pm.BipartiteDims) -> pm.DensityMatrix:
    """The state with its A and B factors exchanged (dims become (d_b, d_a))."""
    t = sigma.matrix.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    return pm.validate_density(t.transpose(1, 0, 3, 2).reshape(dims.joint, dims.joint))


class TestMiProperties:
    """All three MI estimators on random 3 x 4 states, each pair of runs
    compared within 4 joint standard errors."""

    DIMS = pm.BipartiteDims(3, 4)
    SAMPLES = 20_000
    states = st.builds(lambda rank, seed: pm.mixed_random(12, rank, seed),
                       st.integers(1, 12), st.integers(0, 2**32 - 1))

    def run(self, sigma, dims, seed):
        return pm.mi_estimates(sigma, dims, pm.SamplerConfig(seed, self.SAMPLES))

    @settings(max_examples=8)
    @given(sigma=states)
    def test_swap_symmetry(self, sigma):
        swapped = swap_factors(sigma, self.DIMS)
        flipped = pm.BipartiteDims(self.DIMS.dim_b, self.DIMS.dim_a)
        for a, b in zip(self.run(sigma, self.DIMS, 1), self.run(swapped, flipped, 2)):
            assert agree_within(a, b), a.method

    @settings(max_examples=8)
    @given(sigma=states, seed=st.integers(0, 2**32 - 1))
    def test_local_unitary_invariance(self, sigma, seed):
        rng = np.random.default_rng(seed)
        u = pm.tensor(pm.haar_unitary(3, rng), pm.haar_unitary(4, rng))
        rotated = pm.validate_density(u @ sigma.matrix @ u.conj().T)
        for a, b in zip(self.run(sigma, self.DIMS, 1), self.run(rotated, self.DIMS, 2)):
            assert agree_within(a, b), a.method

    @settings(max_examples=8)
    @given(sigma=states)
    def test_not_negative_beyond_4_se(self, sigma):
        for est in self.run(sigma, self.DIMS, 3):
            assert est.mean > -4 * est.std_error, est.method


class TestMaxentClosedForm:
    def test_values(self):
        assert pm.maxent_mi_closed_form(3) == pytest.approx(
            np.log2(3) + 2 + (2 - 2 * EULER_GAMMA) * LOG2_E, abs=0
        )
        assert pm.maxent_mi_closed_form(3) == pytest.approx(4.8049, abs=1e-4)
        assert pm.maxent_mi_closed_form(4) == pytest.approx(5.2199, abs=1e-4)

    def test_shift_is_dimension_independent(self):
        shifts = {round(pm.maxent_mi_closed_form(d) - np.log2(d), 10) for d in (3, 4, 5, 8)}
        assert len(shifts) == 1

    def test_small_dimension_rejected(self):
        with pytest.raises(BadParameter):
            pm.maxent_mi_closed_form(2)


class TestMiReport:
    def test_ratio_defined_for_maxent(self):
        report = pm.mi_report(pm.maximally_entangled(3), DIMS33, pm.SamplerConfig(1, 50_000))
        assert report.ratio_gaussian_over_projective is not None
        assert np.isfinite(report.ratio_gaussian_over_projective)
        assert report.von_neumann == pytest.approx(2 * np.log2(3), abs=1e-9)

    def test_ratio_undefined_for_product_state(self):
        rng = np.random.default_rng(15)
        sigma, _, _ = random_product_state(3, 3, rng)
        report = pm.mi_report(sigma, DIMS33, pm.SamplerConfig(1, 20_000))
        assert report.ratio_gaussian_over_projective is None

    def test_reproducible(self):
        sigma = pm.maximally_entangled(3)
        a = pm.mi_report(sigma, DIMS33, pm.SamplerConfig(7, 20_000))
        b = pm.mi_report(sigma, DIMS33, pm.SamplerConfig(7, 20_000))
        assert a.projective == b.projective
        assert a.gaussian == b.gaussian

    @pytest.mark.parametrize("sigma, dims", [
        (pm.maximally_entangled(3), DIMS33),
        (pm.mixed_random(12, 12, 7), pm.BipartiteDims(3, 4)),
    ], ids=["maxent3x3", "mixed3x4"])
    def test_entries_are_the_standalone_estimators(self, sigma, dims):
        # One fused pass at cfg itself yields both estimators.
        cfg = pm.SamplerConfig(5, 20_000)
        report = pm.mi_report(sigma, dims, cfg)
        assert report.projective == pm.classical_like_mi_projective(sigma, dims, cfg)
        assert report.gaussian == pm.classical_like_mi_gaussian(sigma, dims, cfg)

    @pytest.mark.parametrize("sigma", [pm.maximally_entangled(3), pm.mixed_random(9, 9, 7)],
                             ids=["maxent3x3", "mixed9x9"])
    def test_ratio_is_four(self, sigma):
        # E[r_x^2 r_y^2] = 4 d_a d_b. The band treats the two estimates as
        # independent; they share their draws and correlate positively, so
        # it is wider than needed.
        report = pm.mi_report(sigma, DIMS33, pm.SamplerConfig(11, 200_000))
        p, g = report.projective, report.gaussian
        ratio = report.ratio_gaussian_over_projective
        rel_se = np.hypot(p.std_error / p.mean, g.std_error / g.mean)
        assert abs(ratio - 4.0) <= 4.0 * ratio * rel_se


class TestOffSupportPairs:
    def test_off_support_pair_contributes_zero(self):
        # On maxent 3x3, x = e_0 and y = e_1 + 4e-8 e_0 give W = 16e-16 / 3
        # |y|^2, at most DENSITY_SUPPORT_EPS: the pair's log-ratio columns
        # are exactly 0, and every column stays finite.
        batch, _ = _mi_integrand(pm.maximally_entangled(3), DIMS33, MI_COLUMNS)
        rng = np.random.default_rng(0)
        xs, ys = (rng.standard_normal((GROUP, 6)).view(complex) for _ in range(2))
        xs[0], ys[0] = [1, 0, 0], [4e-8, 1, 0]
        ix, iy = montecarlo.pair_index(GROUP)
        assert (ix[0], iy[0]) == (0, 0)
        out = batch(xs, ys)
        w = out[0, len(MI_COLUMNS)]  # the first control is W
        assert 0.0 < w <= DENSITY_SUPPORT_EPS
        assert out[0, :2].tolist() == [0.0, 0.0]  # projective, gaussian
        assert np.isfinite(out).all()


class TestMarginalSupportGuard:
    def test_positive_joint_with_vanishing_marginal_raises(self):
        with pytest.raises(MarginalZeroAnomaly, match="sample 4096"):
            check_marginal_support(
                np.array([1e-3]), np.array([0.0]), np.array([0.5]), offset=4096
            )

    def test_run_names_the_absolute_sample(self, monkeypatch):
        # Marginal A (the 9 features of width-3 rows) vanishes at row 4 of
        # the second block: x row 0 of its group 1, whose first pair is the
        # block's pair GROUP^2. Blocks run on worker threads in any order, so
        # the block is recognised by its rows: block k draws its x rows first
        # from substream (seed, k).
        x = pm.substream(1, 1).standard_normal((BLOCK // GROUP, 2 * 3)).view(complex)[4]
        row = hermitian_features(x[None, :])[:, 0]
        original = LiouvilleDensity.eval_features

        def patched(self, features):
            values = original(self, features)
            if len(features) == 9 and np.allclose(features[:, 4], row, rtol=0, atol=1e-15):
                values[4] = 0.0
            return values

        monkeypatch.setattr(LiouvilleDensity, "eval_features", patched)
        sigma, dims = pm.mixed_random(12, 12, 7), pm.BipartiteDims(3, 4)
        with pytest.raises(MarginalZeroAnomaly, match=f"sample {BLOCK + GROUP**2}$"):
            pm.classical_like_mi_projective(sigma, dims, pm.SamplerConfig(1, 2 * BLOCK))

    def test_zero_joint_passes(self):
        mask = check_marginal_support(
            np.array([0.0, 1e-3]), np.array([0.0, 0.2]), np.array([0.1, 0.4])
        )
        assert mask.tolist() == [False, True]
