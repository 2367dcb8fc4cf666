"""The batch kernels against their per-row definitions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import projmi as pm
from projmi import infomeasures
from projmi.errors import DimensionMismatch, NotHermitian
from projmi.montecarlo import pair_index, pair_rows, project_rows
from projmi.projective import quadratic_form

from helpers import split_states


def gaussian_rows(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def unit_rows(rng, m, n):
    z = gaussian_rows(rng, m, n)
    return z / np.linalg.norm(z, axis=1)[:, None]


def explicit_density(sigma, xs):
    """<x|sigma|x> one row at a time."""
    return np.array([np.vdot(x, sigma.matrix @ x).real for x in xs])


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
        rho = pm.liouville_density(sigma)
        rows = unit_rows(rng, 16, n)
        assert rho._factor.shape == (n, rank)
        got = rho.eval_batch(rows)
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got, explicit_density(sigma, rows), rtol=0, atol=1e-14)

    @given(
        dim_a=st.integers(3, 6),
        dim_b=st.integers(3, 6),
        rank_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_form_matches_explicit_at_every_rank(self, dim_a, dim_b, rank_frac, seed):
        # The Gram form's cost does not depend on the rank; its rounding
        # must not either. Rows have norms in [0.5, 1.5], not 1.
        n = dim_a * dim_b
        rank = 1 + int(rank_frac * (n - 1))
        sigma = pm.mixed_random(n, rank, seed)
        rng = np.random.default_rng(seed)
        xs = unit_rows(rng, 16, dim_a) * rng.uniform(0.5, 1.5, (16, 1))
        ys = unit_rows(rng, 16, dim_b) * rng.uniform(0.5, 1.5, (16, 1))
        got = pm.joint_density_eval(sigma, pm.BipartiteDims(dim_a, dim_b)).eval_batch(xs, ys)
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got, explicit_joint(sigma, xs, ys), rtol=0, atol=1e-14)

    def test_factor_widths_are_checked(self):
        # A swapped 3 x 4 pair has the right joint width 12 and used to pass.
        joint = pm.joint_density_eval(pm.mixed_random(12, 12, 7), pm.BipartiteDims(3, 4))
        rng = np.random.default_rng(5)
        xs, ys = unit_rows(rng, 8, 3), unit_rows(rng, 8, 4)
        for bad in [(ys, xs), (xs, xs), (xs[:, :2], ys), (xs[0], ys[0])]:
            with pytest.raises(DimensionMismatch):
                joint.eval_batch(*bad)


class TestQuadraticForm:
    def test_non_hermitian_matrix_matches_per_row(self):
        # A non-Hermitian complex m tells m from its transpose and conjugate.
        rng = np.random.default_rng(6)
        m = gaussian_rows(rng, 4, 4)
        rows = gaussian_rows(rng, 50, 4)
        expected = np.array([np.vdot(x, m @ x) for x in rows])
        np.testing.assert_allclose(quadratic_form(rows, m), expected, rtol=1e-13, atol=0)


LIOUVILLE_STATES = {
    "pure4": lambda: pm.pure_random(4, 21),
    "rank2_5": lambda: pm.mixed_random(5, 2, 22),
    "full_6": lambda: pm.mixed_random(6, None, 23),
    "maxmixed3": lambda: pm.validate_density(np.eye(3) / 3),
}


class TestLiouvilleDensityKernel:
    @pytest.mark.parametrize("name", sorted(LIOUVILLE_STATES))
    def test_unit_rows_match_explicit(self, name):
        sigma = LIOUVILLE_STATES[name]()
        xs = unit_rows(np.random.default_rng(1), 200, sigma.dim)
        got = pm.liouville_density(sigma).eval_batch(xs)
        np.testing.assert_allclose(got, explicit_density(sigma, xs), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(LIOUVILLE_STATES))
    def test_unnormalised_rows_match_explicit(self, name):
        sigma = LIOUVILLE_STATES[name]()
        xs = gaussian_rows(np.random.default_rng(2), 200, sigma.dim)
        got = pm.liouville_density(sigma).eval_batch(xs)
        scale = np.sum(np.abs(xs) ** 2, axis=1)
        assert np.all(np.abs(got - explicit_density(sigma, xs)) <= 1e-14 * scale)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_factor_width_is_the_rank(self, d):
        marginal = pm.partial_trace(pm.maximally_entangled(d), pm.BipartiteDims(d, d), "A")
        assert pm.liouville_density(marginal)._factor.shape == (d, d)
        assert pm.liouville_density(pm.pure_random(d, 3))._factor.shape == (d, 1)

    def test_width_is_checked(self):
        rho = pm.liouville_density(pm.mixed_random(4, None, 24))
        for bad in [np.ones((2, 3), complex), np.ones(4, complex)]:
            with pytest.raises(DimensionMismatch):
                rho.eval_batch(bad)

    def test_non_hermitian_state_raises(self):
        # Built directly, a DensityMatrix skips validation.
        m = np.diag([0.5, 0.3, 0.2]).astype(complex)
        m[0, 1] = 1e-3
        sigma = pm.DensityMatrix(m)
        with pytest.raises(NotHermitian):
            pm.liouville_density(sigma)
        with pytest.raises(NotHermitian):
            pm.differential_entropy_mu(sigma, pm.SamplerConfig(0, 100))
        joint = pm.DensityMatrix(np.kron(m, np.eye(3) / 3))
        with pytest.raises(NotHermitian):
            pm.joint_density_eval(joint, pm.BipartiteDims(3, 3))


class TestScalarCalls:
    """Each evaluator's scalar call is its batch kernel on one row."""

    def test_liouville(self):
        rng = np.random.default_rng(7)
        rho = pm.liouville_density(pm.mixed_random(5, 3, 25))
        xs = unit_rows(rng, 20, 5)
        batch = rho.eval_batch(xs)
        for x, want in zip(xs, batch):
            assert rho(pm.ProjectivePoint(x)) == pytest.approx(want, rel=1e-14, abs=1e-16)

    def test_observable(self):
        rng = np.random.default_rng(8)
        h = gaussian_rows(rng, 4, 4)
        f = pm.observable_function((h + h.conj().T) / 2)
        xs = unit_rows(rng, 20, 4)
        batch = f.eval_batch(xs)
        for x, want in zip(xs, batch):
            assert f(pm.ProjectivePoint(x)) == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_joint(self):
        rng = np.random.default_rng(9)
        joint = pm.joint_density_eval(pm.mixed_random(12, 5, 26), pm.BipartiteDims(3, 4))
        xs, ys = unit_rows(rng, 20, 3), unit_rows(rng, 20, 4)
        batch = joint.eval_batch(xs, ys)
        for x, y, want in zip(xs, ys, batch):
            got = joint(pm.ProjectivePoint(x), pm.ProjectivePoint(y))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-16)


def test_pure_state_gaussian_term_is_the_overlap(monkeypatch):
    # -u log2 u for u = |<psi|x>|^2 on raw Gaussian rows.
    captured = {}

    def capture(n, cfg, *, batch_f):
        captured["batch_f"] = batch_f
        return pm.MCEstimate(0.0, 0.0, cfg.n_samples, cfg.seed, "gaussian")

    monkeypatch.setattr(infomeasures, "gaussian_expectation", capture)
    psi = pm.project(gaussian_rows(np.random.default_rng(10), 1, 5)[0]).vector
    pm.pure_state_entropy_gaussian(psi, pm.SamplerConfig(0, 100))
    xs = gaussian_rows(np.random.default_rng(11), 200, 5)
    u = np.array([abs(np.vdot(psi, x)) ** 2 for x in xs])
    np.testing.assert_allclose(captured["batch_f"](xs, start=0), -u * np.log2(u), rtol=1e-13, atol=0)


RAY_CASES = [
    (d_a, d_b, kind)
    for d_a, d_b in [(3, 3), (3, 4), (4, 3), (6, 6)]
    for kind in ("rank1", "rank_deficient", "full_rank", "product")
]


class TestRayDensities:
    """The MI integrand reads W, a, b and r_x^2 r_y^2 from one feature pass
    over the raw rows, W and r_x^2 r_y^2 for each crossed pair in group
    order; the per-kernel path normalises the rows first."""

    @staticmethod
    def kernels(sigma, dims):
        return (
            pm.joint_density_eval(sigma, dims),
            pm.liouville_density(pm.partial_trace(sigma, dims, "A")),
            pm.liouville_density(pm.partial_trace(sigma, dims, "B")),
        )

    @pytest.mark.parametrize("d_a, d_b, kind", RAY_CASES)
    def test_matches_the_kernels_on_projected_rows(self, d_a, d_b, kind):
        sigma, dims = split_states(d_a, d_b)[kind], pm.BipartiteDims(d_a, d_b)
        joint, marg_a, marg_b = self.kernels(sigma, dims)
        rng = np.random.default_rng(12)
        xs, ys = gaussian_rows(rng, 500, d_a), gaussian_rows(rng, 500, d_b)
        w, a, b, r2 = infomeasures._ray_densities(joint, marg_a, marg_b, xs, ys)
        units_x, rx2 = project_rows(xs.copy())
        units_y, ry2 = project_rows(ys.copy())
        ix, iy = pair_index(len(xs))
        np.testing.assert_allclose(w, joint.eval_batch(*pair_rows(units_x, units_y)),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(a, marg_a.eval_batch(units_x), rtol=0, atol=1e-14)
        np.testing.assert_allclose(b, marg_b.eval_batch(units_y), rtol=0, atol=1e-14)
        np.testing.assert_allclose(r2, rx2[ix] * ry2[iy], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d_a, d_b, kind", RAY_CASES)
    def test_integrand_columns_are_the_ray_densities(self, d_a, d_b, kind):
        sigma, dims = split_states(d_a, d_b)[kind], pm.BipartiteDims(d_a, d_b)
        batch, _ = infomeasures._mi_integrand(sigma, dims, infomeasures.MI_COLUMNS)
        rng = np.random.default_rng(13)
        xs, ys = gaussian_rows(rng, 500, d_a), gaussian_rows(rng, 500, d_b)
        w, a, b, r2 = infomeasures._ray_densities(*self.kernels(sigma, dims), xs, ys)
        ix, iy = pair_index(len(xs))
        a, b = a[ix], b[iy]
        out = batch(xs, ys)
        projective, gaussian = out[:, 0], out[:, 1]
        controls = out[:, 3:].T
        want = [w, w * w, w * w * w, a, a * a, a * a * a, b, b * b, b * b * b, (w * w) * (w * w)]
        if kind == "rank1":
            # W^k less its mean given x, k! a^k / (d_b)_k, for k = 5, 6.
            k5, k6 = (math.factorial(k) / math.prod(range(d_b, d_b + k)) for k in (5, 6))
            want += [want[9] * w - k5 * (want[5] * want[4]), want[2] * want[2] - k6 * want[5] ** 2]
        for got, expected in zip(controls, want, strict=True):
            assert np.array_equal(got, expected)
        np.testing.assert_allclose(gaussian * dims.joint, projective * r2, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_rank_deficient_marginals_are_never_negative(self, d):
        # A Schmidt-rank-2 pure state: both marginals have rank 2, and rows
        # within 1e-9 of their kernels have densities near 1e-18, where the
        # feature form's rounding (about 1e-16) changes sign.
        rng = np.random.default_rng(d)
        u, v = pm.haar_unitary(d, rng), pm.haar_unitary(d, rng)
        psi = (np.kron(u[:, 0], v[:, 0]) + np.kron(u[:, 1], v[:, 1])) / np.sqrt(2)
        sigma, dims = pm.validate_density(np.outer(psi, psi.conj())), pm.BipartiteDims(d, d)
        joint, marg_a, marg_b = self.kernels(sigma, dims)
        assert marg_a._factor.shape == marg_b._factor.shape == (d, 2)

        def near_kernel(basis):
            rows = gaussian_rows(rng, 4096, d - 2) @ basis[:, 2:].T
            return rows + 1e-9 * gaussian_rows(rng, 4096, d)

        xs, ys = near_kernel(u), near_kernel(v)
        w, a, b, _ = infomeasures._ray_densities(joint, marg_a, marg_b, xs, ys)
        assert np.all(a >= 0.0) and np.all(b >= 0.0) and np.all(w >= 0.0)
        assert a.max() < 1e-14 and b.max() < 1e-14
