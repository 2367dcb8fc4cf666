"""Tests for projective points, densities, frames, the Kaehler structure,
the Segre embedding and unitary flow."""

import numpy as np
import pytest

import projmi as pm
from projmi.errors import (
    BadParameter,
    BaseMismatch,
    DimensionMismatch,
    InvalidFrame,
    UsageError,
    ZeroVector,
)

from helpers import random_hermitian, random_point, random_tangent


class TestProject:
    def test_normalizes(self):
        p = pm.project([2.0, 0.0, 0.0])
        assert np.allclose(p.vector, [1.0, 0.0, 0.0])

    def test_phase_invariance_of_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            theta = rng.uniform(0, 2 * np.pi)
            assert pm.project(x) == pm.project(np.exp(1j * theta) * x)

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.linalg.norm(pm.project(x).vector) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            pm.project(np.zeros(3))

    def test_extreme_entries_are_scaled_first(self):
        # An unscaled norm overflows to inf near 1e200 and underflows to 0
        # near 1e-200.
        assert pm.project(np.array([1e200, 1e200])) == pm.project(np.ones(2))
        with pytest.raises(ZeroVector, match=r"of norm 1\.414e-200$"):
            pm.project(np.array([1e-200, 1e-200]))

    def test_direct_construction_requires_unit_norm(self):
        with pytest.raises(BadParameter):
            pm.ProjectivePoint(np.array([2.0, 0.0, 0.0]))


class TestFsDistance:
    def test_same_point_zero(self):
        # arccos(sqrt(t)) loses half the float digits near t = 1
        p = pm.project([1, 1j, 0])
        assert pm.fs_distance(p, p) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_points_quarter_turn(self):
        p = pm.project([1, 0, 0])
        q = pm.project([0, 1, 0])
        assert pm.fs_distance(p, q) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_overlap_half(self):
        p = pm.project([1, 0, 0])
        q = pm.project([1, 1, 0])
        assert pm.fs_distance(p, q) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p, q, r = (random_point(3, rng) for _ in range(3))
            dpq = pm.fs_distance(p, q)
            assert dpq == pm.fs_distance(q, p)
            assert dpq <= pm.fs_distance(p, r) + pm.fs_distance(r, q) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pm.fs_distance(pm.project([1, 0]), pm.project([1, 0, 0]))

    def test_phase_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        base = pm.fs_distance(pm.project(x), pm.project(y))
        rotated = pm.fs_distance(pm.project(np.exp(0.7j) * x), pm.project(y))
        assert rotated == pytest.approx(base, abs=1e-12)


class TestLiouvilleDensity:
    def test_maximally_mixed_constant(self):
        rho = pm.liouville_density(pm.validate_density(np.eye(3) / 3))
        rng = np.random.default_rng(4)
        for _ in range(5):
            assert rho(random_point(3, rng)) == pytest.approx(1 / 3, abs=1e-12)

    def test_pure_state_at_own_ray(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = pm.project(x)
        rho = pm.liouville_density(pm.validate_density(p.projector()))
        assert rho(p) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_quadratic_form(self):
        rho = pm.liouville_density(pm.validate_density(np.diag([0.5, 0.25, 0.25])))
        p = pm.project(np.ones(3))
        assert rho(p) == pytest.approx(1 / 3, abs=1e-12)

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(6)
        sigma = pm.mixed_random(4, 4, rng)
        rho = pm.liouville_density(sigma)
        pts = [random_point(4, rng) for _ in range(20)]
        batch = rho.eval_batch(np.array([p.vector for p in pts]))
        for value, p in zip(batch, pts):
            assert value == pytest.approx(rho(p), abs=1e-14)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        rho = pm.liouville_density(pm.mixed_random(3, 2, rng))
        for _ in range(50):
            v = rho(random_point(3, rng))
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_frame_sums_to_one(self):
        rng = np.random.default_rng(8)
        sigma = pm.mixed_random(3, 3, rng)
        rho = pm.liouville_density(sigma)
        for _ in range(50):
            frame = pm.random_frame(3, rng)
            assert pm.frame_sum(rho, frame) == pytest.approx(1.0, abs=1e-10)


class TestObservableFunction:
    def test_identity_observable_is_constant_one(self):
        f = pm.observable_function(np.eye(3))
        rng = np.random.default_rng(9)
        for _ in range(5):
            assert f(random_point(3, rng)) == pytest.approx(1.0, abs=1e-12)

    def test_projector_at_basis_point(self):
        f = pm.observable_function(np.diag([1.0, 0.0, 0.0]))
        assert f(pm.project([1, 0, 0])) == pytest.approx(3.0, abs=1e-12)

    def test_frame_sum_equals_trace(self):
        rng = np.random.default_rng(10)
        a = random_hermitian(4, rng)
        f = pm.observable_function(a)
        for _ in range(10):
            frame = pm.random_frame(4, rng)
            assert pm.frame_sum(f, frame) == pytest.approx(
                np.trace(a).real, abs=1e-9
            )

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(11)
        f = pm.observable_function(random_hermitian(3, rng))
        pts = [random_point(3, rng) for _ in range(10)]
        batch = f.eval_batch(np.array([p.vector for p in pts]))
        for value, p in zip(batch, pts):
            assert value == pytest.approx(f(p), abs=1e-12)


class TestFrame:
    def test_constant_function_sums_to_n_times_c(self):
        rng = np.random.default_rng(12)
        frame = pm.random_frame(3, rng)
        assert pm.frame_sum(lambda p: 2.5, frame) == pytest.approx(7.5)

    def test_non_orthogonal_points_rejected(self):
        pts = (pm.project([1, 0, 0]), pm.project([1, 1, 0]), pm.project([0, 0, 1]))
        with pytest.raises(InvalidFrame):
            pm.Frame(pts)

    def test_wrong_count_rejected(self):
        pts = (pm.project([1, 0, 0]), pm.project([0, 1, 0]))
        with pytest.raises(InvalidFrame):
            pm.Frame(pts)

    def test_computational_basis_frame(self):
        pts = tuple(pm.project(np.eye(3)[i]) for i in range(3))
        frame = pm.Frame(pts)
        rho = pm.liouville_density(pm.mixed_random(3, 3, 13))
        assert pm.frame_sum(rho, frame) == pytest.approx(1.0, abs=1e-12)


class TestKaehlerStructure:
    def test_symplectic_antisymmetric(self):
        rng = np.random.default_rng(14)
        for n in (3, 4, 5):
            p = random_point(n, rng)
            for _ in range(10):
                u, v = random_tangent(p, rng), random_tangent(p, rng)
                assert pm.symplectic_form(p, u, u) == pytest.approx(0.0, abs=1e-10)
                assert pm.symplectic_form(p, u, v) == pytest.approx(
                    -pm.symplectic_form(p, v, u), abs=1e-10
                )

    def test_commuting_generators_vanish(self):
        p = pm.project([1, 0, 0])
        u = pm.TangentVector(p, np.diag([1.0, 2.0, 3.0]))
        v = pm.TangentVector(p, np.diag([4.0, 5.0, 6.0]))
        assert pm.symplectic_form(p, u, v) == pytest.approx(0.0, abs=1e-12)

    def test_metric_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(15)
        for n in (3, 4):
            p = random_point(n, rng)
            for _ in range(100):
                u, v = random_tangent(p, rng), random_tangent(p, rng)
                assert pm.fs_metric(p, u, v) == pytest.approx(
                    pm.fs_metric(p, v, u), abs=1e-10
                )
                assert pm.fs_metric(p, u, u) >= -1e-10

    def test_generator_commuting_with_base_gives_zero_tangent(self):
        p = pm.project([1, 0, 0])
        v = pm.TangentVector(p, np.asarray(p.projector()))
        assert np.allclose(v.realized(), 0.0, atol=1e-12)
        assert pm.fs_metric(p, v, v) == pytest.approx(0.0, abs=1e-12)

    def test_complex_structure_squares_to_minus_id(self):
        rng = np.random.default_rng(16)
        for n in (3, 4, 5):
            p = random_point(n, rng)
            for _ in range(10):
                v = random_tangent(p, rng)
                jjv = pm.complex_structure(p, pm.complex_structure(p, v))
                assert np.max(np.abs(jjv.realized() + v.realized())) <= 1e-10

    def test_compatibility_single_consistent_sign(self):
        rng = np.random.default_rng(17)
        sign = None
        for n in (3, 4):
            p = random_point(n, rng)
            for _ in range(25):
                u, v = random_tangent(p, rng), random_tangent(p, rng)
                g = pm.fs_metric(p, u, v)
                omega = pm.symplectic_form(p, u, pm.complex_structure(p, v))
                if sign is None and abs(omega) > 1e-8:
                    sign = 1.0 if g * omega > 0 else -1.0
                assert abs(g - sign * omega) <= 1e-10

    def test_tangent_realized_traceless_hermitian(self):
        rng = np.random.default_rng(18)
        p = random_point(4, rng)
        v = random_tangent(p, rng)
        mat = v.realized()
        assert abs(np.trace(mat)) <= 1e-10
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-10

    def test_base_mismatch_rejected(self):
        rng = np.random.default_rng(19)
        p, q = random_point(3, rng), random_point(3, rng)
        u = random_tangent(p, rng)
        v = random_tangent(q, rng)
        with pytest.raises(BaseMismatch):
            pm.symplectic_form(p, u, v)
        with pytest.raises(BaseMismatch):
            pm.fs_metric(q, u, v)


class TestSegre:
    def test_factorization_identity(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            p, q = random_point(3, rng), random_point(4, rng)
            a, b = random_hermitian(3, rng), random_hermitian(4, rng)
            joint = pm.segre(p, q).projector()
            lhs = np.trace(joint @ pm.tensor(a, b)).real
            rhs = np.trace(p.projector() @ a).real * np.trace(q.projector() @ b).real
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_basis_points_map_to_joint_basis(self):
        e = np.eye(3)
        joint = pm.segre(pm.project(e[1]), pm.project(e[2]))
        assert joint == pm.project(np.eye(9)[1 * 3 + 2])

    def test_density_chases_definition(self):
        rng = np.random.default_rng(21)
        sigma = pm.mixed_random(9, 9, rng)
        rho = pm.liouville_density(sigma)
        p, q = random_point(3, rng), random_point(3, rng)
        xy = np.kron(p.vector, q.vector)
        assert rho(pm.segre(p, q)) == pytest.approx(
            np.vdot(xy, sigma.matrix @ xy).real, abs=1e-12
        )

    def test_injective_on_sampled_pairs(self):
        rng = np.random.default_rng(22)
        pairs = [(random_point(3, rng), random_point(3, rng)) for _ in range(10)]
        for i, (p, q) in enumerate(pairs):
            for j, (r, s) in enumerate(pairs):
                same = pm.segre(p, q) == pm.segre(r, s)
                assert same == (i == j or (p == r and q == s))


class TestSchrodingerFlow:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(23)
        p = random_point(3, rng)
        assert pm.schrodinger_flow(p, random_hermitian(3, rng), 0.0) == p

    def test_identity_hamiltonian_only_rotates_phase(self):
        rng = np.random.default_rng(24)
        p = random_point(3, rng)
        for t in (0.1, 1.0, 10.0):
            assert pm.schrodinger_flow(p, np.eye(3), t) == p

    def test_energy_conserved_along_flow(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            p = random_point(3, rng)
            h = random_hermitian(3, rng)
            f = pm.observable_function(h)
            for t in (0.1, 1.0, 10.0):
                moved = pm.schrodinger_flow(p, h, t)
                assert f(moved) == pytest.approx(f(p), abs=1e-9)
                assert 0.0 <= pm.fs_distance(moved, p) <= np.pi / 2

    def test_phase_invariance(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h = random_hermitian(3, rng)
        a = pm.schrodinger_flow(pm.project(x), h, 2.0)
        b = pm.schrodinger_flow(pm.project(np.exp(1.3j) * x), h, 2.0)
        assert a == b


def _point3():
    return pm.project(np.ones(3))


# Non-finite input, each accepted once: a NaN fails every tolerance test
# silently, since those compare with '>' or '<='.
NON_FINITE = {
    "ProjectivePoint": lambda: pm.ProjectivePoint(np.array([np.nan, 0, 0])),
    "project": lambda: pm.project(np.array([np.inf, 1, 0])),
    "TangentVector": lambda: pm.TangentVector(_point3(), np.full((3, 3), np.nan)),
    "schrodinger_flow": lambda: pm.schrodinger_flow(_point3(), np.eye(3), float("nan")),
    "schrodinger_flow inf": lambda: pm.schrodinger_flow(_point3(), np.eye(3), float("inf")),
}


@pytest.mark.parametrize("site", NON_FINITE)
def test_non_finite_input_is_a_usage_error(site):
    # Each message names the non-finite value or says it is not finite.
    with pytest.raises(UsageError, match="nan|inf|finite"):
        NON_FINITE[site]()


# Malformed input at each check of this module, with the error it raises.
MALFORMED = {
    "point from a matrix": (BadParameter, lambda: pm.ProjectivePoint(np.eye(2))),
    "observable batch width": (
        DimensionMismatch, lambda: pm.observable_function(np.eye(3)).eval_batch(np.ones((2, 4)))),
    "empty frame": (InvalidFrame, lambda: pm.Frame(())),
    "frame of two dimensions": (
        InvalidFrame, lambda: pm.Frame((pm.project(np.ones(2)), pm.project(np.ones(3))))),
    "non-square generator": (DimensionMismatch, lambda: pm.TangentVector(_point3(), np.ones((3, 2)))),
    "generator of another dimension": (
        DimensionMismatch, lambda: pm.TangentVector(_point3(), np.eye(2))),
    "Hamiltonian of another dimension": (
        DimensionMismatch, lambda: pm.schrodinger_flow(_point3(), np.eye(2), 1.0)),
    "vector of norm 1.4e-200": (ZeroVector, lambda: pm.project(np.array([1e-200, 1e-200]))),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_rejected(case):
    error, call = MALFORMED[case]
    with pytest.raises(error):
        call()
