"""Tests for the independent quadrature and moment oracles.

The quadrature values are checked against their closed forms first; only
then are the closed forms trusted elsewhere in the suite.
"""

import numpy as np
import pytest

import projmi as pm
from projmi.errors import BadParameter, DimensionMismatch
from projmi.infomeasures import EULER_GAMMA, LOG2_E

import oracles
from helpers import random_hermitian


class TestRadialLogMoment:
    def test_matches_closed_form(self):
        assert abs(oracles.radial_log_moment() - (2 + (2 - 2 * EULER_GAMMA) * LOG2_E)) <= 1e-8

    def test_value(self):
        assert oracles.radial_log_moment() == pytest.approx(3.2199, abs=1e-4)

    def test_negation_is_pure_state_entropy_constant(self):
        assert -oracles.radial_log_moment() == pytest.approx(
            pm.pure_state_entropy_gaussian_constant(), abs=1e-8
        )


class TestBetaPureEntropy:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_quadrature_matches_harmonic_closed_form(self, n):
        assert abs(
            oracles.beta_pure_entropy(n) - oracles.beta_pure_entropy_closed_form(n)
        ) <= 1e-8

    def test_values(self):
        assert oracles.beta_pure_entropy(3) == pytest.approx((11 / 6 - 1) * LOG2_E, abs=1e-8)
        assert oracles.beta_pure_entropy(3) == pytest.approx(1.20225, abs=1e-5)
        assert oracles.beta_pure_entropy(4) == pytest.approx((25 / 12 - 1) * LOG2_E, abs=1e-8)
        assert oracles.beta_pure_entropy(4) == pytest.approx(1.5629, abs=1e-4)

    def test_monotone_in_dimension(self):
        values = [oracles.beta_pure_entropy(n) for n in range(3, 9)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_small_dimension_rejected(self):
        with pytest.raises(BadParameter):
            oracles.beta_pure_entropy(2)


class TestMomentOracles:
    def test_identity_operator(self):
        assert oracles.moment_first(np.eye(3)) == pytest.approx(1.0)
        assert oracles.moment_second(np.eye(3), np.eye(3)) == pytest.approx(1.0)

    def test_diagonal_first_moment(self):
        assert oracles.moment_first(np.diag([1.0, 2.0, 3.0])) == pytest.approx(2.0)

    def test_projector_second_moment(self):
        a = np.diag([1.0, 0.0, 0.0])
        assert oracles.moment_second(a, a) == pytest.approx(1 / 6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            oracles.moment_second(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_monte_carlo(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(4):
            a = random_hermitian(n, rng)
            b = random_hermitian(n, rng)

            def batch(X):
                fa = np.einsum("bi,ij,bj->b", X.conj(), a, X).real
                fb = np.einsum("bi,ij,bj->b", X.conj(), b, X).real
                return fa * fb

            cfg = pm.SamplerConfig(trial, 100_000)
            second = pm.integrate_nu(n, cfg, batch_f=batch)
            assert abs(second.mean - oracles.moment_second(a, b)) <= 4 * second.std_error

            first = pm.integrate_nu(
                n, cfg,
                batch_f=lambda X: np.einsum("bi,ij,bj->b", X.conj(), a, X).real,
            )
            assert abs(first.mean - oracles.moment_first(a)) <= 4 * first.std_error
