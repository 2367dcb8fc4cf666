"""Tests for the density-matrix substrate and canonical state families."""

from pathlib import Path

import numpy as np
import pytest

import projmi as pm
from projmi import states
from projmi.errors import (
    BadParameter,
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    UnknownFamily,
    ValidationError,
)

from helpers import random_hermitian, random_product_state


class TestValidateDensity:
    def test_maximally_mixed_accepted(self):
        dm = pm.validate_density(np.eye(3) / 3)
        assert dm.dim == 3

    def test_pure_projector_accepted(self):
        dm = pm.validate_density(np.diag([1.0, 0.0, 0.0]))
        assert dm.dim == 3

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive, match="-5"):
            pm.validate_density(np.diag([1.5, -0.5, 0.0]))

    def test_non_hermitian_rejected(self):
        m = np.eye(3, dtype=complex) / 3
        m[0, 1] = 1e-3
        with pytest.raises(NotHermitian, match="1.0"):
            pm.validate_density(m)

    def test_clamped_state_is_a_fixed_point(self):
        # An eigenvalue of -1e-11 is clamped; the rounding-level ones of the
        # rebuilt matrix are not, so validating it again changes no bit.
        u = pm.haar_unitary(3, 5)
        once = pm.validate_density((u * [0.6 + 1e-11, 0.4, -1e-11]) @ u.conj().T)
        assert np.linalg.eigvalsh(once.matrix)[0] > -1e-15
        assert np.array_equal(pm.validate_density(once.matrix).matrix, once.matrix)

    def test_empty_matrix_rejected(self):
        for build in (pm.validate_density, pm.HermitianOperator):
            with pytest.raises(DimensionMismatch, match="non-empty square"):
                build(np.zeros((0, 0)))

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            pm.validate_density(np.eye(3) / 2)

    def test_non_finite_rejected(self):
        m = np.eye(3, dtype=complex) / 3
        m[1, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            pm.validate_density(m)
        with pytest.raises(ValidationError, match="non-finite"):
            pm.HermitianOperator(m)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            pm.validate_density(np.ones((2, 3)))

    def test_tiny_negative_eigenvalue_clamped(self):
        rng = np.random.default_rng(5)
        u = pm.haar_unitary(3, rng)
        eps = 5e-11
        vals = np.array([0.6, 0.4 + eps, -eps])
        m = (u * vals) @ u.conj().T
        dm = pm.validate_density(m)
        assert dm.eigenvalues().min() >= 0.0


class TestTensor:
    def test_identity_blocks(self):
        assert np.allclose(pm.tensor(np.eye(3) / 3, np.eye(3) / 3), np.eye(9) / 9)

    def test_basis_projector_placement(self):
        # |0><0| (x) |1><1| projects onto joint index 0*3 + 1 = 1
        out = pm.tensor(np.diag([1.0, 0, 0]), np.diag([0.0, 1, 0]))
        expected = np.zeros((9, 9))
        expected[1, 1] = 1.0
        assert np.allclose(out, expected)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert np.trace(pm.tensor(a, b)) == pytest.approx(
                np.trace(a) * np.trace(b), abs=1e-12
            )


class TestPartialTrace:
    dims = pm.BipartiteDims(3, 3)

    def test_maxent_reduces_to_maximally_mixed(self):
        for keep in ("A", "B"):
            red = pm.partial_trace(pm.maximally_entangled(3), self.dims, keep)
            assert np.allclose(red.matrix, np.eye(3) / 3, atol=1e-12)

    def test_product_reduces_to_factor(self):
        rng = np.random.default_rng(7)
        joint, sigma_a, sigma_b = random_product_state(3, 3, rng)
        # independent index-sum oracle over explicit components
        t = joint.matrix.reshape(3, 3, 3, 3)
        oracle_a = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for k in range(3):
                oracle_a[i, k] = sum(t[i, j, k, j] for j in range(3))
        red_a = pm.partial_trace(joint, self.dims, "A")
        assert np.allclose(red_a.matrix, oracle_a, atol=1e-12)
        assert np.allclose(red_a.matrix, sigma_a.matrix, atol=1e-12)
        red_b = pm.partial_trace(joint, self.dims, "B")
        assert np.allclose(red_b.matrix, sigma_b.matrix, atol=1e-12)

    def test_diagonal_state_row_sums(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(9))
        table = p.reshape(3, 3)
        red = pm.partial_trace(np.diag(p.astype(complex)), self.dims, "A")
        assert np.allclose(red.matrix, np.diag(table.sum(axis=1)), atol=1e-12)

    def test_trace_preserved(self):
        red = pm.partial_trace(pm.mixed_random(9, 9, 1), self.dims, "B")
        assert np.trace(red.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pm.partial_trace(np.eye(8) / 8, self.dims, "A")

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(BadParameter, match="keep must be 'A' or 'B'"):
            pm.partial_trace(pm.maximally_entangled(3), self.dims, "C")


class TestEntropy:
    def test_pure_state_zero(self):
        assert pm.von_neumann_entropy(pm.basis_pure(3, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_spectrum(self):
        assert pm.von_neumann_entropy(np.eye(3) / 3) == pytest.approx(
            np.log2(3), abs=1e-12
        )

    def test_hand_evaluated_spectrum(self):
        # -(1/2 log 1/2 + 2 * 1/4 log 1/4) = 1/2 + 1 = 1.5 bits
        assert pm.von_neumann_entropy(np.diag([0.5, 0.25, 0.25])) == pytest.approx(
            1.5, abs=1e-12
        )

    def test_range_bound(self):
        s = pm.von_neumann_entropy(pm.mixed_random(4, 4, 9))
        assert 0.0 <= s <= np.log2(4) + 1e-12


class TestVnMutualInformation:
    dims = pm.BipartiteDims(3, 3)

    def test_maximally_entangled(self):
        assert pm.vn_mutual_information(
            pm.maximally_entangled(3), self.dims
        ) == pytest.approx(2 * np.log2(3), abs=1e-9)

    def test_product_state_zero(self):
        rng = np.random.default_rng(11)
        joint, _, _ = random_product_state(3, 3, rng)
        assert abs(pm.vn_mutual_information(joint, self.dims)) <= 1e-9

    def test_classically_correlated(self):
        m = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            m[i * 3 + i, i * 3 + i] = 1 / 3
        assert pm.vn_mutual_information(m, self.dims) == pytest.approx(
            np.log2(3), abs=1e-9
        )

    def test_nonnegative(self):
        for seed in range(5):
            sigma = pm.mixed_random(9, 9, seed)
            assert pm.vn_mutual_information(sigma, self.dims) >= -1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(23)
        sigma = pm.mixed_random(9, 5, rng)
        base = pm.vn_mutual_information(sigma, self.dims)
        for _ in range(3):
            u = pm.tensor(pm.haar_unitary(3, rng), pm.haar_unitary(3, rng))
            rotated = u @ sigma.matrix @ u.conj().T
            assert pm.vn_mutual_information(rotated, self.dims) == pytest.approx(
                base, abs=1e-9
            )


class TestMakeState:
    def test_maxent_reductions(self):
        sigma = pm.make_state("maxent:d=3")
        for keep in ("A", "B"):
            red = pm.partial_trace(sigma, pm.BipartiteDims(3, 3), keep)
            assert np.allclose(red.matrix, np.eye(3) / 3, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_maxent_reduction_entropy(self, d):
        red = pm.partial_trace(
            pm.maximally_entangled(d), pm.BipartiteDims(d, d), "A"
        )
        assert pm.von_neumann_entropy(red) == pytest.approx(np.log2(d), abs=1e-9)

    def test_pure_random_is_rank_one(self):
        sigma = pm.make_state("pure_random:n=4,seed=7")
        vals = sigma.eigenvalues()
        assert np.trace(sigma.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)
        assert (vals[:-1] < 1e-10).all()

    def test_mixed_random_rank_bound(self):
        sigma = pm.make_state("mixed_random:n=3,rank=2,seed=1")
        vals = sigma.eigenvalues()
        assert np.trace(sigma.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert int(np.sum(vals > 1e-12)) <= 2

    def test_deterministic_for_fixed_seed(self):
        a = pm.make_state("mixed_random:n=3,rank=3", seed=9)
        b = pm.make_state("mixed_random:n=3,rank=3", seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("call, subject", [
        (lambda: pm.make_state("pure_random:n=3", seed=-1), "^seed"),
        (lambda: pm.make_state("mixed_random:n=3", seed=-1), "^seed"),
        (lambda: pm.make_state("product:a.n=3,b.n=3", seed=-1), "^seed"),
        (lambda: pm.make_state("product:a.n=3,b.n=3", seed=2**64), "^seed"),
        (lambda: pm.make_state("maxent:d=3", seed=True), "^seed"),
        (lambda: pm.make_state("pure_random:n=3,seed=-1"), "^parameter 'seed'"),
        (lambda: pm.make_state("product:a.n=3,b.n=3,a.seed=-1"), "^parameter 'a.seed'"),
        (lambda: pm.pure_random(3, None), "^seed"),
        (lambda: pm.mixed_random(3, 2, 1.5), "^seed"),
    ], ids=["pure_random", "mixed_random", "product", "product_2^64", "bool", "spec",
            "factor_spec", "none", "float"])
    def test_seed_outside_range_rejected(self, call, subject):
        with pytest.raises(BadParameter, match=subject + r" must be an integer in \[0, 2\^64\)"):
            call()

    def test_spec_seed_overrides_argument(self):
        a = pm.make_state("pure_random:n=3,seed=5", seed=1)
        b = pm.make_state("pure_random:n=3,seed=5", seed=2)
        assert np.array_equal(a.matrix, b.matrix)

    def test_basis_pure(self):
        sigma = pm.make_state("basis_pure:n=3,index=2")
        assert sigma.matrix[2, 2] == pytest.approx(1.0)
        with pytest.raises(BadParameter):
            pm.make_state("basis_pure:n=3,index=3")

    def test_product_family(self):
        sigma = pm.make_state("product:a.n=3,b.n=4", seed=2)
        assert sigma.dim == 12
        assert pm.is_product(sigma, pm.BipartiteDims(3, 4))

    def test_separable_mixture_family(self):
        sigma = pm.make_state("separable_mixture:na=3,nb=3,components=4", seed=3)
        assert sigma.dim == 9

    def test_every_family_validates(self):
        specs = [
            "maxent:d=3",
            "pure_random:n=4,seed=7",
            "mixed_random:n=3,rank=2,seed=1",
            "basis_pure:n=3,index=0",
            "product:a.n=3,b.n=3",
            "separable_mixture:na=3,nb=3,components=2",
        ]
        for spec in specs:
            sigma = pm.make_state(spec, seed=4)
            pm.validate_density(sigma.matrix)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            pm.make_state("squeezed:n=3")

    def test_missing_parameter(self):
        with pytest.raises(BadParameter):
            pm.make_state("maxent")

    @pytest.mark.parametrize("spec, key", [
        ("product:a.n=3,b.n=3,c.n=3", "'c.n'"),
        ("product:a.n=3,b.n=x", "'b.n'"),
        ("product:a.family=maxent,a.d=3,a.d=4,b.n=3", "repeated parameter 'a.d'"),
        ("product:a.n=3,b.n=3,b.seed=18446744073709551616", "'b.seed'"),
    ])
    def test_bad_key_named_as_written(self, spec, key):
        with pytest.raises(BadParameter, match=key):
            pm.make_state(spec)

    def test_spec_seed_overrides_argument_for_product(self):
        base = pm.make_state("product:a.n=3,b.n=3,seed=5", seed=0).matrix
        for seed in (1, 2, 2**64 - 1):
            again = pm.make_state("product:a.n=3,b.n=3,seed=5", seed=seed).matrix
            assert np.array_equal(base, again)
        assert np.array_equal(base, pm.make_state("product:a.n=3,b.n=3", seed=5).matrix)

    @pytest.mark.parametrize("spec, split", [
        ("maxent:d=4", (4, 4)),
        ("product:a.family=maxent,a.d=3,b.n=3", (9, 3)),
        ("product:a.n=2,b.n=3", (2, 3)),
        ("separable_mixture:na=3,nb=4,components=2", (3, 4)),
        ("mixed_random:n=9", None),
    ])
    def test_build_state_split(self, spec, split):
        sigma, got = states.build_state(spec, seed=3)
        assert got == split
        assert np.array_equal(sigma.matrix, pm.make_state(spec, seed=3).matrix)

    def test_bad_dims_rejected(self):
        with pytest.raises(BadParameter):
            pm.BipartiteDims(2, 3)
        with pytest.raises(BadParameter):
            pm.maximally_entangled(2)


class TestSeedScheme:
    """Every stream is a child of SeedSequence(seed): the seeded states draw
    from its own stream, block k of a Monte Carlo run from its spawn child k."""

    SEEDS = (0, 1, 7, 2**32 + 5, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_zero_does_not_replay_the_state_stream(self, seed):
        block = pm.substream(seed, 0).standard_normal(200)
        state = np.random.default_rng(seed).standard_normal(200)
        assert not np.any(block == state)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_k_is_spawn_child_k(self, seed):
        children = np.random.SeedSequence(seed).spawn(3)
        for k, child in enumerate(children):
            expected = np.random.default_rng(child).standard_normal(50)
            assert np.array_equal(pm.substream(seed, k).standard_normal(50), expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_product_draws_a_then_b_from_one_stream(self, seed):
        g = np.random.default_rng(seed)
        a, b = pm.mixed_random(3, 3, g), pm.mixed_random(4, 4, g)
        expected = pm.validate_density(pm.tensor(a, b)).matrix
        assert np.array_equal(pm.make_state("product:a.n=3,b.n=4", seed=seed).matrix, expected)


class TestHermitianOperator:
    def test_accepts_hermitian(self):
        rng = np.random.default_rng(2)
        op = pm.HermitianOperator(random_hermitian(3, rng))
        assert op.dim == 3

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            pm.HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


# make_state matrices at seed 0, recorded before the spec parser was rewritten
# (the product entries again when its factors came to share one stream); the
# parser must still build these states bit for bit.
PINS = Path(__file__).resolve().parent / "data" / "make_state_pins.npz"
PINNED_SPECS = [
    "maxent:d=3",
    "pure_random:n=4,seed=7",
    "mixed_random:n=3,rank=2,seed=1",
    "basis_pure:n=3,index=0",
    "product:a.n=3,b.n=3",
    "separable_mixture:na=3,nb=3,components=4",
    *(f"product:a.n={d},b.n={d}" for d in (4, 5, 6)),
]


@pytest.mark.parametrize("spec", PINNED_SPECS)
def test_make_state_matches_recorded_matrix(spec):
    with np.load(PINS) as pins:
        assert np.array_equal(pm.make_state(spec, 0).matrix, pins[spec])
