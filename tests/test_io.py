"""Tests for the JSON state and mixture file schemas."""

import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import projmi as pm
from projmi import io
from projmi.errors import BadParameter, NotPositive


class TestStateSchema:
    def test_roundtrip_single_system(self, tmp_path):
        sigma = pm.mixed_random(3, 3, 1)
        path = tmp_path / "state.json"
        io.save_state(path, sigma)
        loaded, dims = io.load_state(path)
        assert dims is None
        assert np.allclose(loaded.matrix, sigma.matrix, atol=1e-12)

    def test_roundtrip_bipartite(self, tmp_path):
        sigma = pm.maximally_entangled(3)
        path = tmp_path / "maxent.json"
        io.save_state(path, sigma, pm.BipartiteDims(3, 3))
        loaded, dims = io.load_state(path)
        assert dims == (3, 3)
        assert np.allclose(loaded.matrix, sigma.matrix, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(BadParameter, match="square"):
            io.state_from_dict({"re": [[1.0, 0.0]], "im": [[0.0, 0.0]]})

    def test_rejects_mismatched_parts(self):
        with pytest.raises(BadParameter, match="does not match"):
            io.state_from_dict(
                {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0]]}
            )

    def test_rejects_inconsistent_dims(self):
        eye = np.eye(4) / 4
        data = {"dims": [3, 3], "re": eye.tolist(), "im": (0 * eye).tolist()}
        with pytest.raises(BadParameter, match="dims"):
            io.state_from_dict(data)

    @pytest.mark.parametrize("dims", [[True, 4], [2.0, 2], [2, 2, 1], [], "4", ["2", 2], [4, 0]])
    def test_rejects_malformed_dims(self, dims):
        eye = np.eye(4) / 4
        data = {"dims": dims, "re": eye.tolist(), "im": (0 * eye).tolist()}
        if isinstance(dims, list) and len(dims) in (1, 2):
            bad = next(d for d in dims if type(d) is not int or d < 1)
            text = f"each entry of 'dims' must be an integer >= 1, got {bad!r}"
        else:
            text = "'dims' must be a list of one or two positive integers"
        with pytest.raises(BadParameter, match=f"^state: {re.escape(text)}$"):
            io.state_from_dict(data)

    def test_rejects_missing_keys(self):
        with pytest.raises(BadParameter, match="missing"):
            io.state_from_dict({"re": [[1.0]]})

    def test_rejects_invalid_state(self):
        data = {
            "re": np.diag([1.5, -0.5, 0.0]).tolist(),
            "im": np.zeros((3, 3)).tolist(),
        }
        with pytest.raises(NotPositive):
            io.state_from_dict(data)

    def test_relaxed_tolerance(self):
        m = np.diag([0.5 + 2e-4, 0.5 - 2e-4, 0.0])
        data = {"re": m.real.tolist(), "im": m.imag.tolist()}
        io.state_from_dict(data, tol=1e-3)


class TestMixtureSchema:
    def test_roundtrip(self, tmp_path):
        mixture = pm.random_mixture(3, 3, 2, seed=4)
        path = tmp_path / "mixture.json"
        io.save_mixture(path, mixture)
        loaded = io.load_mixture(path)
        assert loaded.weights == pytest.approx(mixture.weights, abs=1e-15)
        assembled_a = pm.assemble(mixture).matrix
        assembled_b = pm.assemble(loaded).matrix
        assert np.allclose(assembled_a, assembled_b, atol=1e-12)

    def test_rejects_count_mismatch(self, tmp_path):
        mixture = pm.random_mixture(3, 3, 2, seed=4)
        data = io.mixture_to_dict(mixture)
        data["weights"] = data["weights"][:1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(BadParameter, match="weights"):
            io.load_mixture(path)

    def test_rejects_malformed_component(self):
        with pytest.raises(BadParameter, match="component 0"):
            io.mixture_from_dict({"weights": [1.0], "components": [{"a": {}}]})


class TestExactRoundTrips:
    """Saving and loading return the same matrix, split and weights bit for bit.

    The states are validated first, as every state the package builds from a
    file or spec is. A raw ``mixed_random`` matrix GG^dag / tr(GG^dag) is not
    exactly Hermitian in floating point, and loading symmetrises it, so raw
    matrices do not round-trip: 340 of 660 (n = 3..8, every rank, 20 seeds)
    come back changed in the last bits.
    """

    @given(data=st.data(), n=st.integers(3, 8), seed=st.integers(0, 2**32), split=st.booleans())
    def test_state(self, tmp_path_factory, data, n, seed, split):
        rank = data.draw(st.integers(1, n), label="rank")
        sigma = pm.validate_density(pm.mixed_random(n, rank, seed).matrix)
        dims = None
        if split:
            dim_a = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
            dims = (dim_a, n // dim_a)
        path = tmp_path_factory.mktemp("state") / "state.json"
        io.save_state(path, sigma, dims)
        loaded, loaded_dims = io.load_state(path)
        assert np.array_equal(loaded.matrix, sigma.matrix)
        assert loaded_dims == dims

    @given(k=st.integers(1, 5), seed=st.integers(0, 2**32))
    def test_mixture_weights(self, tmp_path_factory, k, seed):
        mixture = pm.random_mixture(3, 4, k, seed=seed)
        path = tmp_path_factory.mktemp("mixture") / "mixture.json"
        io.save_mixture(path, mixture)
        assert io.load_mixture(path).weights == mixture.weights
