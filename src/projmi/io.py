"""JSON file schemas for states and separable mixtures.

State schema: {"dims": [nA, nB] or [n], "re": row-major n x n array,
"im": row-major n x n array}. Mixture schema: {"weights": [...],
"components": [{"a": <state>, "b": <state>}, ...]} reusing the state schema
per component (component dims may be omitted).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .constants import VALIDATION_TOL
from .errors import BadParameter
from .states import DensityMatrix, SeparableMixture, validate_density


def _fields(data, keys: tuple, label: str) -> tuple:
    """The values of ``keys`` in the JSON object ``data``; BadParameter,
    naming ``label``, if it is not an object or lacks one of them."""
    if not isinstance(data, dict):
        raise BadParameter(f"{label}: expected a JSON object")
    missing = set(keys) - data.keys()
    if missing:
        raise BadParameter(f"{label}: missing keys {sorted(missing)}")
    return tuple(data[key] for key in keys)


def _matrix_from_parts(re, im, label: str) -> np.ndarray:
    try:
        real = np.array(re, dtype=float)
        imag = np.array(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"{label}: 're'/'im' must be numeric arrays") from exc
    if real.ndim != 2 or real.shape[0] != real.shape[1]:
        raise BadParameter(f"{label}: 're' must be a square array, got shape {real.shape}")
    if imag.shape != real.shape:
        raise BadParameter(
            f"{label}: 'im' shape {imag.shape} does not match 're' shape {real.shape}"
        )
    return real + 1j * imag


def state_from_dict(data: dict, *, tol: float = VALIDATION_TOL, label: str = "state"):
    """Parse one state object; returns (DensityMatrix, (dim_a, dim_b) | None)."""
    matrix = _matrix_from_parts(*_fields(data, ("re", "im"), label), label)
    raw = data.get("dims")
    if raw is None:
        return validate_density(matrix, tol=tol), None
    if not isinstance(raw, (list, tuple)) or len(raw) not in (1, 2) or not all(
        type(d) is int and d > 0 for d in raw
    ):
        raise BadParameter(f"{label}: 'dims' must be a list of one or two positive integers")
    if math.prod(raw) != matrix.shape[0]:
        raise BadParameter(
            f"{label}: dims {raw} imply dimension {math.prod(raw)}, matrix is {matrix.shape[0]}"
        )
    return validate_density(matrix, tol=tol), tuple(raw) if len(raw) == 2 else None


def state_to_dict(sigma: DensityMatrix, dims=None) -> dict:
    """The state schema of ``sigma``, with its (dim_a, dim_b) split if given."""
    return {
        "dims": [sigma.dim] if dims is None else [int(d) for d in dims],
        "re": sigma.matrix.real.tolist(),
        "im": sigma.matrix.imag.tolist(),
    }


def load_state(path, *, tol: float = VALIDATION_TOL):
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh), tol=tol, label=str(path))


def save_state(path, sigma: DensityMatrix, dims=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(sigma, dims), fh)


def mixture_from_dict(data: dict, *, tol: float = VALIDATION_TOL) -> SeparableMixture:
    weights, components = _fields(data, ("weights", "components"), "mixture")
    if not isinstance(weights, list) or not isinstance(components, list):
        raise BadParameter("mixture: 'weights' and 'components' must be lists")
    pairs = []
    for i, entry in enumerate(components):
        a, b = _fields(entry, ("a", "b"), f"mixture component {i}")
        pairs.append((state_from_dict(a, tol=tol, label=f"component {i} 'a'")[0],
                      state_from_dict(b, tol=tol, label=f"component {i} 'b'")[0]))
    return SeparableMixture(tuple(weights), tuple(pairs))


def mixture_to_dict(mixture: SeparableMixture) -> dict:
    return {
        "weights": list(mixture.weights),
        "components": [
            {"a": state_to_dict(a), "b": state_to_dict(b)}
            for a, b in mixture.components
        ],
    }


def load_mixture(path, *, tol: float = VALIDATION_TOL) -> SeparableMixture:
    with open(path, "r", encoding="utf-8") as fh:
        return mixture_from_dict(json.load(fh), tol=tol)


def save_mixture(path, mixture: SeparableMixture):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mixture_to_dict(mixture), fh)
