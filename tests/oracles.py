"""Independent low-dimensional quadrature and moment oracles.

These validate the Monte Carlo estimators from the outside: they live with
the tests, and nothing in the package imports them, so agreement between
the two routes is evidence, not circularity.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from projmi.constants import EULER_GAMMA, LOG2_E
from projmi.errors import BadParameter, DimensionMismatch, ProjmiError
from projmi.states import matrix_of


class QuadratureNotConverged(ProjmiError):
    """Adaptive quadrature could not reach the requested accuracy."""


_QUAD_ABS_TOL = 1e-10
_QUAD_ACCEPT = 1e-8
# exp(-x^2/2) at x = 40 is below 1e-300, so truncating there loses nothing.
_RADIAL_CUTOFF = 40.0


def radial_log_moment() -> float:
    """Quadrature value of the radial integral
    int_0^inf x^3 log2(x^2) exp(-x^2/2) dx = 2 + (2 - 2 gamma) log2 e."""

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return x**3 * np.log2(x * x) * np.exp(-0.5 * x * x)

    value, err = integrate.quad(
        integrand, 0.0, _RADIAL_CUTOFF, epsabs=_QUAD_ABS_TOL, limit=200
    )
    if err > _QUAD_ACCEPT:
        raise QuadratureNotConverged(f"radial integral error estimate {err:.3e}")
    return float(value)


def radial_log_moment_closed_form() -> float:
    """2 + (2 - 2 gamma) log2 e, about 3.2199."""
    return 2.0 + (2.0 - 2.0 * EULER_GAMMA) * LOG2_E


def beta_pure_entropy(n: int) -> float:
    """Canonical pure-state entropy over the mass-n measure by 1D quadrature.

    Under the invariant probability measure the density value u = tr(sigma p)
    of a pure sigma follows Beta(1, n-1), so the entropy is
    -n int_0^1 u log2(u) (n-1)(1-u)^(n-2) du.
    """
    if n < 3:
        raise BadParameter(f"oracle needs dimension >= 3, got {n}")

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return -n * u * np.log2(u) * (n - 1) * (1.0 - u) ** (n - 2)

    value, err = integrate.quad(integrand, 0.0, 1.0, epsabs=_QUAD_ABS_TOL, limit=200)
    if err > _QUAD_ACCEPT:
        raise QuadratureNotConverged(f"beta entropy error estimate {err:.3e}")
    return float(value)


def beta_pure_entropy_closed_form(n: int) -> float:
    """(H_n - 1) log2 e with H_n the n-th harmonic number."""
    if n < 3:
        raise BadParameter(f"closed form needs dimension >= 3, got {n}")
    harmonic = sum(1.0 / k for k in range(1, n + 1))
    return (harmonic - 1.0) * LOG2_E


def moment_first(a) -> float:
    """E[tr(A p)] over the invariant probability measure: tr(A)/n."""
    m = matrix_of(a)
    return float(np.trace(m).real) / m.shape[0]


def moment_second(a, b) -> float:
    """E[tr(A p) tr(B p)]: (tr(A) tr(B) + tr(AB)) / (n (n+1))."""
    ma = matrix_of(a)
    mb = matrix_of(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"operator shapes {ma.shape} != {mb.shape}")
    n = ma.shape[0]
    return float(
        (np.trace(ma).real * np.trace(mb).real + np.trace(ma @ mb).real) / (n * (n + 1))
    )
