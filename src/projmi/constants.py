"""Shared numeric constants and tolerance defaults."""

import math

# Euler-Mascheroni constant, fixed 16-digit literal.
EULER_GAMMA = 0.5772156649015329

# All logarithms are base 2; natural-log intermediates convert through this.
LOG2_E = math.log2(math.e)

# Validation ladder: matrix invariants at 1e-10.
VALIDATION_TOL = 1e-10

# Densities at or below this value contribute zero to entropy-style integrands.
DENSITY_SUPPORT_EPS = 1e-15

# A Monte Carlo control whose sample SD is at most this fraction of its |mean|
# is constant up to rounding (a unit-row quadratic form of I/d varies by about
# 1e-16 relative) and is not regressed on.
CONSTANT_CONTROL_RSD = 1e-12
