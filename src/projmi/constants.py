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
