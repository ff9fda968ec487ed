"""Shared numerical tolerances.

Every module pulls its defaults from here so a tolerance is defined once.
"""

# Hermiticity rejection threshold, scaled by Frobenius norm (absolute floor).
HERM_TOL = 1e-12

# Trace-one check for density matrices.
TRACE_TOL = 1e-10

# Eigenvalue negativity allowed before a matrix stops counting as PSD.
PSD_TOL = 1e-10

# Normalization check for state vectors.
NORM_TOL = 1e-12

# Rounding-noise floor (about 9 machine epsilons) for quantities of order
# one that vanish exactly on pure states: 1 - |s|^2 of a Bloch vector, and
# per dimension the eigenvalues inside a fidelity.  At or below it they
# count as zero instead of entering a square root as noise.
ROUNDOFF_TOL = 2e-15

# Relative eigenvalue cutoff used for numerical rank decisions.
RANK_TOL = 1e-9

# Residual allowed when verifying a symmetric-logarithmic-derivative solve.
SLD_RESIDUAL_TOL = 1e-9

# Frame-potential slack below which a candidate certifies as a design.
DESIGN_TOL = 1e-8

# POVM completeness / positivity reporting threshold.
POVM_TOL = 1e-9

# Outcome probabilities at or below this are dropped from Fisher sums.
DROP_THRESHOLD = 1e-12

# A dropped outcome whose probability gradient exceeds this is flagged,
# since the classical Fisher information may then be ill defined.
REGULARITY_DERIV_TOL = 1e-6

# Relative margin within which tr(J^-1 I) counts as equal to its bound.
GM_TOL = 1e-8

# Default tolerance of the command-line certification checks.
VERIFY_TOL = 1e-8

# Relative residual below which a scalar fit I = c*J counts as proportional.
SYMMETRY_TOL = 1e-6
