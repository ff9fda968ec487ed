"""Shared numerical tolerances.

Every module pulls its defaults from here so a tolerance is defined once.
"""

# Hermiticity rejection threshold, scaled by Frobenius norm (absolute floor).
HERM_TOL = 1e-12

# Largest real or imaginary part a checked matrix entry may have.  The
# checks square entries in Frobenius norms, and a square above about
# 1.8e308 overflows a double.
MAX_ENTRY = 1e150

# Trace-one check for density matrices.
TRACE_TOL = 1e-10

# Eigenvalue negativity allowed before a matrix stops counting as PSD.
PSD_TOL = 1e-10

# Eigenvalues within this of zero form the null space of a matrix power:
# small negative ones are clipped, and a negative power skips or rejects them.
NULL_TOL = 1e-12

# Largest |U U^dag - 1|_F, per dimension, of a unitary in a unitary design.
UNITARY_TOL = 1e-10

# Most negative outcome probability accepted as rounding of a zero.
NEG_PROB_TOL = 1e-12

# Smallest eigenvalue of a quantum Fisher matrix that tr(J^-1 I) inverts.
SINGULAR_J_TOL = 1e-10

# Relative eigenvalue floor, against the largest eigenvalue, below which a
# classical Fisher matrix counts as singular in the asymptotic errors.
SINGULAR_I_TOL = 1e-12

# Singular values at or below this do not count toward the rank of the
# Bloch rows of a linear-inversion model.
BLOCH_RANK_TOL = 1e-10

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

# Step of the central differences in the finite-difference Fisher oracle.
# Its truncation error is of order step^2 (1e-8) and its rounding of order
# eps / step (2e-12), both below the 1e-6 at which the oracle is compared
# with the analytic Fisher matrix.
FD_STEP = 1e-4

# Frame-potential slack below which a candidate certifies as a design.
DESIGN_TOL = 1e-8

# Smallest marginal-purity tolerance of the tight-coherent check; a looser
# design tolerance widens it.
TIGHT_PURITY_TOL = 1e-8

# Entries of a state-file eigenvector larger than this in magnitude can fix
# its global phase; the first one does.
PHASE_ANCHOR_TOL = 1e-8

# POVM completeness / positivity reporting threshold.
POVM_TOL = 1e-9

# Largest Bloch radius of a Monte Carlo estimate; keeps Bures distances finite.
INTERIOR_CLIP = 1.0 - 1e-9

# An estimate within this of the clip radius counts as clipped.
CLIP_MARGIN = 1e-12

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

# Gradient norm of the log-likelihood at which a qubit-MLE ascent stops.
MLE_GRAD_TOL = 1e-10
