"""Numerical tolerances, collected in one place.

Only two are set per call: the inequality slack ``tau_check`` (CLI
``--tau-check``, default TAU_CHECK) and the Fock truncation budget ``tau``
(CLI ``--tau-trunc``, default TAU_TRUNC).  Every other constant here is
fixed; the package and its tests read it from this module.
"""

# relative symmetry tolerance for covariance input validation
TAU_SYM = 1e-10

# positivity floor for covariance eigenvalues
TAU_PD = 1e-12

# slack on the uncertainty bound nu_min >= 1 for physicality checks
TAU_PHYS = 1e-9

# maximum Fock-space tail mass tolerated by constructors and measures
TAU_TRUNC = 1e-10

# residual tolerance for the transcendental root solve, scaled by max(1, N)
TAU_ROOT = 1e-12

# two-sided tolerance used to flag a bound as saturated
TAU_SAT = 1e-6

# one-sided slack when asserting an inequality holds
TAU_CHECK = 1e-9
