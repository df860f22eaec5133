"""Central numeric tolerances used across the package, and the error raised
when a check against one of them fails."""

# Structural identities: orthogonality, hermiticity, normalization, gauge checks.
STRUCT_TOL = 1e-12

# Results of eigen-decompositions, optimizations and operator-identity residuals.
NUM_TOL = 1e-9

# Smallest eigenvalue allowed for a matrix still considered positive semidefinite.
PSD_TOL = 1e-10

# Completeness and marginal defects of a simulating POVM (povm.simulating_povm).
POVM_TOL = 1e-10
# Distance from 1 of a ket's norm (numkit.projector) or a density matrix's trace.
NORM_TOL = 1e-10
# |<a|b>| below which two rays count as orthogonal (quantum.clifton_check).
ORTHO_TOL = 1e-10
# Singular values at or below this do not count toward a rank.
RANK_TOL = 1e-10
# Links of an implication chain: a certain inference's distance from 1, a
# vanishing constraint, and the probability an antecedent needs to have support.
CHAIN_TOL = 1e-10

# Probabilities above this floor are clamped to zero (Born-rule rounding noise).
PROB_FLOOR = -1e-15


class CertificateError(RuntimeError):
    """An operator identity or spectral bound failed its tolerance."""
