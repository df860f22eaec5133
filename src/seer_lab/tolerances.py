"""Central numeric tolerances used across the package, and the error raised
when a check against one of them fails."""

# Structural identities: orthogonality, hermiticity, normalization, gauge checks.
STRUCT_TOL = 1e-12

# Results of eigen-decompositions, optimizations and operator-identity residuals.
NUM_TOL = 1e-9

# Smallest eigenvalue allowed for a matrix still considered positive semidefinite.
PSD_TOL = 1e-10

# Probabilities above this floor are clamped to zero (Born-rule rounding noise).
PROB_FLOOR = -1e-15


class CertificateError(RuntimeError):
    """An operator identity or spectral bound failed its tolerance."""
