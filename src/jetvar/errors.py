"""Exception types shared across the engine."""


class JetvarError(Exception):
    pass


class TermLimitExceeded(JetvarError):
    """Term expansion grew past the JETVAR_MAX_TERMS cap."""


class AntisymmetryViolation(JetvarError):
    """Structure constants fail c^r_pq = -c^r_qp."""


class JacobiViolation(JetvarError):
    """Structure constants fail the Jacobi identity."""


class NonzeroResidual(JetvarError):
    """A primitive's exterior derivative differs from the form it should equal."""


class SigmaMismatch(JetvarError):
    """d_H of the boundary term disagrees with the Lie derivative of the Lagrangian."""


class ConfigError(JetvarError):
    """Malformed run configuration."""
