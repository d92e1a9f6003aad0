"""Exception types shared across the engine."""


class JetvarError(Exception):
    pass


class CyclicSubstitution(JetvarError):
    """A substitution binding's value mentions a bound indeterminate."""


class JetOrderExceeded(JetvarError):
    """An operation needed a jet coordinate beyond the chart's declared order."""


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


class NotInvariant(JetvarError):
    """A Lagrangian declared gauge-invariant has a nonzero Lie derivative."""


class ConfigError(JetvarError):
    """Malformed run configuration."""
