"""Exception types shared across the package."""


class SoftpropError(Exception):
    """Base class for package-specific failures."""


class NotEmbeddableError(SoftpropError, ValueError):
    """A point lies outside every tetrahedron of a mesh."""


class SolverFailure(SoftpropError, RuntimeError):
    """Equilibrium solve did not converge; carries the last residual norm."""

    def __init__(self, message, residual=None, step=None):
        super().__init__(message)
        self.residual = residual
        self.step = step


class DegenerateDataError(SoftpropError, ValueError):
    """A fit has no information for one or more sensors; carries their indices."""

    def __init__(self, message, sensor_indices=()):
        super().__init__(message)
        self.sensor_indices = tuple(sensor_indices)


class NonFiniteError(SoftpropError, ValueError):
    """A network input, output or gradient holds NaN or infinity."""


class TrainingError(SoftpropError, RuntimeError):
    """Training diverged or was given unusable data."""


class OptimizationError(SoftpropError, RuntimeError):
    """Derivative-free optimization could not proceed."""


class MissingArtifactError(SoftpropError, FileNotFoundError):
    """A pipeline stage requires an artifact another subcommand produces."""

    def __init__(self, path, producer):
        super().__init__(
            f"required artifact not found: {path} (produce it with the "
            f"`{producer}` subcommand first)"
        )
        self.path = str(path)
        self.producer = producer
