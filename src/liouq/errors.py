"""Exception types shared across the package."""


class LiouqError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(LiouqError):
    """Invalid configuration: bad grid coupling, scenario file, or option."""


class DomainError(LiouqError):
    """Inputs outside the mathematical domain of an operation."""


class BoundaryContaminationError(LiouqError):
    """State support reached the periodic boundary during evolution."""

    def __init__(self, step: int, fraction: float, threshold: float):
        self.step = step
        self.fraction = fraction
        self.threshold = threshold
        super().__init__(
            f"boundary tail fraction {fraction:.3e} exceeded threshold "
            f"{threshold:.3e} at step {step}"
        )

