"""Exception types shared across the package."""


class NopivotError(Exception):
    """Base class for all package-specific failures."""


class ShapeError(NopivotError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class SizeError(NopivotError, ValueError):
    """Input exceeds a documented size cap for this kernel."""


class SingularMatrixError(NopivotError):
    """A matrix required to be (numerically) nonsingular is not.

    Carries the smallest-singular-value evidence when available.
    """

    def __init__(self, message, sigma_min=None, sigma_max=None, step=None):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        self.step = step


class ZeroPivotError(NopivotError):
    """Elimination without pivoting hit a pivot at or below the threshold."""

    def __init__(self, step, pivot):
        super().__init__(f"zero pivot at elimination step {step} (pivot={pivot!r})")
        self.step = step
        self.pivot = pivot


class SingularPivotBlockError(NopivotError):
    """A pivot block of block elimination is numerically singular."""

    def __init__(self, step, sigma_min=None, sigma_max=None):
        super().__init__(f"numerically singular pivot block at block step {step}")
        self.step = step
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max


class ConvergenceError(NopivotError):
    """An iterative kernel failed to converge within its sweep budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonFiniteSolutionError(NopivotError):
    """A computed solution has an infinite or NaN entry (e.g. overflow in GENP)."""


class GenerationError(NopivotError):
    """A random construction exhausted its retry budget."""
