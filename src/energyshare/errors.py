"""Exception types shared across the package."""


class EnergyShareError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(EnergyShareError):
    """Bad input: every error here but :class:`NonfiniteState`; the command line exits 2."""


class EmptyMarket(ValidationError):
    """No agent records were supplied."""


class NonpositiveCurvature(ValidationError):
    """Some agent has utility curvature q <= 0."""


class NegativeGeneration(ValidationError):
    """Some agent has renewable generation a < 0."""


class NonfiniteInput(ValidationError):
    """An input value is NaN or infinite."""


class DimensionMismatch(ValidationError):
    """A vector or state has the wrong length."""


class NegativeMu(ValidationError):
    """The projected dual state mu is negative where it must not be."""


class InconsistentDual(ValidationError):
    """A candidate price fails the feasibility check of the dual round-trip."""


class ParseError(ValidationError):
    """Configuration document is malformed or contains unknown keys."""


class MissingField(ValidationError):
    """Configuration document lacks a required field."""


class NonfiniteState(EnergyShareError):
    """Numerical integration diverged.

    The partial trajectory recorded before the blow-up is attached so
    callers can flush diagnostics.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
