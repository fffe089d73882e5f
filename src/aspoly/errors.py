"""Exception taxonomy shared across the package.

Every error raised by library code derives from AspolyError so callers can
catch at one level.  Subclasses also inherit from ValueError where the
failure is an argument problem, which keeps plain-Python callers honest.
"""


class AspolyError(Exception):
    """Base class for all library errors."""


class ShapeError(AspolyError, ValueError):
    """Dimensions or lengths of inputs are inconsistent."""


class DomainError(AspolyError, ValueError):
    """An argument is outside the documented domain."""


class NotAFaceError(AspolyError, ValueError):
    """A vertex set was required to be a face of a complex but is not."""


class PseudomanifoldError(AspolyError, ValueError):
    """A ridge-multiplicity condition failed (ridge in more than two facets)."""


class NotASPError(AspolyError, ValueError):
    """A point configuration has more than one non-simplex facet."""


class RefinementError(AspolyError, ValueError):
    """A supplied triangulation does not match the boundary it must fill."""


class DegeneracyError(AspolyError, RuntimeError):
    """A construction hit a degenerate case it cannot resolve."""


class InvalidMoveError(AspolyError, ValueError):
    """A stacking script selected an illegal facet."""


class UnsupportedRegimeError(AspolyError, ValueError):
    """The requested classification is undefined for these parameters."""


class ShellingError(AspolyError, ValueError):
    """A facet order violates the shelling condition.

    Carries the 1-based step index at which the condition first fails.
    """

    def __init__(self, step: int, reason: str):
        self.step = step
        self.reason = reason
        super().__init__(f"shelling condition fails at step {step}: {reason}")


class ShellingSearchError(AspolyError, RuntimeError):
    """A shelling search found no certificate for its input (inconclusive)."""


class ParameterMismatchError(AspolyError, ValueError):
    """Data disagrees with the parameters it is claimed to have."""


class RankDeficientError(AspolyError, ValueError):
    """A point configuration does not affinely span its ambient space."""


class CapExceededError(AspolyError, ValueError):
    """An input exceeds a safety cap and no override was given."""
