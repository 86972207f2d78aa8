"""Exception hierarchy shared across the package."""


class OctoweylError(Exception):
    """Base class for all library errors."""


class ValidationError(OctoweylError, ValueError):
    """Invalid user-supplied data (weights, lambda tuples, flags)."""


class InvalidWeights(ValidationError):
    pass


class InvalidLambda(ValidationError):
    pass


class InvalidQuiver(ValidationError):
    """A bound quiver that does not match the star/octopus pattern."""


class NotOctopus(OctoweylError):
    pass


class NotStarVertex(OctoweylError):
    pass


class NotNormTwo(OctoweylError):
    pass


class NotNormOne(OctoweylError):
    pass


class UnknownGenerator(OctoweylError):
    pass


class DeltaNotPreserved(OctoweylError):
    pass


class BudgetExceeded(OctoweylError):
    pass


class MissingGenerator(OctoweylError):
    pass


class DimensionMismatch(OctoweylError):
    pass


class RankMismatch(OctoweylError):
    pass


class IndexOutOfRange(ValidationError):
    """A braid or shift index outside the collection."""


class NotInConeWithinBudget(OctoweylError):
    """Dominance was not reached; outside the cone or out of budget."""

    def __init__(self, steps: int):
        super().__init__(f"no dominant representative within {steps} steps")
        self.steps = steps
