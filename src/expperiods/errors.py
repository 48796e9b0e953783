"""Exception hierarchy shared by all engine modules."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class SpecFormatError(EngineError):
    """A problem-definition file or expression string could not be parsed."""


class DegenerateFamily(EngineError):
    """A defining polynomial of the family vanishes identically in t."""


class PrecisionExhausted(EngineError):
    """Root certification failed at the maximum working precision."""


class AtSingularT(EngineError):
    """Evaluation requested at a parameter value where the data degenerates."""


class RankZero(EngineError):
    """The fiberwise cohomology is zero, so there are no cycles to build."""


class SingularProximity(EngineError):
    """A parameter path passes too close to a certified singular ball."""


class ToleranceNotMet(EngineError):
    """The quadrature budget was exhausted before the requested tolerance."""


class NonDecayingTail(EngineError):
    """An unbounded path end shows no exponential decay where one is required."""
