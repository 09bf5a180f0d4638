"""Exception types shared across the package."""


class CsglabError(Exception):
    """Base class for all csglab errors."""


class ParameterViolation(CsglabError):
    """A parameter is outside its documented domain."""


class PathExplosion(CsglabError):
    """A path or profile enumeration exceeded its cap.

    The instance is too large for exhaustive analysis at the requested cap.
    ``what`` names the enumeration that exploded. ``count`` is the offending
    count when it is known exactly (profile products), otherwise None
    (enumeration aborted at cap + 1).
    """

    def __init__(self, what: str, cap: int, count: int | None = None):
        self.cap = cap
        self.count = count
        if count is None:
            super().__init__(f"{what} exceeded the cap of {cap}")
        else:
            super().__init__(f"{what} = {count} exceeds the cap of {cap}")


class SchemeViolation(CsglabError):
    """A share table fails one of the cost-sharing scheme properties."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        detail = "; ".join(v.detail for v in self.violations)
        super().__init__(f"invalid cost-sharing scheme: {detail}")


class MalformedProfile(CsglabError):
    """A strategy is not a simple source-to-sink path for its agent."""


class InfeasibleProfile(CsglabError):
    """A strategy profile overloads some edge beyond its capacity."""


class InfeasibleGame(CsglabError):
    """No feasible strategy profile exists for the instance."""


class InfeasibleFlow(CsglabError):
    """Flow values violate capacity or conservation constraints."""


class NotSeriesParallel(CsglabError):
    """The operation requires a two-terminal series-parallel graph."""


class NotSymmetric(CsglabError):
    """The operation requires all agents to share the global terminals."""


class StepCapExceeded(CsglabError):
    """A dynamics run exceeded its safety step cap (indicates a bug)."""


class SelfCheckFailed(CsglabError):
    """A generated instance failed its built-in arithmetic self-check."""


class GenerationFailed(CsglabError):
    """A random generator could not produce a valid instance."""


class InstanceFormatError(CsglabError):
    """An instance or profile document is malformed."""


class InternalAssertion(CsglabError):
    """An internal invariant failed; this signals an implementation bug."""
