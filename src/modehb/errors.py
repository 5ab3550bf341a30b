"""Exception taxonomy shared across the package."""


class ModehbError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ModehbError):
    """Vector length does not match the expected dimensionality."""


class EmptyPopulationError(ModehbError):
    """An operation that needs at least one point received none."""


class UnsupportedDimensionError(ModehbError):
    """Exact hypervolume is only implemented for two objectives."""


class SelectionError(ModehbError):
    """Multi-objective selection received inconsistent inputs."""


class InsufficientParentsError(ModehbError):
    """Mutation needs at least three distinct pool members."""


class LadderError(ModehbError):
    """Fidelity bounds are not a geometric ladder for the given eta."""


class BracketError(ModehbError):
    """Bracket index outside the ladder's valid range."""


class BenchmarkError(ModehbError):
    """Unknown benchmark name or invalid benchmark parameters."""


class OracleError(ModehbError):
    """A benchmark has no closed-form or enumerable true front."""


class NormalizationError(ModehbError):
    """Degenerate objective bounds (min == max)."""


class MetricsError(ModehbError):
    """Invalid metrics request, e.g. attainment level out of range."""


class EvaluationError(ModehbError):
    """An objective evaluation raised; the run is aborted, never skipped."""
