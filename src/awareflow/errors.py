"""Exception hierarchy shared across the pipeline.

Exit codes used by the CLI map onto these classes; see cli.EXIT_CODES.
"""


class AwareflowError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(AwareflowError):
    """Invalid or infeasible configuration."""


class ParseError(AwareflowError):
    """A record failed schema validation while reading a file; ``line_no``
    is None for a file without lines, such as a column file."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        where = "" if line_no is None else f":{line_no}"
        super().__init__(f"{self.path}{where}: {message}")


class IntegrityError(AwareflowError):
    """Cross-record invariant violated (dangling keys, duplicates, ...)."""

    def __init__(self, message, violations=None):
        self.violations = list(violations or [])
        super().__init__(message)


class MissingArtifactError(AwareflowError):
    """A stage was invoked before a file it reads exists; ``remedy`` says
    what makes it, as in "run `gen` first"."""

    def __init__(self, artifact, remedy):
        self.artifact = str(artifact)
        super().__init__(f"missing artifact {self.artifact!r}: {remedy}")


class CohortError(AwareflowError):
    """A cohort-based statistic was requested for an empty cohort."""


class AnalyticsError(AwareflowError):
    """Ill-posed analytics request (length mismatch, constant vector, ...)."""


class PatternSyntaxError(AwareflowError):
    """Query pattern failed to compile."""

    def __init__(self, pattern, position, message):
        self.pattern = pattern
        self.position = position
        super().__init__(f"pattern {pattern!r}, position {position}: {message}")


class DegenerateOutcomeError(AwareflowError):
    """Regression outcome vector is constant."""


class NumericalError(AwareflowError):
    """Numerical failure that persisted after fallbacks."""
