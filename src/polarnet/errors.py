"""Exception types shared across the pipeline."""

# What reading a missing, unreadable or malformed file raises outside the
# library's own types: a stage, or a command that reads such a file, fails
# (exit 3) with a one-line error instead of a traceback.
INPUT_ERRORS = (OSError, KeyError, ValueError)


class PolarnetError(Exception):
    """Base class for all library errors."""


class EventParseError(PolarnetError):
    """A malformed event line. Carries the line offset so streaming callers
    can log and continue."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"line {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class AnnotationError(PolarnetError):
    """Provider kept returning labels outside the closed label set."""


class TransportError(PolarnetError):
    """Annotation provider unreachable or returned a non-success response."""


class ConfigError(PolarnetError):
    """Invalid pipeline configuration."""


class StageError(PolarnetError):
    """A pipeline stage cannot run; names the offending stage."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"stage '{stage}': {reason}")
        self.stage = stage
        self.reason = reason


class HashMismatchError(StageError):
    """Upstream artifacts changed since their manifest was written."""

    def __init__(self, stage: str, mismatches: list):
        detail = "; ".join(mismatches)
        super().__init__(stage, f"input hash mismatch: {detail}")
        self.mismatches = mismatches
