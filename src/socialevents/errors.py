"""Exception types shared across the pipeline."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


class ValidationError(EngineError):
    """A decoded record violates a field constraint."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(ValidationError):
    """A line could not be decoded as a record."""


class OrderingError(ValidationError):
    """Frame timestamps are not strictly increasing within a video."""


class DataError(EngineError):
    """Inconsistent intermediate data (e.g. duplicate samples for one person)."""


class ContractError(EngineError):
    """A caller violated an API precondition."""
