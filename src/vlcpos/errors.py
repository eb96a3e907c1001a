"""Exception types shared across the package.

All domain violations raise DomainError subclasses so callers can catch one
family; configuration and emission problems have their own types because the
CLI maps them to a different exit code.
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "LedNotAbovePd",
    "OutOfRoom",
    "NonPositivePower",
    "PowerTooHigh",
    "EmptyInput",
    "ParseError",
    "ValidationError",
    "UnsupportedFormat",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical or physical domain of an operation."""


class LedNotAbovePd(DomainError):
    """The LED is not strictly above the PD plane; the link geometry is degenerate."""


class OutOfRoom(DomainError):
    """A generated or supplied point leaves the room's floor rectangle."""


class NonPositivePower(DomainError):
    """A measured power of zero or less cannot be inverted to a distance."""


class PowerTooHigh(DomainError):
    """The measured power exceeds the physical maximum attainable at the LED height."""


class EmptyInput(DomainError):
    """An aggregate operation received no elements."""


class ParseError(ValueError):
    """A configuration line could not be parsed.

    Attributes:
        line: 1-based line number of the offending input line, or None when
            the failure is not tied to a specific line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ValueError):
    """A parsed configuration violates an invariant; the message names it."""


class UnsupportedFormat(ValueError):
    """The requested output format is not one of the supported ones."""
