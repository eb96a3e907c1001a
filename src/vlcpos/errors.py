"""Exception types shared across the package.

All domain violations raise DomainError subclasses so callers can catch one
family; configuration problems have their own types because the CLI maps them
to a different exit code, and emit raises UnsupportedFormat. A configuration
error tied to one line carries it only in its message, "line N: ...".
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "LedNotAbovePd",
    "NonPositivePower",
    "PowerTooHigh",
    "ParseError",
    "ValidationError",
    "UnsupportedFormat",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical or physical domain of an operation."""


class LedNotAbovePd(DomainError):
    """The LED is not strictly above the PD plane; the link geometry is degenerate."""


class NonPositivePower(DomainError):
    """A measured power of zero or less cannot be inverted to a distance."""


class PowerTooHigh(DomainError):
    """The measured power exceeds the physical maximum attainable at the LED height."""


class ParseError(ValueError):
    """A configuration line could not be parsed; parse_config names its line."""


class ValidationError(ValueError):
    """A parsed configuration violates an invariant; the message names it."""


class UnsupportedFormat(ValueError):
    """The requested output format is not one of the supported ones."""
