"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: DomainError and ConfigError
exit 2, NonconvergenceError exits 4.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration failed validation; message carries the field path."""


class NonconvergenceError(RuntimeError):
    """An adaptive computation exhausted its budget before reaching tolerance."""


class ParseError(ValueError):
    """Expression source could not be parsed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvaluationError(ValueError):
    """Expression evaluation hit an invalid operation (log/sqrt domain, division by zero)."""


def require_positive_finite(name: str, x: float) -> None:
    """Raise DomainError unless 0 < x < inf (NaN fails too)."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {x}")


def require_nonnegative_finite(name: str, x: float) -> None:
    """Raise DomainError unless 0 <= x < inf (NaN fails too)."""
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {x}")
