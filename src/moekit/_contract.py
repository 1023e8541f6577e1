"""The input rules of every moekit module: a public entry point checks its inputs once,
with these, and raises its own module's error. ``ValidationError`` is public as
``gating.ValidationError`` and ``arch.ValidationError``."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


class ValidationError(ValueError):
    """Raised for structurally invalid model and routing descriptions."""


def _is_int(value) -> bool:
    """An int by the index protocol, but not a bool: ``operator.index`` takes it, as it takes
    any int, numpy's, an ``IntEnum`` and any ``__index__`` (a 0-d integer array's) included."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def _as_int(value):
    """What entry points check and store: ``operator.index(value)`` for an int, else ``value``."""
    return operator.index(value) if _is_int(value) else value


def _int_in(name: str, value, low: int, high: int | None = None, error=ValidationError) -> int:
    """The one int rule: ``_as_int(value)``, once it is an int in [low, high] (no upper
    bound for None); else ``error``, naming ``name``."""
    value = _as_int(value)
    if not _is_int(value) or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an int {bound}, got {value!r}")
    return value


def _is_finite(value) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the largest float
        return False


def _uint(key: np.ndarray, bound: int) -> np.ndarray:
    """``key``, in [0, bound), in the smallest unsigned dtype: numpy radix-sorts 16 bits or fewer."""
    return key.astype(np.min_scalar_type(max(bound - 1, 0)))
