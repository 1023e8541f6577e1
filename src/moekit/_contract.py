"""The input rules of every moekit module: a public entry point checks its inputs once,
with these, and raises its own module's error naming the argument. One rule per kind:
``_int_in`` (an int), ``_number_in`` (a finite number), ``_instance`` (a type),
``_one_of`` (one of a few values), ``_real_array`` (a real-valued array), ``_divisor``
(a divisor of the world) and ``_array_size`` (a shape numpy can allocate).
``ValidationError`` is public as ``gating.ValidationError`` and ``arch.ValidationError``."""

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


def _number_in(name: str, value, positive: bool = False, error=ValidationError):
    """``value``, once it is ``_is_finite`` and >= 0 (> 0 when ``positive``); else ``error``."""
    if not _is_finite(value) or value < 0 or (positive and value == 0):
        raise error(f"{name} must be a finite number {'> 0' if positive else '>= 0'}, got {value!r}")
    return value


def _instance(name: str, value, kind, error=ValidationError):
    """``value``, once ``isinstance(value, kind)`` (a type or tuple of types); else ``error``."""
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise error(f"{name} must be a {kinds}, got {type(value).__name__}")
    return value


def _one_of(name: str, value, allowed: tuple, error=ValidationError):
    """``value``, once it equals one of ``allowed`` and has its type; else ``error``."""
    # type() keeps True from matching 1, and 1.0 from 1
    if not any(type(value) is type(a) and value == a for a in allowed):
        raise error(f"{name} must be one of {list(allowed)}, got {value!r}")
    return value


def _real_array(name: str, value, error) -> np.ndarray:
    """``np.asarray(value)``, once it is rectangular and its dtype is bool, int or float
    (complex would drop its imaginary part); else ``error``."""
    try:
        arr = np.asarray(value)
    except ValueError as e:  # numpy's "inhomogeneous shape", for a ragged nested list
        raise error(f"{name} must be a rectangular array, not a ragged list") from e
    if arr.dtype.kind not in "biuf":
        raise error(f"{name} must be real numbers, got dtype {arr.dtype}")
    return arr


def _divisor(name: str, value, world: int, error) -> int:
    """``_int_in(name, value, 1)``, once it divides ``world``; else ``error``."""
    value = _int_in(name, value, 1, error=error)
    if world % value != 0:
        raise error(f"{name} {value} must divide world {world}")
    return value


def _array_size(name: str, shape: tuple[int, ...], error) -> None:
    """``error`` unless every dimension of ``shape`` and its bytes at 8 per item fit intp:
    past that, numpy raises its own ValueError, not MemoryError."""
    if max(*shape, math.prod(shape) * 8) > np.iinfo(np.intp).max:
        raise error(f"{name} of shape {shape} is past numpy's array size")


def _uint(key: np.ndarray, bound: int) -> np.ndarray:
    """``key``, in [0, bound), in the smallest unsigned dtype: numpy radix-sorts 16 bits or fewer."""
    return key.astype(np.min_scalar_type(max(bound - 1, 0)))
