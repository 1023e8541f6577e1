"""The input rules of every moekit module: a public entry point checks its inputs once,
with these, and raises its own module's error naming the argument. One rule per kind:
``_int_in`` (an int), ``_int_or_null`` (that or None), ``_ints`` (a list of ints),
``_number_in`` (a finite number), ``_instance`` (a type), ``_one_of`` (one of a few
values), ``_real_array`` (a real-valued array), ``_divisor`` (a divisor of the world) and
``_array_size`` (a shape numpy can allocate).

``_checked`` declares each parameter's rule once, beside its dataclass or function; the
CLI's option tables read a key's rule from there and its default from the signature.
``ValidationError`` is public as ``gating.ValidationError`` and ``arch.ValidationError``."""

from __future__ import annotations

import functools
import inspect
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


def _int_or_null(name: str, value, low: int, error=ValidationError) -> int | None:
    """None, or ``_int_in(name, value, low)``."""
    return None if value is None else _int_in(f"{name}, if not null,", value, low, error=error)


def _ints(name: str, value, low: int, error=ValidationError) -> tuple[int, ...]:
    """The entries of a list or tuple, as a tuple, once each passes ``_int_in(..., low)``."""
    entries = _instance(name, value, (list, tuple), error)
    return tuple(_int_in(f"{name} entry", v, low, error=error) for v in entries)


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
        raise error(f"{name} must be a{'n' * (kinds[0] in 'AEIOU')} {kinds}, got {type(value).__name__}")
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


def _checked(error, *sources, **rules):
    """Declare the rules of a dataclass's fields or a function's parameters, ``name=(rule,
    *args)``, into ``owner._declared``; a parameter that a ``source`` owner also declares,
    and is passed on to, takes its rule. In parameter order, ``rule(name, value, *args,
    error=error)`` replaces each value: a dataclass's before its own ``__post_init__``
    (``@dataclass`` goes above), a function's on its bound call, defaults included."""

    def declare(owner):
        signature = None if isinstance(owner, type) else inspect.signature(owner)
        names = list(owner.__annotations__ if signature is None else signature.parameters)
        shared = {name: rule for src in sources for name, rule in src._declared.items() if name in names}
        declared = dict(sorted({**shared, **rules}.items(), key=lambda item: names.index(item[0])))
        checks = [(name, rule, args) for name, (rule, *args) in declared.items()]
        if signature is None:
            own = getattr(owner, "__post_init__", None)

            def __post_init__(self) -> None:
                for name, rule, args in checks:  # object.__setattr__: frozen fields too
                    object.__setattr__(self, name, rule(name, getattr(self, name), *args, error=error))
                if own is not None:
                    own(self)

            owner.__post_init__, checked = __post_init__, owner
        else:

            @functools.wraps(owner)
            def checked(*args, **kwargs):
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                for name, rule, rule_args in checks:
                    call.arguments[name] = rule(name, call.arguments[name], *rule_args, error=error)
                return owner(*call.args, **call.kwargs)

        checked._declared = declared
        return checked

    return declare


def _uint(key: np.ndarray, bound: int) -> np.ndarray:
    """``key``, in [0, bound), in the smallest unsigned dtype: numpy radix-sorts 16 bits or fewer."""
    return key.astype(np.min_scalar_type(max(bound - 1, 0)))
