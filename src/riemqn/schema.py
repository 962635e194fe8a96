"""Strict checks for values read from JSON configs.

A value is checked, never coerced: ``2.7`` is not an integer, ``"false"`` is
not a flag and ``"0.5"`` is not a number.  A check, called as
``check(value, key)``, returns the parsed value or raises ``ConfigError``.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from typing import Any, Callable, Mapping, Sequence

from .errors import ConfigError

Check = Callable[[Any, str], Any]


def real(value, key: str) -> float:
    """Any real number except ``bool`` and nan."""
    if type(value) is float and value == value:  # the common case, without the ABC check
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and not math.isnan(value):
        return float(value)
    raise ConfigError(f"{key} must be a number, got {value!r}")


def integer(value, key: str) -> int:
    """A Python or numpy integer; not ``bool`` and not a float such as 2.0."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def at_least(low: int) -> Check:
    """An ``integer`` of at least ``low``."""
    def checked(value, key: str) -> int:
        got = integer(value, key)
        if got < low:
            raise ConfigError(f"{key} must be at least {low}, got {value!r}")
        return got
    return checked


positive_integer = at_least(1)
nonnegative_integer = at_least(0)


def array_shape(value, key: str) -> tuple[int, ...]:
    """A ``nonnegative_integer`` or a sequence of them, as a tuple."""
    if isinstance(value, Sequence):
        return tuple(nonnegative_integer(s, f"{key}[{i}]") for i, s in enumerate(value))
    return (nonnegative_integer(value, key),)


def flag(value, key: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def choice(enum: type[Enum]) -> Check:
    """A member of ``enum``, named by its value: the one spelling of each member."""
    names = {member.value: member for member in enum}

    def checked(value, key: str):
        if isinstance(value, str) and value in names:
            return names[value]
        raise ConfigError(f"{key} must be one of {sorted(names)}, got {value!r}")

    return checked


def check_fields(obj, checks: Mapping[str, Check]) -> None:
    """Apply ``checks`` (field -> check) to the fields of the frozen dataclass ``obj``."""
    for name, check in checks.items():
        value = getattr(obj, name)
        checked = check(value, name)
        if checked is not value:
            object.__setattr__(obj, name, checked)


def reject_unknown(names: Mapping, accepted: Mapping, what: str) -> None:
    """Raise ``ConfigError`` listing the keys of ``names`` that ``accepted`` lacks, and its keys."""
    unknown = names.keys() - accepted.keys()
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown, key=str)} "
                          f"(accepted: {', '.join(sorted(accepted))})")


def read_object(data, checks: Mapping[str, Check], what: str, required: bool = False) -> dict:
    """Apply ``checks`` (JSON key -> check) to each key of the JSON object ``data``."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{what} must be an object, got {data!r}")
    reject_unknown(data, checks, f"{what} keys")
    missing = checks.keys() - data.keys() if required else ()
    if missing:
        raise ConfigError(f"{what} missing keys: {sorted(missing)}")
    return {key: checks[key](value, key) for key, value in data.items()}
