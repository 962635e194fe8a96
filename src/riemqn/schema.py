"""Strict checks for values read from JSON configs.

A value is checked, never coerced: ``2.7`` is not an integer, ``"false"`` is
not a flag and ``"0.5"`` is not a number.  A check, called as
``check(value, key)``, returns the parsed value or raises ``ConfigError``.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from typing import Any, Callable, Mapping, Optional

from .errors import ConfigError

Check = Callable[[Any, str], Any]


def real(value, key: str) -> float:
    """Any real number except ``bool`` and nan."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and not math.isnan(value):
        return float(value)
    raise ConfigError(f"{key} must be a number, got {value!r}")


def integer(value, key: str) -> int:
    """A Python or numpy integer; not ``bool`` and not a float such as 2.0."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def flag(value, key: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def choice(enum: type[Enum], codes: Optional[Mapping[Enum, str]] = None) -> Check:
    """A member of ``enum``, named by its value or by its short code in ``codes``."""
    names = {member.value: member for member in enum}
    names.update({code: member for member, code in (codes or {}).items()})

    def checked(value, key: str):
        if isinstance(value, str) and value in names:
            return names[value]
        raise ConfigError(f"{key} must be one of {sorted(names)}, got {value!r}")

    return checked


def read_object(data, checks: Mapping[str, Check], what: str, required: bool = False) -> dict:
    """Apply ``checks`` (JSON key -> check) to each key of the JSON object ``data``."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{what} must be an object, got {data!r}")
    unknown = data.keys() - checks.keys()
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    missing = checks.keys() - data.keys() if required else ()
    if missing:
        raise ConfigError(f"{what} missing keys: {sorted(missing)}")
    return {key: checks[key](value, key) for key, value in data.items()}
